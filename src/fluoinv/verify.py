"""Property battery: runnable checks of the model's structural guarantees.

Each check exercises one provable property of the discrete system --
positivity and bounds of the fields, monotonicity of the fixed-point map,
monotone convergence of the clean-data iteration, the energy estimate, and
the Lipschitz stability bound on a configuration where its hypothesis
holds.  The checks are exact consequences of the M-matrix structure (up to
roundoff and the stated tolerances), so a failure indicates a broken
discretization or deliberately violated hypotheses, not loose constants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forward import solve_emission, solve_excitation, terminal_data
from .grid import Grid, GridFunction
from .inverse import (
    InverseConfig,
    fixed_point_map,
    fixed_point_solve,
    stability_constants,
)
from .metrics import l2_norm
from .presets import example2_problem, smooth_source, stability_problem

__all__ = ["CheckResult", "run_battery", "BATTERY_CHECKS"]

BATTERY_CHECKS = [
    "field-positivity",
    "excitation-floor",
    "derivative-bounds",
    "map-monotonicity",
    "iterate-monotonicity",
    "clean-recovery-error",
    "energy-estimate",
    "stability-hypothesis",
    "stability-inequality",
]


@dataclass
class CheckResult:
    name: str
    passed: bool
    value: float | None
    bound: float | None
    detail: str = ""


def _random_source(rng, grid: Grid, upper: float) -> GridFunction:
    return GridFunction(grid, rng.uniform(0.0, upper, grid.node_count))


def _ordered_pair(rng, grid: Grid, upper: float):
    lo = rng.uniform(0.0, upper, grid.node_count)
    hi = lo + rng.uniform(0.0, 1.0, grid.node_count) * (upper - lo)
    return GridFunction(grid, lo), GridFunction(grid, hi)


def run_battery(grid_cells: int = 32, seed: int = 20250810, tau: float = 0.25,
                flip_boundary: bool = False) -> list[CheckResult]:
    """Run all checks at desk scale and return one result per check."""
    rng = np.random.default_rng(seed)
    grid = Grid(2, grid_cells)
    data = example2_problem(grid, tau=tau, flip_boundary=flip_boundary,
                            check_assumptions=False)
    q_true = smooth_source(grid)
    results: list[CheckResult] = []

    def guarded(name, fn):
        try:
            results.append(fn())
        except Exception as exc:  # a raised guard is a failed check, not a crash
            results.append(CheckResult(name, False, None, None, f"raised: {exc}"))

    # (a) nonnegative fields and the strictly positive terminal excitation floor
    u_e = solve_excitation(data, q_true)
    u_m = solve_emission(data, q_true, u_e)
    g = terminal_data(u_m)
    # the clean forcing pair (-Delta_h g, g) of the fixed-point map
    f = GridFunction(grid, grid.operators(data.beta).pointwise_laplacian(g.values))

    def check_positivity():
        low = min(u_e.levels.min(), u_m.levels.min())
        return CheckResult("field-positivity", low >= -1e-12, low, -1e-12,
                           "min over all nodes/levels of both fields")

    guarded("field-positivity", check_positivity)

    def check_floor():
        sc = stability_constants(data)
        margin = float(terminal_data(u_e).values.min() - sc.m_Q)
        return CheckResult("excitation-floor", sc.m_Q > 0 and margin >= -1e-10,
                           margin, -1e-10,
                           f"min u_e(T) - m_Q with m_Q={sc.m_Q:.6g}")

    guarded("excitation-floor", check_floor)

    # (b) upper bounds by the boundary-data maximum
    def check_derivative_bounds():
        dt = u_e.time_differences()
        d2t = np.diff(dt, axis=0) / data.tau
        worst = max(u_e.levels.max(), dt.max(), d2t.max())
        return CheckResult("derivative-bounds", worst <= data.M_b + 1e-10,
                           float(worst), data.M_b,
                           "max of u_e and its first/second time differences")

    guarded("derivative-bounds", check_derivative_bounds)

    # (c) monotonicity of the fixed-point map on ordered pairs
    def check_map_monotonicity():
        worst = -np.inf
        for _ in range(10):
            qa, qb = _ordered_pair(rng, grid, data.M)
            diff = fixed_point_map(data, qb, f, g) - fixed_point_map(data, qa, f, g)
            worst = max(worst, -diff.min())
        return CheckResult("map-monotonicity", worst <= 1e-10, float(worst), 1e-10,
                           "max over 10 ordered pairs of the negative part of F(q2)-F(q1)")

    guarded("map-monotonicity", check_map_monotonicity)

    # (d) clean-data recovery: increasing iterates converging to the truth
    def run_clean():
        return fixed_point_solve(data, f, g,
                                 InverseConfig(tol=1e-10, max_iter=200, clamp=False))

    state = {}

    def check_iterate_monotonicity():
        q_rec, trace = run_clean()
        state["q_rec"] = q_rec
        worst = -min(trace.step_minima)
        return CheckResult("iterate-monotonicity", worst <= 1e-10, float(worst), 1e-10,
                           f"negative part of the smallest step over {trace.iterations} iterations")

    guarded("iterate-monotonicity", check_iterate_monotonicity)

    def check_clean_error():
        if "q_rec" not in state:
            raise RuntimeError("clean recovery unavailable")
        rel = l2_norm(state["q_rec"] - q_true) / l2_norm(q_true)
        return CheckResult("clean-recovery-error", rel <= 1e-2, float(rel), 1e-2,
                           "relative L2 error against the manufactured source")

    guarded("clean-recovery-error", check_clean_error)

    # (e) energy estimate: terminal sensitivity bounded by sqrt(T) M_b / sqrt(C_p)
    def check_energy():
        c_p = float(data.p.values.min())
        bound = float(np.sqrt(data.T) * data.M_b / np.sqrt(c_p))
        worst = 0.0
        for _ in range(20):
            qa = _random_source(rng, grid, data.M)
            qb = _random_source(rng, grid, data.M)
            num = l2_norm(terminal_data(solve_excitation(data, qa))
                          - terminal_data(solve_excitation(data, qb)))
            den = l2_norm(qa - qb)
            if den > 0:
                worst = max(worst, num / den)
        return CheckResult("energy-estimate", worst <= bound, worst, bound,
                           "max sensitivity ratio over 20 random pairs")

    guarded("energy-estimate", check_energy)

    # (f) Lipschitz stability with its explicit constant, on the dedicated
    # large-absorption configuration
    sgrid = Grid(2, grid_cells)
    sdata = stability_problem(sgrid)

    def check_hypothesis():
        sc = stability_constants(sdata)
        state["sc"] = sc
        return CheckResult("stability-hypothesis", sc.hypothesis_holds,
                           sc.hypothesis_ratio, 1.0,
                           f"sqrt(T) M_b (M+1) / (m_Q sqrt(C_p)), m_Q={sc.m_Q:.4g}")

    guarded("stability-hypothesis", check_hypothesis)

    def check_stability_inequality():
        sc = state.get("sc")
        if sc is None or sc.C is None:
            raise RuntimeError("stability constant undefined (hypothesis violated)")
        ops = sgrid.operators(sdata.beta)
        p_inf = float(np.abs(sdata.p.values).max())
        worst = 0.0
        for _ in range(20):
            qa = _random_source(rng, sgrid, sdata.M)
            qb = _random_source(rng, sgrid, sdata.M)
            ga = terminal_data(solve_emission(sdata, qa, solve_excitation(sdata, qa)))
            gb = terminal_data(solve_emission(sdata, qb, solve_excitation(sdata, qb)))
            dg = ga - gb
            lap = GridFunction(sgrid, ops.pointwise_laplacian(dg.values))
            lhs = l2_norm(qa - qb)
            rhs = sc.C * (l2_norm(lap) + p_inf * l2_norm(dg))
            if rhs > 0:
                worst = max(worst, lhs / rhs)
        return CheckResult("stability-inequality", worst <= 1.0, worst, 1.0,
                           f"max LHS/RHS over 20 random pairs, C={sc.C:.4g}")

    guarded("stability-inequality", check_stability_inequality)

    return results
