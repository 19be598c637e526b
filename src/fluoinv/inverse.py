"""Fixed-point recovery of the absorption source from terminal data.

The map iterated here divides the terminal-time equation residual of the
emission field by the terminal excitation field:

    F(q) = (dt u_m(T; q) + f + p Sf) / u_e(T; q).

The forcing pair (f, Sf) is (-Delta_h g, g) for clean terminal data g, or
the pair a scattered-data fit returns when only noisy point samples are
available.  On data produced by the same discrete forward solver the true
source is an exact fixed point, and the iteration from the natural initial
guess increases monotonically toward it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .forward import ProblemData, solve_excitation, terminal_data, terminal_fields
from .grid import GridFunction
from .metrics import l2_norm

__all__ = [
    "InverseConfig",
    "IterationTrace",
    "PositivityError",
    "DomainReport",
    "StabilityConstants",
    "fixed_point_map",
    "initial_guess",
    "fixed_point_solve",
    "check_domain",
    "stability_constants",
]


class PositivityError(RuntimeError):
    """A sign hypothesis failed: nonpositive terminal excitation values
    (dividing by them would be meaningless) or an unclamped iterate leaving
    the admissible set.  Signals bad data, not a numerical failure.
    """


@dataclass
class InverseConfig:
    """Stopping rule and projection behavior of the fixed-point iteration."""

    tol: float = 1e-10          # L2 increment threshold
    max_iter: int = 200
    clamp: bool = True          # project iterates onto [0, M]

    def __post_init__(self):
        if not self.tol > 0:  # also rejects NaN
            raise ValueError(f"tolerance must be positive, got {self.tol}")


@dataclass
class IterationTrace:
    """Per-step diagnostics of a fixed-point run."""

    increments: list[float] = field(default_factory=list)   # ||q_{j+1} - q_j||_L2
    step_minima: list[float] = field(default_factory=list)  # min_x (q_{j+1} - q_j)
    misfits: list[float] = field(default_factory=list)      # ||u_m(T; q_j) - Sf||_L2
    converged: bool = False

    @property
    def iterations(self) -> int:
        return len(self.increments)


def _guarded_divide(numer: np.ndarray, ue_T: np.ndarray, grid) -> GridFunction:
    if ue_T.min() <= 0.0:
        raise PositivityError(
            f"terminal excitation field has nonpositive values (min {ue_T.min():g}); "
            "the fixed-point map is undefined for this data"
        )
    return GridFunction(grid, numer / ue_T)


def _forcing(data: ProblemData, f: GridFunction, sf: GridFunction) -> np.ndarray:
    if f.grid is not data.grid or sf.grid is not data.grid:
        raise ValueError("the forcing pair must live on the problem grid")
    return f.values + data.p.values * sf.values


def fixed_point_map(data: ProblemData, q: GridFunction, f: GridFunction,
                    sf: GridFunction) -> GridFunction:
    """Apply the fixed-point map at q for the forcing pair (f, Sf)."""
    ue_T, dtum_T, _ = terminal_fields(data, q)
    return _guarded_divide(dtum_T.values + _forcing(data, f, sf), ue_T.values, data.grid)


def initial_guess(data: ProblemData, f: GridFunction, sf: GridFunction) -> GridFunction:
    """Starting iterate from one excitation solve at zero source."""
    ue0_T = terminal_data(solve_excitation(data, data.grid.zeros()))
    return _guarded_divide(_forcing(data, f, sf), ue0_T.values, data.grid)


def fixed_point_solve(data: ProblemData, f: GridFunction, sf: GridFunction,
                      cfg: InverseConfig | None = None):
    """Iterate the map for the forcing pair (f, Sf) from the natural initial guess.

    Per-step misfits in the trace compare the terminal emission field of the
    current iterate against Sf.  With ``cfg.clamp`` (the default) iterates
    are projected onto [0, M], since noise can push them outside; without
    it the raw map (and its monotonicity) is observable, and an iterate
    leaving the admissible set raises PositivityError.
    """
    cfg = cfg or InverseConfig()
    forcing = _forcing(data, f, sf)
    q = initial_guess(data, f, sf)
    trace = IterationTrace()
    if cfg.clamp:
        q = GridFunction(data.grid, np.clip(q.values, 0.0, data.M))
    for _ in range(cfg.max_iter):
        if not cfg.clamp and q.values.min() < 0.0:
            raise PositivityError(
                f"iterate left the admissible set (min q = {q.values.min():g}); "
                "the data violate the sign hypotheses -- enable clamping to proceed"
            )
        ue_T, dtum_T, um_T = terminal_fields(data, q)
        trace.misfits.append(l2_norm(um_T - sf))
        q_next = _guarded_divide(dtum_T.values + forcing, ue_T.values, data.grid)
        if cfg.clamp:
            q_next = GridFunction(data.grid, np.clip(q_next.values, 0.0, data.M))
        step = q_next - q
        trace.increments.append(l2_norm(step))
        trace.step_minima.append(step.min())
        q = q_next
        if trace.increments[-1] < cfg.tol:
            trace.converged = True
            break
    return q, trace


@dataclass
class DomainReport:
    """Nodewise admissibility of a candidate source."""

    ok: bool
    upper_violations: np.ndarray   # node indices with q > M
    lower_violations: np.ndarray   # node indices with q < lower envelope
    max_upper_excess: float
    max_lower_deficit: float


def check_domain(data: ProblemData, q: GridFunction, f: GridFunction,
                 sf: GridFunction, slack: float = 1e-10) -> DomainReport:
    """Check M >= q >= (initial guess from (f, Sf)) nodewise, with slack."""
    lower = initial_guess(data, f, sf).values
    qv = q.values
    upper_bad = np.flatnonzero(qv > data.M + slack)
    lower_bad = np.flatnonzero(qv < lower - slack)
    report = DomainReport(
        ok=(upper_bad.size == 0 and lower_bad.size == 0),
        upper_violations=upper_bad,
        lower_violations=lower_bad,
        max_upper_excess=float(max((qv - data.M).max(), 0.0)),
        max_lower_deficit=float(max((lower - qv).max(), 0.0)),
    )
    return report


@dataclass
class StabilityConstants:
    """Discrete surrogates for the constants of the Lipschitz stability bound.

    ``hypothesis_ratio`` is sqrt(T) * M_b * (M + 1) / (m_Q * sqrt(C_p));
    the bound's constant C is only defined when the ratio is below one.
    """

    m_Q: float
    M_b: float
    C_p: float
    hypothesis_ratio: float
    C: float | None

    @property
    def hypothesis_holds(self) -> bool:
        return self.hypothesis_ratio < 1.0


def stability_constants(data: ProblemData) -> StabilityConstants:
    """Compute m_Q (one excitation solve at q = M), M_b, C_p, and the ratio."""
    v_M = solve_excitation(data, data.grid.function(np.full(data.grid.node_count, data.M)))
    m_Q = float(terminal_data(v_M).min())
    C_p = float(data.p.values.min())
    if m_Q <= 0 or C_p <= 0:
        return StabilityConstants(m_Q, data.M_b, C_p, np.inf, None)
    ratio = float(np.sqrt(data.T) * data.M_b * (data.M + 1.0) / (m_Q * np.sqrt(C_p)))
    C = float(np.sqrt(C_p) / (m_Q * np.sqrt(C_p) - np.sqrt(data.T) * data.M_b * (data.M + 1.0))) \
        if ratio < 1.0 else None
    return StabilityConstants(m_Q, data.M_b, C_p, ratio, C)
