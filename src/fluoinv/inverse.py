"""Fixed-point recovery of the absorption source from terminal data.

The map iterated here divides the terminal-time equation residual of the
emission field by the terminal excitation field:

    F(q) = (dt u_m(T; q) - Delta_h g + p g) / u_e(T; q).

The only data it reads is the terminal emission field g: the clean
observation u_m(., T), or the smoothed field Sf a scattered-data fit
returns when only noisy point samples are available.  The forcing
-Delta_h g + p g is formed here, once for the initial guess and once for
the iteration.  On data produced by the same discrete forward solver the
true source is an exact fixed point, and the iteration from the natural
initial guess increases monotonically toward it.

One application of the map marches the excitation only.  With the step
matrix A_r = W/tau + L + W diag(r), the backward-Euler steps are

    A_{p+q} u_e^k = W u_e^(k-1) / tau + load_k,
    A_p     u_m^k = W u_m^(k-1) / tau + W q u_e^k,

and since A_{p+q} = A_p + W diag(q), their sum is

    A_p (u_e^k + u_m^k) = W (u_e^(k-1) + u_m^(k-1)) / tau + load_k,

the excitation step at q = 0.  From u^0 = 0 the sum is therefore the q = 0
excitation v at every level, and u_m^k = v^k - u_e^k.  The map reads
u_m(T) = v^N - u_e^N and dt u_m(T) = (u_m^N - u_m^(N-1)) / tau, with the
last two levels of v cached on the problem: one factorization and T/tau
solves per application, and no history held.  The result agrees with the
coupled march of ``terminal_fields`` to roundoff; u_e(T) is the same bit
for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .forward import ProblemData, terminal_excitation
from .grid import ConvergenceError, GridFunction
from .metrics import l2_norm

__all__ = [
    "IterationTrace",
    "PositivityError",
    "StabilityConstants",
    "fixed_point_map",
    "initial_guess",
    "fixed_point_solve",
    "stability_constants",
]


class PositivityError(RuntimeError):
    """A sign hypothesis failed: nonpositive terminal excitation values
    (dividing by them would be meaningless) or an unclamped iterate leaving
    the admissible set.  Signals bad data, not a numerical failure.

    Raised by ``fixed_point_solve``, it carries in ``trace`` the iterations
    made before it (none if the initial guess failed); elsewhere ``trace``
    is None.
    """

    trace: IterationTrace | None = None


# the iteration stops when an L2 increment falls below FIXED_POINT_TOL, and
# raises ConvergenceError after FIXED_POINT_MAX_ITER steps
FIXED_POINT_TOL = 1e-10
FIXED_POINT_MAX_ITER = 200


@dataclass
class IterationTrace:
    """Per-step diagnostics of a fixed-point run."""

    increments: list[float] = field(default_factory=list)   # ||q_{j+1} - q_j||_L2
    step_minima: list[float] = field(default_factory=list)  # min_x (q_{j+1} - q_j)
    misfits: list[float] = field(default_factory=list)      # ||u_m(T; q_j) - g||_L2

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


def _forcing(data: ProblemData, g: GridFunction) -> np.ndarray:
    if g.grid is not data.grid:
        raise ValueError("the terminal field g must live on the problem grid")
    ops = data.grid.operators(data.beta)
    return ops.pointwise_laplacian(g.values) + data.p.values * g.values


def _terminal_triple(data: ProblemData, q: GridFunction):
    """u_e(T), dt u_m(T) and u_m(T) at q from one excitation march, u_m = v - u_e."""
    ue_N, ue_prev = terminal_excitation(data, q)
    v_N, v_prev = data.zero_source_levels()
    um_N = v_N - ue_N
    um_prev = v_prev - ue_prev
    return (GridFunction(data.grid, ue_N),
            GridFunction(data.grid, (um_N - um_prev) / data.tau),
            GridFunction(data.grid, um_N))


def fixed_point_map(data: ProblemData, q: GridFunction, g: GridFunction) -> GridFunction:
    """Apply the fixed-point map at q for the terminal field g."""
    ue_T, dtum_T, _ = _terminal_triple(data, q)
    return _guarded_divide(dtum_T.values + _forcing(data, g), ue_T.values, data.grid)


def initial_guess(data: ProblemData, g: GridFunction) -> GridFunction:
    """Starting iterate from the terminal excitation field at zero source
    (computed once per problem and cached on it)."""
    return _guarded_divide(_forcing(data, g), data.zero_source_levels()[0], data.grid)


def fixed_point_solve(data: ProblemData, g: GridFunction, clamp: bool = True):
    """Iterate the map for the terminal field g from the natural initial guess.

    g is the clean terminal observation or the fitted field Sf; the
    iteration starts from ``initial_guess`` and forms its forcing once.
    Per-step misfits in the trace compare the terminal emission field of
    the current iterate against g.  With ``clamp`` (the default, for
    fitted data) iterates are projected onto [0, M], since noise can push
    them outside; without it (clean data) the raw map and its monotonicity
    are observable, and an iterate leaving the admissible set raises
    PositivityError.  Returns ``(q, trace)`` once an
    L2 increment falls below FIXED_POINT_TOL; after FIXED_POINT_MAX_ITER
    steps raises ConvergenceError.  Either error carries the trace so far.
    """
    forcing = _forcing(data, g)
    trace = IterationTrace()
    try:
        q = initial_guess(data, g)
        if clamp:
            q = GridFunction(data.grid, np.clip(q.values, 0.0, data.M))
        for _ in range(FIXED_POINT_MAX_ITER):
            if not clamp and q.values.min() < 0.0:
                raise PositivityError(
                    f"iterate left the admissible set (min q = {q.values.min():g}); "
                    "the data violate the sign hypotheses of the unclamped iteration"
                )
            ue_T, dtum_T, um_T = _terminal_triple(data, q)
            trace.misfits.append(l2_norm(um_T - g))
            q_next = _guarded_divide(dtum_T.values + forcing, ue_T.values, data.grid)
            if clamp:
                q_next = GridFunction(data.grid, np.clip(q_next.values, 0.0, data.M))
            step = q_next - q
            trace.increments.append(l2_norm(step))
            trace.step_minima.append(step.min())
            q = q_next
            if trace.increments[-1] < FIXED_POINT_TOL:
                return q, trace
        raise ConvergenceError(
            f"fixed-point iteration, at its step cap FIXED_POINT_MAX_ITER = "
            f"{FIXED_POINT_MAX_ITER}: the last step moved q by {trace.increments[-1]:g} "
            f"in L2, not below FIXED_POINT_TOL = {FIXED_POINT_TOL:g}"
        )
    except (ConvergenceError, PositivityError) as exc:
        exc.trace = trace
        raise


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
    v_M, _ = terminal_excitation(data, data.grid.function(np.full(data.grid.node_count, data.M)))
    m_Q = float(v_M.min())
    C_p = float(data.p.values.min())
    if m_Q <= 0 or C_p <= 0:
        return StabilityConstants(m_Q, data.M_b, C_p, np.inf, None)
    ratio = float(np.sqrt(data.T) * data.M_b * (data.M + 1.0) / (m_Q * np.sqrt(C_p)))
    C = float(np.sqrt(C_p) / (m_Q * np.sqrt(C_p) - np.sqrt(data.T) * data.M_b * (data.M + 1.0))) \
        if ratio < 1.0 else None
    return StabilityConstants(m_Q, data.M_b, C_p, ratio, C)
