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

One application of the map reads the excitation only.  With the step
matrix A_r = W/tau + L + W diag(r), the backward-Euler steps are

    A_{p+q} u_e^k = W u_e^(k-1) / tau + load_k,
    A_p     u_m^k = W u_m^(k-1) / tau + W q u_e^k,

and since A_{p+q} = A_p + W diag(q), their sum is

    A_p (u_e^k + u_m^k) = W (u_e^(k-1) + u_m^(k-1)) / tau + load_k,

the excitation step at q = 0.  From u^0 = 0 the sum is therefore the q = 0
excitation v at every level, and u_m^k = v^k - u_e^k.  The map reads
u_m(T) = v^N - u_e^N and dt u_m(T) = (u_m^N - u_m^(N-1)) / tau, with the
last two levels of v cached on the problem.  ``terminal_excitation`` reads
u_e^N and u_e^(N-1) off one Lanczos process per time component of the
Robin load instead of marching (see ``fluoinv.forward``).  The cost of
one application is one factorization and, per component, one solve plus
one per Lanczos step: on the example2 problems at T/tau = 100 and
LANCZOS_TOL, two components of 22-26 steps, 46-53 solves against a
march's 100.  No history is held.  v comes from the same path at q = 0,
so the emission fields are exactly zero there.  The triple agrees with
the coupled march of ``terminal_fields`` to roundoff: u_e(T) to about
1e-14 relative.

Unclamped (clean data), the iteration is the plain monotone one,
q_(j+1) = F(q_j).  Clamped to [0, M] (fitted data), its rate is linear and
steady, and each step is mixed with the previous one by a secant
(depth-1 Anderson) rule: with F_j = clip(F(q_j), 0, M) and residual
r_j = F_j - q_j,

    q_(j+1) = clip(F_j - gamma (F_j - F_(j-1)), 0, M),
    gamma   = <r_j - r_(j-1), r_j> / <r_j - r_(j-1), r_j - r_(j-1)>,

in the lumped-mass inner product (Anderson, J. ACM 12 (1965) 547-560;
Walker and Ni, SIAM J. Numer. Anal. 49 (2011) 1715-1735).  The first step,
and any step whose residual did not fall, is the plain step q_(j+1) = F_j.
Both iterations stop once ||r_j||_L2 falls below FIXED_POINT_TOL and
return F_j; for a plain step r_j is the step q_(j+1) - q_j itself.

The clamped iteration also applies the map inexactly while its residual
is large, the forcing-term rule of inexact Newton methods (Eisenstat and
Walker, SIAM J. Sci. Comput. 17 (1996) 16-32): the application at q_j
stops its Lanczos processes at the tolerance

    tol_j = min(FORCING_TERM, max(LANCZOS_TOL, FORCING_TERM ||r_(j-1)|| / ||q_j||)),

L2 norms, and at FORCING_TERM = 1e-4 at the first.  The map then errs by
a few times tol_j relative, far below the residual it perturbs, and the
last applications run at nearly LANCZOS_TOL.  On ``p2 --preset
example2-smooth`` the 8 applications take 266 solves instead of 417,
and the returned q moves by about 1e-11 relative.  The unclamped
iteration passes LANCZOS_TOL throughout, so the monotonicity of its
iterates stays observable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .forward import LANCZOS_TOL, ProblemData, terminal_excitation
from .grid import ConvergenceError, GridFunction
from .metrics import _dot, l2_norm

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


# the iteration stops when the L2 norm of a residual F(q_j) - q_j falls
# below FIXED_POINT_TOL, and raises ConvergenceError after
# FIXED_POINT_MAX_ITER map applications
FIXED_POINT_TOL = 1e-10
FIXED_POINT_MAX_ITER = 200

# the clamped iteration's forcing term: it applies the map at q_j with the
# Lanczos tolerance min(FORCING_TERM, max(LANCZOS_TOL,
# FORCING_TERM ||r_(j-1)|| / ||q_j||)), and FORCING_TERM at the first
FORCING_TERM = 1e-4


@dataclass
class IterationTrace:
    """Per-step diagnostics of a fixed-point run."""

    # r_j = F(q_j) - q_j of the (clamped) map: the step q_{j+1} - q_j of a
    # plain iteration; the iteration stops on its L2 norm
    increments: list[float] = field(default_factory=list)   # ||r_j||_L2
    step_minima: list[float] = field(default_factory=list)  # min_x r_j
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


def _terminal_triple(data: ProblemData, q: GridFunction, tol: float = LANCZOS_TOL):
    """u_e(T), dt u_m(T) and u_m(T) at q from one ``terminal_excitation`` at
    the Lanczos tolerance ``tol``, u_m = v - u_e."""
    ue_N, ue_prev = terminal_excitation(data, q, tol)
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


def _traced_map(data: ProblemData, q: GridFunction, g: GridFunction, forcing: np.ndarray,
                trace: IterationTrace, tol: float) -> GridFunction:
    """The map at q for g, whose forcing is given, at the Lanczos tolerance
    ``tol``, after appending the misfit of u_m(T; q) against g to the trace;
    the triple dies with the call, so the next application does not run
    beside it."""
    ue_T, dtum_T, um_T = _terminal_triple(data, q, tol)
    trace.misfits.append(l2_norm(um_T - g))
    return _guarded_divide(dtum_T.values + forcing, ue_T.values, data.grid)


def _secant_step(F: np.ndarray, r: np.ndarray, F_prev: np.ndarray, r_prev: np.ndarray,
                 data: ProblemData) -> np.ndarray:
    """The depth-1 Anderson iterate clip(F - gamma (F - F_prev), 0, M), gamma
    minimizing ||r - gamma (r - r_prev)|| in the lumped-mass inner product;
    F itself when the residuals do not differ."""
    dr = r - r_prev
    w_dr = data.grid.mass_diag * dr
    dr_dr = _dot(dr, w_dr)
    if dr_dr == 0.0:
        return F
    gamma = _dot(w_dr, r) / dr_dr
    return np.clip(F - gamma * (F - F_prev), 0.0, data.M)


def _clamped_tolerance(trace: IterationTrace, q: GridFunction) -> float:
    """The Lanczos tolerance of the clamped map at q: FORCING_TERM at the
    first application (or at q = 0), else FORCING_TERM ||r_(j-1)|| / ||q||
    kept in [LANCZOS_TOL, FORCING_TERM]."""
    q_norm = l2_norm(q)
    if not trace.increments or not q_norm > 0.0:
        return FORCING_TERM
    return min(FORCING_TERM, max(LANCZOS_TOL, FORCING_TERM * trace.increments[-1] / q_norm))


def fixed_point_solve(data: ProblemData, g: GridFunction, clamp: bool = True):
    """Iterate the map for the terminal field g from the natural initial guess.

    g is the clean terminal observation or the fitted field Sf; the
    iteration starts from ``initial_guess`` and forms its forcing once.
    Per-step misfits in the trace compare the terminal emission field of
    the current iterate against g.  With ``clamp`` (the default, for
    fitted data) the map is projected onto [0, M], since noise can push
    it outside, its steps are secant-mixed and its early applications
    inexact (see the module docstring); without it (clean data) the raw,
    exact map and the monotonicity of its plain iterates are observable,
    and an iterate leaving the admissible set raises PositivityError.  The
    trace records each residual r_j = F(q_j) - q_j.  Returns
    ``(F(q_j), trace)`` once ||r_j||_L2 falls below FIXED_POINT_TOL; after
    FIXED_POINT_MAX_ITER map applications raises ConvergenceError.  Either
    error carries the trace so far.
    """
    forcing = _forcing(data, g)
    trace = IterationTrace()
    try:
        q = initial_guess(data, g)
        if clamp:
            q = GridFunction(data.grid, np.clip(q.values, 0.0, data.M))
        F_prev = r_prev = None
        for _ in range(FIXED_POINT_MAX_ITER):
            if not clamp and q.values.min() < 0.0:
                raise PositivityError(
                    f"iterate left the admissible set (min q = {q.values.min():g}); "
                    "the data violate the sign hypotheses of the unclamped iteration"
                )
            tol = _clamped_tolerance(trace, q) if clamp else LANCZOS_TOL
            F = _traced_map(data, q, g, forcing, trace, tol)
            if clamp:
                F = GridFunction(data.grid, np.clip(F.values, 0.0, data.M))
            r = F - q
            trace.increments.append(l2_norm(r))
            trace.step_minima.append(r.min())
            if trace.increments[-1] < FIXED_POINT_TOL:
                return F, trace
            q = F
            if clamp and r_prev is not None and trace.increments[-1] < trace.increments[-2]:
                q = GridFunction(data.grid, _secant_step(F.values, r.values, F_prev, r_prev,
                                                         data))
            F_prev, r_prev = F.values, r.values
        raise ConvergenceError(
            f"fixed-point iteration, at its step cap FIXED_POINT_MAX_ITER = "
            f"{FIXED_POINT_MAX_ITER}: the last residual F(q) - q was {trace.increments[-1]:g} "
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
    """Compute m_Q (the terminal excitation at q = M, read off the Lanczos
    processes of ``terminal_excitation``), M_b, C_p, and the ratio."""
    v_M, _ = terminal_excitation(data, data.grid.function(np.full(data.grid.node_count, data.M)))
    m_Q = float(v_M.min())
    C_p = float(data.p.values.min())
    if m_Q <= 0 or C_p <= 0:
        return StabilityConstants(m_Q, data.M_b, C_p, np.inf, None)
    ratio = float(np.sqrt(data.T) * data.M_b * (data.M + 1.0) / (m_Q * np.sqrt(C_p)))
    C = float(np.sqrt(C_p) / (m_Q * np.sqrt(C_p) - np.sqrt(data.T) * data.M_b * (data.M + 1.0))) \
        if ratio < 1.0 else None
    return StabilityConstants(m_Q, data.M_b, C_p, ratio, C)
