"""Time-dependent solvers for the coupled excitation/emission system.

The excitation field is driven through an inhomogeneous Robin condition and
absorbed by ``p + q``; the emission field has homogeneous Robin data and is
sourced by ``q * u_e``.  Both are advanced with backward Euler, which keeps
every step an M-matrix solve and therefore preserves nonnegativity of the
discrete fields exactly -- the property tests rely on that, not on accuracy.

Memory model: no pass holds a history.  One step loop, ``_march``, yields
the excitation levels u^1..u^N one at a time and keeps none of them.
``coupled_levels`` advances the emission march in lockstep with it and
yields the pair of levels, holding two levels per field; the reductions of
the property battery stream over it.  The forward observation,
``terminal_fields``, keeps the last two pairs.  The pass of the fixed-point
map, ``terminal_excitation``, marches the excitation alone and keeps its
last two levels: the map forms the emission levels as u_m = v - u_e from
the q = 0 excitation v, whose last two levels ``ProblemData`` caches.
"""

from __future__ import annotations

import numpy as np

from .grid import Grid, GridFunction

__all__ = [
    "ProblemData",
    "coupled_levels",
    "terminal_excitation",
    "terminal_fields",
    "elliptic_solve",
]


# the most time steps T/tau a problem may take, 1,000 times the presets'
# 100; a problem above it is rejected before its time levels are allocated
MAX_STEPS = 100_000


class ProblemData:
    """Coefficients and run parameters for one forward model.

    Parameters
    ----------
    grid : Grid
    p : GridFunction
        Background absorption; the theory assumes it strictly positive.
    b : callable(coords, t) -> array
        Boundary data evaluated at the boundary-node coordinates (an array
        of shape (n_boundary, dim)) and scalar time t.
    beta : float
        Robin parameter.
    T, tau : float
        Final time and time step; T/tau must be an integer, at most MAX_STEPS.
    M : float
        Upper bound of the admissible source set [0, M].

    On construction it computes the maximum ``M_b`` of b and its first/second
    finite-difference time derivatives over boundary nodes and time levels, and
    ``violations``: one message per violated hypothesis of the theory (p > 0;
    b >= 0, nondecreasing and convex in time, b(T) > 0).  The solvers run on
    such data all the same; the CLI reports the list.
    """

    def __init__(self, grid: Grid, p: GridFunction, b, beta: float, T: float,
                 tau: float, M: float):
        if beta <= 0:
            raise ValueError(f"beta must be positive, got {beta}")
        if M <= 0:
            raise ValueError(f"admissible bound M must be positive, got {M}")
        steps = T / tau
        if not steps < np.inf or round(steps) < 1 \
                or abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
            raise ValueError(f"T/tau = {steps} is not a positive integer number of steps")
        if steps > MAX_STEPS:
            raise ValueError(f"T/tau = {steps:g} steps is above the cap MAX_STEPS = {MAX_STEPS}")
        if p.grid is not grid:
            raise ValueError("p must live on the problem grid")
        self.grid = grid
        self.p = p
        self.beta = float(beta)
        self.T = float(T)
        self.tau = float(tau)
        self.M = float(M)
        self.n_steps = int(round(steps))
        times = np.arange(self.n_steps + 1) * self.tau

        bcoords = grid.coords[grid.boundary_indices]
        with np.errstate(over="ignore", invalid="ignore"):
            self.boundary_values = np.array(
                [np.broadcast_to(np.asarray(b(bcoords, t), dtype=float),
                                 (len(grid.boundary_indices),)).copy()
                 for t in times]
            )
            bv = self.boundary_values
            dtb = np.diff(bv, axis=0) / self.tau
            tau2 = np.float64(self.tau)**2
            d2tb = (bv[2:] - 2.0 * bv[1:-1] + bv[:-2]) / tau2 if len(bv) > 2 \
                else np.zeros((0, bv.shape[1]))
        if not all(np.isfinite(a).all() for a in (tau2, bv, dtb, d2tb)):
            raise ValueError(f"tau^2, the boundary data or its time differences overflow "
                             f"at T = {T:g}, tau = {tau:g}")
        self.M_b = float(max(bv.max(), dtb.max() if dtb.size else 0.0,
                             d2tb.max() if d2tb.size else 0.0, 0.0))
        self._emission_lu = None
        self._zero_source_levels = None
        self.violations = self._violations(bv, dtb, d2tb)

    def _violations(self, bv, dtb, d2tb) -> list[str]:
        """One message per violated sign hypothesis, in a fixed order."""
        found = []
        add = found.append
        if self.p.values.min() <= 0:
            add(f"background absorption must be positive; min p = {self.p.values.min():g}")
        if bv.min() < 0:
            add(f"boundary data takes negative values (min {bv.min():g})")
        if dtb.size and dtb.min() < -1e-12 * max(1.0, self.M_b):
            add(f"boundary data decreases in time (min rate {dtb.min():g})")
        if d2tb.size and d2tb.min() < -1e-9 * max(1.0, self.M_b):
            add(f"boundary data is concave in time (min curvature {d2tb.min():g})")
        if not (bv > 0).any():
            add("boundary data has no positive value")
        if bv[-1].min() <= 0:
            add(f"terminal boundary data is not strictly positive (min {bv[-1].min():g})")
        return found

    def boundary_field(self, k: int) -> np.ndarray:
        """Boundary values at time level k scattered to all nodes."""
        v = np.zeros(self.grid.node_count)
        v[self.grid.boundary_indices] = self.boundary_values[k]
        return v

    def emission_lu(self):
        """Cached factorization of the (q-independent) emission step matrix."""
        if self._emission_lu is None:
            ops = self.grid.operators(self.beta)
            self._emission_lu = ops.step_lu(self.tau, self.p.values)
        return self._emission_lu

    def zero_source_levels(self) -> tuple[np.ndarray, np.ndarray]:
        """Cached last two levels (v^N, v^(N-1)) of the excitation at q = 0.

        At q = 0 the excitation step matrix is the emission step matrix
        (the absorption p + 0 is p bit for bit), so the march reuses the
        cached emission factor and keeps no history.
        """
        if self._zero_source_levels is None:
            self._zero_source_levels = _last_two(
                _march(self, self.emission_lu()), np.zeros(self.grid.node_count))
        return self._zero_source_levels


def _march(data: ProblemData, lu):
    """Backward-Euler loop from u^0 = 0 under the Robin load, yielding u^1, ..., u^N.

    The load is taken fully implicitly, at the new level.  Only the current
    level is held; the caller keeps what it needs.
    """
    ops = data.grid.operators(data.beta)
    u = np.zeros(data.grid.node_count)
    for k in range(1, data.n_steps + 1):
        rhs = data.grid.weights * u / data.tau
        rhs = rhs + ops.load_weights * data.boundary_field(k)
        u = lu.solve(rhs)
        yield u


def _last_two(levels, zero):
    """The last two levels (u^N, u^(N-1)) of a march, with ``zero`` standing
    for level 0; holds no others."""
    before = last = zero
    for u in levels:
        before, last = last, u
    return last, before


def _excitation_march(data: ProblemData, q: GridFunction):
    """The excitation march at source q, after checking q; one factorization.

    Rejects sources with negative entries: the admissible set is [0, M].
    """
    if q.grid is not data.grid:
        raise ValueError("source q must live on the problem grid")
    if q.values.min() < 0:
        raise ValueError(f"source must be nonnegative; min q = {q.values.min():g}")
    lu = data.grid.operators(data.beta).step_lu(data.tau, data.p.values + q.values)
    return _march(data, lu)


def coupled_levels(data: ProblemData, q: GridFunction):
    """Both fields at source q, level by level: yields (u_e^k, u_m^k), k = 1..N.

    The two backward-Euler marches advance in lockstep, and each emission
    step, sourced by q * u_e^k, is taken on the cached emission factor right
    after the excitation step it reads.  q is checked on the call, before
    the first level.  Every yielded array is fresh, so a caller may keep
    any of them; level 0 is zero for both fields and is not yielded.
    """
    excitation = _excitation_march(data, q)
    lu = data.emission_lu()
    w = data.grid.weights

    def lockstep():
        u_m = np.zeros(data.grid.node_count)
        for u_e in excitation:
            rhs = w * u_m / data.tau
            rhs = rhs + w * (q.values * u_e)
            u_m = lu.solve(rhs)
            yield u_e, u_m

    return lockstep()


def terminal_excitation(data: ProblemData, q: GridFunction) -> tuple[np.ndarray, np.ndarray]:
    """The last two excitation levels (u_e^N, u_e^(N-1)) at source q.

    The excitation is marched alone, one factorization and T/tau solves;
    its levels are those of ``coupled_levels``, bit for bit.
    """
    return _last_two(_excitation_march(data, q), np.zeros(data.grid.node_count))


def terminal_fields(data: ProblemData, q: GridFunction):
    """One forward observation: terminal excitation, emission time derivative, emission.

    The last two levels of ``coupled_levels``.  The derivative is the
    backward difference at the final level; with backward Euler it equals
    the discrete equation residual there exactly, so the fixed-point map
    built from it has the manufactured source as an exact fixed point on
    data generated by this solver.

    The fixed-point map gets the same triple from one march, as
    u_m = v - u_e with v the q = 0 excitation.  That agrees with this pass
    only to roundoff, and the truth (``presets.build_truth``) and the
    ``forward`` command keep this one: the benchmark reference values of
    ``rates-source`` were recorded on it, and the fit's outer CG, which
    stops at a relative residual of 1e-10, amplifies a roundoff change of
    the observed field to 1e-7-1e-5 in the rate slopes.
    """
    zero = np.zeros(data.grid.node_count)
    (ue_N, um_N), (_, um_prev) = _last_two(coupled_levels(data, q), (zero, zero))
    return (GridFunction(data.grid, ue_N),
            GridFunction(data.grid, (um_N - um_prev) / data.tau),
            GridFunction(data.grid, um_N))


def elliptic_solve(grid: Grid, beta: float, f: GridFunction) -> GridFunction:
    """Smoothing operator: solve the Robin Poisson problem with source f.

    One solve with the grid's cached factorization of the assembled Laplacian.
    """
    if f.grid is not grid:
        raise ValueError("f must live on the given grid")
    return GridFunction(grid, grid.operators(beta).smooth(f.values))
