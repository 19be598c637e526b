"""Time-dependent solvers for the coupled excitation/emission system.

The excitation field is driven through an inhomogeneous Robin condition and
absorbed by ``p + q``; the emission field has homogeneous Robin data and is
sourced by ``q * u_e``.  Both are advanced with backward Euler, which keeps
every step an M-matrix solve and therefore preserves nonnegativity of the
discrete fields exactly -- the property tests rely on that, not on accuracy.

Two passes read the same scheme.  The reference march, ``coupled_levels``,
advances both fields in lockstep and yields them level by level; the truth,
the ``forward`` command and the property battery read it, and the forward
observation ``terminal_fields`` keeps its last two levels.

The fixed-point map needs only the last two excitation levels, and
``terminal_excitation`` reads them without marching.  With the step matrix
A = W/tau + L + W diag(p + q) and P = A^-1 W / tau, the march
A u^k = W u^(k-1) / tau + l_k from u^0 = 0 gives

    u^N = sum_(k=1..N) P^(N-k) A^-1 l_k,

and P is self-adjoint in the W inner product.  ``ProblemData`` splits the
Robin load once into time components, l_k = sum_j a_j[k] x_j, so each
component adds p_j(P) A^-1 x_j with the polynomial p_j(t) =
sum_k a_j[k] t^(N-k).  One Lanczos process on P in the W inner product,
started from A^-1 x_j, reads it off its tridiagonal T_m as
|A^-1 x_j|_W Q_m p_j(T_m) e_1 (polynomial Krylov evaluation of a matrix
function: Saad, SIAM J. Numer. Anal. 29 (1992) 209-228), and u^(N-1) off
the same process.  Each step is one solve.  The process stops once the
tridiagonal's error estimate beta_m |e_m' y| falls below tol |y| for both
levels' coordinates y (tol is LANCZOS_TOL unless the caller asks for a
looser one), or at a breakdown beta_m = 0, where the space is invariant
and the evaluation exact, or at m = N - 1 steps.  At that cap q_N
completes the basis, and the coordinates on T_N are exact (p_j has degree
N - 1) without a last step: its solve would give only T_N's last diagonal
entry alpha_N, which no polynomial of degree N - 1 in T_N reads, so the
cap takes it as 0.  At LANCZOS_TOL the levels agree with the march's to
roundoff (about 1e-14 relative on the presets); at a looser tol, to a few
times tol.  The cost grows with the rank of the boundary data in time: 2
for example2's (x+y)^2 t + 5, 1 for constant data, 0 for zero data, which
needs no solve.

The factor is of the step matrix in the grid's step ordering,
A[order][:, order] in natural order (``fluoinv.grid``), and the processes
run in those coordinates, so no solve permutes; the levels are put back
in grid order once, at the end.

Memory model: no pass holds a history, and no step factor outlives its
call.  ``coupled_levels`` holds two factors, the excitation and the
emission step, for as long as its march runs, and two levels per field;
``terminal_fields`` keeps the last two pairs.  ``terminal_excitation``
holds one factor per call, a Lanczos basis of m rows for one component at
a time, sized to the steps taken and released before the next component,
and its two result levels.  The grid keeps the step ordering, one index
per node.  The map forms the emission levels as u_m = v - u_e from the
q = 0 excitation v, whose last two levels ``ProblemData`` caches.  No
pass here reads the two factors the grid caches, the Laplacian's and the
H1 Gram matrix's: the fit and the dual-H1 errors do (``fluoinv.grid``).
The ``p2`` command releases both once its fit has returned, so each map
application runs beside its own step factor only, and its err4 factors
H1 again at s = 1.
"""

from __future__ import annotations

import math

import numpy as np

from .grid import Grid, GridFunction
from .metrics import _dot

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

# a row of boundary values whose Gram-Schmidt remainder is below RANK_TOL
# times the largest row norm adds no time component to the Robin load
RANK_TOL = 1e-13

# the Lanczos processes of terminal_excitation stop once the tridiagonal's
# error estimate is below LANCZOS_TOL relative to the coordinates it reads,
# unless the caller passes a looser tolerance
LANCZOS_TOL = 1e-15


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
        self._zero_source_levels = None
        self._load_components = _time_components(bv[1:])
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

    def zero_source_levels(self) -> tuple[np.ndarray, np.ndarray]:
        """Cached ``terminal_excitation`` at q = 0: the last two levels (v^N, v^(N-1))."""
        if self._zero_source_levels is None:
            self._zero_source_levels = terminal_excitation(self, self.grid.zeros())
        return self._zero_source_levels


def _time_components(rows: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Split boundary-value rows b_1..b_N as b_k = sum_j a_j[k] x_j: the pairs (a_j, x_j).

    The x_j come from a rank-revealing Gram-Schmidt over the rows in order,
    two passes per row and pairwise sums, so the split is orthonormal to
    roundoff and does not depend on the BLAS thread count; a row whose
    remainder is below RANK_TOL times the largest row norm adds none.
    Zero data have no component.  Each row enters the sums scaled by the
    power of two that brings its largest entry into [1/2, 1), so squares
    of data as small as 1e-200 do not underflow; the scaling is exact, and
    the split is the one the unscaled sums give wherever those do not
    underflow.
    """
    exponents = [math.frexp(np.abs(row).max())[1] for row in rows]
    scaled = [np.ldexp(row, -e) for row, e in zip(rows, exponents)]
    scale = max(math.ldexp(math.sqrt(_dot(x, x)), e) for x, e in zip(scaled, exponents))
    basis = []
    for x, e in zip(scaled, exponents):
        for _ in range(2):
            for b in basis:
                x -= _dot(b, x) * b
        norm = math.sqrt(_dot(x, x))
        if math.ldexp(norm, e) > RANK_TOL * scale:
            basis.append(x / norm)
    return [(np.array([_dot(x, row) for row in rows]), x) for x in basis]


def _last_two(levels, zero):
    """The last two levels (u^N, u^(N-1)) of a march, with ``zero`` standing
    for level 0; holds no others."""
    before = last = zero
    for u in levels:
        before, last = last, u
    return last, before


def _check_source(data: ProblemData, q: GridFunction) -> None:
    """Rejects a source off the problem grid or with negative entries: the
    admissible set is [0, M]."""
    if q.grid is not data.grid:
        raise ValueError("source q must live on the problem grid")
    if q.values.min() < 0:
        raise ValueError(f"source must be nonnegative; min q = {q.values.min():g}")


def coupled_levels(data: ProblemData, q: GridFunction):
    """Both fields at source q, level by level: yields (u_e^k, u_m^k), k = 1..N.

    The reference march.  The two backward-Euler marches advance in
    lockstep from level 0, taking the Robin load fully implicitly, at the
    new level; each emission step, sourced by q * u_e^k, is taken right
    after the excitation step it reads.  q is checked and both step
    matrices factorized on the call, before the first level: the excitation
    at p + q and the emission at p.  The returned generator alone holds the
    two factors, so they are freed when the march ends or is dropped.
    Every yielded array is fresh, so a caller may keep any of them; level 0
    is zero for both fields and is not yielded.
    """
    _check_source(data, q)
    ops = data.grid.operators(data.beta)
    lu_e = ops.step_lu(data.tau, data.p.values + q.values)
    lu_m = ops.step_lu(data.tau, data.p.values)
    w = data.grid.weights

    def lockstep():
        u_e = u_m = np.zeros(data.grid.node_count)
        for k in range(1, data.n_steps + 1):
            rhs = w * u_e / data.tau
            rhs = rhs + ops.load_weights * data.boundary_field(k)
            u_e = lu_e.solve(rhs)
            rhs = w * u_m / data.tau
            rhs = rhs + w * (q.values * u_e)
            u_m = lu_m.solve(rhs)
            yield u_e, u_m

    return lockstep()


def _tridiagonal_apply(alphas: np.ndarray, betas: np.ndarray, y: np.ndarray) -> np.ndarray:
    """T y for the symmetric tridiagonal T with diagonal alphas and
    off-diagonal betas; y a vector or the columns of an array."""
    if y.ndim == 2:
        alphas, betas = alphas[:, None], betas[:, None]
    z = alphas * y
    z[1:] += betas * y[:-1]
    z[:-1] += betas * y[1:]
    return z


def _polynomial_coordinates(alphas: list, betas: list, a: np.ndarray):
    """y_N = sum_(k=1..N) a_k T^(N-k) e_1 and y_(N-1) = sum_(k<N) a_k T^(N-1-k) e_1.

    T is the tridiagonal of the Lanczos steps taken (alphas, and the betas
    but the last).  y_(N-1) comes by Horner's rule s = isqrt(N - 1) powers
    of T at a time: with the columns T^r e_1 (r < s) and the dense T^s, a
    block of s coefficients is one product with each, so about 2 sqrt(N)
    numpy operations replace Horner's N.  Then y_N = T y_(N-1) + a_N e_1;
    y_(N-1) = 0 when N = 1.
    """
    alphas, betas = np.array(alphas), np.array(betas[:-1])
    n = a.size - 1
    y = np.zeros(alphas.size)
    if n:
        s = math.isqrt(n)
        blocks = -(-n // s)
        coefs = np.concatenate([np.zeros(blocks * s - n), a[:-1]]).reshape(blocks, s)
        power = np.eye(alphas.size)
        krylov = np.empty((alphas.size, s))    # column r holds T^(s-1-r) e_1
        for r in range(s - 1, -1, -1):
            krylov[:, r] = power[:, 0]
            power = _tridiagonal_apply(alphas, betas, power)
        for row in coefs:                      # power is T^s
            y = np.add.reduce(power * y, axis=1) + np.add.reduce(krylov * row, axis=1)
    y_N = _tridiagonal_apply(alphas, betas, y)
    y_N[0] += a[-1]
    return y_N, y


def _add_component_levels(data: ProblemData, lu, order: np.ndarray, a: np.ndarray,
                          x: np.ndarray, tol: float, u_N: np.ndarray, u_prev: np.ndarray) -> None:
    """Add one time component's share of u^N and u^(N-1) to u_N and u_prev,
    all in the coordinates of ``lu``, the step factor in the ordering
    ``order`` (``_GridOperators.ordered_step_lu``).

    The component's load is x on the boundary nodes times the Robin load
    weights.  The Lanczos process on P = A^-1 W / tau in the W inner
    product, from A^-1 load, runs without reorthogonalization (see the
    module docstring) and stops once its error estimate is below tol.  The
    estimate is read only at a step where it could have met tol: it fell by
    about a decade per step at most in the runs measured, so a reading that
    misses by a factor rho puts the next log10(rho) / 2 steps on, and at
    least one.  The coordinates are read for a scaled by the power of two
    that brings its largest entry into [1/2, 1), so the estimate's squares
    do not underflow for data as small as 1e-200; the scaling is exact, and
    beta_0 takes it back.
    """
    grid, tau, N = data.grid, data.tau, data.n_steps
    scale = math.frexp(np.abs(a).max())[1]
    a = np.ldexp(a, -scale)
    w = grid.weights[order]
    r = np.zeros(grid.node_count)
    r[grid.boundary_indices] = x
    r = lu.solve((r * grid.operators(data.beta).load_weights)[order])
    beta_0 = math.sqrt(_dot(r, w * r))
    r /= beta_0
    basis, alphas, betas = [r], [], []
    read_at = 1
    while len(basis) < N:
        q = basis[-1]
        wq = w * q
        v = lu.solve(wq)
        v /= tau
        alpha = _dot(wq, v)
        v -= alpha * q
        if len(basis) > 1:
            v -= betas[-1] * basis[-2]
        np.multiply(w, v, out=wq)
        beta = math.sqrt(_dot(v, wq))
        alphas.append(alpha)
        betas.append(beta)
        m = len(alphas)
        if m == read_at or not beta > 0.0:
            y_N, y_prev = _polynomial_coordinates(alphas, betas, a)
            # the estimate beta_m |e_m' y| against tol |y|, for both levels
            rho = max(beta * abs(y[-1]) / (tol * math.sqrt(_dot(y, y))) if y.any()
                      else 0.0 for y in (y_N, y_prev))
            if not rho > 1.0 or not beta > 0.0:
                break
            read_at = m + max(1, int(math.log10(rho) / 2))
        v /= beta
        basis.append(v)
    else:
        # the cap: q_N is in the basis, and T_N's last diagonal entry, which
        # one more solve would give, is never read by a polynomial of degree
        # N - 1 in T_N; at N = 1 no step is taken and u^1 = a_1 A^-1 x
        y_N, y_prev = _polynomial_coordinates(alphas + [0.0], betas + [0.0], a)
    beta_0 = math.ldexp(beta_0, scale)
    for c_N, c_prev, q in zip(y_N, y_prev, basis):
        u_N += (beta_0 * c_N) * q
        u_prev += (beta_0 * c_prev) * q


def terminal_excitation(data: ProblemData, q: GridFunction,
                        tol: float = LANCZOS_TOL) -> tuple[np.ndarray, np.ndarray]:
    """The last two excitation levels (u_e^N, u_e^(N-1)) at source q.

    Read off one Lanczos process per time component of the Robin load (see
    the module docstring), each stopped once its error estimate is below
    ``tol`` relative to the coordinates it reads.  One factorization, in
    the grid's step ordering, and per component one solve for A^-1 x plus
    one per step; zero boundary data give zeros with none.  At the default
    tolerance the levels agree with those of ``coupled_levels`` to
    roundoff; a looser one stops the processes sooner.  q is checked as
    there.
    """
    _check_source(data, q)
    n = data.grid.node_count
    u_N, u_prev = np.zeros(n), np.zeros(n)
    if not data._load_components:
        return u_N, u_prev
    lu, order = data.grid.operators(data.beta).ordered_step_lu(data.tau,
                                                               data.p.values + q.values)
    for a, x in data._load_components:
        _add_component_levels(data, lu, order, a, x, tol, u_N, u_prev)
    ue_N, ue_prev = np.empty(n), np.empty(n)
    ue_N[order], ue_prev[order] = u_N, u_prev
    return ue_N, ue_prev


def terminal_fields(data: ProblemData, q: GridFunction):
    """One forward observation: terminal excitation, emission time derivative, emission.

    The last two levels of ``coupled_levels``.  The derivative is the
    backward difference at the final level; with backward Euler it equals
    the discrete equation residual there exactly, so the fixed-point map
    built from it has the manufactured source as an exact fixed point on
    data generated by this solver.

    The fixed-point map gets the same triple from ``terminal_excitation``,
    as u_m = v - u_e with v the q = 0 excitation.  That agrees with this
    pass only to roundoff, and the truth (``presets.build_truth``) and the
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
