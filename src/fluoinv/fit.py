"""Regularized scattered-data fit of the forcing behind noisy point samples.

Given noisy samples ``y_i`` of a smooth field g at sensor locations, the
fit recovers a nodal forcing f minimizing

    (1/n) * sum_i (Sf(x_i) - y_i)^2 + lam * |f|_{H^s}^2,   s in {0, 1},

where S is the Robin Poisson solve from :mod:`fluoinv.forward`.  The
minimizer solves SPD normal equations

    (lam * R_s + (1/n) (ES)' (ES)) f = (1/n) (ES)' y

with R_s the lumped-mass (s=0) or mass+stiffness (s=1) Gram matrix and E
the multilinear point-evaluation map of the sensor set.  A measurement set
carries its map (``PointEvaluation``), which folds the n measurement
couplings into a sparse E'E once, so each fit takes only the measurements
and reads its grid off them.  CG preconditioned by R_s solves the normal
equations; a product costs two elliptic solves on the grid's cached
factorization of the Laplacian.

The self-consistent weight loop refits the same data at moving weights,
whose systems differ only by a shift of R_s^-1 (ES)'(ES)/n: all its passes
read one Lanczos process (multi-shift Krylov) that keeps its reorthogonalized
basis, and the fit at the accepted weight is read off that basis, to the
residual rule of the CG solve, with no CG of its own.  The loop's inner
products sum pairwise, so its outputs do not depend on the BLAS thread count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .grid import ConvergenceError, Grid, GridFunction
from .metrics import _dot, empirical_norm, hs_norm

__all__ = [
    "MeasurementSet",
    "SolveReport",
    "FitResult",
    "LambdaTrace",
    "PointEvaluation",
    "solve_data_fit",
    "optimal_lambda_prior",
    "self_consistent_lambda",
    "fit_at_weight",
]

SOLVER_TOL = 1e-10      # residual rule of every fit, relative to the right-hand side
CG_MAX_ITER = 20000     # normal-equation CG iteration cap; the Lanczos basis holds
                        # at most min(CG_MAX_ITER, N) vectors
# the weight loop stops when lambda moves less than WEIGHT_STOP_TOL, and
# raises ConvergenceError after WEIGHT_MAX_PASSES passes
WEIGHT_STOP_TOL = 1e-10
WEIGHT_MAX_PASSES = 50

# and it raises ConvergenceError naming the divergence once lambda exceeds
# WEIGHT_DIVERGENCE_RATIO = 2^52 times a bound on the data operator's largest
# Ritz value: then every shifted pivot alpha + lambda rounds to lambda, the
# fit no longer reads the data, and each update only grows the weight
WEIGHT_DIVERGENCE_RATIO = 2.0**52


class PointEvaluation:
    """Sparse linear map E from nodal fields to values at one sensor set.

    Uses linear (1D) / bilinear (2D) interpolation on the cell containing
    each point; the normal equations read its transpose ``matrix.T`` as the
    scatter map, and their data term E'E is built here once.  A
    sensor set is built once and carried by the measurements read through
    it, so observation, fit and sensor errors share one map.
    """

    def __init__(self, grid: Grid, points):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if points.shape[1] != grid.dim:
            raise ValueError(f"points have dim {points.shape[1]}, grid has {grid.dim}")
        if (points < 0.0).any() or (points > 1.0).any():
            raise ValueError("evaluation point outside the closed domain")
        self.grid = grid
        self.points = points
        self.n = npts = points.shape[0]
        m = grid.cells_per_side
        h = grid.h
        cell = np.minimum((points / h).astype(int), m - 1)
        local = points / h - cell
        if grid.dim == 1:
            rows = np.repeat(np.arange(npts), 2)
            cols = np.column_stack([cell[:, 0], cell[:, 0] + 1]).ravel()
            t = local[:, 0]
            w = np.column_stack([1 - t, t]).ravel()
        else:
            n = m + 1
            base = cell[:, 1] * n + cell[:, 0]
            rows = np.repeat(np.arange(npts), 4)
            cols = np.column_stack([base, base + 1, base + n, base + n + 1]).ravel()
            tx, ty = local[:, 0], local[:, 1]
            w = np.column_stack(
                [(1 - tx) * (1 - ty), tx * (1 - ty), (1 - tx) * ty, tx * ty]
            ).ravel()
        self.matrix = sp.csr_matrix((w, (rows, cols)), shape=(npts, grid.node_count))
        self.ete = (self.matrix.T @ self.matrix).tocsr()

    def apply(self, u) -> np.ndarray:
        values = u.values if isinstance(u, GridFunction) else np.asarray(u)
        return self.matrix @ values


@dataclass
class MeasurementSet:
    """Noisy readings and the sensor map they were read through."""

    sensors: PointEvaluation
    values: np.ndarray      # (n,)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.n < 1:
            raise ValueError("need at least one measurement point")
        if self.values.shape != (self.n,):
            raise ValueError("values/points length mismatch")
        if (self.points <= 0.0).any() or (self.points >= 1.0).any():
            raise ValueError("measurement points must lie strictly inside the domain")

    @property
    def points(self) -> np.ndarray:
        return self.sensors.points

    @property
    def n(self) -> int:
        return self.sensors.n


@dataclass
class SolveReport:
    """Work and residual of a fit that met the residual rule: the normal-equation
    CG, or the weight loop's Krylov fit."""

    iterations: int
    residual: float         # relative to the right-hand side


@dataclass
class FitResult:
    """Minimizer of the penalized empirical functional."""

    f: GridFunction
    sf: GridFunction
    misfit_n: float        # ||Sf - y||_n at the sensors
    penalty_norm: float    # |f|_{H^s}
    report: SolveReport


class _FitWorkspace:
    """The operators of the fits on one sensor set: its map and E'E, the grid
    (whose Gram matrices R_s weigh the penalty) and the grid's operators at
    beta (S and S')."""

    def __init__(self, sensors: PointEvaluation, beta: float):
        self.sensors = sensors
        self.grid = sensors.grid
        self.ops = self.grid.operators(beta)

    def data_apply(self, f_values: np.ndarray) -> np.ndarray:
        """(ES)'(ES) f / n, the data term of the normal equations."""
        t = self.sensors.ete @ self.ops.smooth(f_values)
        return self.ops.smooth_adjoint(t) / self.sensors.n

    def rhs(self, y: np.ndarray) -> np.ndarray:
        """(ES)' y / n, the right-hand side of the normal equations."""
        return self.ops.smooth_adjoint(self.sensors.matrix.T @ y) / self.sensors.n


def _pcg(matvec, b, *, tol, max_iter, precond):
    """Preconditioned conjugate gradients; returns (x, SolveReport), or raises
    ConvergenceError saying why the residual rule was not met."""
    n = b.shape[0]
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros(n), SolveReport(0, 0.0)

    x = np.zeros(n)
    r = b.copy()
    z = precond(r)
    p = z.copy()
    rz = float(r @ z)
    rnorm = bnorm

    it = 0
    why = "stalled"     # unless the curvature breaks down
    while it < max_iter:
        if rnorm <= tol * bnorm:
            break
        Ap = matvec(p)
        denom = float(p @ Ap)
        if not 0.0 < denom < np.inf:
            # loss of positive definiteness, or overflow; report and bail out
            kind = "non-positive" if denom <= 0.0 else "non-finite"
            why = f"stopped on a {kind} curvature p'Ap = {denom:g}"
            break
        alpha = rz / denom
        x = x + alpha * p
        r = r - alpha * Ap
        it += 1
        rnorm = float(np.linalg.norm(r))
        z = precond(r)
        rz_new = float(r @ z)
        if rz <= 0.0:
            break
        p = z + (rz_new / rz) * p
        rz = rz_new

    rel = rnorm / bnorm
    if not rel <= tol:
        raise ConvergenceError(f"normal-equation CG {why} at residual {rel:.3e} "
                               f"after {it} iterations")
    return x, SolveReport(it, rel)


def solve_data_fit(beta: float, meas: MeasurementSet, s: int, lam: float) -> FitResult:
    """Solve the penalized least-squares problem of order ``s`` at weight
    ``lam`` for the nodal forcing on the grid of ``meas.sensors``.

    Raises ValueError if s is not 0 or 1 or lam is not positive, and
    ConvergenceError if the outer CG does not reach its tolerance.
    """
    if s not in (0, 1):
        raise ValueError(f"penalty order s must be 0 or 1, got {s}")
    if lam <= 0:
        raise ValueError(f"regularization weight must be positive, got {lam}")
    ws = _FitWorkspace(meas.sensors, beta)

    def matvec(f):
        return lam * ws.grid.gram_apply(s, f) + ws.data_apply(f)

    # overflow shows as a non-finite curvature, which stops the CG
    with np.errstate(over="ignore", invalid="ignore"):
        x, report = _pcg(
            matvec,
            ws.rhs(meas.values),
            tol=SOLVER_TOL,
            max_iter=CG_MAX_ITER,
            precond=lambda r: ws.grid.gram_solve(s, r),
        )
    return _fit_result(ws, meas, s, x, report)


def _fit_result(ws: _FitWorkspace, meas: MeasurementSet, s: int, x: np.ndarray,
                report: SolveReport) -> FitResult:
    """The fit of forcing ``x``: its field Sf (one solve), misfit and penalty norm."""
    f, sf = GridFunction(ws.grid, x), GridFunction(ws.grid, ws.ops.smooth(x))
    misfit = empirical_norm(ws.sensors.apply(sf) - meas.values)
    return FitResult(f, sf, misfit, hs_norm(f, s), report)


def _lambda_exponent(s: int) -> float:
    # the balance rule fixes lam through lam^(1/2 + 1/(4+2s)) = sigma / (sqrt(n) |f*|)
    return 0.5 + 1.0 / (4 + 2 * s)


def optimal_lambda_prior(norm_f_star: float, sigma: float, n: int, s: int) -> float:
    """Regularization weight from the a-priori balance rule.

    Requires the true-forcing norm and the noise level; the self-consistent
    loop below replaces both with estimates when they are unknown.
    """
    if norm_f_star <= 0:
        raise ValueError("norm of the true forcing must be positive")
    if n < 1:
        raise ValueError("need at least one measurement")
    if sigma <= 0:
        raise ValueError("noise level must be positive: the noiseless problem needs no weight")
    return float((sigma / np.sqrt(n) / norm_f_star) ** (1.0 / _lambda_exponent(s)))


@dataclass
class LambdaTrace:
    """Sequence of regularization weights produced by the self-consistent loop."""

    lams: list[float]

    @property
    def outer_iterations(self) -> int:
        return len(self.lams) - 1


class _ShiftedLanczos:
    """One Krylov space for the fits of one data set at every weight.

    With K = (ES)'(ES)/n and b = (ES)'y/n, the normal equations at weight lam
    preconditioned by R_s differ only by the shift lam of R_s^-1 K, so one
    Lanczos process on R_s^-1 K, in the R_s inner product and started from
    R_s^-1 b, serves them all (multi-shift Krylov, Frommer and Glaessner).
    It keeps the tridiagonal T_k and the basis Q_k = [q_1..q_k], orthonormal
    in the R_s inner product, as k N-vectors: k N 8 bytes (3.8 MB for 47
    steps on grid 100).  A basis of N vectors spans the space, so the steps
    stop at min(CG_MAX_ITER, N).  Each step reorthogonalizes its new vector
    against the basis by one classical Gram-Schmidt pass; without it,
    finite-precision Lanczos loses orthogonality and needs more steps.  The
    vectors are the rows of arrays of _BLOCK vectors: the C allocator maps
    an array that large (2.6 MB on grid 100) on its own and returns it to
    the system when the loop ends, where single grid-100 vectors would stay
    in the heap (+1.7 MB peak RSS of p1 at s = 0).

    At weight lam the CG iterate is f_k = Q_k c with (T_k + lam I) c =
    beta_0 e_1 and residual |c_k| |w_k|, w_k the next dual vector
    unnormalized.  As Q_k' R_s Q_k = I, Q_k' K Q_k = T_k and b'Q_k =
    beta_0 e_1', its penalty norm is |c| and its squared misfit
    c'T_k c - 2 beta_0 c_1 + y'y/n = y'y/n - beta_0 c_1 - lam |c|^2.
    A step costs 2 + s solves, as a CG iteration does.
    """

    _BLOCK = 32     # basis vectors per array

    def __init__(self, ws: _FitWorkspace, s: int, y: np.ndarray):
        self.ws = ws
        self.s = s
        self.yy = _dot(y, y)
        b = ws.rhs(y)
        self.bnorm = float(np.sqrt(_dot(b, b)))
        self.cap = min(CG_MAX_ITER, b.size)
        self.basis: list[np.ndarray] = []          # q_1..q_k, rows of blocks of _BLOCK
        self.alphas: list[float] = []
        self._w, self._z = b, ws.grid.gram_solve(s, b)  # w_k and R_s^-1 w_k
        self.betas = [float(np.sqrt(_dot(b, self._z)))]  # beta_0, then beta_j after step j
        self._wnorm = self.bnorm                    # |w_k|
        self._v = np.zeros_like(b)                  # R_s q_k

    def _step(self) -> None:
        beta = self.betas[-1]
        k = len(self.basis)
        if k % self._BLOCK == 0:
            self._block = np.empty((self._BLOCK, self._w.size))
        q = self._block[k % self._BLOCK]
        np.divide(self._z, beta, out=q)
        self.basis.append(q)
        v_prev, self._v = self._v, self._w / beta
        kq = self.ws.data_apply(q)
        alpha = _dot(q, kq)
        w = kq - alpha * self._v - beta * v_prev
        # Gram-Schmidt in the R_s inner product, where q_i' R_s (R_s^-1 w) = q_i' w
        projection = np.zeros_like(w)
        for qi in self.basis:
            projection += _dot(qi, w) * qi
        w -= self.ws.grid.gram_apply(self.s, projection)
        z = self.ws.grid.gram_solve(self.s, w)
        beta = float(np.sqrt(_dot(w, z)))
        if not (np.isfinite(alpha) and np.isfinite(beta)):
            raise ConvergenceError(f"Lanczos step {len(self.alphas) + 1} has a non-finite "
                                   f"coefficient (alpha={alpha:g}, beta={beta:g})")
        self.alphas.append(alpha)
        self.betas.append(beta)
        self._w, self._z = w, z
        self._wnorm = float(np.sqrt(_dot(w, w)))

    def _coefficients(self, lam: float) -> np.ndarray:
        """c solving (T_k + lam I) c = beta_0 e_1, by LDL' in O(k)."""
        betas, k = self.betas, len(self.alphas)
        pivots, mults, u = [], [0.0], [betas[0]]   # mults[j] = betas[j] / pivots[j - 1]
        for j, alpha in enumerate(self.alphas):
            pivots.append(alpha + lam - betas[j] * mults[j])
            if not 0.0 < pivots[j] < np.inf:
                raise ConvergenceError(f"shifted tridiagonal pivot {pivots[j]:g} at step {j + 1}")
            mults.append(betas[j + 1] / pivots[j])
            u.append(-mults[j + 1] * u[j])
        c = np.array(u[:k]) / np.array(pivots)
        for j in range(k - 2, -1, -1):
            c[j] -= mults[j + 1] * c[j + 1]
        return c

    def _solve(self, lam: float) -> tuple[np.ndarray, float]:
        """c at weight ``lam`` on all the steps taken, extended until the
        iterate meets the residual rule of the CG solve, and its residual
        relative to |b|.  Raises ConvergenceError if a coefficient is not
        finite or the step cap is reached first; the residual test comes
        before each step, so a breakdown (beta_k = 0, the space exhausted)
        stops here, not in a division."""
        if not (self.bnorm < np.inf and self.betas[0] < np.inf):
            raise ConvergenceError(f"Lanczos start has a non-finite coefficient "
                                   f"(beta={self.betas[0]:g})")
        while True:
            c = self._coefficients(lam)
            residual = abs(c[-1]) * self._wnorm if c.size else self.bnorm
            if residual <= SOLVER_TOL * self.bnorm:
                return c, residual / self.bnorm if self.bnorm else 0.0
            if len(self.alphas) == self.cap:
                raise ConvergenceError(f"Lanczos stalled at residual {residual / self.bnorm:.3e} "
                                       f"at its step cap min(CG_MAX_ITER, N) = {self.cap}")
            self._step()

    def ritz_bound(self) -> float:
        """A Gershgorin bound on the largest eigenvalue of T_k, the largest
        Ritz value of R_s^-1 K; 0 before the first step."""
        rows = np.array(self.alphas)
        off = np.array(self.betas[1:len(self.alphas)])
        rows[1:] += off
        rows[:-1] += off
        return float(rows.max()) if rows.size else 0.0

    def norms(self, lam: float) -> tuple[float, float]:
        """Misfit and penalty norm of the iterate at weight ``lam`` (see _solve)."""
        c, _ = self._solve(lam)
        cc = _dot(c, c)
        misfit2 = self.yy / self.ws.sensors.n - self.betas[0] * float(c[:1].sum()) - lam * cc
        return float(np.sqrt(max(misfit2, 0.0))), float(np.sqrt(cc))

    def fit(self, lam: float) -> tuple[np.ndarray, SolveReport]:
        """The iterate f = Q_k c at weight ``lam`` (see _solve), and its report."""
        c, residual = self._solve(lam)
        f = np.zeros_like(self._w)
        for ci, qi in zip(c, self.basis):
            f += ci * qi
        return f, SolveReport(c.size, residual)


def self_consistent_lambda(beta: float, meas: MeasurementSet,
                           s: int) -> tuple[float, FitResult, LambdaTrace]:
    """Alternate fitting and re-estimating the regularization weight.

    Starting from ``lam_0`` fixed by the sample count alone, each pass fits
    at the current weight, then re-derives it from the empirical misfit (a
    noise-level estimate) and the penalty norm of the fit (a forcing-norm
    estimate).  Stops when the weight moves less than ``WEIGHT_STOP_TOL`` in
    absolute value.  The passes read their misfit and penalty norm from one
    Lanczos process, and the returned fit at the accepted weight is read off
    its basis, each to the residual rule of the CG solve; its report counts
    the basis vectors.  No CG runs.

    Raises ConvergenceError naming the pass if a fit fails, if the weight
    diverges (it exceeds ``WEIGHT_DIVERGENCE_RATIO`` times a Gershgorin
    bound on the largest Ritz value of the process's tridiagonal), if its
    penalty norm is zero (the update is undefined), or if the update is not
    a positive finite weight, and naming the cap if the weight still moves
    after ``WEIGHT_MAX_PASSES`` passes; the error carries the weights so far
    in ``trace``.
    """
    expo = _lambda_exponent(s)
    ws = _FitWorkspace(meas.sensors, beta)
    n = meas.n

    def failed(where, lam, why):
        exc = ConvergenceError(f"self-consistent weight loop, {where} "
                               f"(lambda={lam:.6g}): {why}")
        exc.trace = LambdaTrace(lams)
        return exc

    lam = float(n ** (-0.5 / expo))
    lams = [lam]
    # overflow shows as a non-finite coefficient, norm or weight, reported below
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        krylov = _ShiftedLanczos(ws, s, meas.values)
        for k in range(1, WEIGHT_MAX_PASSES + 1):
            try:
                misfit, penalty = krylov.norms(lam)
            except ConvergenceError as exc:
                raise failed(f"pass {k}", lam, exc) from exc
            theta = krylov.ritz_bound()
            if krylov.alphas and lam > WEIGHT_DIVERGENCE_RATIO * theta:
                raise failed(f"pass {k}", lam, f"the weight diverges: it exceeds 2^52 times "
                                                f"{theta:.6g}, a Gershgorin bound on the data "
                                                "operator's largest Ritz value, so the fit no "
                                                "longer reads the data")
            if not penalty > 0.0:
                raise failed(f"pass {k}", lam, f"penalty norm {penalty:g}, "
                                                "the weight update is undefined")
            lam_next = float((misfit / np.sqrt(n) / penalty) ** (1.0 / expo))
            if not 0.0 < lam_next < np.inf:
                raise failed(f"pass {k}", lam, f"the update {lam_next} is not a positive "
                                                "finite weight")
            lams.append(lam_next)
            done = abs(lam_next - lam) < WEIGHT_STOP_TOL
            lam = lam_next
            if done:
                break
        else:
            raise failed(f"at its pass cap WEIGHT_MAX_PASSES = {WEIGHT_MAX_PASSES}", lam,
                         f"the last pass moved the weight by {abs(lams[-1] - lams[-2]):.3g}, "
                         f"not below WEIGHT_STOP_TOL = {WEIGHT_STOP_TOL:g}")
        try:
            f, report = krylov.fit(lam)
        except ConvergenceError as exc:
            raise failed("final fit", lam, exc) from exc
    return lam, _fit_result(ws, meas, s, f, report), LambdaTrace(lams)


def fit_at_weight(beta: float, meas: MeasurementSet, s: int, lam: float | None,
                  ) -> tuple[float, FitResult, LambdaTrace]:
    """Fit at the weight ``lam``, or run the self-consistent loop if it is None.

    Returns the weight used, the fit, and the weight trace; a given weight
    has a one-entry trace.  Raises ConvergenceError if the fit fails.
    """
    if lam is None:
        return self_consistent_lambda(beta, meas, s)
    fit = solve_data_fit(beta, meas, s, lam)
    return lam, fit, LambdaTrace([lam])
