"""Regularized scattered-data fit of the forcing behind noisy point samples.

Given noisy samples ``y_i`` of a smooth field g at sensor locations, the
fit recovers a nodal forcing f minimizing

    (1/n) * sum_i (Sf(x_i) - y_i)^2 + lam * |f|_{H^s}^2,   s in {0, 1},

where S is the Robin Poisson solve from :mod:`fluoinv.forward`.  The
minimizer solves SPD normal equations

    (lam * R_s + (1/n) (ES)' (ES)) f = (1/n) (ES)' y

with R_s the lumped-mass (s=0) or mass+stiffness (s=1) Gram matrix and E
the multilinear point-evaluation map.  The fit has two forms:

- CG form (:func:`solve_data_fit`, every given weight, and the weight loop
  on large sensor sets): an outer CG whose matrix-vector product costs two
  elliptic solves; the elliptic solves reuse a cached factorization of the
  assembled Laplacian, and the n measurement couplings are folded into a
  precomputed sparse E'E so each product is independent of n.
- Representer form (the self-consistent weight loop on small sensor sets):
  the minimizer is f = R_s^-1 (ES)' c with (G + n lam I) c = y, where
  G = E S R_s^-1 S' E' is n x n (the smoothing-spline representer form of
  Kimeldorf and Wahba).  G is formed once per sensor set and penalty
  order; each weight pass is a dense Cholesky solve, with misfit
  n lam |c| / sqrt(n) and penalty norm sqrt(c'Gc), and fields are built at
  the accepted weight only.

The loop takes the representer form when ``REPRESENTER_RATIO * n`` is at
most the node count and n is at most ``REPRESENTER_MAX_N``, which also
bounds the memory of G.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .grid import ConvergenceError, Grid, GridFunction, default_tolerance
from .metrics import hs_norm

# imported after .grid, whose scipy.sparse.linalg already loads scipy.linalg:
# importing it first changes the order in which scipy loads, which measured
# slower at `import fluoinv.cli`
import scipy.linalg as sla  # noqa: E402

__all__ = [
    "MeasurementSet",
    "SolveReport",
    "FitConfig",
    "FitResult",
    "LambdaTrace",
    "PointEvaluation",
    "point_evaluation",
    "empirical_norm",
    "solve_data_fit",
    "optimal_lambda_prior",
    "self_consistent_lambda",
    "policy_weight",
    "fit_at_weight",
]

CG_MAX_ITER = 20000     # normal-equation CG iteration cap

# The weight loop takes the representer form for n sensors on N nodes when
# REPRESENTER_RATIO * n <= N and n <= REPRESENTER_MAX_N.  Forming G costs
# about n (2 + s) column solves and CG about 3 solves per iteration, so the
# crossover is near a fixed n: about 650 sensors at 50 cells per side and
# 900 at 100.  The cap also bounds G, 8 n^2 bytes: 5.1 MB at 800.
REPRESENTER_RATIO = 8
REPRESENTER_MAX_N = 800
GRAM_BLOCK = 16         # columns of G per block solve


@dataclass
class MeasurementSet:
    """Sensor locations and noisy readings."""

    points: np.ndarray      # (n, dim), strictly inside the open domain
    values: np.ndarray      # (n,)

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        self.values = np.asarray(self.values, dtype=float)
        if self.points.shape[0] < 1:
            raise ValueError("need at least one measurement point")
        if self.values.shape != (self.points.shape[0],):
            raise ValueError("values/points length mismatch")
        if (self.points <= 0.0).any() or (self.points >= 1.0).any():
            raise ValueError("measurement points must lie strictly inside the domain")

    @property
    def n(self) -> int:
        return self.points.shape[0]


class PointEvaluation:
    """Sparse linear map from nodal fields to values at scattered points.

    Uses linear (1D) / bilinear (2D) interpolation on the cell containing
    each point; the transpose is exposed as the scatter (adjoint) map used
    by the normal equations.
    """

    def __init__(self, grid: Grid, points):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if points.shape[1] != grid.dim:
            raise ValueError(f"points have dim {points.shape[1]}, grid has {grid.dim}")
        if (points < 0.0).any() or (points > 1.0).any():
            raise ValueError("evaluation point outside the closed domain")
        self.grid = grid
        self.points = points
        m = grid.cells_per_side
        h = grid.h
        npts = points.shape[0]
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

    def apply(self, u) -> np.ndarray:
        values = u.values if isinstance(u, GridFunction) else np.asarray(u)
        return self.matrix @ values

    def adjoint(self, vec) -> GridFunction:
        return GridFunction(self.grid, self.matrix.T @ np.asarray(vec, dtype=float))


def point_evaluation(grid: Grid, points) -> PointEvaluation:
    """Build the interpolation map for the given sensor locations."""
    return PointEvaluation(grid, points)


def empirical_norm(values) -> float:
    """Root mean square over the sensors: ||v||_n = sqrt(sum v_i^2 / n)."""
    values = np.asarray(values, dtype=float)
    if values.size < 1:
        raise ValueError("empirical norm needs at least one value")
    return float(np.sqrt(np.mean(values**2)))


@dataclass
class SolveReport:
    """Outcome of the normal-equation CG."""

    iterations: int
    residual: float
    converged: bool


@dataclass
class FitConfig:
    """Penalty order, regularization weight, and CG tolerance."""

    s: int
    lam: float
    outer_tol: float | None = None     # normal-equation CG tolerance

    def __post_init__(self):
        if self.s not in (0, 1):
            raise ValueError(f"penalty order s must be 0 or 1, got {self.s}")
        if self.lam <= 0:
            raise ValueError(f"regularization weight must be positive, got {self.lam}")
        if self.outer_tol is None:
            self.outer_tol = default_tolerance()
        elif not self.outer_tol > 0:
            raise ValueError(f"tolerance must be positive, got {self.outer_tol}")


@dataclass
class FitResult:
    """Minimizer of the penalized empirical functional."""

    f: GridFunction
    sf: GridFunction
    misfit_n: float        # ||Sf - y||_n at the sensors
    penalty_norm: float    # |f|_{H^s}
    report: SolveReport | None     # None in the representer form, which runs no CG


class _FitWorkspace:
    """Per-(grid, beta, points) precomputations shared across fits."""

    def __init__(self, grid: Grid, beta: float, points):
        self.grid = grid
        self.beta = beta
        self.ops = grid.operators(beta)
        self.ev = PointEvaluation(grid, points)
        self.n = self.ev.points.shape[0]
        self.ete = (self.ev.matrix.T @ self.ev.matrix).tocsr()
        self.lu = self.ops.lu_laplacian()
        self._grams: dict[int, np.ndarray] = {}

    def smooth(self, f_values: np.ndarray) -> np.ndarray:
        """Apply the Poisson solve S through the cached factorization."""
        return self.lu.solve(self.ops.weights * f_values)

    def gram_apply(self, s: int, v: np.ndarray) -> np.ndarray:
        if s == 0:
            return self.ops.mass_diag * v
        return self.ops.mass_diag * v + self.ops.stiffness_natural @ v

    def gram_solve(self, s: int, v: np.ndarray) -> np.ndarray:
        """R_s^-1 v, for a vector or an (N, k) block of columns."""
        if s == 0:
            mass = self.ops.mass_diag
            return v / (mass if v.ndim == 1 else mass[:, None])
        return self.ops.lu_h1().solve(v)

    def representer_gram(self, s: int) -> np.ndarray:
        """G = E S R_s^-1 S' E' (n x n), formed once per penalty order.

        Formed GRAM_BLOCK columns at a time, so no N x n array is held:
        C = L^-1 E'[:, blk], D = W R_s^-1 (W C), G[:, blk] = E L^-1 D, which
        is 2 + s block solves per block.
        """
        gram = self._grams.get(s)
        if gram is None:
            w = self.ops.weights[:, None]
            et = self.ev.matrix.T.tocsc()
            gram = np.empty((self.n, self.n))
            for lo in range(0, self.n, GRAM_BLOCK):
                blk = slice(lo, lo + GRAM_BLOCK)
                c = self.lu.solve(et[:, blk].toarray())
                d = w * self.gram_solve(s, w * c)
                gram[:, blk] = self.ev.matrix @ self.lu.solve(d)
            self._grams[s] = gram
        return gram

    def penalty_norm(self, s: int, f_values: np.ndarray) -> float:
        return float(np.sqrt(max(f_values @ self.gram_apply(s, f_values), 0.0)))


def _pcg(matvec, b, *, tol, max_iter, precond):
    """Preconditioned conjugate gradients; returns (x, SolveReport)."""
    n = b.shape[0]
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros(n), SolveReport(0, 0.0, True)

    x = np.zeros(n)
    r = b.copy()
    z = precond(r)
    p = z.copy()
    rz = float(r @ z)
    rnorm = bnorm

    it = 0
    while it < max_iter:
        if rnorm <= tol * bnorm:
            break
        Ap = matvec(p)
        denom = float(p @ Ap)
        if denom <= 0.0:
            break  # loss of positive definiteness; report and bail out
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
    return x, SolveReport(it, rel, rel <= tol)


def solve_data_fit(grid: Grid, beta: float, meas: MeasurementSet,
                   cfg: FitConfig, workspace: _FitWorkspace | None = None) -> FitResult:
    """Solve the penalized least-squares problem for the nodal forcing.

    Raises ConvergenceError if the outer CG does not reach its tolerance.
    """
    ws = workspace if workspace is not None else _FitWorkspace(grid, beta, meas.points)
    n = meas.n
    w = ws.ops.weights
    lam = cfg.lam
    s = cfg.s

    def matvec(f):
        u = ws.smooth(f)                      # S f
        t = ws.ete @ u                        # E'(E S f)
        return lam * ws.gram_apply(s, f) + (w * ws.lu.solve(t)) / n

    rhs = (w * ws.lu.solve(ws.ev.matrix.T @ meas.values)) / n
    x, report = _pcg(
        matvec,
        rhs,
        tol=cfg.outer_tol,
        max_iter=CG_MAX_ITER,
        precond=lambda r: ws.gram_solve(s, r),
    )
    if not report.converged:
        raise ConvergenceError(
            f"normal-equation CG stalled at residual {report.residual:.3e} "
            f"after {report.iterations} iterations"
        )
    f = GridFunction(grid, x)
    sf = GridFunction(grid, ws.smooth(x))
    misfit = empirical_norm(ws.ev.apply(sf) - meas.values)
    return FitResult(f, sf, misfit, ws.penalty_norm(s, x), report)


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
    converged: bool

    @property
    def outer_iterations(self) -> int:
        return len(self.lams) - 1


def _representer_form(n: int, node_count: int) -> bool:
    """Whether the weight loop for n sensors on node_count nodes takes the
    representer form (see the module docstring)."""
    return REPRESENTER_RATIO * n <= node_count and n <= REPRESENTER_MAX_N


def _representer_coefficients(gram: np.ndarray, lam: float, y: np.ndarray) -> np.ndarray:
    """c solving (G + n lam I) c = y by a dense Cholesky factorization.

    Raises numpy.linalg.LinAlgError if the matrix is not positive definite
    in floating point.
    """
    n = y.shape[0]
    a = gram.copy()
    a.flat[::n + 1] += n * lam
    return sla.cho_solve(sla.cho_factor(a, overwrite_a=True), y)


def _representer_fit(ws: _FitWorkspace, s: int, lam: float, meas: MeasurementSet) -> FitResult:
    """The fit at weight ``lam`` in the representer form: f = R_s^-1 W L^-1 E'c,
    Sf, and misfit and penalty norm read off the fields as in solve_data_fit."""
    c = _representer_coefficients(ws.representer_gram(s), lam, meas.values)
    f = ws.gram_solve(s, ws.ops.weights * ws.lu.solve(ws.ev.matrix.T @ c))
    sf = ws.smooth(f)
    misfit = empirical_norm(ws.ev.apply(sf) - meas.values)
    return FitResult(GridFunction(ws.grid, f), GridFunction(ws.grid, sf), misfit,
                     ws.penalty_norm(s, f), None)


def self_consistent_lambda(grid: Grid, beta: float, meas: MeasurementSet, s: int,
                           stop_tol: float = 1e-10, max_outer: int = 50,
                           workspace: _FitWorkspace | None = None,
                           ) -> tuple[float, FitResult, LambdaTrace]:
    """Alternate fitting and re-estimating the regularization weight.

    Starting from ``lam_0`` fixed by the sample count alone, each pass fits
    at the current weight, then re-derives it from the empirical misfit (a
    noise-level estimate) and the penalty norm of the fit (a forcing-norm
    estimate).  Stops when the weight moves less than ``stop_tol`` in
    absolute value; the final fit is recomputed at the accepted weight.
    Non-convergence within ``max_outer`` passes is flagged on the trace and
    the last iterate is returned.  Small sensor sets run in the representer
    form, the others in the CG form (see the module docstring).

    Raises ConvergenceError naming the pass if a fit fails, if its penalty
    norm is zero (the update is undefined), or if the update is not a
    positive finite weight.
    """
    expo = _lambda_exponent(s)
    ws = workspace if workspace is not None else _FitWorkspace(grid, beta, meas.points)
    n = meas.n
    if _representer_form(n, grid.node_count):
        gram = ws.representer_gram(s)

        def fit(lam):
            return _representer_fit(ws, s, lam, meas)

        def norms(lam):
            c = _representer_coefficients(gram, lam, meas.values)
            return n * lam * float(np.linalg.norm(c)) / np.sqrt(n), \
                float(np.sqrt(max(c @ (gram @ c), 0.0)))
    else:
        def fit(lam):
            return solve_data_fit(grid, beta, meas, FitConfig(s=s, lam=lam), workspace=ws)

        def norms(lam):
            result = fit(lam)
            return result.misfit_n, result.penalty_norm

    def failed(where, lam, why):
        return ConvergenceError(f"self-consistent weight loop, {where} "
                                f"(lambda={lam:.6g}): {why}")

    lam = float(n ** (-0.5 / expo))
    lams = [lam]
    converged = False
    for k in range(1, max_outer + 1):
        # overflow shows as a non-finite norm or weight, reported below
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                misfit, penalty = norms(lam)
            except (ConvergenceError, np.linalg.LinAlgError) as exc:
                raise failed(f"pass {k}", lam, exc) from exc
            if not penalty > 0.0:
                raise failed(f"pass {k}", lam, f"penalty norm {penalty:g}, "
                                                "the weight update is undefined")
            lam_next = float((misfit / np.sqrt(n) / penalty) ** (1.0 / expo))
        if not 0.0 < lam_next < np.inf:
            raise failed(f"pass {k}", lam, f"the update {lam_next} is not a positive "
                                            "finite weight")
        lams.append(lam_next)
        done = abs(lam_next - lam) < stop_tol
        lam = lam_next
        if done:
            converged = True
            break
    # recompute once at the accepted weight so the returned fit matches it
    try:
        result = fit(lam)
    except (ConvergenceError, np.linalg.LinAlgError) as exc:
        raise failed("final fit", lam, exc) from exc
    return lam, result, LambdaTrace(lams, converged)


def policy_weight(mode: str, s: int, f_true: GridFunction, sigma: float, n: int,
                  value: float | None = None) -> float | None:
    """Resolve a weight policy to the regularization weight of one fit.

    ``prior`` applies the a-priori balance rule to the H^s norm of the true
    forcing, ``fixed`` returns ``value``, and ``self-consistent`` returns
    None: that weight is estimated from each measurement set by
    :func:`fit_at_weight`.  Raises ValueError if the policy gives no weight.
    """
    if mode == "prior":
        return optimal_lambda_prior(hs_norm(f_true, s), sigma, n, s)
    if mode == "fixed":
        if not isinstance(value, (int, float)) or not value > 0:
            raise ValueError(f"the fixed policy needs a positive 'value', got {value!r}")
        return float(value)
    if mode == "self-consistent":
        return None
    raise ValueError(f"unknown weight policy {mode!r}; choose from prior, fixed, self-consistent")


def fit_at_weight(grid: Grid, beta: float, meas: MeasurementSet, s: int,
                  lam: float | None, workspace: _FitWorkspace | None = None,
                  ) -> tuple[float, FitResult, LambdaTrace]:
    """Fit at the weight ``lam``, or run the self-consistent loop if it is None.

    Returns the weight used, the fit, and the weight trace; a given weight
    has a one-entry, converged trace.  Callers check ``trace.converged``.
    """
    if lam is None:
        return self_consistent_lambda(grid, beta, meas, s, workspace=workspace)
    fit = solve_data_fit(grid, beta, meas, FitConfig(s=s, lam=lam), workspace=workspace)
    return lam, fit, LambdaTrace([lam], True)
