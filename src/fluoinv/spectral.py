"""Eigenvalue diagnostics: Weyl growth and the empirical smoothing pencil.

Two spectra back the statistical rate analysis.  The Dirichlet Laplacian's
eigenvalues grow like k^(2/d); and for n sensors the pencil pairing the
H^s Gram matrix against the empirical inner product of smoothed fields has
exactly n finite eigenvalues growing at least like k^(2(2+s)/d).

The Dirichlet spectrum of the uniform 5-point grid is exact and closed form,
so it needs no eigensolver, has no grid cap, and its bytes do not depend on
the BLAS thread count.  The pencil is a dense n x n problem (at most
PENCIL_POINT_CAP sensors) solved by LAPACK, whose last bits can change with
the thread count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .fit import PointEvaluation
from .grid import Grid
from .stochastic import fit_rate

__all__ = ["SpectrumReport", "laplacian_spectrum", "empirical_smoothing_spectrum"]

PENCIL_POINT_CAP = 400      # sensors for the dense reduced pencil
FIT_SKIP = 9                # indices excluded before the asymptotic regime


@dataclass
class SpectrumReport:
    """Sorted eigenvalues with a fitted log-log growth exponent."""

    eigenvalues: np.ndarray
    growth_exponent: float
    fit_range: tuple[int, int]    # 1-based index range used for the fit
    r_squared: float


def _fit_exponent(eigenvalues: np.ndarray, k_lo: int, k_hi: int):
    """Log-log slope and r^2 of eigenvalues k_lo..k_hi (1-based) against k."""
    if k_hi - k_lo < 2:
        return float("nan"), float("nan")  # a growth fit needs three modes
    k = np.arange(k_lo, k_hi + 1)
    rf = fit_rate(zip(k, eigenvalues[k_lo - 1 : k_hi]))
    return rf.slope, rf.r_squared


def laplacian_spectrum(dim: int, cells_per_side: int, k_max: int) -> SpectrumReport:
    """Smallest k_max eigenvalues of the Dirichlet negative Laplacian on the
    uniform grid of ``cells_per_side`` cells per side in ``dim`` dimensions.

    With m cells and h = 1/m the 1-D eigenvalues are (2/h sin(j pi h/2))^2,
    j = 1..m-1; in 2-D the spectrum is their pairwise sums, by separation of
    variables.  No grid is built.  Raises ValueError for a dim other than 1
    or 2, fewer than 4 cells, or more modes than interior nodes.
    """
    if dim not in (1, 2):
        raise ValueError(f"dim must be 1 or 2, got {dim}")
    if cells_per_side < 4:
        raise ValueError(f"cells_per_side must be >= 4, got {cells_per_side}")
    m = int(cells_per_side)
    h = 1.0 / m
    interior = (m - 1) ** dim
    if k_max > interior:
        raise ValueError(f"k_max = {k_max} exceeds the {interior} interior nodes")
    # a sum with an index above k_max exceeds the k_max sums lam_i + lam_1,
    # i <= k_max, so the first k_max 1-D eigenvalues hold every wanted sum
    j = np.arange(1, min(m - 1, k_max) + 1)
    lam = (2.0 / h * np.sin(j * np.pi * h / 2.0)) ** 2
    if dim == 2:
        lam = np.add.outer(lam, lam).ravel()
    vals = np.sort(lam)[:k_max]
    k_lo = min(FIT_SKIP + 1, max(k_max - 9, 1))
    slope, r2 = _fit_exponent(vals, k_lo, k_max)
    return SpectrumReport(vals, slope, (k_lo, k_max), r2)


def empirical_smoothing_spectrum(grid: Grid, beta: float, points, s: int) -> SpectrumReport:
    """The n finite eigenvalues of the H^s-vs-empirical smoothing pencil.

    Reduced to an n x n problem: with Z holding the H^s representers of the
    sensor evaluations of smoothed fields, B = Z' R_s^{-1} Z / n has
    eigenvalues eta_k whose reciprocals are the pencil eigenvalues, sorted
    ascending.  Each column costs one elliptic and one Gram solve.
    """
    if s not in (0, 1):
        raise ValueError(f"penalty order s must be 0 or 1, got {s}")
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n = points.shape[0]
    if n > PENCIL_POINT_CAP:
        raise ValueError(f"{n} sensors exceed the dense-pencil cap {PENCIL_POINT_CAP}")
    ev = PointEvaluation(grid, points)
    Z = grid.operators(beta).smooth_adjoint(ev.matrix.T.toarray())  # (ES)' on unit vectors
    V = grid.gram_solve(s, Z)
    B = (Z.T @ V) / n
    eta = sla.eigh(B, eigvals_only=True)         # ascending
    scale = eta[-1]
    if scale <= 0 or eta[0] <= 1e-13 * scale:
        raise ValueError(
            "empirical pencil is numerically rank deficient (coincident sensors?)"
        )
    rho = np.sort(1.0 / eta)
    k_lo = min(FIT_SKIP + 1, max(n - 9, 1))
    slope, r2 = _fit_exponent(rho, k_lo, n)
    return SpectrumReport(rho, slope, (k_lo, n), r2)
