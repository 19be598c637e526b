import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

import fluoinv as fv
from fluoinv.stochastic import sample_points


def test_1d_dirichlet_eigenvalues():
    rep = fv.laplacian_spectrum(1, 512, 10)
    for k in range(1, 11):
        assert rep.eigenvalues[k - 1] == pytest.approx(np.pi**2 * k**2, rel=0.05)


def dense_dirichlet_eigenvalues(grid):
    """All eigenvalues of the assembled 5-point Dirichlet matrix, by dense eigh."""
    k = grid.cells_per_side - 1
    T = sp.diags([np.full(k - 1, -1.0), np.full(k, 2.0), np.full(k - 1, -1.0)], [-1, 0, 1])
    A = T if grid.dim == 1 else sp.kron(sp.identity(k), T) + sp.kron(T, sp.identity(k))
    return sla.eigh((A / grid.h**2).toarray(), eigvals_only=True)


@pytest.mark.parametrize("dim,cells", [(1, 64), (2, 16)])
def test_closed_form_matches_the_assembled_matrix(dim, cells):
    grid = fv.Grid(dim, cells)
    dense = dense_dirichlet_eigenvalues(grid)
    rep = fv.laplacian_spectrum(dim, cells, dense.size)    # every mode: 63 and 225
    np.testing.assert_allclose(rep.eigenvalues, dense, rtol=1e-12, atol=0.0)


def test_2d_weyl_growth(dirichlet64):
    assert dirichlet64.fit_range == (10, 200)
    assert dirichlet64.growth_exponent == pytest.approx(1.0, abs=0.15)
    vals = dirichlet64.eigenvalues
    assert (vals > 0).all()
    assert (np.diff(vals) >= -1e-9).all()


def test_spectrum_caps():
    with pytest.raises(ValueError):
        fv.laplacian_spectrum(2, 16, 500)   # more modes than nodes
    assert fv.laplacian_spectrum(2, 128, 10).eigenvalues.size == 10  # no grid cap
    for dim, cells in ((3, 16), (0, 16), (2, 3)):
        with pytest.raises(ValueError, match="dim must be|cells_per_side must be"):
            fv.laplacian_spectrum(dim, cells, 1)
    with pytest.raises(ValueError):
        fv.empirical_smoothing_spectrum(fv.Grid(2, 16), 1.0,
                                        np.full((500, 2), 0.5), s=0)


def test_pencil_single_point(grid16):
    # one sensor: the lone eigenvalue inverts the scalar reduced matrix
    pt = np.array([[0.4, 0.6]])
    rep = fv.empirical_smoothing_spectrum(grid16, 1.0, pt, s=0)
    assert len(rep.eigenvalues) == 1
    ops = grid16.operators(1.0)
    ev = fv.PointEvaluation(grid16, pt)
    z = grid16.weights * ops.lu_laplacian().solve(ev.matrix.T.toarray().ravel())
    b = float(z @ (z / grid16.mass_diag))
    assert rep.eigenvalues[0] == pytest.approx(1.0 / b, rel=1e-10)


def test_pencil_positive_sorted_and_consistent(grid32):
    pts = sample_points(2, 60, seed=3)
    rep = fv.empirical_smoothing_spectrum(grid32, 1.0, pts, s=1)
    rho = rep.eigenvalues
    assert len(rho) == 60
    assert (rho > 0).all()
    assert (np.diff(rho) >= -1e-9 * rho[-1]).all()
    # independent column-by-column construction of the reduced matrix
    ops = grid32.operators(1.0)
    ev = fv.PointEvaluation(grid32, pts)
    cols = []
    for i in range(60):
        e = np.zeros(60)
        e[i] = 1.0
        cols.append(grid32.weights * ops.lu_laplacian().solve(ev.matrix.T @ e))
    Z = np.column_stack(cols)
    V = grid32.lu_h1().solve(Z)
    B = Z.T @ V / 60
    eta = np.linalg.eigvalsh(B)
    rho_direct = np.sort(1.0 / eta)
    assert np.abs(rho_direct - rho).max() <= 1e-8 * rho[-1]


def test_pencil_rank_deficiency_detected(grid16):
    pts = np.array([[0.5, 0.5], [0.5, 0.5], [0.25, 0.25]])
    with pytest.raises(ValueError):
        fv.empirical_smoothing_spectrum(grid16, 1.0, pts, s=0)


@pytest.mark.parametrize("s,floor", [(0, 1.8), (1, 2.7)])
def test_pencil_growth_exponent(grid32, s, floor):
    pts = sample_points(2, 100, seed=4)
    rep = fv.empirical_smoothing_spectrum(grid32, 1.0, pts, s=s)
    assert rep.growth_exponent >= floor
