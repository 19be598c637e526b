import gc

import numpy as np
import pytest
import scipy.sparse as sp

import fluoinv as fv


def interior_row(L, grid):
    k = grid.interior_indices[len(grid.interior_indices) // 2]
    return k, L.getrow(k).toarray().ravel()


def test_interior_stencil_1d():
    grid = fv.Grid(1, 4)
    L = grid.operators(1.0).laplacian
    k, row = interior_row(L, grid)
    h2 = grid.h**2
    assert row[k] * h2 == pytest.approx(2.0)
    assert row[k - 1] * h2 == pytest.approx(-1.0)
    assert row[k + 1] * h2 == pytest.approx(-1.0)


def test_interior_stencil_2d(grid16):
    L = grid16.operators(1.0).laplacian
    k, row = interior_row(L, grid16)
    h2 = grid16.h**2
    n = grid16.cells_per_side + 1
    assert row[k] * h2 == pytest.approx(4.0)
    for nb in (k - 1, k + 1, k - n, k + n):
        assert row[nb] * h2 == pytest.approx(-1.0)


def test_constant_reproduces_robin_load(grid16):
    # beta * du/dn + u = c is satisfied by u = c, so L c must equal the load from b = c
    c = 3.7
    for beta in (0.5, 1.0, 4.0):
        ops = grid16.operators(beta)
        resid = ops.laplacian @ np.full(grid16.node_count, c) - ops.load_weights * c
        assert np.abs(resid).max() < 1e-10 * c / (beta * grid16.h)


def test_laplacian_is_symmetric_m_matrix(grid16):
    ops = grid16.operators(1.0)
    A = ops.laplacian
    for S in (A, grid16.stiffness_natural):
        assert S.shape == (grid16.node_count, grid16.node_count)
        assert abs(S - S.T).max() == 0.0
    diag = A.diagonal()
    assert (diag > 0).all()
    off = A - sp.diags(diag)
    assert off.data.max() <= 0.0
    # weak diagonal dominance everywhere, strict on boundary rows
    rowsums = np.asarray(A.sum(axis=1)).ravel()
    assert rowsums.min() > -1e-9
    assert rowsums[grid16.boundary_indices].min() > 0.0
    assert np.abs(rowsums[grid16.interior_indices]).max() < 1e-9


def test_laplacian_rejects_bad_inputs(grid16):
    with pytest.raises(ValueError):
        fv.Grid(2, 3)
    with pytest.raises(ValueError):
        grid16.operators(0.0)
    with pytest.raises(ValueError):
        grid16.operators(-1.0)


def test_dirichlet_smallest_eigenvalue(dirichlet64):
    assert dirichlet64.eigenvalues[0] == pytest.approx(2 * np.pi**2, rel=0.02)


def test_mass_unit_integral(grid16):
    d = grid16.mass_diag
    assert (d > 0).all()
    assert d.sum() == pytest.approx(1.0, abs=1e-12)


def test_mass_quadrature(grid100):
    M = grid100.mass_diag
    x, y = grid100.x, grid100.y
    odd = np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y)
    assert abs(M @ odd) < 1e-10
    sq = np.sin(2 * np.pi * x) ** 2 * np.sin(2 * np.pi * y) ** 2
    assert M @ sq == pytest.approx(0.25, abs=1e-3)


def test_lu_laplacian_against_dense_oracle(grid16):
    # the cached sparse factorization against independent dense elimination
    A = grid16.operators(1.0).laplacian
    rhs = np.random.default_rng(7).standard_normal(grid16.node_count)
    oracle = np.linalg.solve(A.toarray(), rhs)
    x = grid16.operators(1.0).lu_laplacian().solve(rhs)
    assert np.abs(x - oracle).max() <= 1e-10 * np.abs(oracle).max()


@pytest.mark.parametrize("s", [0, 1])
def test_gram_solve_inverts_gram_apply(s, lu_counts):
    # on a vector and on the columns of an array; the H1 factor is the
    # grid's, built once whatever Robin parameters are in use
    grid = fv.Grid(2, 16)
    grid.operators(2.0)
    v = np.random.default_rng(3).standard_normal((grid.node_count, 3))
    r = np.column_stack([grid.gram_apply(s, c) for c in v.T])
    assert np.abs(grid.gram_solve(s, r) - v).max() <= 1e-10 * np.abs(v).max()
    assert np.abs(grid.gram_solve(s, r[:, 0]) - v[:, 0]).max() <= 1e-10 * np.abs(v).max()
    assert grid.lu_h1() is grid.lu_h1()
    assert lu_counts["factorizations"] == 1


def test_released_factors_are_rebuilt_with_the_same_bits(lu_counts):
    # release_factors drops the H1 factor and the Laplacian factor at every
    # cached beta, keeps the operators, and the next solves factor anew and
    # give the same bits
    grid = fv.Grid(2, 16)
    v = np.random.default_rng(5).standard_normal(grid.node_count)

    def solves():
        return [grid.gram_solve(1, v)] + [grid.operators(beta).smooth(v) for beta in (0.5, 2.0)]

    before, ops = solves(), grid.operators(0.5)
    assert lu_counts.live == 3
    grid.release_factors()
    assert lu_counts.live == 0
    assert all(np.array_equal(a, b) for a, b in zip(solves(), before))
    assert grid.operators(0.5) is ops
    assert lu_counts["factorizations"] == 6


@pytest.mark.parametrize("cells, ordered, colamd", [(50, 73_494, 122_914),
                                                    (100, 386_976, 659_092)])
def test_cached_factors_fill_in_their_orderings(cells, ordered, colamd, lu_counts):
    # fill pins, machine-independent: the Laplacian and R_1 share the step
    # pattern and factor in its minimum-degree ordering, whose factor of R_1
    # gives the step ordering with no factorization of its own; the given-
    # weight CG's pair keeps SuperLU's default COLAMD, and release_factors
    # drops all four
    grid = fv.Grid(2, cells)
    lu = grid.lu_h1()
    assert fill(lu) == fill(grid.operators(1.0).lu_laplacian()) == ordered
    assert lu_counts["factorizations"] == 2
    assert np.array_equal(grid.step_order(), np.argsort(lu.perm_c))
    assert lu_counts["factorizations"] == 2
    assert fill(grid.cg_lu(1.0)) == fill(grid.cg_lu(None)) == colamd
    assert [spec for spec, _ in lu_counts.factored] == ["MMD_AT_PLUS_A"] * 2 + ["COLAMD"] * 2
    assert grid.cg_lu(1.0) is grid.cg_lu(1.0) and lu_counts["factorizations"] == 4
    del lu
    grid.release_factors()
    assert lu_counts.live == 0


def test_step_order_without_a_cached_h1_factor_keeps_none(lu_counts):
    # with no H1 factor cached, the ordering costs one factorization, which
    # it drops; the H1 factor built later gives the same ordering, and a
    # released one is not rebuilt for it
    grid = fv.Grid(2, 16)
    order = grid.step_order()
    assert lu_counts["factorizations"] == 1 and lu_counts.live == 0
    assert np.array_equal(np.argsort(grid.lu_h1().perm_c), order)
    grid.release_factors()
    assert grid.step_order() is order and lu_counts["factorizations"] == 2


def fill(lu):
    return lu.L.nnz + lu.U.nnz


def test_a_dropped_grid_frees_its_factors_at_once(lu_counts):
    # the operators reach their grid weakly, so no reference cycle keeps a
    # dropped grid, and its cached factors, alive until a garbage collection
    gc.disable()
    try:
        grid = fv.Grid(2, 16)
        grid.gram_solve(1, grid.operators(0.5).smooth(np.ones(grid.node_count)))
        assert lu_counts.live == 2
        del grid
        assert lu_counts.live == 0
    finally:
        gc.enable()


def test_smooth_adjoint_is_the_transpose(grid16):
    # (S f)'g = f'(S' g), for a vector and for each column of an array
    rng = np.random.default_rng(4)
    f = rng.standard_normal(grid16.node_count)
    g = rng.standard_normal((grid16.node_count, 2))
    for beta in (0.5, 2.0):
        ops = grid16.operators(beta)
        lhs = ops.smooth(f) @ g
        assert f @ ops.smooth_adjoint(g) == pytest.approx(lhs, rel=1e-10)
        assert f @ ops.smooth_adjoint(g[:, 1]) == pytest.approx(lhs[1], rel=1e-10)


def test_grid_function_arithmetic(grid16, grid32):
    a = grid16.function(lambda x, y: x + y)
    b = grid16.function(lambda x, y: x * y)
    assert np.array_equal((a - b).values, a.values - b.values)
    other = grid32.zeros()
    with pytest.raises(ValueError, match="grid mismatch"):
        _ = a - other
    with pytest.raises(ValueError):
        fv.GridFunction(grid16, np.zeros(5))


def test_boundary_metadata(grid16):
    # classification is exhaustive and disjoint
    both = np.concatenate([grid16.boundary_indices, grid16.interior_indices])
    assert np.array_equal(np.sort(both), np.arange(grid16.node_count))
