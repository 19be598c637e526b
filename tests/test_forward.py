import warnings

import numpy as np
import pytest

import fluoinv as fv
from fluoinv.forward import AssumptionWarning
from fluoinv.presets import build_truth, example2_problem, smooth_source

from conftest import restrict


def zero_boundary_problem(grid):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AssumptionWarning)
        return fv.ProblemData(grid, grid.function(lambda x, y: x + y + 10.0),
                              lambda c, t: np.zeros(len(c)), beta=1.0, T=1.0,
                              tau=0.25, M=5.0)


def test_zero_boundary_data_gives_zero_field(grid16):
    data = zero_boundary_problem(grid16)
    u = fv.solve_excitation(data, grid16.zeros())
    assert np.abs(u.levels).max() == 0.0


def test_excitation_positivity_and_floor(ex2_32):
    u_e, data = ex2_32["u_e"], ex2_32["data"]
    assert u_e.levels.min() >= -1e-12
    sc = fv.stability_constants(data)
    assert sc.m_Q > 0
    assert fv.terminal_data(u_e).values.min() >= sc.m_Q - 1e-10


def test_excitation_bounded_by_boundary_maximum(ex2_32):
    u_e, data = ex2_32["u_e"], ex2_32["data"]
    assert u_e.levels.max() <= data.M_b + 1e-10


def test_emission_zero_source(ex2_32):
    data = ex2_32["data"]
    u_e = fv.solve_excitation(data, data.grid.zeros())
    u_m = fv.solve_emission(data, data.grid.zeros(), u_e)
    assert np.abs(u_m.levels).max() == 0.0


def test_emission_terminal_positivity(ex2_32):
    assert ex2_32["g"].values.min() > 0.0


def test_emission_time_monotone(ex2_32):
    assert ex2_32["u_m"].time_differences().min() >= -1e-12


def test_terminal_data_is_last_level(ex2_32):
    u_m = ex2_32["u_m"]
    assert np.array_equal(fv.terminal_data(u_m).values, u_m.levels[-1])
    zero = fv.SpaceTimeField(ex2_32["grid"], np.array([0.0, 1.0]),
                             np.zeros((2, ex2_32["grid"].node_count)))
    assert np.abs(fv.terminal_data(zero).values).max() == 0.0


def test_terminal_derivative_trivial_cases(ex2_32):
    grid = ex2_32["grid"]
    const = fv.SpaceTimeField(grid, np.array([0.0, 0.5, 1.0]),
                              np.ones((3, grid.node_count)))
    assert np.abs(fv.terminal_time_derivative(const).values).max() == 0.0
    data = ex2_32["data"]
    u_e = fv.solve_excitation(data, grid.zeros())
    u_m = fv.solve_emission(data, grid.zeros(), u_e)
    assert np.abs(fv.terminal_time_derivative(u_m).values).max() == 0.0
    assert fv.terminal_time_derivative(ex2_32["u_m"]).values.min() >= -1e-12
    single = fv.SpaceTimeField(grid, np.array([0.0]), np.zeros((1, grid.node_count)))
    with pytest.raises(ValueError):
        fv.terminal_time_derivative(single)


def run_terminal_emission(cells, tau):
    grid = fv.Grid(2, cells)
    data = example2_problem(grid, tau=tau)
    q = smooth_source(grid)
    u_e = fv.solve_excitation(data, q)
    return grid, fv.terminal_data(fv.solve_emission(data, q, u_e))


def test_terminal_data_refinement_oracle():
    # halving h and tau must reproduce the coarse terminal field to 1%
    coarse_grid, g_coarse = run_terminal_emission(32, 0.02)
    _, g_fine = run_terminal_emission(64, 0.01)
    diff = fv.GridFunction(coarse_grid, g_coarse.values - restrict(g_fine.values, 32, 64))
    assert fv.l2_norm(diff) / fv.l2_norm(g_coarse) <= 1e-2


def test_refinement_first_order():
    # O(h) convergence of the terminal emission field under joint refinement
    grid_a, ga = run_terminal_emission(16, 0.04)
    grid_b, gb = run_terminal_emission(32, 0.02)
    _, gc = run_terminal_emission(64, 0.01)
    d1 = fv.l2_norm(fv.GridFunction(grid_a, ga.values - restrict(gb.values, 16, 32)))
    d2 = fv.l2_norm(fv.GridFunction(grid_b, gb.values - restrict(gc.values, 32, 64)))
    assert d2 <= 0.75 * d1  # at least first-order decay between consecutive halvings


def test_elliptic_solve_zero(grid16):
    assert np.abs(fv.elliptic_solve(grid16, 1.0, grid16.zeros()).values).max() == 0.0


def test_elliptic_self_adjoint(grid32):
    rng = np.random.default_rng(5)
    mass = grid32.operators(1.0).mass_diag
    f = grid32.function(rng.standard_normal(grid32.node_count))
    g = grid32.function(rng.standard_normal(grid32.node_count))
    sf = fv.elliptic_solve(grid32, 1.0, f)
    sg = fv.elliptic_solve(grid32, 1.0, g)
    lhs = sf.values @ (mass * g.values)
    rhs = f.values @ (mass * sg.values)
    assert lhs == pytest.approx(rhs, abs=1e-9 * max(1.0, abs(lhs)))


def test_elliptic_refinement_oracle():
    from fluoinv.presets import trig_forcing

    coarse = fv.Grid(2, 32)
    fine = fv.Grid(2, 64)
    s_coarse = fv.elliptic_solve(coarse, 1.0, trig_forcing(coarse))
    s_fine = fv.elliptic_solve(fine, 1.0, trig_forcing(fine))
    ref = restrict(s_fine.values, 32, 64)
    diff = fv.GridFunction(coarse, s_coarse.values - ref)
    assert fv.l2_norm(diff) / fv.l2_norm(fv.GridFunction(coarse, ref)) <= 5e-3


def test_monotone_ordering_in_source(ex2_32):
    data, grid = ex2_32["data"], ex2_32["grid"]
    rng = np.random.default_rng(11)
    lo = rng.uniform(0, data.M, grid.node_count)
    hi = lo + rng.uniform(0, 1, grid.node_count) * (data.M - lo)
    u_lo = fv.solve_excitation(data, fv.GridFunction(grid, lo))
    u_hi = fv.solve_excitation(data, fv.GridFunction(grid, hi))
    assert (u_lo.levels - u_hi.levels).min() >= -1e-12


def test_emission_excitation_conservation(ex2_32):
    # u_m(q1) - u_m(q2) = u_e(q2) - u_e(q1) level by level
    data, grid = ex2_32["data"], ex2_32["grid"]
    rng = np.random.default_rng(13)
    q1 = fv.GridFunction(grid, rng.uniform(0, data.M, grid.node_count))
    q2 = fv.GridFunction(grid, rng.uniform(0, data.M, grid.node_count))
    ue1 = fv.solve_excitation(data, q1)
    ue2 = fv.solve_excitation(data, q2)
    um1 = fv.solve_emission(data, q1, ue1)
    um2 = fv.solve_emission(data, q2, ue2)
    gap = (um1.levels - um2.levels) - (ue2.levels - ue1.levels)
    assert np.abs(gap).max() < 1e-10


def test_energy_estimate(ex2_32):
    data, grid = ex2_32["data"], ex2_32["grid"]
    bound = np.sqrt(data.T) * data.M_b / np.sqrt(data.p.values.min())
    rng = np.random.default_rng(17)
    for _ in range(20):
        qa = fv.GridFunction(grid, rng.uniform(0, data.M, grid.node_count))
        qb = fv.GridFunction(grid, rng.uniform(0, data.M, grid.node_count))
        num = fv.l2_norm(fv.terminal_data(fv.solve_excitation(data, qa))
                         - fv.terminal_data(fv.solve_excitation(data, qb)))
        den = fv.l2_norm(qa - qb)
        assert num <= bound * den


def test_validation_and_warnings(grid16):
    data = example2_problem(grid16, tau=0.25)
    with pytest.raises(ValueError):
        fv.solve_excitation(data, grid16.function(np.full(grid16.node_count, -0.1)))
    with pytest.raises(ValueError):
        example2_problem(grid16, T=1.0, tau=0.3)  # not an integer number of steps
    with pytest.warns(AssumptionWarning):
        example2_problem(grid16, tau=0.25, flip_boundary=True)


def test_grid_mismatch_rejected(ex2_32, grid16):
    data = ex2_32["data"]
    with pytest.raises(ValueError):
        fv.solve_excitation(data, grid16.zeros())
    other = example2_problem(grid16, tau=0.25)
    u_e16 = fv.solve_excitation(other, grid16.zeros())
    with pytest.raises(ValueError):
        fv.solve_emission(data, ex2_32["q_true"], u_e16)


def test_fixed_point_map_cost(monkeypatch):
    # the cost model of one map application: the excitation step matrix
    # depends on q and is factorized anew, the emission factor is cached,
    # and each of the two backward-Euler marches does one solve per step
    import scipy.sparse.linalg as spla

    counts = {"factorizations": 0, "solves": 0}
    splu = spla.splu

    class CountedFactor:
        def __init__(self, lu):
            self._lu = lu

        def solve(self, rhs):
            counts["solves"] += 1
            return self._lu.solve(rhs)

    def counted_splu(*args, **kwargs):
        counts["factorizations"] += 1
        return CountedFactor(splu(*args, **kwargs))

    monkeypatch.setattr(spla, "splu", counted_splu)
    grid = fv.Grid(2, 16)
    f, g, data, _ = build_truth("example2-smooth", grid, tau=0.25)
    assert data.n_steps == 4
    q = grid.function(np.full(grid.node_count, 1.0))
    fv.fixed_point_map(data, q, f, g)  # the emission factor is cached by now
    counts.update(factorizations=0, solves=0)
    fv.fixed_point_map(data, q, f, g)
    assert counts == {"factorizations": 1, "solves": 2 * data.n_steps}
