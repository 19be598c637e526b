import numpy as np
import pytest

import fluoinv as fv
from fluoinv.presets import build_truth, example2_problem
from fluoinv.stochastic import NoiseModel, observe, sample_points


# the raw map, unprojected, so its monotonicity is observable
UNCLAMPED = fv.InverseConfig(clamp=False)


def test_zero_data_fixed_point(ex2_32):
    data, grid = ex2_32["data"], ex2_32["grid"]
    g0 = grid.zeros()
    assert np.abs(fv.initial_guess(data, g0, g0).values).max() == 0.0
    assert np.abs(fv.fixed_point_map(data, grid.zeros(), g0, g0).values).max() == 0.0
    q, trace = fv.fixed_point_solve(data, g0, g0, UNCLAMPED)
    assert trace.converged and trace.iterations == 1
    assert np.abs(q.values).max() == 0.0


def test_map_monotone_at_extremes(ex2_32):
    data, grid, f, g = ex2_32["data"], ex2_32["grid"], ex2_32["f"], ex2_32["g"]
    k_lo = fv.fixed_point_map(data, grid.zeros(), f, g)
    k_hi = fv.fixed_point_map(data, grid.function(np.full(grid.node_count, data.M)), f, g)
    assert (k_hi.values - k_lo.values).min() >= -1e-10


def test_map_lipschitz_ratio_reported(ex2_32):
    data, grid, f, g = ex2_32["data"], ex2_32["grid"], ex2_32["f"], ex2_32["g"]
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(20):
        qa = fv.GridFunction(grid, rng.uniform(0, data.M, grid.node_count))
        qb = fv.GridFunction(grid, rng.uniform(0, data.M, grid.node_count))
        num = fv.l2_norm(fv.fixed_point_map(data, qa, f, g)
                         - fv.fixed_point_map(data, qb, f, g))
        den = fv.l2_norm(qa - qb)
        if den > 0:
            worst = max(worst, num / den)
    assert np.isfinite(worst) and worst > 0  # the constant itself is data-dependent
    print(f"\nempirical map Lipschitz ratio over 20 pairs: {worst:.4f}")


def test_initial_guess_bounds(ex2_32):
    data, f, g, q_true = ex2_32["data"], ex2_32["f"], ex2_32["g"], ex2_32["q_true"]
    q0 = fv.initial_guess(data, f, g)
    assert (q0.values - q_true.values).max() <= 1e-8
    assert q0.values.min() >= -1e-10


def test_clean_recovery_inverse_crime(ex2_32):
    data, f, g, q_true = ex2_32["data"], ex2_32["f"], ex2_32["g"], ex2_32["q_true"]
    q, trace = fv.fixed_point_solve(data, f, g, UNCLAMPED)
    assert trace.converged
    assert min(trace.step_minima) >= -1e-10          # increasing iterates
    assert (q.values - q_true.values).max() <= 1e-8  # never overshooting the truth
    assert fv.l2_norm(q - q_true) / fv.l2_norm(q_true) <= 1e-2
    # residual of the returned point under one more application of the map
    resid = fv.l2_norm(fv.fixed_point_map(data, q, f, g) - q)
    assert resid <= 10 * 1e-10
    # terminal emission at the fixed point reproduces the data
    u_m = fv.solve_emission(data, q, fv.solve_excitation(data, q))
    assert fv.l2_norm(fv.terminal_data(u_m) - g) <= 1e-9


def test_clamped_iterates_stay_admissible(ex2_32):
    data, grid, g = ex2_32["data"], ex2_32["grid"], ex2_32["g"]
    ops = grid.operators(data.beta)
    # inflate the forcing so the raw map leaves [0, M]
    f_big = fv.GridFunction(grid, 20.0 * ops.pointwise_laplacian(g.values) + 50.0)
    assert fv.initial_guess(data, f_big, g).values.max() > data.M
    q, trace = fv.fixed_point_solve(data, f_big, g, fv.InverseConfig(max_iter=20))
    assert q.values.min() >= 0.0
    assert q.values.max() <= data.M


def test_check_domain(ex2_32):
    data, grid, f, g = ex2_32["data"], ex2_32["grid"], ex2_32["f"], ex2_32["g"]
    assert fv.check_domain(data, grid.function(np.full(grid.node_count, data.M)), f, g).ok
    assert fv.check_domain(data, fv.initial_guess(data, f, g), f, g).ok
    rep = fv.check_domain(data, grid.function(np.full(grid.node_count, -1.0)), f, g)
    assert not rep.ok
    assert len(rep.lower_violations) == grid.node_count


def test_clean_recovery_discontinuous_source_with_clamp():
    # hypothesis-violating data (the jump makes the raw initial guess dip
    # slightly negative) still recover exactly once iterates are projected
    f, g, data, q_true = build_truth("example2-discontinuous", fv.Grid(2, 40), tau=0.05)
    assert fv.initial_guess(data, f, g).values.min() < 0  # raw guess leaves [0, M]
    with pytest.raises(fv.PositivityError):
        fv.fixed_point_solve(data, f, g, UNCLAMPED)  # the unclamped iteration rejects it
    q, trace = fv.fixed_point_solve(data, f, g)
    assert trace.converged
    assert fv.l2_norm(q - q_true) / fv.l2_norm(q_true) <= 1e-2


def test_division_guard_on_violated_data(grid16):
    data = example2_problem(grid16, tau=0.25, flip_boundary=True,
                            check_assumptions=False)
    g = grid16.function(np.ones(grid16.node_count))
    with pytest.raises(fv.PositivityError):
        fv.initial_guess(data, grid16.zeros(), g)


def _noisy_recovery(cells, level, s, seed=2024, tau=0.01):
    grid = fv.Grid(2, cells)
    _, g, data, q_true = build_truth("example2-smooth", grid, tau=tau)
    sigma = level * np.abs(g.values).max()
    meas = observe(g, sample_points(2, 500, seed=0),
                   NoiseModel("gaussian", sigma, np.random.SeedSequence(seed)))
    _, fit, _ = fv.self_consistent_lambda(grid, 1.0, meas, s)
    q_rec, trace = fv.fixed_point_solve(data, fit.f, fit.sf)
    assert trace.converged
    return fv.error_bundle(q=q_rec, q_true=q_true)


def test_noise_sweep_monotone_h1_penalty():
    # the H1 penalty carries an L2 rate for the forcing, so less noise
    # must mean a better source
    errs = [_noisy_recovery(50, level, s=1).err5 for level in (0.01, 0.001, 0.0001)]
    assert errs[0] > errs[1] > errs[2]


@pytest.mark.xfail(
    strict=True,
    reason="the published table also decreases for the L2 penalty, but no L2 "
    "rate for the forcing exists at s=0 and the middle rung rises in this "
    "pipeline for every seed tried; see the decisions ledger",
)
def test_noise_sweep_monotone_l2_penalty():
    errs = [_noisy_recovery(50, level, s=0).err5 for level in (0.01, 0.001, 0.0001)]
    assert errs[0] > errs[1] > errs[2]


def test_recovery_error_benchmark_l2_penalty():
    # published benchmark value for the 1%-noise run with the L2 penalty
    err5 = _noisy_recovery(100, 0.01, s=0).err5
    assert err5 <= 3.0 * 7.90e-2
    assert err5 >= 7.90e-2 / 3.0


@pytest.mark.xfail(
    strict=True,
    reason="published H1-penalty benchmark (9.80e-3 at 1% noise, n=500) is below "
    "the information floor of the stated setup; see the decisions ledger",
)
def test_recovery_error_benchmark_h1_penalty():
    err5 = _noisy_recovery(100, 0.01, s=1).err5
    assert err5 <= 3.0 * 9.80e-3
    assert err5 >= 9.80e-3 / 3.0
