import numpy as np
import pytest

import fluoinv as fv
from fluoinv import inverse
from fluoinv.presets import build_truth, example2_problem
from fluoinv.stochastic import NoiseModel, observe, sample_points


def test_zero_data_fixed_point(ex2_32):
    data, grid = ex2_32["data"], ex2_32["grid"]
    g0 = grid.zeros()
    assert np.abs(fv.fixed_point_map(data, grid.zeros(), g0).values).max() == 0.0
    q, trace = fv.fixed_point_solve(data, g0, clamp=False)
    assert trace.iterations == 1
    assert np.abs(q.values).max() == 0.0


def test_map_monotone_at_extremes(ex2_32):
    data, grid, g = ex2_32["data"], ex2_32["grid"], ex2_32["g"]
    k_lo = fv.fixed_point_map(data, grid.zeros(), g)
    k_hi = fv.fixed_point_map(data, grid.function(np.full(grid.node_count, data.M)), g)
    assert (k_hi.values - k_lo.values).min() >= -1e-10


def test_map_lipschitz_ratio_reported(ex2_32):
    data, grid, g = ex2_32["data"], ex2_32["grid"], ex2_32["g"]
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(20):
        qa = fv.GridFunction(grid, rng.uniform(0, data.M, grid.node_count))
        qb = fv.GridFunction(grid, rng.uniform(0, data.M, grid.node_count))
        num = fv.l2_norm(fv.fixed_point_map(data, qa, g)
                         - fv.fixed_point_map(data, qb, g))
        den = fv.l2_norm(qa - qb)
        if den > 0:
            worst = max(worst, num / den)
    assert np.isfinite(worst) and worst > 0  # the constant itself is data-dependent
    print(f"\nempirical map Lipschitz ratio over 20 pairs: {worst:.4f}")


def initial_guess(data, g):
    """The iteration's first iterate, the map at q = 0."""
    return fv.fixed_point_map(data, data.grid.zeros(), g)


def test_initial_guess_bounds(ex2_32):
    data, g, q_true = ex2_32["data"], ex2_32["g"], ex2_32["q_true"]
    q0 = initial_guess(data, g)
    assert (q0.values - q_true.values).max() <= 1e-8
    assert q0.values.min() >= -1e-10


def test_clean_recovery_inverse_crime(ex2_32):
    data, g, q_true = ex2_32["data"], ex2_32["g"], ex2_32["q_true"]
    # the raw map, unprojected, so its monotonicity is observable
    q, trace = fv.fixed_point_solve(data, g, clamp=False)
    assert min(trace.step_minima) >= -1e-10          # increasing iterates
    assert (q.values - q_true.values).max() <= 1e-8  # never overshooting the truth
    assert fv.l2_norm(q - q_true) / fv.l2_norm(q_true) <= 1e-2
    # residual of the returned point under one more application of the map
    resid = fv.l2_norm(fv.fixed_point_map(data, q, g) - q)
    assert resid <= 10 * 1e-10
    # terminal emission at the fixed point reproduces the data
    _, _, um_T = fv.terminal_fields(data, q)
    assert fv.l2_norm(um_T - g) <= 1e-9


def test_clamped_iterates_stay_admissible(ex2_32):
    data, g = ex2_32["data"], ex2_32["g"]
    # inflate the field: its initial guess is about 20 q_0 > M
    g_big = data.grid.function(20.0 * g.values)
    assert initial_guess(data, g_big).values.max() > data.M
    q, trace = fv.fixed_point_solve(data, g_big)
    assert q.values.min() >= 0.0
    assert q.values.max() <= data.M


def test_positivity_error_carries_the_trace(ex2_32):
    # unclamped, the inflated field's iterates run away until the terminal
    # excitation vanishes; the error keeps the iterations made before it
    data, g = ex2_32["data"], ex2_32["g"]
    with pytest.raises(fv.PositivityError, match="nonpositive") as failed:
        fv.fixed_point_solve(data, data.grid.function(20.0 * g.values), clamp=False)
    trace = failed.value.trace
    assert trace.iterations > 0
    assert len(trace.step_minima) == trace.iterations


def test_initial_guess_lies_in_the_domain(ex2_32):
    # on clean data the initial guess lies in (-1, M] at every node
    data, g = ex2_32["data"], ex2_32["g"]
    q0 = initial_guess(data, g).values
    assert (q0 > -1.0).all()
    assert (q0 <= data.M).all()


def test_clean_recovery_discontinuous_source_with_clamp():
    # hypothesis-violating data (the jump makes the raw initial guess dip
    # slightly negative) still recover exactly once iterates are projected
    _, g, data, q_true = build_truth("example2-discontinuous", fv.Grid(2, 40), tau=0.05)
    assert initial_guess(data, g).values.min() < 0  # raw guess leaves [0, M]
    with pytest.raises(fv.PositivityError) as failed:
        fv.fixed_point_solve(data, g, clamp=False)  # the unclamped iteration rejects it
    assert failed.value.trace.iterations == 0
    q, _ = fv.fixed_point_solve(data, g)
    assert fv.l2_norm(q - q_true) / fv.l2_norm(q_true) <= 1e-2


def test_fixed_point_at_its_cap_raises(ex2_32, monkeypatch, lu_counts):
    # three steps cannot reach a tolerance of 1e-300: the iteration names the
    # cap, keeps its three steps, and factorizes once per map application;
    # at N = 4 each of the load's two time components runs its Lanczos
    # process to the cap m = N - 1, one solve for the start and one per step
    data, g = ex2_32["data"], ex2_32["g"]
    data.zero_source_levels()  # cached before the count
    monkeypatch.setattr(inverse, "FIXED_POINT_MAX_ITER", 3)
    monkeypatch.setattr(inverse, "FIXED_POINT_TOL", 1e-300)
    lu_counts.reset()
    with pytest.raises(fv.ConvergenceError,
                       match=r"step cap FIXED_POINT_MAX_ITER = 3: .* FIXED_POINT_TOL = 1e-300$"
                       ) as info:
        fv.fixed_point_solve(data, g, clamp=False)
    trace = info.value.trace
    assert trace.iterations == 3
    assert len(trace.misfits) == len(trace.step_minima) == 3
    assert lu_counts == {"factorizations": 3, "solves": 3 * 2 * data.n_steps,
                         "solve_calls": 3 * 2 * data.n_steps}


@pytest.fixture(scope="module")
def fitted_40():
    """``p2 --preset example2-smooth --seed 0`` at grid 40: the problem and
    the fitted field Sf that its clamped iteration reads."""
    grid = fv.Grid(2, 40)
    _, sf_true, data, _ = build_truth("example2-smooth", grid)
    sigma = 0.01 * np.abs(sf_true.values).max()
    meas = observe(sf_true, fv.PointEvaluation(grid, sample_points(2, 500, seed=0)),
                   NoiseModel("gaussian", sigma, np.random.SeedSequence(0)))
    _, fit, _ = fv.self_consistent_lambda(1.0, meas, 1)
    return data, fit.sf


def test_clamped_iteration_is_secant_mixed(fitted_40, monkeypatch, lu_counts):
    # the mixed iteration takes 8 map applications where the plain clamped
    # one takes 12, lands on the same point, and feeds the map only
    # iterates in [0, M]; each application is one factorization and at most
    # 55 solves, against a march's N = 100
    data, g = fitted_40

    def clamped(u):
        return fv.GridFunction(data.grid, np.clip(u.values, 0.0, data.M))

    start = picard = clamped(initial_guess(data, g))  # the plain clamped iteration
    for applications in range(1, inverse.FIXED_POINT_MAX_ITER + 1):
        previous, picard = picard, clamped(fv.fixed_point_map(data, picard, g))
        if fv.l2_norm(picard - previous) < inverse.FIXED_POINT_TOL:
            break
    assert applications == 12

    apply_map, iterates = inverse._apply_map, []

    def recorded(data, q, forcing, tol):
        iterates.append(q.values)
        return apply_map(data, q, forcing, tol)

    monkeypatch.setattr(inverse, "_apply_map", recorded)
    lu_counts.reset()
    q, trace = fv.fixed_point_solve(data, g)
    assert trace.iterations == len(iterates) == 8
    assert np.array_equal(iterates[0], start.values)  # F(0), the map at q = 0, bit for bit
    assert lu_counts["factorizations"] == 8
    assert lu_counts["solves"] <= 8 * 55
    assert all(0.0 <= v.min() and v.max() <= data.M for v in [*iterates, q.values])
    assert fv.l2_norm(q - picard) <= 1e-9 * fv.l2_norm(picard)


@pytest.mark.parametrize("call, match", [
    pytest.param(initial_guess, "problem grid", id="guess-g-off-grid"),
    pytest.param(lambda data, g: fv.fixed_point_solve(data, g), "problem grid",
                 id="solve-g-off-grid"),
])
def test_inverse_input_checks(ex2_32, grid16, call, match):
    # g lives on a 16-cell grid, the problem on a 32-cell one
    with pytest.raises(ValueError, match=match):
        call(ex2_32["data"], grid16.zeros())


def test_division_guard_on_violated_data(grid16):
    data = example2_problem(grid16, tau=0.25, flip_boundary=True)
    g = grid16.function(np.ones(grid16.node_count))
    with pytest.raises(fv.PositivityError):
        initial_guess(data, g)
    # NaN fails every comparison: a NaN excitation or source is rejected too
    nan = np.full(grid16.node_count, np.nan)
    with pytest.raises(fv.PositivityError, match="min nan"):
        inverse._guarded_divide(g.values, nan, grid16)
    with pytest.raises(ValueError, match="min q = nan"):
        fv.fixed_point_map(data, grid16.function(nan), g)


def _noisy_recovery(cells, level, s, seed=2024, tau=0.01):
    grid = fv.Grid(2, cells)
    _, g, data, q_true = build_truth("example2-smooth", grid, tau=tau)
    sigma = level * np.abs(g.values).max()
    meas = observe(g, fv.PointEvaluation(grid, sample_points(2, 500, seed=0)),
                   NoiseModel("gaussian", sigma, np.random.SeedSequence(seed)))
    _, fit, _ = fv.self_consistent_lambda(1.0, meas, s)
    q_rec, _ = fv.fixed_point_solve(data, fit.sf)
    return fv.error_bundle(q=q_rec, q_true=q_true)


def test_fitted_recovery_holds_three_factors_at_most(lu_counts):
    # the truth's march frees its two step factors; the fit caches the
    # Laplacian's and the H1 factor on the grid, and the library never
    # releases them (the p2 command does, see test_cli), so here each map
    # application runs its own step factor beside those two; they go with
    # the grid, which the recovery drops when it returns
    _noisy_recovery(16, 0.01, s=1)
    assert lu_counts.live == 0
    assert lu_counts.peak_live == 3


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
