import re

import numpy as np
import pytest

import fluoinv as fv
from fluoinv import fit as fit_module
from fluoinv.fit import _FitWorkspace, _ShiftedLanczos
from fluoinv.presets import build_truth, trig_forcing
from fluoinv.stochastic import NoiseModel, observe, sample_points


def sensors(grid, n, seed):
    """The map of n Halton sensors on a 2-D grid."""
    return fv.PointEvaluation(grid, sample_points(2, n, seed=seed))


def test_point_evaluation_at_nodes(grid16):
    pts = grid16.coords[grid16.interior_indices[:5]]
    ev = fv.PointEvaluation(grid16, pts)
    rng = np.random.default_rng(0)
    u = grid16.function(rng.standard_normal(grid16.node_count))
    assert np.allclose(ev.apply(u), u.values[grid16.interior_indices[:5]], atol=1e-14)


def test_point_evaluation_partition_of_unity(grid16):
    pts = sample_points(2, 200, seed=1)
    ev = fv.PointEvaluation(grid16, pts)
    const = grid16.function(np.full(grid16.node_count, 2.5))
    assert np.allclose(ev.apply(const), 2.5, atol=1e-13)


def test_point_evaluation_rejects_outside(grid16):
    with pytest.raises(ValueError):
        fv.PointEvaluation(grid16, np.array([[0.5, 1.2]]))


def test_empirical_norm():
    assert fv.empirical_norm(np.ones(7)) == pytest.approx(1.0)
    assert fv.empirical_norm(np.zeros(4)) == 0.0
    assert fv.empirical_norm(np.array([3.0, 4.0])) == pytest.approx(np.sqrt(12.5))
    with pytest.raises(ValueError):
        fv.empirical_norm(np.array([]))


def test_zero_data_zero_minimizer(grid16):
    meas = fv.MeasurementSet(sensors(grid16, 100, 4), np.zeros(100))
    res = fv.solve_data_fit(1.0, meas, 0, 1e-6)
    assert np.abs(res.f.values).max() < 1e-12


@pytest.fixture(scope="module")
def small_fit(grid16):
    f_true = trig_forcing(grid16)
    sf_true = fv.elliptic_solve(grid16, 1.0, f_true)
    meas = observe(sf_true, sensors(grid16, 400, 5), NoiseModel("gaussian", 0.002, 99))
    return dict(grid=grid16, f_true=f_true, sf_true=sf_true, meas=meas)


def objective(meas, s, lam, f_values):
    ws = _FitWorkspace(meas.sensors, 1.0)
    sf = ws.ops.smooth(f_values)
    misfit = float(np.mean((ws.sensors.apply(sf) - meas.values) ** 2))
    return misfit + lam * float(f_values @ ws.grid.gram_apply(s, f_values))


@pytest.mark.parametrize("s", [0, 1])
def test_first_order_optimality(small_fit, s):
    grid, meas = small_fit["grid"], small_fit["meas"]
    lam = 1e-6
    res = fv.solve_data_fit(1.0, meas, s, lam)
    j0 = objective(meas, s, lam, res.f.values)
    rng = np.random.default_rng(6)
    scale = 1e-6 * max(np.abs(res.f.values).max(), 1.0)
    for _ in range(20):
        d = rng.standard_normal(grid.node_count)
        d *= scale / np.abs(d).max()
        assert objective(meas, s, lam, res.f.values + d) >= j0 - 1e-15
        assert objective(meas, s, lam, res.f.values - d) >= j0 - 1e-15


def test_gradient_matches_finite_differences(small_fit):
    # normal-equation residual = half objective gradient, checked directionally
    grid, meas = small_fit["grid"], small_fit["meas"]
    s, lam = 1, 1e-5
    ws = _FitWorkspace(meas.sensors, 1.0)
    rng = np.random.default_rng(7)
    f0 = rng.standard_normal(grid.node_count)
    v = rng.standard_normal(grid.node_count)
    sf = ws.ops.smooth(f0)
    resid_vec = ws.sensors.apply(sf) - meas.values
    grad = 2.0 * (lam * ws.grid.gram_apply(s, f0)
                  + ws.grid.weights * ws.ops.lu_laplacian().solve(ws.sensors.matrix.T @ resid_vec)
                  / meas.n)
    eps = 1e-6
    fd = (objective(meas, s, lam, f0 + eps * v)
          - objective(meas, s, lam, f0 - eps * v)) / (2 * eps)
    assert fd == pytest.approx(grad @ v, rel=1e-6)


def test_misfit_monotone_in_lambda(small_fit):
    grid, meas = small_fit["grid"], small_fit["meas"]
    misfits = [fv.solve_data_fit(1.0, meas, 0, lam).misfit_n
               for lam in (1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3)]
    assert all(b >= a * (1 - 1e-12) for a, b in zip(misfits, misfits[1:]))


def test_large_lambda_kills_penalty_norm(small_fit):
    grid, meas = small_fit["grid"], small_fit["meas"]
    res = fv.solve_data_fit(1.0, meas, 1, 1e6)
    assert res.penalty_norm < 1e-6


@pytest.mark.parametrize("s", [0, 1])
def test_fit_result_consistent_with_elliptic_solve(small_fit, s):
    # Sf from the fit against an independent dense solve of the Robin problem
    grid, meas = small_fit["grid"], small_fit["meas"]
    res = fv.solve_data_fit(1.0, meas, s, 1e-6)
    ops = grid.operators(1.0)
    L = ops.laplacian.toarray()
    sf = grid.function(np.linalg.solve(L, grid.weights * res.f.values))
    assert fv.l2_norm(sf - res.sf) <= 1e-8
    assert fv.l2_norm(fv.elliptic_solve(grid, 1.0, res.f) - res.sf) <= 1e-8
    # the fixed point forms its forcing as -Delta_h Sf, which must give back f
    derived = ops.pointwise_laplacian(res.sf.values)
    assert np.linalg.norm(derived - res.f.values) <= 1e-9 * np.linalg.norm(res.f.values)


def test_config_validation(grid16):
    meas = fv.MeasurementSet(sensors(grid16, 10, 0), np.zeros(10))
    with pytest.raises(ValueError, match="penalty order"):
        fv.solve_data_fit(1.0, meas, 2, 1e-6)
    for lam in (0.0, -1.0):
        with pytest.raises(ValueError, match="regularization weight"):
            fv.solve_data_fit(1.0, meas, 0, lam)
    with pytest.raises(ValueError):
        fv.MeasurementSet(fv.PointEvaluation(grid16, [[0.5, 1.0]]), np.zeros(1))


def test_lambda_prior_rule_values():
    # benchmark weights for n = 1e4 samples at noise 0.002 with |f*| = 0.5 (L2)
    # and 4.4702 (H1); published tabulated values 1.3511e-6 and 9.3234e-9
    lam0 = fv.optimal_lambda_prior(0.5, 0.002, 10**4, s=0)
    assert lam0 == pytest.approx(1.3511e-6, rel=0.05)
    lam1 = fv.optimal_lambda_prior(4.4702, 0.002, 10**4, s=1)
    assert lam1 == pytest.approx(9.3234e-9, rel=0.05)
    with pytest.raises(ValueError):
        fv.optimal_lambda_prior(0.0, 0.002, 100, 0)
    with pytest.raises(ValueError):
        fv.optimal_lambda_prior(0.5, 0.0, 100, 0)


def example2_measurements(grid, n, relative_sigma, seed):
    """Noisy samples of the example2 field.  On so few sensors the example1
    field (about 0.02 at its peak) sends the weight loop to infinity."""
    _, sf_true, _, _ = build_truth("example2-smooth", grid, tau=0.25)
    sigma = relative_sigma * np.abs(sf_true.values).max()
    return observe(sf_true, sensors(grid, n, seed),
                   NoiseModel("gaussian", sigma, seed))


@pytest.fixture(scope="module")
def few_sensors(grid32):
    return dict(grid=grid32, meas=example2_measurements(grid32, 120, 0.001, 5))


def assert_meets_the_cg_rule(meas, s, lam, res):
    """The returned fit solves the normal equations at ``lam`` to the CG rule,
    checked on its true residual, and reports that residual."""
    ws = _FitWorkspace(meas.sensors, 1.0)
    b = ws.rhs(meas.values)
    f = res.f.values
    residual = np.linalg.norm(b - lam * ws.grid.gram_apply(s, f) - ws.data_apply(f))
    assert residual <= fit_module.SOLVER_TOL * np.linalg.norm(b)
    assert residual / np.linalg.norm(b) == pytest.approx(res.report.residual, rel=1e-3)
    assert np.array_equal(res.sf.values, ws.ops.smooth(f))


def test_self_consistent_lambda_small_scale(small_fit, few_sensors):
    # 400 sensors on grid 16, and 120 on grid 32
    for data in (small_fit, few_sensors):
        grid, meas = data["grid"], data["meas"]
        lam, res, trace = fv.self_consistent_lambda(1.0, meas, s=0)
        assert trace.outer_iterations <= 15
        assert abs(trace.lams[-1] - trace.lams[-2]) < 1e-10
        assert lam == trace.lams[-1]
        assert_meets_the_cg_rule(meas, 0, lam, res)


@pytest.mark.parametrize("s", [0, 1])
def test_accepted_weight_fit_is_read_off_the_basis(monkeypatch, s):
    # the example1 field on grid 16 at the noise of the p1 preset: the fit at
    # the accepted weight comes from the loop's Lanczos basis, with no CG, and
    # lies as close to a CG solve far below the default tolerance as a CG
    # solve at the default tolerance does (about 1e-8; on fewer sensors both
    # drift further, as the normal equations are worse conditioned)
    grid = fv.Grid(2, 16)
    _, sf_true, _, _ = build_truth("example1", grid)
    meas = observe(sf_true, sensors(grid, 1000, 0), NoiseModel("gaussian", 0.002, 0))
    with monkeypatch.context() as m:
        m.setattr(fit_module, "_pcg", None)
        lam, res, trace = fv.self_consistent_lambda(1.0, meas, s)
    assert_meets_the_cg_rule(meas, s, lam, res)
    with monkeypatch.context() as m:
        m.setattr(fit_module, "SOLVER_TOL", 1e-13)
        tight = fv.solve_data_fit(1.0, meas, s, lam)
    distance = np.linalg.norm(res.f.values - tight.f.values)
    assert distance <= 1e-7 * np.linalg.norm(tight.f.values)
    assert res.misfit_n == pytest.approx(tight.misfit_n, rel=1e-7)
    assert res.penalty_norm == pytest.approx(tight.penalty_norm, rel=1e-7)


def test_self_consistent_lambda_noiseless(small_fit):
    grid, sf_true = small_fit["grid"], small_fit["sf_true"]
    meas = observe(sf_true, sensors(grid, 400, 8), NoiseModel("zero", 0.0, 0))
    lam, res, trace = fv.self_consistent_lambda(1.0, meas, s=0)
    assert trace.lams[1] < trace.lams[0]  # the weight heads down without noise
    # misfit settles at the interpolation-error level, far below the field scale
    assert res.misfit_n < 0.05 * fv.empirical_norm(meas.values)


@pytest.mark.parametrize("s", [0, 1])
def test_noiseless_weight_loop_holds_at_most_n_basis_vectors(small_fit, s):
    # noiseless data drive the weight toward 1e-13, where Lanczos without
    # reorthogonalization takes 539 (s = 0) and 2,210 (s = 1) steps on these
    # 289 nodes, past the cap of N basis vectors
    grid, sf_true = small_fit["grid"], small_fit["sf_true"]
    meas = observe(sf_true, sensors(grid, 1000, 8), NoiseModel("zero", 0.0, 0))
    lam, res, trace = fv.self_consistent_lambda(1.0, meas, s)
    assert lam < 1e-11
    assert 1 < res.report.iterations <= grid.node_count
    assert_meets_the_cg_rule(meas, s, lam, res)


@pytest.mark.parametrize("s", [0, 1])
def test_lanczos_basis_is_orthonormal(few_sensors, s):
    # a small weight takes the process deep: 54 (s = 0) and 75 (s = 1) steps
    grid, meas = few_sensors["grid"], few_sensors["meas"]
    ws = _FitWorkspace(meas.sensors, 1.0)
    krylov = _ShiftedLanczos(ws, s, meas.values)
    krylov.norms(1e-12)
    basis = np.array(krylov.basis)
    assert len(basis) == len(krylov.alphas) > 50
    gram = basis @ np.array([ws.grid.gram_apply(s, q) for q in basis]).T
    assert np.abs(gram - np.eye(len(basis))).max() <= 1e-10


@pytest.mark.parametrize("s", [0, 1])
def test_lanczos_breakdown_stops_before_dividing(grid16, s):
    # n sensors span a space of n dimensions: the n-th step leaves beta about
    # 0, and the residual test stops the process before it divides by beta
    for n in (1, 3, 5):
        meas = fv.MeasurementSet(sensors(grid16, n, 0), np.linspace(1.0, 2.0, n))
        with np.errstate(all="raise"):
            krylov = _ShiftedLanczos(_FitWorkspace(meas.sensors, 1.0), s, meas.values)
            for lam in (1e-2, 1e-6, 1e-12):
                krylov.norms(lam)
        assert len(krylov.alphas) == n


def test_lanczos_step_cap_is_the_node_count(grid16):
    # the basis cannot outgrow the space: the cap is N, and reaching it is named
    meas = fv.MeasurementSet(sensors(grid16, 400, 8), np.ones(400))
    krylov = _ShiftedLanczos(_FitWorkspace(meas.sensors, 1.0), 0, meas.values)
    assert krylov.cap == grid16.node_count
    krylov.cap = 3
    with pytest.raises(fv.ConvergenceError, match=r"step cap min\(CG_MAX_ITER, N\) = 3"):
        krylov.norms(1e-12)
    assert len(krylov.basis) == 3


@pytest.mark.parametrize("cells,n", [(16, 30), (32, 120)])
@pytest.mark.parametrize("s", [0, 1])
def test_weight_passes_match_tight_cg(monkeypatch, cells, n, s):
    # each pass at a falling weight reads the misfit and penalty norm of the
    # CG solve run far below its default tolerance
    grid = fv.Grid(2, cells)
    sf_true = fv.elliptic_solve(grid, 1.0, trig_forcing(grid))
    meas = observe(sf_true, sensors(grid, n, 3), NoiseModel("gaussian", 0.002, 5))
    ws = _FitWorkspace(meas.sensors, 1.0)
    krylov = _ShiftedLanczos(ws, s, meas.values)
    for scale in (100.0, 1.0, 0.01):
        lam = scale * fv.optimal_lambda_prior(1.0, 0.002, n, s)
        misfit, penalty = krylov.norms(lam)
        with monkeypatch.context() as m:
            m.setattr(fit_module, "SOLVER_TOL", 1e-13)
            cg = fv.solve_data_fit(1.0, meas, s, lam)
        assert misfit == pytest.approx(cg.misfit_n, rel=1e-8)
        assert penalty == pytest.approx(cg.penalty_norm, rel=1e-8)


@pytest.mark.parametrize("s", [0, 1])
def test_weight_loop_cost(lu_counts, s):
    # the passes share one Lanczos process: 1 + s solves for its start vector
    # and 2 + s per step; the fit at the accepted weight is read off its basis,
    # and its field Sf is one more solve
    grid = fv.Grid(2, 16)
    meas = example2_measurements(grid, 30, 0.01, 2)
    ws = _FitWorkspace(meas.sensors, 1.0)
    ws.ops.lu_laplacian()
    ws.grid.lu_h1()
    lu_counts.update(factorizations=0, solves=0)
    _, res, trace = fv.self_consistent_lambda(1.0, meas, s)
    assert trace.outer_iterations > 1
    loop_solves = lu_counts["solves"]
    # the same passes and fit on a process of their own give the step count
    krylov = _ShiftedLanczos(ws, s, meas.values)
    for lam in trace.lams:
        krylov.norms(lam)
    steps = len(krylov.alphas)
    assert steps == res.report.iterations > 1
    assert loop_solves == (1 + s) + (2 + s) * steps + 1
    # a larger weight needs no deeper process: it costs no solve
    lu_counts.update(solves=0)
    krylov.norms(10 * max(trace.lams))
    assert lu_counts == {"factorizations": 0, "solves": 0}


@pytest.mark.parametrize("cells", [4, 8], ids=["grid4", "grid8"])
def test_diverging_weight_loop_names_the_pass(cells):
    # about as much noise as signal, on grids 4 and 8: the weight grows until
    # the penalty norm underflows to zero, and the loop says at which pass and
    # keeps the weights of the passes before it
    grid = fv.Grid(2, cells)
    sf_true = fv.elliptic_solve(grid, 1.0, trig_forcing(grid))
    meas = observe(sf_true, sensors(grid, 5, 0), NoiseModel("gaussian", 1.0, 0))
    with pytest.raises(fv.ConvergenceError,
                       match=r"weight loop, pass \d+ .*penalty norm") as info:
        fv.self_consistent_lambda(1.0, meas, 0)
    passes = int(re.search(r"pass (\d+)", str(info.value)).group(1))
    assert len(info.value.trace.lams) == passes


@pytest.mark.parametrize("s", [0, 1])
def test_weight_loop_at_its_pass_cap_raises(monkeypatch, lu_counts, s):
    # two passes do not stabilize the weight: the loop names the cap, keeps
    # the starting weight and both updates, and makes no solve after its last
    # pass (no fit at the accepted weight, no Sf)
    grid = fv.Grid(2, 16)
    meas = example2_measurements(grid, 30, 0.01, 2)
    ws = _FitWorkspace(meas.sensors, 1.0)
    ws.ops.lu_laplacian()
    ws.grid.lu_h1()
    monkeypatch.setattr(fit_module, "WEIGHT_MAX_PASSES", 2)
    lu_counts.update(factorizations=0, solves=0)
    with pytest.raises(fv.ConvergenceError, match=r"pass cap WEIGHT_MAX_PASSES = 2 ") as info:
        fv.self_consistent_lambda(1.0, meas, s)
    loop_solves = lu_counts["solves"]
    lams = info.value.trace.lams
    assert len(lams) == 3
    # the two passes on a process of their own give the step count
    krylov = _ShiftedLanczos(ws, s, meas.values)
    for lam in lams[:2]:
        krylov.norms(lam)
    assert loop_solves == (1 + s) + (2 + s) * len(krylov.alphas)
    assert lu_counts["factorizations"] == 0


def test_weight_loop_stops_on_overflowing_lanczos(grid16):
    # data of 1e200: the start coefficient overflows, and the first pass says so
    meas = fv.MeasurementSet(sensors(grid16, 20, 0), np.full(20, 1e200))
    with pytest.raises(fv.ConvergenceError, match=r"pass 1 .*start has a non-finite"):
        fv.self_consistent_lambda(1.0, meas, 0)
    # a step whose product overflows stops there
    ws = _FitWorkspace(meas.sensors, 1.0)
    krylov = _ShiftedLanczos(ws, 0, np.ones(20))
    ws.data_apply = lambda f: np.full_like(f, np.inf)
    with np.errstate(invalid="ignore"), \
            pytest.raises(fv.ConvergenceError, match="step 1 has a non-finite"):
        krylov.norms(1e-6)

