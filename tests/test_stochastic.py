import dataclasses

import numpy as np
import pytest
from scipy.spatial import cKDTree

import fluoinv as fv
from fluoinv.metrics import hs_norm
from fluoinv.presets import build_truth, trig_forcing
import fluoinv.stochastic as stochastic
from fluoinv.stochastic import (
    LadderPoint,
    NoiseModel,
    available_cpus,
    observe,
    sample_points,
    trial_seed,
    worker_count,
)


def test_sample_points_basic():
    one = sample_points(2, 1, seed=0)
    assert one.shape == (1, 2)
    assert (one > 0).all() and (one < 1).all()
    again = sample_points(2, 1, seed=0)
    assert np.array_equal(one, again)
    assert not np.array_equal(sample_points(2, 5, seed=0), sample_points(2, 5, seed=1))


def test_sample_points_quasi_uniformity():
    # frozen regression constant: the largest nearest-neighbor gap of the
    # generated set stays within 4 n^(-1/2)
    pts = sample_points(2, 10**4, seed=0)
    d, _ = cKDTree(pts).query(pts, k=2)
    assert d[:, 1].max() <= 4.0 * 10**4 ** -0.5


def test_sample_points_strictly_inside():
    pts = sample_points(2, 1000, seed=5)
    assert pts.min() >= 1e-3 - 1e-15
    assert pts.max() <= 1 - 1e-3 + 1e-15


def test_observe_noise_free_exact(grid16):
    u = trig_forcing(grid16)
    sensors = fv.PointEvaluation(grid16, sample_points(2, 300, seed=1))
    meas = observe(u, sensors, NoiseModel("zero", 0.0, 0))
    assert meas.sensors is sensors
    assert np.array_equal(meas.values, sensors.apply(u))


def test_observe_reproducible(grid16):
    u = trig_forcing(grid16)
    sensors = fv.PointEvaluation(grid16, sample_points(2, 100, seed=2))
    a = observe(u, sensors, NoiseModel("gaussian", 0.1, 42))
    b = observe(u, sensors, NoiseModel("gaussian", 0.1, 42))
    assert np.array_equal(a.values, b.values)


def test_noise_moments():
    # CLT bound at five sigma on the empirical mean; variance by construction
    n = 10**5
    for kind in ("gaussian", "uniform"):
        e = NoiseModel(kind, 0.3, 7).draw(n)
        assert abs(e.mean()) <= 5 * 0.3 / np.sqrt(n)
        assert e.var() <= 0.3**2 * 1.02
    assert np.abs(NoiseModel("zero", 0.0, 0).draw(10)).max() == 0.0
    with pytest.raises(ValueError):
        NoiseModel("cauchy", 1.0, 0)


def test_trial_seeds_distinct():
    states = {tuple(trial_seed(1, i, t).generate_state(2))
              for i in range(3) for t in range(5)}
    assert len(states) == 15


def test_fit_rate_exact_power_law():
    lams = np.logspace(-8, -4, 6)
    rf = fv.fit_rate(list(zip(lams, lams**0.5)))
    assert rf.slope == pytest.approx(0.5, abs=1e-12)
    assert rf.r_squared == pytest.approx(1.0, abs=1e-12)
    flat = fv.fit_rate(list(zip(lams, np.full(6, 2.0))))
    assert flat.slope == pytest.approx(0.0, abs=1e-12)


def test_fit_rate_noisy_power_law():
    rng = np.random.default_rng(11)
    lams = np.logspace(-9, -3, 12)
    errs = 2.0 * lams**0.25 * (1.0 + 0.01 * rng.standard_normal(12))
    rf = fv.fit_rate(list(zip(lams, errs)))
    assert rf.slope == pytest.approx(0.25, abs=0.01)


def test_fit_rate_validation():
    with pytest.raises(ValueError):
        fv.fit_rate([(1e-6, 1.0), (1e-5, 2.0)])
    with pytest.raises(ValueError):
        fv.fit_rate([(1e-6, 1.0), (1e-5, -2.0), (1e-4, 1.0)])
    with pytest.raises(ValueError, match="distinct"):
        fv.fit_rate([(1e-6, 1.0), (1e-6, 2.0), (1e-5, 1.0), (1e-5, 3.0)])


def test_rate_fits_need_three_distinct_weights():
    def rung(lam, **errors):
        outcome = fv.TrialOutcome(fv.ErrorBundle(**errors), 0.1, lam, 0, 0)
        return fv.ExperimentRecord(LadderPoint(n=10, sigma=0.01, lam=lam), [outcome], 1.0)

    errs = {"err1": 0.1, "err2": 0.2, "err3": 0.3, "err5": 0.5}
    records = [rung(1e-6, **errs, err4=0.4), rung(1e-5, **errs), rung(1e-4, **errs, err4=0.4)]
    assert list(fv.rate_fits(records)) == ["err1", "err2", "err3", "err5"]  # err4 at two
    assert records[1].mean_errors() == fv.ErrorBundle(**errs)  # None where a trial lacks it
    assert fv.rate_fits([rung(1e-6, **errs) for _ in range(3)]) == {}


@pytest.fixture(scope="module")
def small_pipeline(grid16):
    f_true, sf_true, _, _ = build_truth("example1", grid16)
    return fv.InversionPipeline(grid=grid16, beta=1.0, s=0,
                                f_true=f_true, sf_true=sf_true)


def prior_rung(pipeline, n, sigma):
    """A ladder point at the a-priori weight for n sensors."""
    lam = fv.optimal_lambda_prior(hs_norm(pipeline.f_true, pipeline.s), sigma, n, pipeline.s)
    return LadderPoint(n=n, sigma=sigma, lam=lam)


def test_zero_noise_single_trial_is_deterministic(small_pipeline, grid16):
    ladder = [LadderPoint(n=200, sigma=0.0, lam=1e-7)]
    pipeline = fv.InversionPipeline(**{**small_pipeline.__dict__, "noise_kind": "zero"})
    rec = fv.expectation_experiment(pipeline, ladder, trials=1, base_seed=3)[0]
    pts = sample_points(2, 200, seed=int(np.random.SeedSequence(entropy=3, spawn_key=(0,))
                                         .generate_state(1)[0]))
    sensors = fv.PointEvaluation(grid16, pts)
    meas = observe(small_pipeline.sf_true, sensors, NoiseModel("zero", 0.0, 0))
    direct = fv.solve_data_fit(1.0, meas, 0, 1e-7)
    direct_err1 = (fv.empirical_norm(sensors.apply(direct.sf - small_pipeline.sf_true))
                   / fv.empirical_norm(sensors.apply(small_pipeline.sf_true)))
    assert rec.mean_errors().err1 == pytest.approx(direct_err1, abs=1e-14)


def test_mean_error_decreases_with_noise(small_pipeline):
    high = fv.expectation_experiment(small_pipeline, [prior_rung(small_pipeline, 300, 0.01)],
                                     trials=5, base_seed=1)[0]
    low = fv.expectation_experiment(small_pipeline, [prior_rung(small_pipeline, 300, 0.001)],
                                    trials=5, base_seed=1)[0]
    assert low.mean_errors().err1 < high.mean_errors().err1
    assert low.rho0 < high.rho0


def test_tail_histogram(small_pipeline):
    rec = fv.expectation_experiment(small_pipeline, [prior_rung(small_pipeline, 200, 0.01)],
                                    trials=60, base_seed=5)[0]
    scale = np.sqrt(rec.lam) * rec.rho0
    z_max = max(rec.sf_errors_n) / scale
    z = np.linspace(0.0, 1.01 * z_max, 21)
    exceedance = fv.tail_histogram(rec, z)
    assert exceedance.shape == z.shape
    assert exceedance[0] == 1.0
    assert exceedance[-1] == 0.0  # beyond the largest observed ratio
    assert all(b <= a for a, b in zip(exceedance, exceedance[1:]))
    # the first TAIL_MIN_TRIALS - 1 trials alone are too few for a tail
    k = stochastic.TAIL_MIN_TRIALS - 1
    few = dataclasses.replace(rec, outcomes=rec.outcomes[:k])
    with pytest.raises(ValueError, match=f"need at least {k + 1} trials, have {k}"):
        fv.tail_histogram(few, z)


def test_worker_count_clamps_to_cpus_and_tasks(monkeypatch):
    monkeypatch.setattr(stochastic, "available_cpus", lambda: 2)
    assert worker_count(1, 100) == 1
    assert worker_count(8, 100) == 2
    assert worker_count(8, 1) == 1
    monkeypatch.setattr(stochastic, "available_cpus", lambda: 16)
    assert worker_count(4, 3) == 3
    assert worker_count(4, 0) == 1
    for bad in (0, -1):
        with pytest.raises(ValueError):
            worker_count(bad, 10)


def test_one_sensor_map_per_rung(small_pipeline, monkeypatch):
    # each rung's map (with the E'E of its fits) is built once, before the
    # trials; every trial's observation, fit and sensor errors read that map
    built = []
    init = fv.PointEvaluation.__init__
    monkeypatch.setattr(fv.PointEvaluation, "__init__",
                        lambda self, *args: built.append(len(args[1])) or init(self, *args))
    ladder = [prior_rung(small_pipeline, n, 0.01) for n in (100, 200)]
    fv.expectation_experiment(small_pipeline, ladder, trials=3, base_seed=4)
    assert built == [100, 200]


def test_available_cpus_falls_back_to_cpu_count(monkeypatch):
    assert available_cpus() >= 1
    monkeypatch.delattr(stochastic.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(stochastic.os, "cpu_count", lambda: 3)
    assert available_cpus() == 3
    monkeypatch.setattr(stochastic.os, "cpu_count", lambda: None)
    assert available_cpus() == 1


def test_worker_processes_give_the_serial_records(small_pipeline):
    # at most two processes, and no more than the CPUs available
    ladder = [prior_rung(small_pipeline, n, 0.01) for n in (100, 200)]
    serial = fv.expectation_experiment(small_pipeline, ladder, trials=3, base_seed=4)
    pooled = fv.expectation_experiment(small_pipeline, ladder, trials=3, base_seed=4,
                                       workers=2)
    assert pooled == serial
