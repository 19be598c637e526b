"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Benchmarks taken from
the published tables are asserted within multiplicative factors; rate
slopes within additive windows at the stated R-squared floors.
"""

import json
import time

import numpy as np
import pytest

import fluoinv as fv
from fluoinv.cli import main
from fluoinv.presets import build_truth
from fluoinv.stochastic import LadderPoint, NoiseModel, available_cpus, observe, sample_points
from fluoinv.verify import BATTERY_CHECKS, run_battery

SEED = 42

TABLE1 = {  # penalty order -> published (err1, err2, err3)
    0: (1.08e-2, 4.16e-2, 2.23e-1),
    1: (1.03e-2, 2.93e-2, 1.02e-1),
}
SELF_CONSISTENT_LAM = {0: 1.3087e-6, 1: 1.0551e-8}


def report(num: int, label: str, ok: bool, detail: str):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {label} -- {detail}")
    assert ok, f"criterion {num} ({label}): {detail}"


def within_factor(value: float, target: float, factor: float) -> bool:
    return target / factor <= value <= target * factor


@pytest.fixture(scope="module")
def example1_data():
    grid = fv.Grid(2, 100)
    f_true, sf_true, _, _ = build_truth("example1", grid)
    points = sample_points(2, 10**4, seed=SEED)
    noise = NoiseModel("gaussian", 0.002, np.random.SeedSequence(SEED))
    meas = observe(sf_true, fv.PointEvaluation(grid, points), noise)
    return dict(grid=grid, f_true=f_true, sf_true=sf_true, meas=meas)


def test_criterion_1_table_reproduction(example1_data):
    t0 = time.time()
    grid = example1_data["grid"]
    meas = example1_data["meas"]
    details = []
    ok = True
    for s, targets in TABLE1.items():
        lam = fv.policy_weight("prior", s, example1_data["f_true"], 0.002, meas.n)
        res = fv.solve_data_fit(1.0, meas, s, lam)
        b = fv.error_bundle(meas=meas, sf=res.sf, sf_true=example1_data["sf_true"],
                            f=res.f, f_true=example1_data["f_true"])
        got = (b.err1, b.err2, b.err3)
        ok &= all(within_factor(v, t, 2.5) for v, t in zip(got, targets))
        details.append(f"s={s}: got ({got[0]:.3e}, {got[1]:.3e}, {got[2]:.3e}) "
                       f"vs ({targets[0]:.2e}, {targets[1]:.2e}, {targets[2]:.2e})")
    elapsed = time.time() - t0
    ok &= elapsed <= 600
    report(1, "benchmark table, factor 2.5", ok,
           "; ".join(details) + f"; elapsed {elapsed:.1f}s")


def test_criterion_2_self_consistent_weight(example1_data):
    grid, meas = example1_data["grid"], example1_data["meas"]
    details = []
    ok = True
    for s, target in SELF_CONSISTENT_LAM.items():
        lam, _, trace = fv.self_consistent_lambda(1.0, meas, s)
        ok &= trace.outer_iterations <= 10
        ok &= within_factor(lam, target, 3.0)
        details.append(f"s={s}: lam={lam:.4e} vs {target:.4e} "
                       f"in {trace.outer_iterations} passes")
    report(2, "self-consistent weight stabilizes", ok, "; ".join(details))


def _prior_experiment(grid, truth, s, sigma, ns, trials, seed):
    """Monte-Carlo trials of the truth at the a-priori weight of each rung.

    Trials continue into the source recovery whenever the truth has a source,
    and run on one worker process per available CPU.
    """
    f_true, sf_true, data, q_true = truth
    pipeline = fv.InversionPipeline(grid=grid, beta=1.0, s=s, f_true=f_true,
                                    sf_true=sf_true, data=data, q_true=q_true)
    rungs = [LadderPoint(n=n, sigma=sigma,
                         lam=fv.policy_weight("prior", s, f_true, sigma, n))
             for n in ns]
    return fv.expectation_experiment(pipeline, rungs, trials=trials, base_seed=seed,
                                     workers=available_cpus())


def _run_rates(grid_cells, truth_name, s, sigma, ns, seed):
    # the coupled-model truths take sigma relative to the data maximum
    grid = fv.Grid(2, grid_cells)
    truth = build_truth(truth_name, grid)
    if truth[2] is not None:
        sigma *= float(np.abs(truth[1].values).max())
    records = _prior_experiment(grid, truth, s, sigma, ns, 10, seed)
    return fv.rate_fits(records)


def test_criterion_3_fit_rates():
    t0 = time.time()
    ns = [10**4, 31623, 10**5, 316228, 10**6]
    fits0 = _run_rates(64, "example1", 0, 0.002, ns, seed=21)
    fits1 = _run_rates(64, "example1", 1, 0.002, ns, seed=21)
    checks = [
        ("err1 s=0", fits0["err1"].slope, 0.5, 0.1, fits0["err1"].r_squared),
        ("err1 s=1", fits1["err1"].slope, 0.5, 0.1, fits1["err1"].r_squared),
        ("err2 s=0", fits0["err2"].slope, 0.25, 0.08, None),
        ("err3 s=1", fits1["err3"].slope, 1.0 / 6.0, 0.07, None),
    ]
    ok = True
    details = []
    for name, slope, target, tol, r2 in checks:
        good = abs(slope - target) <= tol and (r2 is None or r2 >= 0.95)
        ok &= good
        details.append(f"{name}: slope={slope:.3f} (target {target:.3f}+-{tol})"
                       + (f" r2={r2:.4f}" if r2 is not None else ""))
    elapsed = time.time() - t0
    ok &= elapsed <= 1800
    report(3, "expectation rates of the fit", ok,
           "; ".join(details) + f"; elapsed {elapsed:.0f}s")


def test_criterion_4_source_rates():
    t0 = time.time()
    # 0.1% relative noise puts the induced weight ladder in the regime where
    # the leading rate term dominates the p-weighted secondary term
    ns = [1000, 3163, 10**4, 31623, 10**5]
    fits0 = _run_rates(50, "example2-smooth", 0, 0.001, ns, seed=11)
    fits1 = _run_rates(50, "example2-smooth", 1, 0.001, ns, seed=11)
    s4, s5 = fits0["err4"].slope, fits1["err5"].slope
    ok = abs(s4 - 0.25) <= 0.1 and abs(s5 - 1.0 / 6.0) <= 0.08
    elapsed = time.time() - t0
    report(4, "expectation rates of the source recovery", ok,
           f"err4 s=0: slope={s4:.3f} (0.25+-0.1); "
           f"err5 s=1: slope={s5:.3f} (0.167+-0.08); elapsed {elapsed:.0f}s")


def test_criterion_5_property_battery():
    t0 = time.time()
    results = run_battery(grid_cells=32)
    elapsed = time.time() - t0
    ok = all(r.passed for r in results) and len(results) == len(BATTERY_CHECKS)
    ok &= elapsed <= 300
    detail = "; ".join(f"{r.name}={'ok' if r.passed else 'FAIL'}" for r in results)
    report(5, "property battery", ok, detail + f"; elapsed {elapsed:.1f}s")


def test_criterion_6_spectral_diagnostics(dirichlet64):
    mu1 = dirichlet64.eigenvalues[0]
    ok = abs(mu1 - 2 * np.pi**2) <= 0.03 * 2 * np.pi**2
    ok &= abs(dirichlet64.growth_exponent - 1.0) <= 0.15
    grid = fv.Grid(2, 64)
    pts = sample_points(2, 200, seed=SEED)
    rep0 = fv.empirical_smoothing_spectrum(grid, 1.0, pts, s=0)
    rep1 = fv.empirical_smoothing_spectrum(grid, 1.0, pts, s=1)
    ok &= rep0.growth_exponent >= 2.0 - 0.2
    ok &= rep1.growth_exponent >= 3.0 - 0.3
    report(6, "spectral diagnostics", ok,
           f"mu1={mu1:.4f} (2pi^2={2*np.pi**2:.4f}); "
           f"weyl={dirichlet64.growth_exponent:.3f} (1+-0.15); "
           f"pencil s=0: {rep0.growth_exponent:.3f} (>=1.8); "
           f"s=1: {rep1.growth_exponent:.3f} (>=2.7)")


def test_criterion_7_tail_curve():
    t0 = time.time()
    grid = fv.Grid(2, 50)
    rec = _prior_experiment(grid, build_truth("example1", grid), 0, 0.002, [10**4],
                            200, SEED)[0]
    scale = np.sqrt(rec.lam) * rec.rho0
    z_hi = 1.05 * max(rec.sf_errors_n) / scale
    exceedance = fv.tail_histogram(rec, np.linspace(0.0, z_hi, 41))
    mono = all(b <= a for a, b in zip(exceedance, exceedance[1:]))
    ok = mono and exceedance[0] == 1.0 and exceedance[-1] == 0.0
    elapsed = time.time() - t0
    ok &= elapsed <= 1200
    report(7, "empirical exceedance decays", ok,
           f"monotone={mono}, 200 trials, elapsed {elapsed:.0f}s")


def test_criterion_8_determinism(tmp_path):
    cfg = tmp_path / "rates.json"
    cfg.write_text(json.dumps({
        "grid": 16, "truth": "example1", "s": 0, "sigma": 0.002,
        "ladder": [100, 300, 1000], "trials": 3, "lambda": {"mode": "prior"},
    }))
    outs = [tmp_path / name for name in ("a", "b", "c")]
    for out, threads in zip(outs, ("1", "1", "4")):
        code = main(["rates", "--config", str(cfg), "--seed", "13",
                     "--threads", threads, "--out", str(out)])
        assert code == 0
    same = all(
        (outs[0] / name).read_bytes() == (other / name).read_bytes()
        for name in ("trials.csv", "aggregate.csv", "rate_fits.csv")
        for other in outs[1:]
    )
    fcfg = tmp_path / "fwd.json"
    fcfg.write_text(json.dumps({"grid": 16, "tau": 0.25, "source": "example2-smooth"}))
    fouts = [tmp_path / name for name in ("f1", "f2")]
    for out in fouts:
        assert main(["forward", "--config", str(fcfg), "--seed", "13",
                     "--out", str(out)]) == 0
    same &= ((fouts[0] / "terminal_fields.csv").read_bytes()
             == (fouts[1] / "terminal_fields.csv").read_bytes())
    report(8, "byte-identical reruns independent of threads", same,
           "rates x3 (threads 1,1,4) and forward x2 compared")
