"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Benchmarks taken from
the published tables are asserted within multiplicative factors; rate
slopes within additive windows at the stated R-squared floors.
"""

import csv
import json
import time

import numpy as np
import pytest

import fluoinv as fv
from fluoinv.cli import main
from fluoinv.metrics import hs_norm
from fluoinv.presets import build_truth
from fluoinv.stochastic import NoiseModel, available_cpus, observe, sample_points
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
        lam = fv.optimal_lambda_prior(hs_norm(example1_data["f_true"], s), 0.002, meas.n, s)
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


def _rows(path):
    """The rows of a CSV the CLI wrote, as dicts of strings."""
    with open(path) as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def _rates(tmp_path, name, seed, **cfg):
    """``fluoinv rates`` on `cfg` at the a-priori weight, with `seed` and one
    worker process per available CPU; its output directory."""
    config = tmp_path / f"{name}.json"
    config.write_text(json.dumps({"lambda": {"mode": "prior"}, **cfg}))
    out = tmp_path / name
    assert main(["rates", "--config", str(config), "--seed", str(seed),
                 "--threads", str(available_cpus()), "--out", str(out)]) == 0
    return out


def _rate_fits(tmp_path, name, seed, **cfg):
    """metric -> (slope, r_squared) of the rate fits of a ``rates`` run."""
    rows = _rows(_rates(tmp_path, name, seed, trials=10, **cfg) / "rate_fits.csv")
    return {r["metric"]: (float(r["slope"]), float(r["r_squared"])) for r in rows}


def test_criterion_3_fit_rates(tmp_path):
    t0 = time.time()
    ns = [10**4, 31623, 10**5, 316228, 10**6]
    fits0, fits1 = (_rate_fits(tmp_path, f"s{s}", 21, grid=64, truth="example1", s=s,
                               sigma=0.002, ladder=ns) for s in (0, 1))
    checks = [
        ("err1 s=0", fits0["err1"][0], 0.5, 0.1, fits0["err1"][1]),
        ("err1 s=1", fits1["err1"][0], 0.5, 0.1, fits1["err1"][1]),
        ("err2 s=0", fits0["err2"][0], 0.25, 0.08, None),
        ("err3 s=1", fits1["err3"][0], 1.0 / 6.0, 0.07, None),
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


def test_criterion_4_source_rates(tmp_path):
    t0 = time.time()
    # 0.1% relative noise puts the induced weight ladder in the regime where
    # the leading rate term dominates the p-weighted secondary term
    ns = [1000, 3163, 10**4, 31623, 10**5]
    fits0, fits1 = (_rate_fits(tmp_path, f"s{s}", 11, grid=50, truth="example2-smooth", s=s,
                               relative_sigma=0.001, ladder=ns, run_p2=True) for s in (0, 1))
    s4, s5 = fits0["err4"][0], fits1["err5"][0]
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


def test_criterion_7_tail_curve(tmp_path):
    t0 = time.time()
    out = _rates(tmp_path, "tail", SEED, grid=50, truth="example1", s=0, sigma=0.002,
                 ladder=[10**4], trials=200)
    (rung,) = _rows(out / "aggregate.csv")
    errors = np.array([float(r["sf_err_n"]) for r in _rows(out / "trials.csv")])
    # the exceedance P(||Sf - Sf*||_n >= sqrt(lam) rho0 z) over the trials
    scale = np.sqrt(float(rung["lambda"])) * float(rung["rho0"])
    z = np.linspace(0.0, 1.05 * errors.max() / scale, 41)
    exceedance = (errors[None, :] >= scale * z[:, None]).mean(axis=1)
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
