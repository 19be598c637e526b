import hashlib
import json

import numpy as np
import pytest

from fluoinv.cli import main
from fluoinv.verify import BATTERY_CHECKS


def read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# schema=fluoinv/")
    header = lines[1].split(",")
    return header, [line.split(",") for line in lines[2:]]


def write_cfg(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def test_unknown_preset_is_config_error(tmp_path):
    assert main(["forward", "--preset", "nope", "--out", str(tmp_path / "o")]) == 2


def test_invalid_json_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"grid": 16,\n  broken\n}')
    assert main(["forward", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err


def test_missing_key_is_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.json", {"grid": 16})
    assert main(["forward", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "'source'" in capsys.readouterr().err


def test_forward_zero_source(tmp_path):
    cfg = write_cfg(tmp_path, "c.json",
                    {"grid": 16, "tau": 0.25, "source": "zero", "M": 5.0})
    out = tmp_path / "o"
    assert main(["forward", "--config", cfg, "--out", str(out)]) == 0
    header, rows = read_csv(out / "terminal_fields.csv")
    em = header.index("emission_T")
    assert all(float(r[em]) == 0.0 for r in rows)


def test_forward_smooth_source_positive_and_deterministic(tmp_path):
    cfg = write_cfg(tmp_path, "c.json",
                    {"grid": 24, "tau": 0.05, "source": "example2-smooth"})
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["forward", "--config", cfg, "--seed", "4", "--out", str(out1)]) == 0
    assert main(["forward", "--config", cfg, "--seed", "4", "--out", str(out2)]) == 0
    header, rows = read_csv(out1 / "terminal_fields.csv")
    em = header.index("emission_T")
    assert all(float(r[em]) > 0.0 for r in rows)
    assert (out1 / "terminal_fields.csv").read_bytes() == (out2 / "terminal_fields.csv").read_bytes()


def test_manifest_inventory_digests(tmp_path):
    cfg = write_cfg(tmp_path, "c.json",
                    {"grid": 16, "tau": 0.25, "source": "example2-smooth"})
    out = tmp_path / "o"
    assert main(["forward", "--config", cfg, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    emitted = {p.name for p in out.iterdir()} - {"manifest.json"}
    assert {f["name"] for f in manifest["files"]} == emitted
    for entry in manifest["files"]:
        digest = hashlib.sha256((out / entry["name"]).read_bytes()).hexdigest()
        assert digest == entry["sha256"]
    assert manifest["config"]["source"] == "example2-smooth"
    assert "solver_tol" in manifest["config"]


def test_p1_small_run_and_rerun_identical(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", {
        "grid": 16, "truth": "example1", "n": 300, "sigma": 0.002, "s": 0,
        "lambda": {"mode": "prior"},
    })
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["p1", "--config", cfg, "--seed", "7", "--out", str(out1)]) == 0
    assert main(["p1", "--config", cfg, "--seed", "7", "--out", str(out2)]) == 0
    for name in ("fit_fields.csv", "fit_errors.csv", "lambda_trace.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_p1_lambda_ladder_row_count(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", {
        "grid": 16, "truth": "example1", "n": 300, "sigma": 0.002, "s": 0,
        "lambda": {"mode": "ladder", "values": [1e-7, 1e-6, 1e-5]},
    })
    out = tmp_path / "o"
    assert main(["p1", "--config", cfg, "--seed", "7", "--out", str(out)]) == 0
    _, rows = read_csv(out / "lambda_ladder.csv")
    assert len(rows) == 3


def test_p2_clean_mode(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", {
        "grid": 24, "tau": 0.05, "truth": "example2-smooth", "clean": True,
    })
    out = tmp_path / "o"
    assert main(["p2", "--config", cfg, "--out", str(out)]) == 0
    header, rows = read_csv(out / "source_errors.csv")
    err5 = float(rows[0][header.index("err5")])
    assert err5 <= 1e-2


def test_p2_nonconvergence_exit_code_with_trace(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", {
        "grid": 24, "tau": 0.05, "truth": "example2-smooth", "clean": True,
        "inverse": {"max_iter": 2, "tol": 1e-14},
    })
    out = tmp_path / "o"
    assert main(["p2", "--config", cfg, "--out", str(out)]) == 3
    _, rows = read_csv(out / "iteration_trace.csv")
    assert len(rows) == 2  # the trace is still written


def test_rates_threads_do_not_change_bytes(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", {
        "grid": 16, "truth": "example1", "s": 0, "sigma": 0.002,
        "ladder": [100, 300, 1000], "trials": 3, "lambda": {"mode": "prior"},
    })
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["rates", "--config", cfg, "--seed", "9", "--threads", "1",
                 "--out", str(out1)]) == 0
    assert main(["rates", "--config", cfg, "--seed", "9", "--threads", "4",
                 "--out", str(out2)]) == 0
    for name in ("trials.csv", "aggregate.csv", "rate_fits.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_rates_tail_curve_emitted(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", {
        "grid": 16, "truth": "example1", "s": 0, "sigma": 0.005,
        "ladder": [200], "trials": 2, "lambda": {"mode": "prior"},
        "tail_trials": 50, "tail_n": 200, "tail_zmax": 4.0,
    })
    out = tmp_path / "o"
    assert main(["rates", "--config", cfg, "--seed", "2", "--out", str(out)]) == 0
    _, rows = read_csv(out / "tail_curve.csv")
    exc = [float(r[1]) for r in rows]
    assert exc[0] == 1.0
    assert all(b <= a for a, b in zip(exc, exc[1:]))


def test_spectral_command_and_caps(tmp_path):
    cfg = write_cfg(tmp_path, "c.json",
                    {"grid": 16, "k_max": 50, "n": 40, "penalties": [0]})
    out = tmp_path / "o"
    assert main(["spectral", "--config", cfg, "--seed", "1", "--out", str(out)]) == 0
    _, rows = read_csv(out / "dirichlet_spectrum.csv")
    assert len(rows) == 50
    _, rows = read_csv(out / "exponents.csv")
    assert len(rows) == 2
    bad = write_cfg(tmp_path, "bad.json", {"grid": 128, "k_max": 10, "which": "dirichlet"})
    assert main(["spectral", "--config", bad, "--out", str(tmp_path / "x")]) == 2


def test_verify_default_passes(tmp_path):
    out = tmp_path / "o"
    assert main(["verify", "--preset", "verify-default", "--out", str(out)]) == 0
    _, rows = read_csv(out / "verify_report.csv")
    assert len(rows) == len(BATTERY_CHECKS)
    assert all(r[1] == "1" for r in rows)


def test_verify_violated_fails(tmp_path):
    out = tmp_path / "o"
    assert main(["verify", "--preset", "verify-violated", "--out", str(out)]) == 4
    header, rows = read_csv(out / "verify_report.csv")
    passed = {r[0]: r[1] for r in rows}
    assert passed["field-positivity"] == "0"


def test_solver_tol_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("SOLVER_TOL", "1e-6")
    cfg = write_cfg(tmp_path, "c.json",
                    {"grid": 16, "tau": 0.25, "source": "zero"})
    out = tmp_path / "o"
    assert main(["forward", "--config", cfg, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["solver_tol"] == 1e-6


@pytest.mark.parametrize("value", ["abc", "0", "-1"])
def test_bad_solver_tol_is_config_error(tmp_path, monkeypatch, capsys, value):
    monkeypatch.setenv("SOLVER_TOL", value)
    cfg = write_cfg(tmp_path, "c.json",
                    {"grid": 16, "tau": 0.25, "source": "zero"})
    assert main(["forward", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "SOLVER_TOL" in err[0]


def test_verify_runs_the_requested_seed(tmp_path):
    reports = []
    for seed in ("0", "20250810"):
        out = tmp_path / seed
        assert main(["verify", "--preset", "verify-default", "--seed", seed,
                     "--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["seed"] == int(seed)
        reports.append((out / "verify_report.csv").read_bytes())
    assert reports[0] != reports[1]


@pytest.fixture
def one_pass_weight_loop(monkeypatch):
    """Cut the self-consistent weight loop to one pass, so it never stabilizes."""
    import fluoinv.fit as fit

    loop = fit.self_consistent_lambda
    monkeypatch.setattr(fit, "self_consistent_lambda",
                        lambda *a, **k: loop(*a, **{**k, "max_outer": 1}))


def test_p1_weight_loop_nonconvergence_keeps_trace(tmp_path, one_pass_weight_loop):
    cfg = write_cfg(tmp_path, "c.json", {
        "grid": 16, "truth": "example1", "n": 300, "sigma": 0.002, "s": 0,
        "lambda": {"mode": "self-consistent"},
    })
    out = tmp_path / "o"
    assert main(["p1", "--config", cfg, "--seed", "7", "--out", str(out)]) == 3
    _, rows = read_csv(out / "lambda_trace.csv")
    assert len(rows) == 2  # the starting weight and one update
    manifest = json.loads((out / "manifest.json").read_text())
    assert [f["name"] for f in manifest["files"]] == ["lambda_trace.csv"]


def test_rates_weight_loop_nonconvergence_exits_3(tmp_path, capsys, one_pass_weight_loop):
    cfg = write_cfg(tmp_path, "c.json", {
        "grid": 16, "truth": "example1", "s": 0, "sigma": 0.002,
        "ladder": [100, 300, 1000], "trials": 2, "lambda": {"mode": "self-consistent"},
    })
    out = tmp_path / "o"
    assert main(["rates", "--config", cfg, "--seed", "9", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "n=100" in err and "trial 0" in err
    assert json.loads((out / "manifest.json").read_text())["files"] == []


@pytest.fixture
def one_step_fixed_point(monkeypatch):
    """Cut each trial's fixed-point iteration to one step, so it never converges."""
    import fluoinv.stochastic as stochastic
    from fluoinv.inverse import InverseConfig

    solve = stochastic.fixed_point_solve
    monkeypatch.setattr(stochastic, "fixed_point_solve",
                        lambda data, f, sf, cfg=None: solve(data, f, sf,
                                                            InverseConfig(max_iter=1)))


def test_rates_fixed_point_nonconvergence_exits_3(tmp_path, capsys, one_step_fixed_point):
    cfg = write_cfg(tmp_path, "c.json", {
        "grid": 16, "tau": 0.25, "truth": "example2-smooth", "s": 1,
        "relative_sigma": 0.001, "ladder": [100, 300, 1000], "trials": 2,
        "lambda": {"mode": "prior"}, "run_p2": True,
    })
    out = tmp_path / "o"
    assert main(["rates", "--config", cfg, "--seed", "9", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "fixed-point" in err and "n=100" in err and "trial 0" in err
    assert json.loads((out / "manifest.json").read_text())["files"] == []


RATES = {"grid": 16, "truth": "example1", "s": 0, "sigma": 0.002,
         "ladder": [100, 300, 1000], "trials": 2, "lambda": {"mode": "prior"}}
RATES_NO_SIGMA = {k: v for k, v in RATES.items() if k != "sigma"}
P1 = {"grid": 16, "truth": "example1", "n": 300, "sigma": 0.002, "s": 0}
P2 = {"grid": 16, "tau": 0.25, "truth": "example2-smooth", "clean": True}


@pytest.mark.parametrize("command,payload,key", [
    ("rates", {**RATES, "sigma": 0}, "'lambda'"),
    ("rates", {**RATES, "lambda": "prior"}, "'lambda'"),
    ("p1", {**P1, "lambda": "prior"}, "'lambda'"),
    ("rates", {**RATES, "trials": 0}, "'trials'"),
    ("p1", {**P1, "sigma": -0.1, "lambda": {"mode": "self-consistent"}}, "'sigma'"),
    ("p1", {**P1, "sigma": "abc"}, "'sigma'"),
    ("rates", {**RATES_NO_SIGMA, "relative_sigma": -0.001}, "'relative_sigma'"),
    ("rates", {**RATES_NO_SIGMA, "relative_sigma": "abc"}, "'relative_sigma'"),
    ("rates", {**RATES, "ladder": [], "tail_trials": 50}, "'ladder'"),
    ("p2", {**P2, "inverse": "fast"}, "'inverse'"),
    ("p2", {**P2, "inverse": {"tol": 0}}, "'inverse'"),
    ("p2", {**P2, "inverse": {"max_iter": 0}}, "'inverse'"),
    ("p2", {**P2, "inverse": {"clamp": "no"}}, "'inverse'"),
], ids=["rates-sigma-0", "rates-lambda-string", "p1-lambda-string", "rates-trials-0",
        "p1-sigma-negative", "p1-sigma-string", "rates-relative-sigma-negative",
        "rates-relative-sigma-string", "rates-ladder-empty", "p2-inverse-string",
        "p2-inverse-tol-0", "p2-inverse-max-iter-0", "p2-inverse-clamp-string"])
def test_weight_policy_and_trial_errors_are_config_errors(tmp_path, capsys,
                                                          command, payload, key):
    cfg = write_cfg(tmp_path, "c.json", payload)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and key in err[0]


def test_rates_source_recovery_needs_a_source(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.json", {**RATES, "run_p2": True})
    assert main(["rates", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "'truth'" in capsys.readouterr().err
