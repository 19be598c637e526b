import contextlib
import hashlib
import io
import json
import os
import re
import resource
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import fluoinv as fv
from fluoinv import cli, forward, inverse, stochastic
from fluoinv.cli import main
from fluoinv.presets import PRESETS
from fluoinv.verify import BATTERY_CHECKS

from conftest import package_env


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


@pytest.mark.parametrize("under", ["afile", "afile/sub"], ids=["file", "under-a-file"])
def test_out_that_cannot_be_a_directory_is_config_error(tmp_path, capsys, under):
    (tmp_path / "afile").write_text("")
    cfg = write_cfg(tmp_path, "c.json", {"grid": 8, "source": "zero"})
    out = tmp_path / under
    assert main(["forward", "--config", cfg, "--out", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert repr(str(out)) in lines[0]


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
    header, _ = read_csv(out1 / "fit_errors.csv")
    assert header == ["n", "sigma", "s", "lambda", "misfit_n", "penalty_norm",
                      "err1", "err2", "err3", "err4", "err5"]


def orderings(lu_counts, grid_cells):
    """The SuperLU ordering of each factorization so far, in order, marked
    "(R_1)" where the matrix is the H1 Gram matrix of a 2D grid of that size."""
    gram = fv.Grid(2, grid_cells)._gram_h1()
    return [spec + " (R_1)" if A.shape == gram.shape and (A != gram).nnz == 0 else spec
            for spec, A in lu_counts.factored]


def test_p1_away_from_unit_beta_factorizes_h1_once(tmp_path, lu_counts):
    # the truth's two step factors, then the given-weight CG's COLAMD pair,
    # the Laplacian at beta = 2 and R_1, and the dual-H1 errors' R_1 in the
    # step ordering: one factorization of each kind of H1 factor, neither
    # refactored per beta
    cfg = write_cfg(tmp_path, "c.json", {"grid": 16, "tau": 0.25, "beta": 2,
                                         "truth": "example2-smooth", "n": 100,
                                         "relative_sigma": 0.01, "s": 1})
    assert main(["p1", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert lu_counts["factorizations"] == 5
    assert orderings(lu_counts, 16) == ["COLAMD"] * 3 + ["COLAMD (R_1)", "MMD_AT_PLUS_A (R_1)"]


def test_self_consistent_p1_factors_in_the_step_ordering(tmp_path, lu_counts):
    # the only COLAMD factors are the truth march's two step factors: the
    # weight loop and the errors read the Laplacian and R_1 in the step
    # ordering, the errors the loop's R_1
    cfg = write_cfg(tmp_path, "c.json", {"grid": 16, "tau": 0.25, "truth": "example2-smooth",
                                         "n": 100, "relative_sigma": 0.01, "s": 1,
                                         "lambda": {"mode": "self-consistent"}})
    assert main(["p1", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert orderings(lu_counts, 16) == ["COLAMD"] * 2 + ["MMD_AT_PLUS_A", "MMD_AT_PLUS_A (R_1)"]


def test_fitted_p2_maps_run_beside_their_own_step_factor_only(tmp_path, monkeypatch,
                                                               lu_counts):
    # p2 releases the grid's Laplacian and H1 factors once its fit has
    # returned, so every terminal_excitation call holds its step factor
    # alone; the count is the truth's two step factors, the fit's Laplacian
    # and H1 factors (the H1 factor also gives the step ordering), the q = 0
    # levels, one per map application (8) and H1 once more for err4 at
    # s = 1.  The only COLAMD factors are the truth's.  Each application
    # solves fewer than the 51 vectors of an exact one, since the clamped
    # iteration loosens the Lanczos tolerance while its residual is large,
    # one vector to a solve
    live, applications = [], []
    add_levels = forward._add_component_levels

    def recorded(*args):
        live.append(lu_counts.live)
        add_levels(*args)

    traced = inverse.terminal_excitation

    def counted(*args):
        before = dict(lu_counts)
        levels = traced(*args)
        applications.append({key: lu_counts[key] - before[key] for key in before})
        return levels

    monkeypatch.setattr(forward, "_add_component_levels", recorded)
    monkeypatch.setattr(inverse, "terminal_excitation", counted)
    cfg = write_cfg(tmp_path, "c.json", {"grid": 16})
    out = tmp_path / "o"
    assert main(["p2", "--preset", "example2-smooth", "--config", cfg, "--out", str(out)]) == 0
    _, rows = read_csv(out / "iteration_trace.csv")
    assert len(rows) == len(applications) == 8
    assert len(live) == 2 * (1 + 8) and set(live) == {1}
    assert lu_counts["factorizations"] == 2 + 2 + 1 + 8 + 1
    assert orderings(lu_counts, 16) == (["COLAMD"] * 2 + ["MMD_AT_PLUS_A", "MMD_AT_PLUS_A (R_1)"]
                                        + ["NATURAL"] * 9 + ["MMD_AT_PLUS_A (R_1)"])
    assert all(cost["factorizations"] == 1 for cost in applications)
    solves = [cost["solves"] for cost in applications]
    assert all(s < 51 for s in solves) and sum(solves) <= 260
    assert all(cost["solve_calls"] == cost["solves"] for cost in applications)


def test_p1_lambda_ladder_row_count(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", {
        "grid": 16, "truth": "example1", "n": 300, "sigma": 0.002, "s": 0,
        "lambda": {"mode": "ladder", "values": [1e-7, 1e-6, 1e-5]},
    })
    out = tmp_path / "o"
    assert main(["p1", "--config", cfg, "--seed", "7", "--out", str(out)]) == 0
    header, rows = read_csv(out / "lambda_ladder.csv")
    assert header == ["lambda", "misfit_n", "penalty_norm", "err1", "err2", "err3", "err4",
                      "err5"]
    assert len(rows) == 3


def test_p2_clean_mode(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", {
        "grid": 24, "tau": 0.05, "truth": "example2-smooth", "clean": True,
    })
    out = tmp_path / "o"
    assert main(["p2", "--config", cfg, "--out", str(out)]) == 0
    header, rows = read_csv(out / "source_errors.csv")
    assert header == ["sigma", "lambda", "iterations", "converged", "err4", "err5"]
    err5 = float(rows[0][header.index("err5")])
    assert err5 <= 1e-2


def test_p2_nonconvergence_exit_code_with_trace(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(inverse, "FIXED_POINT_MAX_ITER", 2)
    monkeypatch.setattr(inverse, "FIXED_POINT_TOL", 1e-14)
    cfg = write_cfg(tmp_path, "c.json", {
        "grid": 24, "tau": 0.05, "truth": "example2-smooth", "clean": True,
    })
    out = tmp_path / "o"
    assert main(["p2", "--config", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "FIXED_POINT_MAX_ITER = 2" in err[0]
    manifest = json.loads((out / "manifest.json").read_text())
    assert [f["name"] for f in manifest["files"]] == ["iteration_trace.csv"]
    _, rows = read_csv(out / "iteration_trace.csv")
    assert len(rows) == 2  # the trace is still written


def test_p2_positivity_failure_keeps_the_trace(tmp_path, capsys):
    # clean data are not clamped, and the raw initial guess of the
    # discontinuous source dips below 0: exit 3, with the trace so far listed
    cfg = write_cfg(tmp_path, "c.json", {"clean": True, "grid": 32})
    out = tmp_path / "o"
    assert main(["p2", "--preset", "example2-discontinuous", "--config", cfg,
                 "--out", str(out)]) == 3
    assert "admissible set" in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    assert [f["name"] for f in manifest["files"]] == ["iteration_trace.csv"]
    header, rows = read_csv(out / "iteration_trace.csv")
    assert header == ["iteration", "increment", "min_step", "misfit"] and rows == []


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


def test_rates_trials_record_each_trials_work(tmp_path):
    # every trial row counts its weight-loop passes and fixed-point iterations
    cfg = write_cfg(tmp_path, "c.json", {
        "grid": 16, "tau": 0.25, "truth": "example2-smooth", "s": 1,
        "relative_sigma": 0.001, "ladder": [100, 300], "trials": 2,
        "lambda": {"mode": "self-consistent"}, "run_p2": True,
    })
    out = tmp_path / "o"
    assert main(["rates", "--config", cfg, "--seed", "3", "--out", str(out)]) == 0
    assert (out / "trials.csv").read_text().startswith("# schema=fluoinv/rate-trials-v2\n")
    header, rows = read_csv(out / "trials.csv")
    assert header == ["n", "lambda", "trial", "err1", "err2", "err3", "err4", "err5",
                      "sf_err_n", "lambda_passes", "fp_iterations"]
    assert len(rows) == 4
    assert all(int(r[-2]) >= 1 and int(r[-1]) >= 1 for r in rows)
    prior = write_cfg(tmp_path, "prior.json", RATES)
    assert main(["rates", "--config", prior, "--out", str(tmp_path / "p")]) == 0
    _, rows = read_csv(tmp_path / "p" / "trials.csv")
    assert all(r[-2:] == ["0", "0"] for r in rows)  # a given weight, no source recovery
    header, rows = read_csv(tmp_path / "p" / "aggregate.csv")
    assert header == ["n", "lambda", "rho0", "err1", "err2", "err3", "err4", "err5"]
    assert all(r[-2:] == ["", ""] for r in rows)  # no source recovery: no err4, err5


@pytest.mark.parametrize("ladder,policy", [
    ([50, 100, 200], {"mode": "fixed", "value": 1e-6}),
    ([100, 100, 100], {"mode": "prior"}),
], ids=["fixed", "prior-repeated-count"])
def test_rates_at_one_weight_fits_no_rate(tmp_path, capsys, ladder, policy):
    # every rung at the same weight: a log-log line through one abscissa is
    # not determined, so no error is fitted and nothing is printed
    cfg = write_cfg(tmp_path, "c.json", {"grid": 8, "truth": "example1", "s": 0,
                                         "sigma": 0.002, "ladder": ladder, "trials": 2,
                                         "lambda": policy})
    out = tmp_path / "o"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["rates", "--config", cfg, "--out", str(out)]) == 0
    assert caught == [] and capsys.readouterr().err == ""
    header, rows = read_csv(out / "rate_fits.csv")
    assert header == ["metric", "slope", "intercept", "r_squared", "rungs"] and rows == []
    assert (out / "rate_summary.txt").read_text() == ""


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


def test_spectral_command_and_caps(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path, "c.json",
                    {"grid": 16, "k_max": 50, "n": 40, "penalties": [0]})
    out = tmp_path / "o"
    assert main(["spectral", "--config", cfg, "--seed", "1", "--out", str(out)]) == 0
    _, rows = read_csv(out / "dirichlet_spectrum.csv")
    assert len(rows) == 50
    _, rows = read_csv(out / "exponents.csv")
    assert len(rows) == 2
    # the closed-form Dirichlet spectrum has no grid cap and builds no grid,
    # which at 10^8 nodes would take minutes and gigabytes
    import fluoinv.cli as cli

    def no_grid(*args):
        raise AssertionError("spectral built a grid for the Dirichlet spectrum")

    monkeypatch.setattr(cli, "Grid", no_grid)
    big = write_cfg(tmp_path, "big.json", {"grid": 10000, "k_max": 200, "which": "dirichlet"})
    assert main(["spectral", "--config", big, "--out", str(tmp_path / "x")]) == 0
    _, rows = read_csv(tmp_path / "x" / "dirichlet_spectrum.csv")
    assert len(rows) == 200


def test_verify_default_passes(tmp_path, lu_counts):
    # the stability inequality reads u_m(T) on the map's path, one step
    # factor per source, not a coupled march with two; the map's step
    # ordering costs one factorization per grid, shared by both Robin
    # parameters
    out = tmp_path / "o"
    assert main(["verify", "--preset", "verify-default", "--out", str(out)]) == 0
    _, rows = read_csv(out / "verify_report.csv")
    assert len(rows) == len(BATTERY_CHECKS)
    assert all(r[1] == "1" for r in rows)
    assert lu_counts["factorizations"] <= 118


def test_verify_violated_fails(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["verify", "--preset", "verify-violated", "--out", str(out)]) == 4
    header, rows = read_csv(out / "verify_report.csv")
    passed = {r[0]: r[1] for r in rows}
    assert passed["field-positivity"] == "0"
    # one stderr line names the failed checks; stdout keeps the table
    captured = capsys.readouterr()
    failed = [name for name in BATTERY_CHECKS if passed[name] == "0"]
    assert captured.err.splitlines() == [
        f"error: {len(failed)} of {len(BATTERY_CHECKS)} property checks failed: "
        f"{', '.join(failed)}"]
    assert len(captured.out.splitlines()) == len(BATTERY_CHECKS)


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

    monkeypatch.setattr(fit, "WEIGHT_MAX_PASSES", 1)


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


# The monkeypatched fixtures reach the worker processes through fork.
@pytest.mark.parametrize("threads", ["1", "2"])
def test_rates_weight_loop_nonconvergence_exits_3(tmp_path, capsys, one_pass_weight_loop,
                                                  threads):
    cfg = write_cfg(tmp_path, "c.json", {
        "grid": 16, "truth": "example1", "s": 0, "sigma": 0.002,
        "ladder": [100, 300, 1000], "trials": 2, "lambda": {"mode": "self-consistent"},
    })
    out = tmp_path / "o"
    assert main(["rates", "--config", cfg, "--seed", "9", "--threads", threads,
                 "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "n=100" in err and "trial 0" in err
    assert json.loads((out / "manifest.json").read_text())["files"] == []


@pytest.fixture
def one_step_fixed_point(monkeypatch):
    """Cut each trial's fixed-point iteration to one step, so it never converges."""
    monkeypatch.setattr(inverse, "FIXED_POINT_MAX_ITER", 1)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_rates_fixed_point_nonconvergence_exits_3(tmp_path, capsys, one_step_fixed_point,
                                                  threads):
    cfg = write_cfg(tmp_path, "c.json", {
        "grid": 16, "tau": 0.25, "truth": "example2-smooth", "s": 1,
        "relative_sigma": 0.001, "ladder": [100, 300, 1000], "trials": 2,
        "lambda": {"mode": "prior"}, "run_p2": True,
    })
    out = tmp_path / "o"
    assert main(["rates", "--config", cfg, "--seed", "9", "--threads", threads,
                 "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "fixed-point" in err and "n=100" in err and "trial 0" in err
    assert json.loads((out / "manifest.json").read_text())["files"] == []


@pytest.mark.parametrize("threads", ["1", "2"])
def test_rates_positivity_failure_names_rung_and_trial(tmp_path, capsys, threads):
    # flipped boundary data make the terminal excitation negative, so the
    # first trial's fixed point cannot divide by it
    cfg = write_cfg(tmp_path, "c.json", {
        "grid": 16, "tau": 0.25, "truth": "example2-smooth", "s": 0,
        "relative_sigma": 0.01, "ladder": [100, 300], "trials": 2, "run_p2": True,
        "flip_boundary": True,
    })
    out = tmp_path / "o"
    assert main(["rates", "--config", cfg, "--threads", threads, "--out", str(out)]) == 3
    warning, error = capsys.readouterr().err.splitlines()  # the parent warns, no worker
    assert warning.startswith("warning: the problem data violate 4 hypotheses: ")
    assert error.startswith("error: ") and "nonpositive" in error
    assert "n=100" in error and "trial 0" in error
    assert json.loads((out / "manifest.json").read_text())["files"] == []


def test_killed_trial_worker_is_one_line_and_exit_2(tmp_path, capsys, monkeypatch):
    # one forked worker ends as the OOM killer would end it, at trial 1 of
    # the first rung; the pool is forced, so the test process never runs a
    # trial itself
    parent, seed = os.getpid(), stochastic.trial_seed

    def killed_at_one_trial(base_seed, i, t):
        if (i, t) == (0, 1) and os.getpid() != parent:
            os._exit(137)
        return seed(base_seed, i, t)

    monkeypatch.setattr(stochastic, "trial_seed", killed_at_one_trial)
    monkeypatch.setattr(stochastic, "available_cpus", lambda: 2)
    cfg = write_cfg(tmp_path, "c.json", {
        "grid": 16, "truth": "example1", "s": 0, "sigma": 0.002,
        "ladder": [100, 300, 1000], "trials": 2, "lambda": {"mode": "prior"},
    })
    out = tmp_path / "o"
    assert main(["rates", "--config", cfg, "--threads", "2", "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: a trial worker process was killed, most likely out of memory, "
        "with 2 workers running"]
    assert json.loads((out / "manifest.json").read_text())["files"] == []


def run_cli(argv, preexec_fn=None, **env):
    """``python -m fluoinv.cli argv`` in a subprocess on this package's sources,
    with the given environment variables added; the completed process."""
    return subprocess.run([sys.executable, "-m", "fluoinv.cli", *argv], env=package_env(**env),
                          capture_output=True, text=True, preexec_fn=preexec_fn)


def cap_address_space():
    """Cap the child's address space at 2 GiB, so an oversized allocation
    fails there at once instead of taking the host's memory."""
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


@pytest.mark.parametrize("command, payload", [
    ("forward", {"grid": 10**7, "source": "zero"}),  # 728 TiB of nodes
    ("p1", {"grid": 16, "truth": "example1", "n": 10**11, "sigma": 0.01, "s": 0}),  # 745 GiB
], ids=["forward-grid", "p1-sensors"])
def test_out_of_memory_is_one_line_and_exit_2(tmp_path, command, payload):
    cfg = write_cfg(tmp_path, "c.json", payload)
    run = run_cli([command, "--config", cfg, "--out", str(tmp_path / "o")],
                  preexec_fn=cap_address_space, OPENBLAS_NUM_THREADS="1")
    assert run.returncode == 2, run.stderr
    lines = run.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: out of memory: "), lines


@pytest.mark.parametrize("command, payload, code", [
    ("forward", {"grid": 8, "tau": 0.25, "source": "zero", "flip_boundary": True}, 0),
    ("p2", {"grid": 8, "tau": 0.25, "truth": "example2-smooth", "clean": True,
            "flip_boundary": True}, 3),
], ids=["forward", "p2-clean"])
def test_violated_hypotheses_are_one_line_under_a_strict_warning_filter(tmp_path, command,
                                                                         payload, code):
    # PYTHONWARNINGS=error turns any Python warning into a traceback and exit
    # 1; the violated hypotheses are a line of the CLI's own, before the error
    cfg = write_cfg(tmp_path, "c.json", payload)
    run = run_cli([command, "--config", cfg, "--out", str(tmp_path / "o")],
                  PYTHONWARNINGS="error")
    assert run.returncode == code, run.stderr
    lines = run.stderr.splitlines()
    assert lines[0] == ("warning: the problem data violate 4 hypotheses: boundary data "
                        "takes negative values (min -9); boundary data decreases in time "
                        "(min rate -4); boundary data has no positive value; terminal "
                        "boundary data is not strictly positive (min -9)")
    assert [ln.split(" ", 1)[0] for ln in lines[1:]] == ["error:"] * (code != 0), lines


_UNDERFLOW = {"grid": 8, "truth": "example2-smooth"}
_FITTED = {**_UNDERFLOW, "sigma": 1e-3, "s": 1}


@pytest.mark.parametrize("command, payload, code", [
    ("p2", {**_UNDERFLOW, "clean": True, "beta": 1e160}, 0),
    ("p2", {**_UNDERFLOW, "clean": True, "beta": 1e300}, 0),
    ("p2", {**_UNDERFLOW, "clean": True, "T": 1e-300, "tau": 1e-300}, 3),
    ("p2", {**_FITTED, "n": 50, "beta": 1e300}, 2),
    ("p1", {**_FITTED, "truth": "example2-discontinuous", "n": 50, "beta": 1e300}, 2),
    ("rates", {**_FITTED, "ladder": [20, 40], "trials": 1, "beta": 1e300,
               "lambda": {"mode": "fixed", "value": 1e-3}}, 2),
], ids=["p2-clean-1e160", "p2-clean-1e300", "p2-clean-tiny-tau", "p2-fitted", "p1", "rates"])
def test_underflowing_problems_end_in_one_line(tmp_path, command, payload, code):
    # a Robin load 1/(beta h) or a step inverse near 1e-300 would underflow the
    # square of the map's Lanczos start, unscaled, to 0 (a NaN map, then a
    # singular factor); a clean p2 recovers the source all the same, or stops
    # on a vanishing excitation.  At beta = 1e300 the truth's fields underflow
    # too, which a fit divides by: a configuration error at 'truth'
    cfg = write_cfg(tmp_path, "c.json", payload)
    out = tmp_path / "o"
    run = run_cli([command, "--config", cfg, "--out", str(out)], PYTHONWARNINGS="error")
    assert run.returncode == code, run.stderr
    lines = run.stderr.splitlines()
    assert [ln.split(" ", 1)[0] for ln in lines] == ["error:"] * (code != 0), lines
    if code == 0:
        header, (row,) = read_csv(out / "source_errors.csv")
        assert float(row[header.index("err5")]) < 1e-10
    if code == 2:
        assert lines[0].startswith("error: config error at 'truth': "), lines


RATES = {"grid": 16, "truth": "example1", "s": 0, "sigma": 0.002,
         "ladder": [100, 300, 1000], "trials": 2, "lambda": {"mode": "prior"}}
RATES_NO_SIGMA = {k: v for k, v in RATES.items() if k != "sigma"}
P1 = {"grid": 16, "truth": "example1", "n": 300, "sigma": 0.002, "s": 0}
P2 = {"grid": 16, "tau": 0.25, "truth": "example2-smooth", "clean": True}
P2_NOISY = {"grid": 16, "tau": 0.25, "truth": "example2-smooth", "n": 50, "s": 0}
FORWARD = {"grid": 16, "tau": 0.25, "source": "zero"}
LADDER = {"mode": "ladder", "values": [1e-6, 1e-5]}


def without(payload, key):
    """`payload` with `key` left out."""
    return {k: v for k, v in payload.items() if k != key}


CONFIG_ERRORS = [
    ("rates", {**RATES, "sigma": 0}, "'lambda'"),
    ("rates", {**RATES, "lambda": "prior"}, "'lambda'"),
    ("p1", {**P1, "lambda": "prior"}, "'lambda'"),
    ("rates", {**RATES, "trials": 0}, "'trials'"),
    ("p1", {**P1, "sigma": -0.1, "lambda": {"mode": "self-consistent"}}, "'sigma'"),
    ("p1", {**P1, "sigma": "abc"}, "'sigma'"),
    ("rates", {**RATES_NO_SIGMA, "relative_sigma": -0.001}, "'relative_sigma'"),
    ("rates", {**RATES_NO_SIGMA, "relative_sigma": "abc"}, "'relative_sigma'"),
    ("rates", {**RATES, "ladder": [], "tail_trials": 50}, "'ladder'"),
    ("p2", {**P2, "inverse": {"max_iter": 20}}, "'inverse': unknown key"),
    ("rates", {**RATES, "tail_trials": "abc"}, "'tail_trials'"),
    ("rates", {**RATES, "tail_trials": -1}, "'tail_trials'"),
    ("rates", {**RATES, "tail_trials": 50, "tail_zmax": "x"}, "'tail_zmax'"),
    ("p2", {**P2, "beta": "x"}, "'beta'"),
    ("p2", {**P2, "tau": "x"}, "'tau'"),
    ("p2", {**P2, "T": float("inf")}, "'T'"),
    ("p1", {**P1, "beta": "x"}, "'beta'"),
    ("p1", {**P1, "dim": "x"}, "'dim'"),
    ("p1", {**P1, "layout": "bogus"}, "'layout'"),
    ("p1", {**P1, "noise": "bogus"}, "'noise'"),
    ("rates", {**RATES, "noise": "bogus"}, "'noise'"),
    ("p1", {**P1, "lambda": {**LADDER, "values": ["x"]}}, "'lambda'"),
    ("p1", {**P1, "lambda": {**LADDER, "values": [-1, 1e-6, 1e-5]}}, "'lambda'"),
    ("p1", {**P1, "lambda": {"mode": "ladder"}}, "'lambda'"),
    ("forward", {**FORWARD, "source": "bogus"}, "'source'"),
    ("verify", {"tau": "x"}, "'tau'"),
    ("verify", {"tau": 0.3}, "'tau'"),
    ("verify", {"grid": "x"}, "'grid'"),
    ("verify", {"grid": 2}, "'grid'"),
    ("p1", {**P1, "seed": "x"}, "'seed'"),
    ("p1", {**P1, "seed": -3}, "'seed'"),
    ("p1", {**P1, "lamda": {"mode": "self-consistent"}}, "'lamda'"),
    ("rates", {**RATES, "n": 300}, "'n'"),
    ("p2", {**P2, "clean": "no"}, "'clean'"),
    ("forward", {**FORWARD, "flip_boundary": "no"}, "'flip_boundary'"),
    ("spectral", {"grid": 16, "which": "bogus"}, "'which'"),
    ("spectral", {"grid": 16, "penalties": "01"}, "'penalties'"),
    ("p1", {**P1, "s": 2}, "'s'"),
    ("p1", {**P1, "beta": -1}, "'beta'"),
    ("p1", {**P1, "n": "300"}, "'n'"),
    ("p2", {**P2, "dim": 1}, "'dim'"),
    ("forward", {**FORWARD, "dim": 1}, "'dim'"),
    ("p1", {**P1, "truth": "example2-smooth", "dim": 1}, "'dim'"),
    ("p2", {**P2, "tau": 0.3}, "'tau'"),
    ("p1", {**P1, "lambda": {"mode": "bogus"}}, "'lambda'"),
    ("rates", {**RATES, "run_p2": "no"}, "'run_p2'"),
    ("spectral", {"grid": 16, "penalties": []}, "'penalties'"),
    ("verify", {"beta": 1.0}, "'beta'"),
    ("rates", {**RATES, "tail_trials": 50, "tail_zmax": 0}, "'tail_zmax'"),
    ("rates", {**RATES, "tail_trials": 20}, "'tail_trials'"),
    ("spectral", {"grid": 16, "dim": 1, "k_max": 5, "n": 20}, "'n': 20 sensors on 17 grid nodes"),
    ("forward", {**FORWARD, "T": 1e-12, "tau": 1}, "'tau'"),
    ("p1", {**P1, "sigma": 1e-300}, "'sigma'"),
    ("p2", {**P2_NOISY, "relative_sigma": 1e300}, "'relative_sigma'"),
    ("rates", {**RATES, "sigma": 1e-300}, "'sigma'"),
    ("p2", {**P2, "T": 1e300, "tau": 1e299}, "'tau'"),
    ("forward", {"grid": 4, "source": "example2-smooth", "T": 1, "tau": 1e-320}, "'tau'"),
    ("p2", {"grid": 4, "truth": "example2-smooth", "clean": True, "T": 1, "tau": 1e-320},
     "'tau'"),
    ("verify", {"grid": 4, "tau": 1e-320}, "'tau'"),
    ("forward", {"grid": 8, "source": "zero", "T": 1e6, "tau": 1e-6}, "'tau'"),
    ("p1", {**P1, "flip_boundary": True}, "'flip_boundary'"),
    ("rates", {**RATES, "flip_boundary": True}, "'flip_boundary'"),
    ("p1", {**P1, "lambda": {"mode": "prior", "value": 0.5}}, "'value'"),
    ("rates", {**RATES, "lambda": {"mode": "self-consistent", "value": 0.5}}, "'value'"),
    ("p1", {**P1, "lambda": {"mode": "fixed", "value": 0.5, "values": [0.5]}}, "'values'"),
    ("p2", {**P2_NOISY, "sigma": 0.01, "lambda": {"mode": "prior", "values": [0.5]}},
     "'values'"),
    ("p2", {**P2, "n": 20, "sigma": 0.01, "s": 0, "lambda": {"mode": "prior"},
            "noise": "uniform"}, "'n'"),
    ("rates", {**RATES, "tail_n": 100, "tail_zmax": 2.0}, "'tail_n'"),
    ("spectral", {"grid": 16, "which": "dirichlet", "n": 20, "penalties": [0], "beta": 2.0},
     "'n'"),
    ("p2", {**without(P2_NOISY, "s"), "sigma": 0.01}, "'s'"),
    ("p1", without(P1, "n"), "'n'"),
    ("p1", without(P1, "sigma"), "'sigma'"),
    ("p1", without(P1, "truth"), "'truth'"),
    ("p1", without(P1, "grid"), "'grid'"),
    ("rates", without(RATES, "ladder"), "'ladder'"),
    ("p1", {**P1, "relative_sigma": 0.01}, "'relative_sigma'"),
    ("p1", {**without(P1, "sigma"), "relative_sigma": 0}, "'lambda'"),
    ("p1", {**P1, "lambda": {"mode": "fixed"}}, "'value'"),
    ("rates", {**RATES, "lambda": {"mode": "fixed"}}, "'value'"),
    ("p2", {**P2_NOISY, "sigma": 0.01, "lambda": LADDER}, "'lambda'"),
    ("rates", {**RATES, "lambda": LADDER}, "'lambda'"),
    ("p2", {**P2, "truth": "example1"}, "'truth'"),
    ("rates", {**RATES, "run_p2": True}, "'truth'"),
    ("p1", {**P1, "T": 7}, "'T'"),
    ("p1", {**P1, "tau": 0.3}, "'tau'"),
    ("p1", {**P1, "M": 1}, "'M'"),
    ("rates", {**RATES, "tau": 0.3}, "'tau'"),
    ("spectral", {"grid": 16, "which": "pencil", "k_max": 5}, "'k_max'"),
    ("spectral", {"grid": 4, "k_max": 10}, "'k_max'"),
    ("spectral", {"grid": 16, "which": "pencil", "n": 401}, "'n'"),
]
CONFIG_ERROR_IDS = ["rates-sigma-0", "rates-lambda-string", "p1-lambda-string", "rates-trials-0",
        "p1-sigma-negative", "p1-sigma-string", "rates-relative-sigma-negative",
        "rates-relative-sigma-string", "rates-ladder-empty", "p2-inverse-unknown",
        "rates-tail-trials-string", "rates-tail-trials-negative", "rates-tail-zmax-string",
        "p2-beta-string", "p2-tau-string", "p2-T-infinite", "p1-beta-string",
        "p1-dim-string", "p1-layout", "p1-noise-unknown", "rates-noise-unknown",
        "p1-ladder-values-string", "p1-ladder-values-negative", "p1-ladder-values-missing",
        "forward-source-unknown", "verify-tau-string", "verify-tau-steps",
        "verify-grid-string", "verify-grid-2", "p1-seed-string", "p1-seed-negative",
        "p1-key-misspelled", "rates-key-unread", "p2-clean-string",
        "forward-flip-boundary-string", "spectral-which-unknown", "spectral-penalties-string",
        "p1-s-2", "p1-beta-negative", "p1-n-numeric-string", "p2-dim-1", "forward-dim-1",
        "p1-example2-dim-1", "p2-tau-steps", "p1-lambda-mode-unknown", "rates-run-p2-string",
        "spectral-penalties-empty", "verify-key-unread", "rates-tail-zmax-0",
        "rates-tail-trials-20", "spectral-pencil-rank-deficient", "forward-no-whole-step",
        "p1-prior-weight-underflows", "p2-noise-square-overflows",
        "rates-prior-weight-underflows", "p2-tau-squared-overflows",
        "forward-steps-overflow", "p2-steps-overflow", "verify-steps-overflow",
        "forward-steps-above-cap",
        "p1-example1-flip-boundary", "rates-example1-flip-boundary", "p1-value-in-prior-mode",
        "rates-value-in-self-consistent-mode", "p1-values-in-fixed-mode",
        "p2-values-in-prior-mode", "p2-clean-fit-keys", "rates-tail-keys-without-tail",
        "spectral-dirichlet-pencil-keys", "p2-s-missing", "p1-n-missing",
        "p1-noise-level-missing", "p1-truth-missing", "p1-grid-missing", "rates-ladder-missing",
        "p1-relative-sigma-beside-sigma", "p1-prior-relative-sigma-0", "p1-fixed-without-value",
        "rates-fixed-without-value", "p2-ladder-mode", "rates-ladder-mode", "p2-example1",
        "rates-run-p2-example1", "p1-example1-T", "p1-example1-tau", "p1-example1-M",
        "rates-example1-tau", "spectral-pencil-k-max", "spectral-k-max-above-interior",
        "spectral-pencil-above-cap"]
# The cases whose rule reads computed data: the step count and tau^2 of the
# problem data, the prior weight's underflow, the squared noise level's
# overflow and the pencil's rank.  Every other case is rejected by the table.
LATE = {"verify-tau-steps", "p2-tau-steps", "spectral-pencil-rank-deficient",
        "forward-no-whole-step", "p1-prior-weight-underflows", "p2-noise-square-overflows",
        "rates-prior-weight-underflows", "p2-tau-squared-overflows", "forward-steps-overflow",
        "p2-steps-overflow", "verify-steps-overflow", "forward-steps-above-cap"}
STATIC = [(case, name) for case, name in zip(CONFIG_ERRORS, CONFIG_ERROR_IDS)
          if name not in LATE]


def assert_config_error(tmp_path, capsys, command, payload, key):
    """``fluoinv command`` on `payload` exits 2 with one line naming `key`,
    having written nothing."""
    cfg = write_cfg(tmp_path, "c.json", payload)
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and key in err[0], err
    assert not out.exists() or not any(out.iterdir())  # rejected before any work


@pytest.mark.parametrize("command,payload,key", CONFIG_ERRORS, ids=CONFIG_ERROR_IDS)
def test_weight_policy_and_trial_errors_are_config_errors(tmp_path, capsys,
                                                          command, payload, key):
    assert_config_error(tmp_path, capsys, command, payload, key)


@pytest.mark.parametrize("command,payload,key", [case for case, _ in STATIC],
                         ids=[name for _, name in STATIC])
def test_static_config_errors_come_before_any_work(tmp_path, capsys, monkeypatch,
                                                   command, payload, key):
    def no_work(*args, **kwargs):
        raise AssertionError("a configuration error the table can see reached the work")

    for name in ("Grid", "run_battery", "laplacian_spectrum"):
        monkeypatch.setattr(cli, name, no_work)
    assert_config_error(tmp_path, capsys, command, payload, key)


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_rates_threads_below_one_is_config_error(tmp_path, capsys, threads):
    cfg = write_cfg(tmp_path, "c.json", RATES)
    assert main(["rates", "--config", cfg, "--threads", threads,
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "--threads" in err[0]


def test_other_commands_ignore_threads(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", {"grid": 16, "tau": 0.25, "source": "zero"})
    assert main(["forward", "--config", cfg, "--threads", "0",
                 "--out", str(tmp_path / "o")]) == 0


# The type each key validates to, stated apart from the table it checks.
KINDS = {
    "grid": int, "dim": int, "beta": float, "T": float, "tau": float, "M": float,
    "flip_boundary": bool, "source": str, "truth": str, "n": int, "sigma": float,
    "relative_sigma": float, "noise": str, "s": int, "lambda": dict, "clean": bool,
    "run_p2": bool, "ladder": list, "trials": int, "tail_trials": int,
    "tail_n": int, "tail_zmax": float, "which": str, "k_max": int, "penalties": list,
    "seed": int,
}
WORDS = ["prior", "fixed", "self-consistent", "ladder", "gaussian", "uniform", "zero",
         "example1", "example2-smooth", "dirichlet", "pencil", "both"]
SUB_KEYS = ["mode", "value", "values"]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=5) | st.sampled_from(WORDS)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.sampled_from(SUB_KEYS) | st.text(max_size=3), inner,
                                     max_size=3)),
    max_leaves=6)
READS = [(key, command) for key, row in cli._KEYS.items() for command in row[3]]
# the keys read only once another key is set
READ_WITH = {"tail_n": {"tail_trials": 50}, "tail_zmax": {"tail_trials": 50}}
# A complete configuration of each command but for the noise level: its
# example2 truth reads every problem key.  It goes in as the preset, so the
# keys that a drawn value leaves unread are dropped, not rejected.
FITTED = {"grid": 8, "truth": "example2-smooth", "n": 10, "s": 0,
          "lambda": {"mode": "self-consistent"}}
COMPLETE = {"forward": {"grid": 8, "source": "zero"}, "p1": FITTED, "p2": FITTED,
            "rates": {**FITTED, "ladder": [10]}, "spectral": {"grid": 16, "k_max": 1},
            "verify": {}}
NOISY = {"sigma": 0.01}


def test_kinds_cover_the_table():
    assert set(KINDS) == set(cli._KEYS)


@settings(max_examples=300)
@given(value=JSON_VALUES)
def test_each_key_validates_or_names_itself(value):
    # every key against every command that reads it, for each drawn value
    for key, command in READS:
        base = {**COMPLETE[command], **(NOISY if "truth" in COMPLETE[command] else {})}
        try:
            cfg = cli._validate(command, base, {**READ_WITH.get(key, {}), key: value})
        except cli.ConfigError as exc:
            message = str(exc)
            assert message.startswith(f"config error at {key!r}: ") and "\n" not in message
        else:
            assert type(cfg[key]) is KINDS[key]
            assert (cli._validate(command, base, {**READ_WITH.get(key, {}), key: cfg[key]})[key]
                    == cfg[key])


# Where README.md lists each preset, plus the benchmark's rates run.
PRESET_COMMANDS = {
    "example1": ["p1"],
    "example2-smooth": ["forward", "p2", "rates"],
    "example2-discontinuous": ["forward"],
    "zero-source": ["forward"],
    "verify-default": ["verify"],
    "verify-violated": ["verify"],
}


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_presets_validate(name):
    assert set(PRESETS[name]) <= set(cli._KEYS)
    for command in PRESET_COMMANDS[name]:  # the preset completes the configuration
        cfg = cli._validate(command, {**COMPLETE[command], **PRESETS[name]}, {})
        assert set(cfg) <= {key for key, row in cli._KEYS.items() if command in row[3]}


def test_readme_lists_the_config_table():
    # every key, whether it is required, and each rule by which the rest of
    # the configuration leaves keys unread, on one line of the section
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Configuration", 1)[1]
    defaults = dict(re.findall(r"^\| `(\w+)` \| [^|]+ \| ([^|]+) \|", section, re.M))
    assert set(defaults) == set(cli._KEYS)
    for key, row in cli._KEYS.items():
        assert (row[1] is cli.REQUIRED) == defaults[key].startswith("required"), key
    for (command, key, value), names in cli._UNREAD_WHEN.items():
        rule = f'`"{key}": {json.dumps(value)}`'
        assert any(f"`{command}`" in line and rule in line
                   and all(f"`{name}`" in line for name in names)
                   for line in section.splitlines()), (command, key, value)


# About as much noise as signal, a single sensor, few sensors, or no noise at
# all: the self-consistent weight grows past 2^52 times the data operator's
# largest Ritz value, where the loop names the divergence, before the penalty
# norm underflows (at pass 16 of "p2-one-sensor" and 14 of "p1-few-sensors"
# before), on grid 8 and on grids 4 and 16.  p1 and p2 keep the weights of
# the passes made.
SC = {"mode": "self-consistent"}
DIVERGING = {"grid": 8, "truth": "example1", "n": 5, "sigma": 0.01, "s": 0, "lambda": SC}


@pytest.mark.parametrize("command,payload,where", [
    ("p1", DIVERGING, "pass "),
    ("p1", {**DIVERGING, "n": 1}, "pass "),
    ("p1", {**DIVERGING, "noise": "zero"}, "pass "),
    ("p1", {**DIVERGING, "grid": 4}, "pass "),
    ("p1", {**DIVERGING, "grid": 16, "n": 200, "s": 1}, "pass "),
    ("p2", {"grid": 8, "tau": 0.25, "truth": "example2-smooth", "n": 1,
            "relative_sigma": 0.01, "s": 0, "lambda": SC}, "pass "),
    ("rates", {**{k: v for k, v in DIVERGING.items() if k != "n"},
               "ladder": [5, 6, 7], "trials": 2}, "n=5, trial 0"),
], ids=["p1-representer", "p1-one-sensor", "p1-zero-noise", "p1-cg", "p1-few-sensors",
        "p2-one-sensor", "rates-representer"])
def test_failing_weight_loop_exits_3_naming_the_pass(tmp_path, capsys, command, payload,
                                                     where):
    cfg = write_cfg(tmp_path, "c.json", payload)
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "weight loop, pass" in err[0] and where in err[0]
    assert "the weight diverges" in err[0]
    passes = int(re.search(r"pass (\d+)", err[0]).group(1))
    assert passes <= 11
    files = [f["name"] for f in json.loads((out / "manifest.json").read_text())["files"]]
    if command == "rates":
        assert files == []
    else:
        assert files == ["lambda_trace.csv"]
        _, rows = read_csv(out / "lambda_trace.csv")
        assert len(rows) == passes  # the starting weight and each update before the pass


def test_overflowing_fit_stops_within_a_few_iterations(tmp_path, capsys):
    # noise of 1e152 at a weight of 1e7: the CG curvature p'Ap overflows
    cfg = write_cfg(tmp_path, "c.json", {
        "grid": 8, "truth": "example1", "n": 20, "sigma": 1e152, "s": 0,
        "lambda": {"mode": "fixed", "value": 1e7},
    })
    assert main(["p1", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and re.search(r"after \d iterations$", err[0]), err
    assert re.search(r"CG stopped on a non-finite curvature p'Ap = (inf|nan) at residual", err[0])


def outputs_at_blas_threads(tmp_path, argv, names):
    """The bytes of the named outputs of ``fluoinv argv``, run in one
    subprocess at each of OPENBLAS_NUM_THREADS 1 and 2."""
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"o{threads}"
        run_cli([*argv, "--out", str(out), "--seed", "0"],
                OPENBLAS_NUM_THREADS=threads).check_returncode()
        outputs.append([(out / name).read_bytes() for name in names])
    return outputs


@pytest.mark.parametrize("s", [0, 1])
def test_weight_loop_outputs_do_not_depend_on_blas_threads(tmp_path, s):
    # grid 100, 10,000 sensors: numpy's BLAS dot products and norms change
    # their last bit with the thread count at this size; the pairwise sums of
    # the weight loop and of the L2 and dual-H1 error norms do not
    cfg = write_cfg(tmp_path, "c.json", {"s": s, "lambda": {"mode": "self-consistent"}})
    one, two = outputs_at_blas_threads(
        tmp_path, ["p1", "--preset", "example1", "--config", cfg],
        ("lambda_trace.csv", "fit_fields.csv", "fit_errors.csv"))
    assert one == two


def test_source_recovery_outputs_do_not_depend_on_blas_threads(tmp_path):
    # grid 100, where BLAS dot products change their last bit with the thread
    # count: the secant mixing of the clamped fixed point takes its inner
    # products by pairwise sums, so the fit and the iteration repeat bit for bit
    one, two = outputs_at_blas_threads(
        tmp_path, ["p2", "--preset", "example2-smooth"],
        ("iteration_trace.csv", "source_fields.csv", "source_errors.csv"))
    assert one == two


def test_dirichlet_spectrum_does_not_depend_on_blas_threads(tmp_path):
    # the closed-form spectrum and its log-log fit use no threaded BLAS; the
    # pencil's dense eigensolver still may, so it is left out here
    cfg = write_cfg(tmp_path, "c.json", {"grid": 32, "which": "dirichlet"})
    one, two = outputs_at_blas_threads(tmp_path, ["spectral", "--config", cfg],
                                       ("dirichlet_spectrum.csv", "exponents.csv"))
    assert one == two


_STEPS_AND_TAU = st.tuples(st.integers(1, 4), st.sampled_from([0.01, 0.1, 0.25, 1.0, 3.0]))
_NOISE_LEVEL = st.sampled_from([0.0, 1e-300, 1e-8, 0.001, 0.05, 1.0, 1e300])
_BETA = st.sampled_from([1.0, 1e160, 1e300])
_P_CONFIGS = st.fixed_dictionaries({
    "grid": st.integers(4, 8),
    "truth": st.sampled_from(["example1", "example2-smooth", "example2-discontinuous"]),
    "n": st.integers(1, 50),
    "s": st.sampled_from([0, 1]),
    "noise": st.sampled_from(["gaussian", "uniform", "zero"]),
    "lambda": st.sampled_from([{"mode": "prior"}, {"mode": "self-consistent"},
                               {"mode": "fixed", "value": 1e-6},
                               {"mode": "fixed", "value": 1e6}]),
    "M": st.sampled_from([0.5, 5.0, 50.0]),
    "flip_boundary": st.booleans(),
    # at 1e160 the square of the map's Lanczos start underflows unscaled,
    # and at 1e300 the squares of a truth's fields do
    "beta": _BETA,
})
_NOISE_KEY = st.sampled_from(["sigma", "relative_sigma"])
COUPLED_KEYS = ("T", "tau", "M", "flip_boundary")  # the example1 truth reads none of them


def assert_ends_in_an_exit_code(command, cfg, seed):
    """Run ``cli.main`` in-process: any configuration the table accepts ends in
    a documented exit code, never in a traceback or a Python warning.  Its
    stderr holds one ``error:`` line if the code is not 0 and none if it is,
    after at most one ``warning:`` line, and that only on flipped boundary
    data, which violate the problem's hypotheses."""
    stderr = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(stderr), \
            contextlib.redirect_stdout(io.StringIO()), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        path = write_cfg(Path(tmp), "c.json", cfg)
        code = main([command, "--config", path, "--seed", str(seed),
                     "--out", str(Path(tmp) / "o")])
    lines = stderr.getvalue().splitlines()
    event(f"{command} exit {code}")  # shown by pytest --hypothesis-show-statistics
    assert code in (0, 2, 3, 4), (code, lines)
    warned = int(bool(lines) and lines[0].startswith("warning: "))
    assert not warned or cfg.get("flip_boundary"), lines
    assert [ln.split(" ", 1)[0] for ln in lines[warned:]] == ["error:"] * (code != 0), lines
    assert caught == [], [str(w.message) for w in caught]


@settings(max_examples=150)
@given(command=st.sampled_from(["p1", "p2"]), cfg=_P_CONFIGS, steps_tau=_STEPS_AND_TAU,
       noise=st.tuples(_NOISE_KEY, _NOISE_LEVEL),
       p2_extra=st.fixed_dictionaries({}, optional={"clean": st.booleans()}),
       seed=st.integers(0, 3))
def test_valid_fit_configurations_end_in_an_exit_code(command, cfg, steps_tau, noise,
                                                      p2_extra, seed):
    steps, tau = steps_tau
    cfg = {**cfg, "tau": tau, "T": steps * tau, noise[0]: noise[1]}
    if command == "p2":
        cfg.update(p2_extra)
        if cfg["truth"] == "example1":  # p2 needs a source
            cfg["truth"] = "example2-smooth"
        if cfg.get("clean"):  # clean data are not fitted
            cfg = {k: v for k, v in cfg.items()
                   if k not in ("n", "s", "noise", "lambda", "sigma", "relative_sigma")}
    if cfg["truth"] == "example1":  # it has no coupled problem
        cfg = {k: v for k, v in cfg.items() if k not in COUPLED_KEYS}
    assert_ends_in_an_exit_code(command, cfg, seed)


@settings(max_examples=100)
@given(cfg=_P_CONFIGS, steps_tau=_STEPS_AND_TAU, noise=st.tuples(_NOISE_KEY, _NOISE_LEVEL),
       rates=st.fixed_dictionaries({
           "ladder": st.lists(st.integers(1, 50), min_size=1, max_size=3),
           "trials": st.integers(1, 2),
           "run_p2": st.booleans()}),
       seed=st.integers(0, 3))
def test_valid_rates_configurations_end_in_an_exit_code(cfg, steps_tau, noise, rates, seed):
    # the rates ladder in place of the sensor count, at the default --threads 1
    steps, tau = steps_tau
    cfg = {k: v for k, v in cfg.items() if k != "n"}
    cfg.update(rates, tau=tau, T=steps * tau, **{noise[0]: noise[1]})
    if cfg["run_p2"] and cfg["truth"] == "example1":  # the source recovery needs a source
        cfg["truth"] = "example2-smooth"
    if cfg["truth"] == "example1":  # it has no coupled problem
        cfg = {k: v for k, v in cfg.items() if k not in COUPLED_KEYS}
    assert_ends_in_an_exit_code("rates", cfg, seed)


@settings(max_examples=60)
@given(cfg=st.fixed_dictionaries({
           "grid": st.integers(4, 8),
           "source": st.sampled_from(["example2-smooth", "example2-discontinuous", "zero"]),
           "flip_boundary": st.booleans(),
           "beta": _BETA}),
       steps_tau=_STEPS_AND_TAU, seed=st.integers(0, 3))
def test_valid_forward_configurations_end_in_an_exit_code(cfg, steps_tau, seed):
    steps, tau = steps_tau
    assert_ends_in_an_exit_code("forward", {**cfg, "tau": tau, "T": steps * tau}, seed)


@settings(max_examples=60)
@given(cfg=st.fixed_dictionaries({
           "grid": st.integers(4, 8),
           "which": st.sampled_from(["dirichlet", "pencil", "both"]),
           "n": st.integers(1, 50),
           "k_max": st.integers(1, 20),
           "penalties": st.lists(st.sampled_from([0, 1]), min_size=1, max_size=2,
                                 unique=True)}),
       seed=st.integers(0, 3))
def test_valid_spectral_configurations_end_in_an_exit_code(cfg, seed):
    if cfg["which"] == "dirichlet":  # the closed form reads no sensors or penalties
        cfg = {k: v for k, v in cfg.items() if k not in ("n", "penalties")}
    if cfg["which"] == "pencil":  # nor the pencil a mode count
        cfg = {k: v for k, v in cfg.items() if k != "k_max"}
    assert_ends_in_an_exit_code("spectral", cfg, seed)


@settings(max_examples=40)
@given(grid=st.integers(4, 8), steps_tau=_STEPS_AND_TAU, flip_boundary=st.booleans(),
       seed=st.integers(0, 3))
def test_valid_verify_configurations_end_in_an_exit_code(grid, steps_tau, flip_boundary, seed):
    # the battery marches to its problem's own final time: only tau is drawn
    cfg = {"grid": grid, "tau": steps_tau[1], "flip_boundary": flip_boundary}
    assert_ends_in_an_exit_code("verify", cfg, seed)
