"""The benchmark's traced counters read the package's return shapes
(perfbench/tracer.py ``COUNTERS``): ``ExperimentRecord.trials``,
``self_consistent_lambda(...)[2]``, ``fixed_point_solve(...)[1]`` and
``FitResult.report``.  Each counter of a traced in-process ``rates`` run
must equal what ``trials.csv`` records of the same work."""

import csv
import json
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import package_env

WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"

SELF_CONSISTENT_P2 = {"grid": 16, "tau": 0.25, "truth": "example2-smooth", "s": 1,
                      "relative_sigma": 0.001, "ladder": [100, 300, 1000], "trials": 2,
                      "lambda": {"mode": "self-consistent"}, "run_p2": True}
PRIOR = {"grid": 16, "truth": "example1", "s": 0, "sigma": 0.002,
         "ladder": [100, 300, 1000], "trials": 2, "lambda": {"mode": "prior"}}


def traced_rates(tmp_path, cfg):
    """perfbench/worker.py in trace mode on ``rates`` at --threads 1, where the
    tracer sees every trial: (its counters, the rows of trials.csv)."""
    config, spec, result = (tmp_path / name for name in ("c.json", "spec.json", "result.json"))
    out = tmp_path / "o"
    config.write_text(json.dumps(cfg))
    spec.write_text(json.dumps({"mode": "trace", "argv": [
        "rates", "--config", str(config), "--threads", "1", "--out", str(out)]}))
    subprocess.run([sys.executable, str(WORKER), str(spec), str(result)], env=package_env(),
                   check=True)
    res = json.loads(result.read_text())
    assert res["code"] == 0
    with open(out / "trials.csv") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    return res["counters"], rows


@pytest.mark.parametrize("cfg", [SELF_CONSISTENT_P2, PRIOR], ids=["self-consistent-p2", "prior"])
def test_traced_counters_match_the_trials_csv(tmp_path, cfg):
    counters, rows = traced_rates(tmp_path, cfg)
    assert counters["stochastic.trials"] == len(rows) == 6
    for counter, column in (("fit.lambda_passes", "lambda_passes"),
                            ("inverse.fp_iterations", "fp_iterations")):
        assert counters.get(counter, 0) == sum(int(r[column]) for r in rows)
    if cfg["lambda"]["mode"] == "prior":  # every fit at a given weight runs CG
        assert counters["fit.cg_iterations"] > 0
    else:
        assert counters["fit.lambda_passes"] > 0 and counters["inverse.fp_iterations"] > 0
