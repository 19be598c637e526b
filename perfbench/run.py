"""fluoinv benchmark: CLI workloads, output checks and per-layer traces.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
./src.  Each invocation of a workload is a fresh interpreter
(perfbench/worker.py) that imports ``fluoinv.cli`` and calls its ``main``
with the workload's arguments, in a closed loop with one client until S
seconds have passed.  Every invocation's outputs are checked.  With
``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` untraced and traced invocations alternate and it carries the
per-layer metrics.  Workloads, layers and the expected effect of each
layer metric are described in perfbench/README.md.

    python3 perfbench/run.py --workload NAME --seed N --update-reference

stores the checked output values of one invocation at seed N in
perfbench/reference.json; later runs at that seed must reproduce them.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import layer_metrics, write_spans

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORK = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"

SETUP_SAMPLES = 3           # import-only interpreters per run, besides one per command
WALL_LIMIT_S = 140.0        # start no invocation that could end past this
HARD_LIMIT_S = 165.0        # kill a command still running at this point of the run
REFERENCE_RTOL = 1e-6       # outputs agree to solver tolerance, not to the byte
# Work counters that must repeat exactly between traced invocations.
REPEATING_COUNTS = ("grid.factorizations", "grid.solves", "fit.cg_iterations",
                    "fit.lambda_passes", "inverse.fp_iterations", "stochastic.trials")

# Printed with the end-to-end metrics but kept out of the result line: the
# failure fraction is carried by `failed`/`attempted` (a metric must never
# be 0), and the errors vary with the seed's noise draw by more than any
# bound could allow; they are held by the output checks instead.
REPORT_ONLY_UNITS = {"failed_frac": "ratio", "f_err_l2.s0": "ratio",
                     "f_err_l2.s1": "ratio", "q_err_l2": "ratio"}

# Seed-independent sanity bounds on the recovered quantities.
F_ERR_MAX = {0: 0.5, 1: 0.3}      # err3 of the fitted forcing, per penalty order
Q_ERR_MAX = 0.2                   # err5 of the recovered source


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _workload(name: str, seed: int, out: Path) -> list[list[str]]:
    """The CLI argument lists of one workload invocation, writing under `out`."""
    base = ["--seed", str(seed)]
    if name == "fit-sc":
        commands = []
        for s in (0, 1):
            cfg = out / f"fit-sc-s{s}.json"
            cfg.write_text(json.dumps({"s": s, "lambda": {"mode": "self-consistent"}}))
            commands.append(["p1", "--preset", "example1", "--config", str(cfg),
                             "--out", str(out / f"p1-s{s}")] + base)
        return commands
    if name == "recover-noisy":
        return [["p2", "--preset", "example2-smooth", "--out", str(out / "p2")] + base]
    if name == "rates-source":
        trials = 4
        cfg = out / "rates-source.json"
        cfg.write_text(json.dumps({
            "grid": 50, "s": 1, "relative_sigma": 0.001, "lambda": {"mode": "prior"},
            "ladder": [1000, 3163, 10000], "trials": trials, "run_p2": True,
        }))
        threads = min(_nproc(), trials)  # more threads than trials would idle
        return [["rates", "--preset", "example2-smooth", "--config", str(cfg),
                 "--threads", str(threads), "--out", str(out / "rates")] + base]
    raise ValueError(name)


WORKLOADS = ("fit-sc", "recover-noisy", "rates-source")


# ---------------------------------------------------------------- checks

def _rows(path: Path) -> list[dict]:
    with open(path) as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def _check_manifest(out: Path, problems: list) -> set:
    listed = set()
    try:
        manifest = json.loads((out / "manifest.json").read_text())
    except (OSError, ValueError) as exc:
        problems.append(f"{out.name}: no readable manifest ({exc})")
        return listed
    for entry in manifest["files"]:
        listed.add(entry["name"])
        path = out / entry["name"]
        if not path.is_file():
            problems.append(f"{out.name}: manifest lists missing {entry['name']}")
            continue
        data = path.read_bytes()
        if len(data) != entry["bytes"] or hashlib.sha256(data).hexdigest() != entry["sha256"]:
            problems.append(f"{out.name}: digest mismatch for {entry['name']}")
    return listed


def check_outputs(name: str, out: Path) -> tuple[dict, list]:
    """Check one invocation's files; return (output values, problems)."""
    problems: list[str] = []
    values: dict[str, float] = {}
    try:
        if name == "fit-sc":
            for s in (0, 1):
                d = out / f"p1-s{s}"
                listed = _check_manifest(d, problems)
                if "lambda_trace.csv" not in listed or not (d / "lambda_trace.csv").is_file():
                    problems.append(f"p1 s={s}: lambda_trace.csv missing")
                (row,) = _rows(d / "fit_errors.csv")
                for key in ("lambda", "misfit_n", "penalty_norm", "err1", "err2", "err3"):
                    values[f"s{s}.{key}"] = float(row[key])
                if not values[f"s{s}.err3"] < F_ERR_MAX[s]:
                    problems.append(f"p1 s={s}: err3 {values[f's{s}.err3']:.4g} "
                                    f"not below {F_ERR_MAX[s]}")
        elif name == "recover-noisy":
            d = out / "p2"
            _check_manifest(d, problems)
            (row,) = _rows(d / "source_errors.csv")
            if row["converged"] != "1":
                problems.append("p2: fixed point did not converge")
            for key in ("sigma", "lambda", "err4", "err5"):
                values[key] = float(row[key])
            if not values["err5"] < Q_ERR_MAX:
                problems.append(f"p2: err5 {values['err5']:.4g} not below {Q_ERR_MAX}")
        elif name == "rates-source":
            d = out / "rates"
            _check_manifest(d, problems)
            if len(_rows(d / "trials.csv")) != 12:
                problems.append("rates: trials.csv does not hold 3 x 4 trials")
            agg = _rows(d / "aggregate.csv")
            if [int(r["n"]) for r in agg] != [1000, 3163, 10000]:
                problems.append("rates: aggregate.csv does not hold the ladder")
            for r in agg:
                for key in ("lambda", "err1", "err2", "err3", "err4", "err5"):
                    values[f"n{r['n']}.{key}"] = float(r[key])
            for r in _rows(d / "rate_fits.csv"):
                values[f"slope.{r['metric']}"] = float(r["slope"])
            if len([k for k in values if k.startswith("slope.")]) != 5:
                problems.append("rates: rate_fits.csv lacks a fit per error")
            q_err = values.get("n10000.err5", math.inf)
            if not q_err < min(Q_ERR_MAX, values.get("n1000.err5", math.inf)):
                problems.append(f"rates: err5 at n=10000 ({q_err:.4g}) is not below "
                                f"{Q_ERR_MAX} and the n=1000 rung")
    except (OSError, KeyError, ValueError) as exc:
        problems.append(f"unreadable output: {exc!r}")
    problems += [f"{key} is not finite: {val}" for key, val in values.items()
                 if not math.isfinite(val)]
    return values, problems


def check_reference(name: str, seed: int, values: dict) -> tuple[bool, list]:
    """Compare with stored values for this seed, if any; (checked, problems)."""
    stored = json.loads(REFERENCE.read_text()).get(name, {}).get(str(seed))
    if stored is None:
        return False, []
    problems = []
    for key, ref in stored.items():
        got = values.get(key)
        if got is None or not math.isclose(got, ref, rel_tol=REFERENCE_RTOL, abs_tol=0.0):
            problems.append(f"reference mismatch at {key}: {got!r} vs {ref!r}")
    return True, problems


def accuracy(name: str, values: dict) -> dict:
    if name == "fit-sc":
        return {"f_err_l2.s0": values["s0.err3"], "f_err_l2.s1": values["s1.err3"]}
    if name == "recover-noisy":
        return {"q_err_l2": values["err5"]}
    return {"q_err_l2": values["n10000.err5"]}


# ---------------------------------------------------------------- processes

def run_worker(spec: dict, tag: str, deadline: float) -> dict:
    """Run worker.py on `spec` in a fresh interpreter; return its result.

    The process is killed if it is still running at `deadline`
    (a time.monotonic() value).
    """
    spec_path = WORK / f"{tag}.spec.json"
    result_path = WORK / f"{tag}.result.json"
    spec_path.write_text(json.dumps(spec))
    result_path.unlink(missing_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(spec_path), str(result_path)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=max(deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired:
        return {"error": "killed at the run's time limit"}
    if proc.returncode != 0 or not result_path.is_file():
        tail = (proc.stderr or "").strip().splitlines()[-3:]
        return {"error": f"worker exited {proc.returncode}: {' | '.join(tail)}"}
    result = json.loads(result_path.read_text())
    expected = (ROOT / "src" / "fluoinv" / "cli.py").resolve()
    if Path(result["fluoinv_file"]).resolve() != expected:
        return {"error": f"imported {result['fluoinv_file']}, not {expected}"}
    return result


def environment() -> dict:
    """Where the numbers came from; BLAS threading is left as the user has it."""
    probe = (
        "import json, numpy, scipy\n"
        "blas = lambda c: c['Build Dependencies']['blas']\n"
        "n = blas(numpy.show_config(mode='dicts'))\n"
        "s = blas(scipy.show_config(mode='dicts'))\n"
        "print(json.dumps({'numpy': numpy.__version__, 'scipy': scipy.__version__,"
        " 'numpy_blas': f\"{n.get('name')} {n.get('version')}\","
        " 'scipy_blas': f\"{s.get('name')} {s.get('version')}\"}))\n"
    )
    env = {"nproc": _nproc(), "python": sys.version.split()[0]}
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          timeout=60)
    if proc.returncode == 0:
        env.update(json.loads(proc.stdout))
    env["thread_vars"] = {k: v for k, v in sorted(os.environ.items())
                          if k.endswith("_NUM_THREADS")}
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        commit = git.stdout.strip() if git.returncode == 0 else None
    env["git_commit"] = commit
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "fluoinv").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    env["src_sha256"] = digest.hexdigest()[:16]
    return env


# ---------------------------------------------------------------- measurement

def _median(values):
    return statistics.median(values) if values else None


def invoke(name: str, seed: int, mode: str, tag: str, deadline: float) -> dict:
    """One workload invocation: each of its CLI commands in a fresh process.

    Returns the summed run time, the largest peak RSS, every import time,
    the problems found, the checked output values and, when traced, the
    spans of all its processes (ids made unique) and summed counters.
    `ran` is false when a process gave no result, so nothing was measured.
    """
    out = WORK / "cli"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    inv = {"ran": False, "setup_s": [], "run_s": 0.0, "peak_rss_mb": 0.0,
           "problems": [], "values": {}, "spans": [], "counters": {}}
    for i, argv in enumerate(_workload(name, seed, out)):
        res = run_worker({"mode": mode, "argv": argv}, f"{tag}-{i}", deadline)
        if "error" in res:
            inv["problems"].append(res["error"])
            return inv
        if res["code"] != 0:
            inv["problems"].append(f"{argv[0]} exited {res['code']}")
        inv["setup_s"].append(res["setup_s"])
        inv["run_s"] += res["run_s"]
        inv["peak_rss_mb"] = max(inv["peak_rss_mb"], res["peak_rss_mb"])
        base = len(inv["spans"])
        inv["spans"] += [(sid + base, span_name, layer, start, end,
                          None if parent is None else parent + base, cpu)
                         for sid, span_name, layer, start, end, parent, cpu
                         in res.get("spans", ())]
        for key, val in res.get("counters", {}).items():
            inv["counters"][key] = inv["counters"].get(key, 0) + val
    inv["ran"] = True
    inv["values"], bad = check_outputs(name, out)
    inv["problems"] += bad
    return inv


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Closed loop of invocations for `seconds`, after the set-up samples."""
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    begin = time.monotonic()
    deadline = begin + HARD_LIMIT_S
    m = {"attempted": 0, "failed": 0, "problems": [], "reference_checked": False,
         "setup_s": [], "run_s": [], "peak_rss_mb": [], "accuracy": {},
         "traced_run_s": [], "layer_runs": [], "kernel": {}}
    for i in range(SETUP_SAMPLES):
        res = run_worker({"mode": "setup"}, f"setup{i}", deadline)
        if "error" in res:
            raise RuntimeError(res["error"])
        m["setup_s"].append(res["setup_s"])
    if trace:
        cells = 50 if name == "rates-source" else 100
        res = run_worker({"mode": "kernel", "cells": cells, "seed": seed}, "kernel",
                         deadline)
        if "error" in res:
            raise RuntimeError(res["error"])
        m["kernel"] = res["kernel"]

    t_start = time.monotonic()
    slowest = 0.0
    k = 0
    traced_spans = []
    while k == 0 or time.monotonic() - t_start < seconds:
        if time.monotonic() - begin + 2 * slowest > WALL_LIMIT_S:
            break
        for mode in ("run", "trace") if trace else ("run",):
            tick = time.monotonic()
            inv = invoke(name, seed, mode, f"inv{k}-{mode}", deadline)
            m["attempted"] += 1
            problems = inv["problems"]
            if not problems:
                checked, problems = check_reference(name, seed, inv["values"])
                m["reference_checked"] |= checked
            if problems:
                m["failed"] += 1
                m["problems"] += [f"invocation {k} ({mode}): {p}" for p in problems]
            else:
                for key, val in accuracy(name, inv["values"]).items():
                    m["accuracy"].setdefault(key, []).append(val)
            # a finished command is timed even if its outputs fail a check
            if inv["ran"]:
                m["setup_s"] += inv["setup_s"]
                if mode == "run":
                    m["run_s"].append(inv["run_s"])
                    m["peak_rss_mb"].append(inv["peak_rss_mb"])
                else:
                    m["traced_run_s"].append(inv["run_s"])
                    m["layer_runs"].append(layer_metrics(inv["spans"], inv["counters"]))
                    traced_spans = [(f"{name}-{seed}-{k}", inv["spans"])]
            print(f"[{name} seed={seed}] invocation {k} {mode}: run {inv['run_s']:.3f} s, "
                  f"rss {inv['peak_rss_mb']:.1f} MB, {'FAILED' if problems else 'ok'}",
                  flush=True)
            slowest = max(slowest, time.monotonic() - tick)
        k += 1

    if traced_spans:
        write_spans(WORK / f"trace-{name}.jsonl", traced_spans)
    runs = m["layer_runs"]
    if any(run[key] != runs[0][key] for run in runs for key in REPEATING_COUNTS):
        m["problems"].append("work counters differ between traced invocations")
    if trace and not runs:
        m["problems"].append("no traced invocation ran to completion")
    for p in m["problems"]:
        print(f"[{name} seed={seed}] check failed: {p}")
    return m


def end_to_end(m: dict) -> dict:
    out = {
        "setup_s": _median(m["setup_s"]),
        "run_s": _median(m["run_s"]),
        "peak_rss_mb": _median(m["peak_rss_mb"]),
        "failed_frac": m["failed"] / m["attempted"],
    }
    for key, vals in m["accuracy"].items():
        out[key] = _median(vals)
    return out


def per_layer(m: dict) -> dict:
    out = {}
    runs = m["layer_runs"]
    for key in runs[0] if runs else ():
        out[key] = _median([r[key] for r in runs])
    for key, val in m["kernel"].items():
        out[f"grid.{key}"] = val
    if m["traced_run_s"] and m["run_s"]:
        out["trace.run_s"] = _median(m["traced_run_s"])
        out["trace.overhead_s"] = out["trace.run_s"] - _median(m["run_s"])
    return out


def update_reference(name: str, seed: int) -> int:
    WORK.mkdir(parents=True, exist_ok=True)
    inv = invoke(name, seed, "run", "reference", time.monotonic() + HARD_LIMIT_S)
    if inv["problems"]:
        print(f"not stored: {inv['problems']}", file=sys.stderr)
        return 1
    stored = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    stored.setdefault(name, {})[str(seed)] = inv["values"]
    REFERENCE.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    print(f"stored {len(inv['values'])} values for {name} seed {seed}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--update-reference", action="store_true")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not (ROOT / "src" / "fluoinv" / "cli.py").is_file():
        print(f"error: no fluoinv sources under {ROOT / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    if args.update_reference:
        return update_reference(args.workload, args.seed)

    print("env: " + json.dumps(environment()), flush=True)
    m = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    report = per_layer(m) if args.trace else end_to_end(m)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {d["name"]: d["unit"]
             for d in declared["per_layer" if args.trace else "end_to_end"]}
    for key, val in sorted(report.items()):
        if val is not None:
            unit = units.get(key, REPORT_ONLY_UNITS.get(key, ""))
            print(f"{args.workload}: {key} = {val:.6g} {unit}".rstrip())
    print(f"{args.workload}: reference values "
          f"{'checked' if m['reference_checked'] else 'not stored for this seed'}")
    missing = [k for k in units if report.get(k) is None]
    if missing:
        print(f"error: no successful invocation measured {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not m["problems"],
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": {k: {"value": report[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
