"""Command-line front end.

Subcommands: forward | p1 | p2 | rates | spectral | verify.  Configuration
comes from a preset name and/or a JSON file; --seed and --out override it.
The table ``_KEYS`` declares, for every configuration key, the value it
accepts, its default (or ``REQUIRED``) and the commands that read it.
``_validate`` checks the merged preset and file against it, and against the
few rules that span keys, before any work: a wrong value, a missing key, a
file key the command does not read (``_UNREAD_WHEN``: also in the mode
another key sets) or a broken rule is a configuration error naming the key;
preset keys the command does not read are dropped.  Only rules on computed
data (T/tau, the squared noise, the prior weight, the pencil's rank) fail later.
--threads N runs the Monte-Carlo trials of rates on N worker processes
(at most one per available CPU; outputs do not depend on N); the other
commands ignore it.  Exit codes:
0 success, 2 configuration error (also an --out that cannot be a
directory, and a run out of memory), 3 solver non-convergence (``main``
writes the trace the error carries; the files written so far and the
manifest are kept), 4 property-check failure.  Data that violate a
hypothesis of the theory add a ``warning:`` line, not a code.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import astuple
from pathlib import Path

import numpy as np

from . import __version__
from .fit import LambdaTrace, PointEvaluation, fit_at_weight, optimal_lambda_prior, solve_data_fit
from .forward import terminal_fields
from .grid import ConvergenceError, Grid
from .inverse import IterationTrace, PositivityError, fixed_point_solve
from .io import Manifest, write_csv, write_field_csv
from .metrics import ERRORS, error_bundle, hs_norm, l2_norm
from .presets import PRESETS, SOURCES, TRUTHS, build_source, build_truth, example2_problem
from .spectral import PENCIL_POINT_CAP, empirical_smoothing_spectrum, laplacian_spectrum
from .stochastic import (
    NOISE_KINDS,
    TAIL_MIN_TRIALS,
    InversionPipeline,
    LadderPoint,
    NoiseModel,
    WorkerKilledError,
    expectation_experiment,
    observe,
    rate_fits,
    sample_points,
    tail_histogram,
)
from .verify import run_battery

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NONCONVERGENCE = 3
EXIT_CHECK_FAILED = 4


class ConfigError(ValueError):
    pass


# ------------------------------------------------------------ config table
# Each parser returns the typed value or raises ValueError saying what it
# expected.  Numbers must be finite JSON numbers (not strings or booleans).

def _num(low, high=sys.float_info.max, integer=False, above=False):
    kind = "an integer" if integer else "a number"
    what = (f"{kind} from {low} to {high}" if high < sys.float_info.max
            else f"{kind} {'>' if above else '>='} {low}")

    def parse(val):
        if integer and isinstance(val, float) and val.is_integer():
            val = int(val)  # JSON 1e4
        if (isinstance(val, bool) or not isinstance(val, int if integer else (int, float))
                or not (val > low if above else val >= low) or not val <= high):
            raise ValueError(f"expected {what}, got {val!r}")
        return val if integer else float(val)
    return parse


def _off_or_at_least(low):
    """0 (off), or an integer >= low."""
    count = _num(0, integer=True)

    def parse(val):
        try:
            n = count(val)
        except ValueError:
            n = None
        if n is None or 0 < n < low:
            raise ValueError(f"expected 0 or an integer >= {low}, got {val!r}")
        return n
    return parse


def _one_of(*choices):
    def parse(val):
        if type(val) is not type(choices[0]) or val not in choices:  # 1 == True
            raise ValueError(f"expected one of {', '.join(map(json.dumps, choices))}, "
                             f"got {val!r}")
        return val
    return parse


def _policy(**fields):
    """The weight policy object: "value" is read, and required, in fixed mode
    only, and "values" in ladder mode only."""
    policy = _object({"mode": "prior"}, **fields)

    def parse(val):
        out = policy(val)
        for sub, mode in (("value", "fixed"), ("values", "ladder")):
            if sub in out and out["mode"] != mode:
                raise ValueError(f"{sub!r} is read in {mode} mode only, not in {out['mode']} mode")
            if sub not in out and out["mode"] == mode:
                raise ValueError(f"{sub!r} is required in {mode} mode")
        return out
    return parse


def _list_of(item):
    def parse(val):
        if not isinstance(val, list) or not val:
            raise ValueError(f"expected a nonempty list, got {val!r}")
        return [item(v) for v in val]
    return parse


def _object(defaults: dict, **fields):
    """A JSON object of the given sub-keys (name=parser), over `defaults`."""
    def parse(val):
        if not isinstance(val, dict):
            raise ValueError(f"expected an object, got {val!r}")
        out = dict(defaults)
        for name, sub in val.items():
            if name not in fields:
                raise ValueError(f"{name!r} is not one of {', '.join(fields)}")
            try:
                out[name] = fields[name](sub)
            except ValueError as exc:
                raise ValueError(f"{name!r} {exc}") from None
        return out
    return parse


_POSITIVE = _num(0, above=True)
_COUNT = _num(1, integer=True)
_FLAG = _one_of(True, False)
_ALL = ("forward", "p1", "p2", "rates", "spectral", "verify")
_PROBLEM = ("forward", "p1", "p2", "rates")
_FIT = ("p1", "p2", "rates")

REQUIRED = object()  # the default of a key that a command reading it needs given

# key -> (accepted value, default, per-command defaults, commands that read it).
# A None default leaves the key unset.
_KEYS = {
    "grid": (_num(4, integer=True), REQUIRED, {"verify": 32}, _ALL),
    "dim": (_num(1, 2, integer=True), 2, {}, _PROBLEM + ("spectral",)),
    "beta": (_POSITIVE, 1.0, {}, _PROBLEM + ("spectral",)),
    "T": (_POSITIVE, 1.0, {}, _PROBLEM),
    # verify's tau keeps the first step's boundary layer below the bound it checks
    "tau": (_POSITIVE, 0.01, {"verify": 0.25}, _PROBLEM + ("verify",)),
    "M": (_POSITIVE, 5.0, {}, _PROBLEM),
    "flip_boundary": (_FLAG, False, {}, _PROBLEM + ("verify",)),
    "source": (_one_of(*SOURCES), REQUIRED, {}, ("forward",)),
    "truth": (_one_of(*TRUTHS), REQUIRED, {}, _FIT),
    "n": (_COUNT, REQUIRED, {"spectral": 200}, ("p1", "p2", "spectral")),
    "sigma": (_num(0), None, {}, _FIT),
    "relative_sigma": (_num(0), None, {}, _FIT),
    "noise": (_one_of(*NOISE_KINDS), "gaussian", {}, _FIT),
    "s": (_num(0, 1, integer=True), REQUIRED, {}, _FIT),
    "lambda": (_policy(mode=_one_of("prior", "fixed", "self-consistent", "ladder"),
                       value=_POSITIVE, values=_list_of(_POSITIVE)), {}, {}, _FIT),
    "clean": (_FLAG, False, {}, ("p2",)),
    "run_p2": (_FLAG, False, {}, ("rates",)),
    "ladder": (_list_of(_COUNT), REQUIRED, {}, ("rates",)),
    "trials": (_COUNT, 10, {}, ("rates",)),
    "tail_trials": (_off_or_at_least(TAIL_MIN_TRIALS), 0, {}, ("rates",)),
    "tail_n": (_COUNT, None, {}, ("rates",)),
    "tail_zmax": (_POSITIVE, 3.0, {}, ("rates",)),
    "which": (_one_of("dirichlet", "pencil", "both"), "both", {}, ("spectral",)),
    "k_max": (_COUNT, 200, {}, ("spectral",)),
    "penalties": (_list_of(_num(0, 1, integer=True)), [0, 1], {}, ("spectral",)),
    "seed": (_num(0, integer=True), 0, {}, _ALL),
}

_COUPLED = ("T", "tau", "M", "flip_boundary")  # keys of the coupled problem, not of example1
# (command, key, value) -> the keys that command does not read when key has that value
_UNREAD_WHEN = {
    ("p1", "truth", "example1"): _COUPLED,
    ("rates", "truth", "example1"): _COUPLED,
    ("p2", "clean", True): ("n", "sigma", "relative_sigma", "noise", "s", "lambda"),
    ("rates", "tail_trials", 0): ("tail_n", "tail_zmax"),
    ("spectral", "which", "dirichlet"): ("n", "penalties", "beta"),
    ("spectral", "which", "pencil"): ("k_max",),
}
_NOISE = ("sigma", "relative_sigma")


def _validate(command: str, preset: dict, user: dict) -> dict:
    """The typed, defaulted value of every key `command` reads, all rules on
    them checked; a user key it does not read, also in the mode another key
    sets, is an error, a preset key it does not read is dropped, and so is a
    preset's noise level when the user gives one."""
    for key in user:
        if key not in _KEYS:
            raise ConfigError(f"config error at {key!r}: unknown key")
        if command not in _KEYS[key][3]:
            raise ConfigError(f"config error at {key!r}: {command} does not read this key")
    given = {**preset, **user}
    if user.keys() & set(_NOISE):
        given = {k: v for k, v in given.items() if k in user or k not in _NOISE}
    cfg, missing = {}, []
    for key, (parse, default, by_command, readers) in _KEYS.items():
        if command not in readers:
            continue
        if key in given:
            val = given[key]
        else:
            val = by_command.get(command, default)
            if val is REQUIRED:
                missing.append(key)
            if val is None or val is REQUIRED:
                continue
        try:
            cfg[key] = parse(val)
        except ValueError as exc:
            raise ConfigError(f"config error at {key!r}: {exc}") from None
    unread = set()
    for (reader, key, value), names in _UNREAD_WHEN.items():
        if reader == command and cfg.get(key) == value:
            for name in names:
                if name in user:
                    raise ConfigError(f"config error at {name!r}: {command} does not read "
                                      f"this key when {key} is {json.dumps(value)}")
                cfg.pop(name, None)
            unread.update(names)
    if missing := [key for key in missing if key not in unread]:
        raise ConfigError(f"config error at {missing[0]!r}: required key is missing")

    def fail(key, why):  # the rules that span keys
        raise ConfigError(f"config error at {key!r}: {why}")

    if cfg.get("truth") == "example1" and (command == "p2" or cfg.get("run_p2")):
        fail("truth", "source recovery needs a coupled-model truth")
    if command in _FIT and "sigma" not in unread:
        levels = [key for key in _NOISE if key in cfg]
        if not levels:
            fail("sigma", "one of 'sigma' and 'relative_sigma' is required")
        if len(levels) == 2:
            fail("relative_sigma", "give one of 'sigma' and 'relative_sigma', not both")
        mode = cfg["lambda"]["mode"]
        if mode == "ladder" and command != "p1":
            fail("lambda", f"ladder mode is read by p1 only, not by {command}")
        if mode == "prior" and not cfg[levels[0]] > 0:
            fail("lambda", f"the prior weight needs a positive noise level, {levels[0]!r} is 0")
    if (command == "forward" or cfg.get("truth", "example1") != "example1") and cfg["dim"] != 2:
        fail("dim", f"the example2 problem needs a 2-D grid, got dim {cfg['dim']}")
    if "k_max" in cfg and cfg["k_max"] > (interior := (cfg["grid"] - 1) ** cfg["dim"]):
        fail("k_max", f"{cfg['k_max']} modes exceed the {interior} interior nodes")
    if command == "spectral" and cfg.get("n", 0) > PENCIL_POINT_CAP:
        fail("n", f"{cfg['n']} sensors exceed the dense-pencil cap {PENCIL_POINT_CAP}")
    return cfg


def _load_config(args) -> dict:
    preset: dict = {}
    if args.preset:
        if args.preset not in PRESETS:
            raise ConfigError(
                f"unknown preset {args.preset!r}; available: {', '.join(sorted(PRESETS))}"
            )
        preset = PRESETS[args.preset]
    user: dict = {}
    if args.config:
        try:
            text = Path(args.config).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        try:
            user = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"config file {args.config}: invalid JSON at line {exc.lineno}, "
                f"column {exc.colno}: {exc.msg}"
            ) from exc
        if not isinstance(user, dict):
            raise ConfigError("config file must contain a JSON object")
    if args.seed is not None:
        user["seed"] = args.seed
    cfg = _validate(args.command, preset, user)
    if args.preset:
        cfg["preset"] = args.preset
    return cfg


def _problem(cfg: dict, build, *args):
    """build(*args, beta=, T=, tau=, M=, flip_boundary=), of those keys the
    configuration reads; the step-count rules of the problem data, which
    need T/tau computed, are reported at 'tau'."""
    try:
        return build(*args, **{k: cfg[k] for k in ("beta", *_COUPLED) if k in cfg})
    except ValueError as exc:
        raise ConfigError(f"config error at 'tau': {exc}") from exc


def _report_violations(data) -> None:
    """One stderr line naming the violated hypotheses, if any; the run goes on."""
    if k := len(data.violations):
        print(f"warning: the problem data violate {k} hypothes{'is' if k == 1 else 'es'}: "
              f"{'; '.join(data.violations)}", file=sys.stderr)


def _truth(cfg: dict, grid: Grid):
    """(f_true, sf_true, data, q_true) of the configured truth.  A fit
    divides by norms of the observed field and its forcing, so one whose
    squared L2 norm underflows to 0 is a configuration error, except in a
    clean p2, which reads neither."""
    truth = _problem(cfg, build_truth, cfg["truth"], grid)
    f_true, sf_true, data, _ = truth
    if data is not None:
        _report_violations(data)
    if not cfg.get("clean"):
        for name, field in (("observed field", sf_true), ("forcing", f_true)):
            if not (norm := l2_norm(field)) * norm > 0.0:
                raise ConfigError(f"config error at 'truth': the {cfg['truth']} {name} is "
                                  f"too small on this problem, its squared L2 norm underflows "
                                  f"to 0, and a fit divides by it")
    return truth


def _sigma_key(cfg: dict) -> str:
    """The key the noise level comes from."""
    return "sigma" if "sigma" in cfg else "relative_sigma"


def _sigma_from(cfg: dict, sf_true) -> float:
    """The absolute noise level; one whose square overflows is a configuration
    error, since the fit sums squared readings."""
    key = _sigma_key(cfg)
    sigma = cfg[key]
    if key == "relative_sigma":
        sigma *= float(np.abs(sf_true.values).max())
    if not sigma * sigma < np.inf:
        raise ConfigError(f"config error at {key!r}: the noise level {sigma:g} is too "
                          f"large, its square overflows")
    return sigma


def _measure(cfg: dict, grid: Grid, sf_true):
    sigma = _sigma_from(cfg, sf_true)
    sensors = PointEvaluation(grid, sample_points(grid.dim, cfg["n"], seed=cfg["seed"]))
    noise = NoiseModel(cfg["noise"], sigma, np.random.SeedSequence(cfg["seed"]))
    return observe(sf_true, sensors, noise), sigma


def _weight(cfg: dict, s: int, f_true, sigma: float, n: int):
    """The configured weight for n sensors: the a-priori rule's (prior), the
    given value (fixed) or None (self-consistent: estimated per fit).  A prior
    weight that underflows to 0 or overflows is a configuration error naming
    the key the noise level came from."""
    policy = cfg["lambda"]
    if policy["mode"] != "prior":
        return policy.get("value")
    # a relative noise level can underflow to 0 against a small field
    with np.errstate(over="ignore"):
        lam = optimal_lambda_prior(hs_norm(f_true, s), sigma, n, s) if sigma > 0 else 0.0
    if not 0.0 < lam < np.inf:
        raise ConfigError(f"config error at {_sigma_key(cfg)!r}: the prior weight at "
                          f"n={n} is {lam:g}, not a positive finite number")
    return lam


def _write_lambda_trace(out: Path, manifest: Manifest, trace) -> None:
    manifest.add(write_csv(out / "lambda_trace.csv", "lambda-trace-v1",
                           ["iteration", "lambda"], enumerate(trace.lams)))


def _err_row(bundle) -> list:
    """The ERRORS columns of a row, empty where the bundle lacks an error."""
    return ["" if v is None else v for v in astuple(bundle)]


def _write_trace(out: Path, manifest: Manifest, trace) -> None:
    manifest.add(write_csv(out / "iteration_trace.csv", "fp-trace-v1",
                           ["iteration", "increment", "min_step", "misfit"],
                           [(j, *row) for j, row in enumerate(
                               zip(trace.increments, trace.step_minima, trace.misfits), 1)]))


# ---------------------------------------------------------------- commands

def cmd_forward(cfg: dict, out: Path, manifest: Manifest) -> int:
    grid = Grid(cfg["dim"], cfg["grid"])
    data = _problem(cfg, example2_problem, grid)
    _report_violations(data)
    q = build_source(cfg["source"], grid)
    ue_T, _, um_T = terminal_fields(data, q)
    manifest.add(write_field_csv(out / "terminal_fields.csv", grid, {
        "excitation_T": ue_T,
        "emission_T": um_T,
        "source": q,
    }))
    return EXIT_OK


def cmd_p1(cfg: dict, out: Path, manifest: Manifest) -> int:
    grid = Grid(cfg["dim"], cfg["grid"])
    s = cfg["s"]
    f_true, sf_true, _, _ = _truth(cfg, grid)
    meas, sigma = _measure(cfg, grid, sf_true)

    if cfg["lambda"]["mode"] == "ladder":
        rows = []
        for lam in cfg["lambda"]["values"]:
            result = solve_data_fit(cfg["beta"], meas, s, lam)
            b = error_bundle(meas=meas, sf=result.sf, sf_true=sf_true,
                             f=result.f, f_true=f_true)
            rows.append([lam, result.misfit_n, result.penalty_norm] + _err_row(b))
        manifest.add(write_csv(out / "lambda_ladder.csv", "fit-ladder-v1",
                               ["lambda", "misfit_n", "penalty_norm", *ERRORS], rows))
        return EXIT_OK

    lam, result, trace = fit_at_weight(cfg["beta"], meas, s,
                                       _weight(cfg, s, f_true, sigma, meas.n))
    _write_lambda_trace(out, manifest, trace)
    bundle = error_bundle(meas=meas, sf=result.sf, sf_true=sf_true,
                          f=result.f, f_true=f_true)
    grid.release_factors()  # nothing reads them after the errors
    manifest.add(write_field_csv(out / "fit_fields.csv", grid,
                                 {"f_sigma": result.f, "sf_sigma": result.sf}))
    manifest.add(write_csv(out / "fit_errors.csv", "fit-errors-v1",
                           ["n", "sigma", "s", "lambda", "misfit_n", "penalty_norm", *ERRORS],
                           [[meas.n, sigma, s, lam, result.misfit_n,
                             result.penalty_norm] + _err_row(bundle)]))
    return EXIT_OK


def cmd_p2(cfg: dict, out: Path, manifest: Manifest) -> int:
    grid = Grid(cfg["dim"], cfg["grid"])
    f_true, sf_true, data, q_true = _truth(cfg, grid)
    clean = cfg["clean"]
    if clean:
        g, lam, sigma = sf_true, "", 0.0
    else:
        s = cfg["s"]
        meas, sigma = _measure(cfg, grid, sf_true)
        lam, fitres, _ = fit_at_weight(cfg["beta"], meas, s,
                                       _weight(cfg, s, f_true, sigma, meas.n))
        g = fitres.sf
        # the fixed point reads neither the fit's Laplacian factor nor the H1
        # factor, so each map application runs beside its own step factor
        # only; at s = 1 err4 then factors H1 once more, 55-60 ms at grid 100
        # on a 2-vCPU host, for 5.7 MB less peak RSS there (91.8 -> 86.1 MB)
        grid.release_factors()
    # fitted data are clamped to [0, M]; clean data run the raw map
    q_rec, trace = fixed_point_solve(data, g, clamp=not clean)

    bundle = error_bundle(q=q_rec, q_true=q_true)
    manifest.add(write_field_csv(out / "source_fields.csv", grid,
                                 {"q_rec": q_rec, "q_true": q_true}))
    _write_trace(out, manifest, trace)
    # a returned iteration has converged; the column stays because the
    # benchmark harness (perfbench/run.py) fails a run whose row lacks
    # converged == "1"
    manifest.add(write_csv(out / "source_errors.csv", "source-errors-v1",
                           ["sigma", "lambda", "iterations", "converged",
                            "err4", "err5"],
                           [[sigma, lam, trace.iterations, 1, bundle.err4, bundle.err5]]))
    return EXIT_OK


def cmd_rates(cfg: dict, out: Path, manifest: Manifest, workers: int = 1) -> int:
    grid = Grid(cfg["dim"], cfg["grid"])
    s, ns, run_p2 = cfg["s"], cfg["ladder"], cfg["run_p2"]
    f_true, sf_true, data, q_true = _truth(cfg, grid)
    pipeline = InversionPipeline(
        grid=grid, beta=cfg["beta"], s=s, f_true=f_true, sf_true=sf_true,
        noise_kind=cfg["noise"],
        data=data if run_p2 else None,
        q_true=q_true if run_p2 else None,
    )
    sigma = _sigma_from(cfg, sf_true)
    ladder = [LadderPoint(n=n, sigma=sigma, lam=_weight(cfg, s, f_true, sigma, n))
              for n in ns]
    tail = None
    if cfg["tail_trials"]:
        n_tail = cfg.get("tail_n", ns[0])  # the first rung
        tail = LadderPoint(n=n_tail, sigma=sigma, lam=_weight(cfg, s, f_true, sigma, n_tail))
    records = expectation_experiment(pipeline, ladder, trials=cfg["trials"],
                                     base_seed=cfg["seed"], workers=workers)

    trial_rows, agg_rows = [], []
    for rec in records:
        for t, o in enumerate(rec.outcomes):
            trial_rows.append([rec.point.n, o.lam, t] + _err_row(o.errors)
                              + [o.sf_err_n, o.lambda_passes, o.fp_iterations])
        agg_rows.append([rec.point.n, rec.lam, rec.rho0] + _err_row(rec.mean_errors()))
    manifest.add(write_csv(out / "trials.csv", "rate-trials-v2",
                           ["n", "lambda", "trial", *ERRORS, "sf_err_n", "lambda_passes",
                            "fp_iterations"], trial_rows))
    manifest.add(write_csv(out / "aggregate.csv", "rate-aggregate-v1",
                           ["n", "lambda", "rho0", *ERRORS], agg_rows))

    fits = rate_fits(records)
    manifest.add(write_csv(out / "rate_fits.csv", "rate-fit-v1",
                           ["metric", "slope", "intercept", "r_squared", "rungs"],
                           [[key, rf.slope, rf.intercept, rf.r_squared, len(rf.pairs)]
                            for key, rf in fits.items()]))
    (out / "rate_summary.txt").write_text("".join(
        f"{key}: slope={rf.slope:.4f} r2={rf.r_squared:.5f} ({len(rf.pairs)} rungs)\n"
        for key, rf in fits.items()))
    manifest.add(out / "rate_summary.txt")

    if tail is not None:
        tail_records = expectation_experiment(pipeline, [tail], trials=cfg["tail_trials"],
                                              base_seed=cfg["seed"] + 1, workers=workers)
        z = np.linspace(0.0, cfg["tail_zmax"], 31)
        manifest.add(write_csv(out / "tail_curve.csv", "tail-curve-v1",
                               ["z", "exceedance"],
                               zip(z, tail_histogram(tail_records[0], z))))
    return EXIT_OK


def cmd_spectral(cfg: dict, out: Path, manifest: Manifest) -> int:
    cells = cfg["grid"]
    which = cfg["which"]
    spectra = []  # (name, file, report); all computed before any file is written
    if which in ("dirichlet", "both"):
        spectra.append(("dirichlet", "dirichlet_spectrum.csv",
                        laplacian_spectrum(cfg["dim"], cells, cfg["k_max"])))
    if which in ("pencil", "both"):
        grid = Grid(cfg["dim"], cells)  # only the pencil reads a grid
        points = sample_points(grid.dim, cfg["n"], seed=cfg["seed"])
        try:
            for s in cfg["penalties"]:
                spectra.append((f"pencil-s{s}", f"pencil_spectrum_s{s}.csv",
                                empirical_smoothing_spectrum(grid, cfg["beta"], points, s)))
        except ValueError as exc:  # the one rule left: the pencil's rank
            raise ConfigError(f"config error at 'n': {cfg['n']} sensors on {grid.node_count} "
                              f"grid nodes: {exc}") from exc
    for _, filename, rep in spectra:
        manifest.add(write_csv(out / filename, "spectrum-v1", ["k", "eigenvalue"],
                               enumerate(rep.eigenvalues, start=1)))
    manifest.add(write_csv(out / "exponents.csv", "spectrum-exponents-v1",
                           ["spectrum", "exponent", "fit_lo", "fit_hi", "r_squared"],
                           [[name, rep.growth_exponent, rep.fit_range[0], rep.fit_range[1],
                             rep.r_squared] for name, _, rep in spectra]))
    return EXIT_OK


def cmd_verify(cfg: dict, out: Path, manifest: Manifest) -> int:
    try:
        results = run_battery(grid_cells=cfg["grid"], seed=cfg["seed"], tau=cfg["tau"],
                              flip_boundary=cfg["flip_boundary"])
    except ValueError as exc:  # each check is guarded; only the problem set-up raises
        raise ConfigError(f"config error at 'tau': {exc}") from exc
    rows = [[r.name, int(r.passed),
             "" if r.value is None else r.value,
             "" if r.bound is None else r.bound, r.detail] for r in results]
    manifest.add(write_csv(out / "verify_report.csv", "verify-v1",
                           ["check", "passed", "value", "bound", "detail"], rows))
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] {r.name}: value={r.value} bound={r.bound} {r.detail}")
    failed = [r.name for r in results if not r.passed]
    if not failed:
        return EXIT_OK
    print(f"error: {len(failed)} of {len(results)} property checks failed: "
          f"{', '.join(failed)}", file=sys.stderr)
    return EXIT_CHECK_FAILED


COMMANDS = {
    "forward": cmd_forward,
    "p1": cmd_p1,
    "p2": cmd_p2,
    "rates": cmd_rates,
    "spectral": cmd_spectral,
    "verify": cmd_verify,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fluoinv",
        description="Coupled-diffusion source reconstruction from noisy terminal data",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON configuration file")
        p.add_argument("--preset", help="built-in configuration name")
        p.add_argument("--seed", type=int, default=None, help="base seed (u64)")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--threads", type=int, default=1,
                       help="rates: worker processes for the Monte-Carlo trials (at "
                            "least 1, at most the available CPUs; default 1; outputs "
                            "do not depend on it); other commands ignore it")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        command = COMMANDS[args.command]
        if args.command == "rates":  # the experiment clamps it to the CPUs
            if args.threads < 1:
                raise ConfigError(f"--threads must be at least 1, got {args.threads}")
            command = functools.partial(command, workers=args.threads)
        out = Path(args.out) if args.out else Path(f"out-{args.command}")
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot use {str(out)!r} as the output directory: "
                              f"{exc.strerror}") from exc
        manifest = Manifest(args.command, cfg, cfg["seed"], __version__)
        try:
            code = command(cfg, out, manifest)
        except (ConvergenceError, PositivityError) as exc:  # keep the steps it carries
            if isinstance(exc.trace, LambdaTrace):
                _write_lambda_trace(out, manifest, exc.trace)
            elif isinstance(exc.trace, IterationTrace):
                _write_trace(out, manifest, exc.trace)
            cause = "solver did not converge: " if isinstance(exc, ConvergenceError) else ""
            print(f"error: {cause}{exc}", file=sys.stderr)
            code = EXIT_NONCONVERGENCE
        except WorkerKilledError as exc:
            print(f"error: {exc}", file=sys.stderr)
            code = EXIT_CONFIG
        manifest.write(out)
        return code
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:  # an oversized grid or sensor count
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
