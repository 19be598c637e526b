"""Command-line front end.

Subcommands: forward | p1 | p2 | rates | spectral | verify.  Configuration
comes from a preset name and/or a JSON file; --seed and --out override it.
--threads N runs the Monte-Carlo trials of rates on N worker processes
(at most one per available CPU; outputs do not depend on N); the other
commands ignore it.  Exit codes:
0 success, 2 configuration error, 3 solver non-convergence (the files
written so far and the manifest are kept), 4 property-check failure.  The
environment variable SOLVER_TOL overrides the tolerance of the fit's
conjugate-gradient solve.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .fit import FitConfig, fit_at_weight, policy_weight, solve_data_fit
from .forward import terminal_fields
from .grid import ConvergenceError, Grid, default_tolerance
from .inverse import InverseConfig, PositivityError, fixed_point_solve
from .io import Manifest, write_csv, write_field_csv
from .metrics import error_bundle
from .presets import PRESETS, build_source, build_truth, example2_problem
from .spectral import empirical_smoothing_spectrum, laplacian_spectrum
from .stochastic import (
    InversionPipeline,
    LadderPoint,
    NoiseModel,
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


def _load_config(args) -> dict:
    cfg: dict = {}
    if args.preset:
        if args.preset not in PRESETS:
            raise ConfigError(
                f"unknown preset {args.preset!r}; available: {', '.join(sorted(PRESETS))}"
            )
        cfg.update(json.loads(json.dumps(PRESETS[args.preset])))
        cfg["preset"] = args.preset
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
        cfg.update(user)
    if args.seed is not None:
        cfg["seed"] = args.seed
    cfg.setdefault("seed", 0)
    try:
        cfg["solver_tol"] = default_tolerance()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


def _require(cfg: dict, key: str, kind=None):
    if key not in cfg:
        raise ConfigError(f"config error at {key!r}: required key is missing")
    val = cfg[key]
    if kind is not None and not isinstance(val, kind):
        raise ConfigError(
            f"config error at {key!r}: expected {getattr(kind, '__name__', kind)}, "
            f"got {type(val).__name__}"
        )
    return val


def _grid_from(cfg: dict) -> Grid:
    cells = _require(cfg, "grid", int)
    dim = int(cfg.get("dim", 2))
    try:
        return Grid(dim, cells)
    except ValueError as exc:
        raise ConfigError(f"config error at 'grid': {exc}") from exc


def _number(key: str, val, nonnegative: bool = False) -> float:
    """A finite config number (a numeric string passes, as float() reads it)."""
    try:
        num = float(val)
    except (TypeError, ValueError):
        num = float("nan")
    if not (np.isfinite(num) and (num >= 0 or not nonnegative)):
        what = "a nonnegative number" if nonnegative else "a finite number"
        raise ConfigError(f"config error at {key!r}: expected {what}, got {val!r}")
    return num


def _problem_params(cfg: dict) -> dict:
    return dict(
        beta=_number("beta", cfg.get("beta", 1.0)),
        T=_number("T", cfg.get("T", 1.0)),
        tau=_number("tau", cfg.get("tau", 0.01)),
        M=_number("M", cfg.get("M", 5.0)),
        flip_boundary=bool(cfg.get("flip_boundary", False)),
    )


def _problem_from(cfg: dict, grid: Grid):
    try:
        return example2_problem(grid, **_problem_params(cfg))
    except ValueError as exc:
        raise ConfigError(f"config error in problem parameters: {exc}") from exc


def _truth(cfg: dict, grid: Grid, needs_source: bool = False):
    """(f_true, sf_true, data, q_true) of the configured truth."""
    name = _require(cfg, "truth", str)
    try:
        truth = build_truth(name, grid, **_problem_params(cfg))
    except ValueError as exc:
        raise ConfigError(f"config error at 'truth': {exc}") from exc
    if needs_source and truth[2] is None:
        raise ConfigError("config error at 'truth': source recovery needs a coupled-model truth")
    return truth


def _integer(key: str, val, what: str = "a positive integer", low: int = 1) -> int:
    """An integer config value of at least `low`."""
    if isinstance(val, float) and val.is_integer():  # JSON 1e4
        val = int(val)
    if isinstance(val, bool) or not isinstance(val, int) or val < low:
        raise ConfigError(f"config error at {key!r}: expected {what}, got {val!r}")
    return val


def _sigma_from(cfg: dict, sf_true) -> float:
    key = next((k for k in ("sigma", "relative_sigma") if k in cfg), None)
    if key is None:
        raise ConfigError("config error: one of 'sigma' or 'relative_sigma' is required")
    sigma = _number(key, cfg[key], nonnegative=True)
    return sigma if key == "sigma" else sigma * float(np.abs(sf_true.values).max())


def _measure(cfg: dict, grid: Grid, sf_true, seed: int):
    n = _integer("n", _require(cfg, "n"))
    sigma = _sigma_from(cfg, sf_true)
    points = sample_points(grid.dim, n, seed=seed, layout=cfg.get("layout", "halton"))
    noise = NoiseModel(cfg.get("noise", "gaussian"), sigma, np.random.SeedSequence(seed))
    return observe(sf_true, points, noise), sigma


def _policy(cfg: dict) -> dict:
    policy = cfg.get("lambda", {"mode": "prior"})
    if not isinstance(policy, dict):
        raise ConfigError(f"config error at 'lambda': expected an object such as "
                          f'{{"mode": "prior"}}, got {type(policy).__name__}')
    return policy


def _weight(policy: dict, s: int, f_true, sigma: float, n: int):
    """The configured weight policy resolved for n sensors (None: self-consistent)."""
    try:
        return policy_weight(policy.get("mode", "prior"), s, f_true, sigma, n,
                             policy.get("value"))
    except ValueError as exc:
        raise ConfigError(f"config error at 'lambda': {exc}") from exc


def _inverse_config(cfg: dict, clean: bool) -> InverseConfig:
    """The "inverse" block; clamping defaults to on for fitted (noisy) data."""
    block = cfg.get("inverse", {})
    if not isinstance(block, dict):
        raise ConfigError(f"config error at 'inverse': expected an object such as "
                          f'{{"tol": 1e-10}}, got {type(block).__name__}')
    max_iter = _integer("inverse", block.get("max_iter", 200),
                        "max_iter to be a positive integer")
    clamp = block.get("clamp", not clean)
    if not isinstance(clamp, bool):
        raise ConfigError(f"config error at 'inverse': clamp must be true or false, "
                          f"got {clamp!r}")
    try:
        return InverseConfig(tol=float(block.get("tol", 1e-10)), max_iter=max_iter,
                             clamp=clamp)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config error at 'inverse': {exc}") from exc


def _require_converged(trace) -> None:
    if not trace.converged:
        raise ConvergenceError("self-consistent weight loop did not stabilize")


def _err_row(bundle) -> list:
    return ["" if v is None else v
            for v in (bundle.err1, bundle.err2, bundle.err3, bundle.err4, bundle.err5)]


# ---------------------------------------------------------------- commands

def cmd_forward(cfg: dict, out: Path, manifest: Manifest) -> int:
    grid = _grid_from(cfg)
    data = _problem_from(cfg, grid)
    q = build_source(_require(cfg, "source", str), grid)
    ue_T, _, um_T = terminal_fields(data, q)
    manifest.add(write_field_csv(out / "terminal_fields.csv", grid, {
        "excitation_T": ue_T,
        "emission_T": um_T,
        "source": q,
    }))
    return EXIT_OK


def cmd_p1(cfg: dict, out: Path, manifest: Manifest) -> int:
    grid = _grid_from(cfg)
    beta = _problem_params(cfg)["beta"]
    s = int(_require(cfg, "s", int))
    f_true, sf_true, _, _ = _truth(cfg, grid)
    meas, sigma = _measure(cfg, grid, sf_true, int(cfg["seed"]))

    policy = _policy(cfg)
    if policy.get("mode") == "ladder":
        values = policy.get("values")
        if not values:
            raise ConfigError("config error at 'lambda.values': ladder mode needs values")
        rows = []
        for lam in values:
            result = solve_data_fit(grid, beta, meas, FitConfig(s=s, lam=float(lam)))
            b = error_bundle(meas=meas, sf=result.sf, sf_true=sf_true,
                             f=result.f, f_true=f_true)
            rows.append([lam, result.misfit_n, result.penalty_norm] + _err_row(b))
        manifest.add(write_csv(out / "lambda_ladder.csv", "fit-ladder-v1",
                               ["lambda", "misfit_n", "penalty_norm",
                                "err1", "err2", "err3", "err4", "err5"], rows))
        return EXIT_OK

    lam, result, trace = fit_at_weight(grid, beta, meas, s,
                                       _weight(policy, s, f_true, sigma, meas.n))
    manifest.add(write_csv(out / "lambda_trace.csv", "lambda-trace-v1",
                           ["iteration", "lambda"], enumerate(trace.lams)))
    _require_converged(trace)
    bundle = error_bundle(meas=meas, sf=result.sf, sf_true=sf_true,
                          f=result.f, f_true=f_true)
    manifest.add(write_field_csv(out / "fit_fields.csv", grid,
                                 {"f_sigma": result.f, "sf_sigma": result.sf}))
    manifest.add(write_csv(out / "fit_errors.csv", "fit-errors-v1",
                           ["n", "sigma", "s", "lambda", "misfit_n", "penalty_norm",
                            "err1", "err2", "err3", "err4", "err5"],
                           [[meas.n, sigma, s, lam, result.misfit_n,
                             result.penalty_norm] + _err_row(bundle)]))
    return EXIT_OK


def cmd_p2(cfg: dict, out: Path, manifest: Manifest) -> int:
    grid = _grid_from(cfg)
    beta = _problem_params(cfg)["beta"]
    f_true, sf_true, data, q_true = _truth(cfg, grid, needs_source=True)
    clean = bool(cfg.get("clean", False))
    icfg = _inverse_config(cfg, clean)

    if clean:
        f, sf = f_true, sf_true
        lam = ""
        sigma = 0.0
    else:
        s = int(_require(cfg, "s", int))
        meas, sigma = _measure(cfg, grid, sf_true, int(cfg["seed"]))
        lam, fitres, lam_trace = fit_at_weight(
            grid, beta, meas, s, _weight(_policy(cfg), s, f_true, sigma, meas.n))
        _require_converged(lam_trace)
        f, sf = fitres.f, fitres.sf
    q_rec, trace = fixed_point_solve(data, f, sf, icfg)

    bundle = error_bundle(q=q_rec, q_true=q_true)
    manifest.add(write_field_csv(out / "source_fields.csv", grid,
                                 {"q_rec": q_rec, "q_true": q_true}))
    manifest.add(write_csv(out / "iteration_trace.csv", "fp-trace-v1",
                           ["iteration", "increment", "min_step", "misfit"],
                           [(j + 1, inc, mn, mis) for j, (inc, mn, mis) in
                            enumerate(zip(trace.increments, trace.step_minima,
                                          trace.misfits))]))
    manifest.add(write_csv(out / "source_errors.csv", "source-errors-v1",
                           ["sigma", "lambda", "iterations", "converged",
                            "err4", "err5"],
                           [[sigma, lam, trace.iterations, int(trace.converged),
                             bundle.err4, bundle.err5]]))
    return EXIT_OK if trace.converged else EXIT_NONCONVERGENCE


def cmd_rates(cfg: dict, out: Path, manifest: Manifest, workers: int = 1) -> int:
    grid = _grid_from(cfg)
    s = int(_require(cfg, "s", int))
    run_p2 = bool(cfg.get("run_p2", False))
    f_true, sf_true, data, q_true = _truth(cfg, grid, needs_source=run_p2)
    pipeline = InversionPipeline(
        grid=grid, beta=_problem_params(cfg)["beta"], s=s, f_true=f_true, sf_true=sf_true,
        noise_kind=cfg.get("noise", "gaussian"),
        data=data if run_p2 else None,
        q_true=q_true if run_p2 else None,
    )
    sigma = _sigma_from(cfg, sf_true)
    policy = _policy(cfg)
    ns = [_integer("ladder", n) for n in _require(cfg, "ladder", list)]
    if not ns:
        raise ConfigError("config error at 'ladder': expected at least one sample size")
    trials = _integer("trials", cfg.get("trials", 10))
    ladder = [LadderPoint(n=n, sigma=sigma, lam=_weight(policy, s, f_true, sigma, n))
              for n in ns]
    tail_trials = _integer("tail_trials", cfg.get("tail_trials", 0),
                           "a nonnegative integer", low=0)
    tail = None
    if tail_trials >= 50:
        n_tail = _integer("tail_n", cfg.get("tail_n", ladder[0].n))
        tail = LadderPoint(n=n_tail, sigma=sigma, lam=_weight(policy, s, f_true, sigma, n_tail))
        zmax = _number("tail_zmax", cfg.get("tail_zmax", 3.0))
    records = expectation_experiment(pipeline, ladder, trials=trials,
                                     base_seed=int(cfg["seed"]), workers=workers)

    trial_rows, agg_rows = [], []
    for rec in records:
        means = rec.mean_errors()
        for t, b in enumerate(rec.bundles):
            trial_rows.append([rec.point.n, rec.lams[t], t] + _err_row(b)
                              + [rec.sf_errors_n[t]])
        agg_rows.append([rec.point.n, rec.lam, rec.rho0]
                        + ["" if k not in means else means[k]
                           for k in ("err1", "err2", "err3", "err4", "err5")])
    manifest.add(write_csv(out / "trials.csv", "rate-trials-v1",
                           ["n", "lambda", "trial", "err1", "err2", "err3",
                            "err4", "err5", "sf_err_n"], trial_rows))
    manifest.add(write_csv(out / "aggregate.csv", "rate-aggregate-v1",
                           ["n", "lambda", "rho0", "err1", "err2", "err3",
                            "err4", "err5"], agg_rows))

    fits = rate_fits(records)
    manifest.add(write_csv(out / "rate_fits.csv", "rate-fit-v1",
                           ["metric", "slope", "intercept", "r_squared", "rungs"],
                           [[key, rf.slope, rf.intercept, rf.r_squared, len(rf.pairs)]
                            for key, rf in fits.items()]))
    summary = [f"{key}: slope={rf.slope:.4f} r2={rf.r_squared:.5f} ({len(rf.pairs)} rungs)"
               for key, rf in fits.items()]
    (out / "rate_summary.txt").write_text("\n".join(summary) + "\n")
    manifest.add(out / "rate_summary.txt")

    if tail is not None:
        tail_records = expectation_experiment(pipeline, [tail], trials=tail_trials,
                                              base_seed=int(cfg["seed"]) + 1, workers=workers)
        z = np.linspace(0.0, zmax, 31)
        curve = tail_histogram(tail_records[0], z)
        manifest.add(write_csv(out / "tail_curve.csv", "tail-curve-v1",
                               ["z", "exceedance"],
                               zip(curve.z, curve.exceedance)))
    return EXIT_OK


def cmd_spectral(cfg: dict, out: Path, manifest: Manifest) -> int:
    grid = _grid_from(cfg)
    which = cfg.get("which", "both")
    summary_rows = []
    try:
        if which in ("dirichlet", "both"):
            rep = laplacian_spectrum(grid, int(cfg.get("k_max", 200)))
            manifest.add(write_csv(out / "dirichlet_spectrum.csv", "spectrum-v1",
                                   ["k", "eigenvalue"],
                                   enumerate(rep.eigenvalues, start=1)))
            summary_rows.append(["dirichlet", rep.growth_exponent,
                                 rep.fit_range[0], rep.fit_range[1], rep.r_squared])
        if which in ("pencil", "both"):
            n = int(cfg.get("n", 200))
            points = sample_points(grid.dim, n, seed=int(cfg["seed"]))
            for s in cfg.get("penalties", [0, 1]):
                rep = empirical_smoothing_spectrum(grid, float(cfg.get("beta", 1.0)),
                                                   points, int(s))
                manifest.add(write_csv(out / f"pencil_spectrum_s{s}.csv", "spectrum-v1",
                                       ["k", "eigenvalue"],
                                       enumerate(rep.eigenvalues, start=1)))
                summary_rows.append([f"pencil-s{s}", rep.growth_exponent,
                                     rep.fit_range[0], rep.fit_range[1], rep.r_squared])
    except ValueError as exc:
        raise ConfigError(f"config error in spectral sizes: {exc}") from exc
    manifest.add(write_csv(out / "exponents.csv", "spectrum-exponents-v1",
                           ["spectrum", "exponent", "fit_lo", "fit_hi", "r_squared"],
                           summary_rows))
    return EXIT_OK


def cmd_verify(cfg: dict, out: Path, manifest: Manifest) -> int:
    results = run_battery(
        grid_cells=int(cfg.get("grid", 32)),
        seed=int(cfg["seed"]),
        tau=float(cfg.get("tau", 0.25)),
        flip_boundary=bool(cfg.get("flip_boundary", False)),
    )
    rows = [[r.name, int(r.passed),
             "" if r.value is None else r.value,
             "" if r.bound is None else r.bound, r.detail] for r in results]
    manifest.add(write_csv(out / "verify_report.csv", "verify-v1",
                           ["check", "passed", "value", "bound", "detail"], rows))
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] {r.name}: value={r.value} bound={r.bound} {r.detail}")
    return EXIT_OK if all(r.passed for r in results) else EXIT_CHECK_FAILED


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
        out.mkdir(parents=True, exist_ok=True)
        manifest = Manifest(args.command, cfg, int(cfg["seed"]), __version__)
        try:
            code = command(cfg, out, manifest)
        except ConvergenceError as exc:
            print(f"error: solver did not converge: {exc}", file=sys.stderr)
            code = EXIT_NONCONVERGENCE
        except PositivityError as exc:
            print(f"error: {exc}", file=sys.stderr)
            code = EXIT_NONCONVERGENCE
        manifest.write(out)
        return code
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
