"""Command-line front end.

Subcommands: forward | p1 | p2 | rates | spectral | verify.  Configuration
comes from a preset name and/or a JSON file; --seed and --out override it.
--threads is accepted and ignored: trials run serially.  Exit codes:
0 success, 2 configuration error, 3 solver non-convergence (the files
written so far and the manifest are kept), 4 property-check failure.  The
environment variable SOLVER_TOL overrides the tolerance of the fit's
conjugate-gradient solve.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .fit import FitConfig, self_consistent_lambda, solve_data_fit, optimal_lambda_prior
from .forward import solve_emission, solve_excitation, terminal_data
from .grid import ConvergenceError, Grid, default_tolerance
from .inverse import (
    InverseConfig,
    PositivityError,
    fixed_point_solve,
    noisy_fixed_point_solve,
)
from .io import Manifest, write_csv, write_field_csv
from .metrics import error_bundle, h1_norm, l2_norm
from .presets import PRESETS, build_source, example2_problem, trig_forcing
from .spectral import empirical_smoothing_spectrum, laplacian_spectrum
from .stochastic import (
    InversionPipeline,
    LadderPoint,
    NoiseModel,
    expectation_experiment,
    fit_rate,
    observe,
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


def _problem_from(cfg: dict, grid: Grid):
    try:
        return example2_problem(
            grid,
            beta=float(cfg.get("beta", 1.0)),
            T=float(cfg.get("T", 1.0)),
            tau=float(cfg.get("tau", 0.01)),
            M=float(cfg.get("M", 5.0)),
            flip_boundary=bool(cfg.get("flip_boundary", False)),
        )
    except ValueError as exc:
        raise ConfigError(f"config error in problem parameters: {exc}") from exc


def _truth_fields(cfg: dict, grid: Grid):
    """Return (f_true, sf_true, problem, q_true); problem/q_true may be None.

    For the analytic benchmark the observed field is the smoothing of the
    known forcing; for the coupled-model benchmarks it is the terminal
    emission field of a forward run, whose discrete negative Laplacian
    defines the forcing consistently with the solver.
    """
    truth = _require(cfg, "truth", str)
    beta = float(cfg.get("beta", 1.0))
    ops = grid.operators(beta)
    if truth == "example1":
        f_true = trig_forcing(grid)
        sf_true = grid.function(ops.lu_laplacian().solve(ops.weights * f_true.values))
        return f_true, sf_true, None, None
    if truth in ("example2-smooth", "example2-discontinuous"):
        data = _problem_from(cfg, grid)
        q_true = build_source(truth, grid)
        u_e = solve_excitation(data, q_true)
        g = terminal_data(solve_emission(data, q_true, u_e))
        f_true = grid.function(ops.pointwise_laplacian(g.values))
        return f_true, g, data, q_true
    raise ConfigError(f"config error at 'truth': unknown value {truth!r}")


def _sigma_from(cfg: dict, sf_true) -> float:
    if "sigma" in cfg:
        return float(cfg["sigma"])
    if "relative_sigma" in cfg:
        return float(cfg["relative_sigma"]) * float(np.abs(sf_true.values).max())
    raise ConfigError("config error: one of 'sigma' or 'relative_sigma' is required")


def _measure(cfg: dict, grid: Grid, sf_true, seed: int):
    n = _require(cfg, "n", int)
    sigma = _sigma_from(cfg, sf_true)
    points = sample_points(grid.dim, n, seed=seed, layout=cfg.get("layout", "halton"))
    noise = NoiseModel(cfg.get("noise", "gaussian"), sigma, np.random.SeedSequence(seed))
    return observe(sf_true, points, noise), sigma


def _norm_for(s: int, f_true) -> float:
    return l2_norm(f_true) if s == 0 else h1_norm(f_true)


def _fit_with_policy(cfg, grid, beta, meas, s, f_true):
    """Run the fit under the configured weight policy.

    Returns (lam, result, trace_rows, converged) where trace_rows lists the
    weight iterates (a single row for non-iterative policies) and converged
    is false only for a self-consistent loop that did not stabilize.
    """
    policy = cfg.get("lambda", {"mode": "prior"})
    mode = policy.get("mode", "prior")
    if mode == "self-consistent":
        lam, result, trace = self_consistent_lambda(grid, beta, meas, s)
        return lam, result, list(enumerate(trace.lams)), trace.converged
    if mode == "prior":
        try:
            lam = optimal_lambda_prior(_norm_for(s, f_true), meas.sigma, meas.n, s)
        except ValueError as exc:
            raise ConfigError(f"config error: prior weight rule not applicable: {exc}") from exc
    elif mode == "fixed":
        if "value" not in policy:
            raise ConfigError("config error at 'lambda.value': required for fixed mode")
        lam = float(policy["value"])
    else:
        raise ConfigError(f"config error at 'lambda.mode': unknown mode {mode!r}")
    result = solve_data_fit(grid, beta, meas, FitConfig(s=s, lam=lam))
    return lam, result, [(0, lam)], True


def _require_converged(converged: bool) -> None:
    if not converged:
        raise ConvergenceError("self-consistent weight loop did not stabilize")


def _err_row(bundle) -> list:
    return ["" if v is None else v
            for v in (bundle.err1, bundle.err2, bundle.err3, bundle.err4, bundle.err5)]


# ---------------------------------------------------------------- commands

def cmd_forward(cfg: dict, out: Path, manifest: Manifest) -> int:
    grid = _grid_from(cfg)
    data = _problem_from(cfg, grid)
    q = build_source(_require(cfg, "source", str), grid)
    u_e = solve_excitation(data, q)
    u_m = solve_emission(data, q, u_e)
    manifest.add(write_field_csv(out / "terminal_fields.csv", grid, {
        "excitation_T": terminal_data(u_e),
        "emission_T": terminal_data(u_m),
        "source": q,
    }))
    return EXIT_OK


def cmd_p1(cfg: dict, out: Path, manifest: Manifest) -> int:
    grid = _grid_from(cfg)
    beta = float(cfg.get("beta", 1.0))
    s = int(_require(cfg, "s", int))
    f_true, sf_true, _, _ = _truth_fields(cfg, grid)
    meas, sigma = _measure(cfg, grid, sf_true, int(cfg["seed"]))

    policy = cfg.get("lambda", {"mode": "prior"})
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

    lam, result, lam_rows, converged = _fit_with_policy(cfg, grid, beta, meas, s, f_true)
    manifest.add(write_csv(out / "lambda_trace.csv", "lambda-trace-v1",
                           ["iteration", "lambda"], lam_rows))
    _require_converged(converged)
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
    beta = float(cfg.get("beta", 1.0))
    f_true, sf_true, data, q_true = _truth_fields(cfg, grid)
    if data is None or q_true is None:
        raise ConfigError("config error at 'truth': source recovery needs a coupled-model truth")
    icfg = InverseConfig(
        tol=float(cfg.get("inverse", {}).get("tol", 1e-10)),
        max_iter=int(cfg.get("inverse", {}).get("max_iter", 200)),
        clamp=cfg.get("inverse", {}).get("clamp"),
    )

    if cfg.get("clean", False):
        q_rec, trace = fixed_point_solve(data, sf_true, icfg)
        lam = ""
        sigma = 0.0
    else:
        s = int(_require(cfg, "s", int))
        meas, sigma = _measure(cfg, grid, sf_true, int(cfg["seed"]))
        lam, fitres, _, converged = _fit_with_policy(cfg, grid, beta, meas, s, f_true)
        _require_converged(converged)
        q_rec, trace = noisy_fixed_point_solve(data, fitres.f, fitres.sf, icfg)

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


def cmd_rates(cfg: dict, out: Path, manifest: Manifest) -> int:
    grid = _grid_from(cfg)
    beta = float(cfg.get("beta", 1.0))
    s = int(_require(cfg, "s", int))
    f_true, sf_true, data, q_true = _truth_fields(cfg, grid)
    run_p2 = bool(cfg.get("run_p2", False))
    policy = cfg.get("lambda", {"mode": "prior"})
    mode = policy.get("mode", "prior")
    if mode not in ("prior", "fixed", "self-consistent"):
        raise ConfigError(f"config error at 'lambda.mode': {mode!r} not usable for rates")
    pipeline = InversionPipeline(
        grid=grid, beta=beta, s=s, f_true=f_true, sf_true=sf_true,
        lam_policy=mode,
        noise_kind=cfg.get("noise", "gaussian"),
        data=data if run_p2 else None,
        q_true=q_true if run_p2 else None,
    )
    sigma = _sigma_from(cfg, sf_true)
    ns = _require(cfg, "ladder", list)
    lam_fixed = policy.get("value") if mode == "fixed" else None
    if mode == "fixed" and lam_fixed is None:
        raise ConfigError("config error at 'lambda.value': required for fixed mode")
    ladder = [LadderPoint(n=int(n), sigma=sigma, lam=lam_fixed, label=str(n))
              for n in ns]
    trials = int(cfg.get("trials", 10))
    records = expectation_experiment(pipeline, ladder, trials=trials,
                                     base_seed=int(cfg["seed"]))

    trial_rows, agg_rows = [], []
    for rec in records:
        means = rec.mean_errors()
        for t, b in enumerate(rec.bundles):
            trial_rows.append([rec.config["n"], rec.lams[t], t] + _err_row(b)
                              + [rec.sf_errors_n[t]])
        agg_rows.append([rec.config["n"], rec.lam, rec.rho0]
                        + ["" if k not in means else means[k]
                           for k in ("err1", "err2", "err3", "err4", "err5")])
    manifest.add(write_csv(out / "trials.csv", "rate-trials-v1",
                           ["n", "lambda", "trial", "err1", "err2", "err3",
                            "err4", "err5", "sf_err_n"], trial_rows))
    manifest.add(write_csv(out / "aggregate.csv", "rate-aggregate-v1",
                           ["n", "lambda", "rho0", "err1", "err2", "err3",
                            "err4", "err5"], agg_rows))

    fit_rows = []
    summary_lines = []
    for key in ("err1", "err2", "err3", "err4", "err5"):
        pairs = []
        for rec in records:
            means = rec.mean_errors()
            if key in means:
                pairs.append((rec.lam, means[key]))
        if len(pairs) >= 3:
            rf = fit_rate(pairs)
            fit_rows.append([key, rf.slope, rf.intercept, rf.r_squared, len(pairs)])
            summary_lines.append(
                f"{key}: slope={rf.slope:.4f} r2={rf.r_squared:.5f} ({len(pairs)} rungs)"
            )
    manifest.add(write_csv(out / "rate_fits.csv", "rate-fit-v1",
                           ["metric", "slope", "intercept", "r_squared", "rungs"],
                           fit_rows))
    (out / "rate_summary.txt").write_text("\n".join(summary_lines) + "\n")
    manifest.add(out / "rate_summary.txt")

    if int(cfg.get("tail_trials", 0)) >= 50:
        n_tail = int(cfg.get("tail_n", ladder[0].n))
        tail_records = expectation_experiment(
            pipeline, [LadderPoint(n=n_tail, sigma=sigma, label="tail")],
            trials=int(cfg["tail_trials"]), base_seed=int(cfg["seed"]) + 1)
        z = np.linspace(0.0, float(cfg.get("tail_zmax", 3.0)), 31)
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
        p.add_argument("--threads", type=int, default=None,
                       help="ignored; trials run serially (kept for old scripts)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        out = Path(args.out) if args.out else Path(f"out-{args.command}")
        out.mkdir(parents=True, exist_ok=True)
        manifest = Manifest(args.command, cfg, int(cfg["seed"]), __version__)
        try:
            code = COMMANDS[args.command](cfg, out, manifest)
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
