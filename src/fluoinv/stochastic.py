"""Sensor sampling, noise models, and Monte-Carlo rate experiments.

Sensors are Halton points (low-discrepancy, hence quasi-uniform) pushed
into the open domain by a small margin; noise draws are seeded per trial by
hashing (base seed, ladder index, trial index) so that the trial execution
order cannot change any result.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fit import (
    FitConfig,
    MeasurementSet,
    _FitWorkspace,
    optimal_lambda_prior,
    point_evaluation,
    self_consistent_lambda,
    solve_data_fit,
)
from .forward import ProblemData
from .grid import Grid, GridFunction
from .inverse import InverseConfig, noisy_fixed_point_solve
from .metrics import ErrorBundle, error_bundle, h1_norm, l2_norm

__all__ = [
    "NoiseModel",
    "sample_points",
    "observe",
    "trial_seed",
    "InversionPipeline",
    "LadderPoint",
    "ExperimentRecord",
    "expectation_experiment",
    "RateFit",
    "fit_rate",
    "TailCurve",
    "tail_histogram",
]

POINT_MARGIN = 1e-3
_HALTON_BASES = (2, 3)


def _radical_inverse(indices: np.ndarray, base: int) -> np.ndarray:
    """Van der Corput radical inverse of integer indices in the given base."""
    idx = indices.astype(np.int64).copy()
    out = np.zeros(len(idx))
    f = 1.0 / base
    while idx.max() > 0:
        out += f * (idx % base)
        idx //= base
        f /= base
    return out


def sample_points(dim: int, n: int, seed: int = 0, layout: str = "halton") -> np.ndarray:
    """Quasi-uniform sensor locations strictly inside the unit domain.

    The default layout is the Halton sequence with a seed-derived start
    offset, mapped into (margin, 1 - margin)^dim; ``layout="grid"`` gives a
    regular lattice instead, for sensitivity studies.  Deterministic for a
    fixed (seed, n, layout).
    """
    if n < 1:
        raise ValueError("need at least one point")
    if dim not in (1, 2):
        raise ValueError("dim must be 1 or 2")
    lo, span = POINT_MARGIN, 1.0 - 2.0 * POINT_MARGIN
    if layout == "grid":
        per_side = int(np.ceil(n ** (1.0 / dim)))
        axes = [np.linspace(lo, 1.0 - lo, per_side) for _ in range(dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.column_stack([a.ravel() for a in mesh])[:n]
        return pts
    if layout != "halton":
        raise ValueError(f"unknown layout {layout!r}")
    offset = int(np.random.SeedSequence(seed).generate_state(1)[0] % 65536)
    idx = np.arange(offset + 1, offset + n + 1)
    cols = [_radical_inverse(idx, b) for b in _HALTON_BASES[:dim]]
    return lo + span * np.column_stack(cols)


@dataclass
class NoiseModel:
    """Zero-mean i.i.d. noise with standard deviation at most sigma.

    ``gaussian`` draws N(0, sigma^2) (the sub-Gaussian case); ``uniform``
    draws U(-sqrt(3) sigma, sqrt(3) sigma), which has variance exactly
    sigma^2; ``zero`` disables noise.
    """

    kind: str = "gaussian"
    sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("gaussian", "uniform", "zero"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")

    def draw(self, n: int) -> np.ndarray:
        if self.kind == "zero" or self.sigma == 0.0:
            return np.zeros(n)
        rng = np.random.default_rng(self.seed)
        if self.kind == "gaussian":
            return self.sigma * rng.standard_normal(n)
        half = np.sqrt(3.0) * self.sigma
        return rng.uniform(-half, half, n)


def observe(g: GridFunction, points: np.ndarray, noise: NoiseModel) -> MeasurementSet:
    """Interpolate the field at the sensors and add one noise realization."""
    ev = point_evaluation(g.grid, points)
    values = ev.apply(g) + noise.draw(len(points))
    return MeasurementSet(
        points=points,
        values=values,
        sigma=noise.sigma,
        provenance={"noise_kind": noise.kind, "noise_seed": noise.seed},
    )


def trial_seed(base_seed: int, ladder_index: int, trial_index: int) -> np.random.SeedSequence:
    """Independent, order-insensitive RNG stream for one trial."""
    return np.random.SeedSequence(entropy=base_seed,
                                  spawn_key=(ladder_index, trial_index + 1))


@dataclass
class InversionPipeline:
    """Everything one Monte-Carlo trial needs besides its noise draw.

    ``sf_true`` is the observed field (sampled at the sensors); ``f_true``
    is the forcing it smooths.  If ``data`` and ``q_true`` are given, each
    trial continues into the fixed-point source recovery.
    """

    grid: Grid
    beta: float
    s: int
    f_true: GridFunction
    sf_true: GridFunction
    lam_policy: str = "prior"            # prior | fixed | self-consistent
    noise_kind: str = "gaussian"
    data: ProblemData | None = None
    q_true: GridFunction | None = None
    inverse_cfg: InverseConfig | None = None

    def norm_f_true(self) -> float:
        return l2_norm(self.f_true) if self.s == 0 else h1_norm(self.f_true)


@dataclass
class LadderPoint:
    """One rung of a sample-size/regularization ladder."""

    n: int
    sigma: float
    lam: float | None = None    # required for lam_policy == "fixed"
    label: str = ""


@dataclass
class ExperimentRecord:
    """Aggregated outcome of all trials at one ladder point."""

    config: dict
    bundles: list[ErrorBundle]
    sf_errors_n: list[float]     # absolute empirical errors vs truth, per trial
    lams: list[float]            # weight actually used, per trial
    fp_iterations: list[int]
    rho0: float

    @property
    def trials(self) -> int:
        return len(self.bundles)

    @property
    def lam(self) -> float:
        return float(np.mean(np.asarray(self.lams)))

    def mean_errors(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for key in ("err1", "err2", "err3", "err4", "err5"):
            vals = [getattr(b, key) for b in self.bundles]
            if all(v is not None for v in vals):
                out[key] = float(np.mean(np.asarray(vals)))
        return out


def _run_trial(pipeline: InversionPipeline, point: LadderPoint, points, workspace,
               lam: float | None, base_seed: int, ladder_index: int, trial_index: int):
    seed = trial_seed(base_seed, ladder_index, trial_index)
    noise = NoiseModel(pipeline.noise_kind, point.sigma, seed)
    meas = observe(pipeline.sf_true, points, noise)
    if lam is None:  # self-consistent policy: the weight is re-estimated per trial
        lam_used, fit, _ = self_consistent_lambda(
            pipeline.grid, pipeline.beta, meas, pipeline.s, workspace=workspace
        )
    else:
        lam_used = lam
        fit = solve_data_fit(pipeline.grid, pipeline.beta, meas,
                             FitConfig(s=pipeline.s, lam=lam), workspace=workspace)
    ev_err = workspace.ev.apply(fit.sf) - workspace.ev.apply(pipeline.sf_true)
    sf_err_n = float(np.sqrt(np.mean(ev_err**2)))

    q_rec = None
    fp_iters = 0
    if pipeline.data is not None and pipeline.q_true is not None:
        q_rec, trace = noisy_fixed_point_solve(
            pipeline.data, fit.f, fit.sf, pipeline.inverse_cfg or InverseConfig()
        )
        fp_iters = trace.iterations
    bundle = error_bundle(
        meas=meas, sf=fit.sf, sf_true=pipeline.sf_true,
        f=fit.f, f_true=pipeline.f_true,
        q=q_rec, q_true=pipeline.q_true,
    )
    return bundle, sf_err_n, float(lam_used), fp_iters


def expectation_experiment(pipeline: InversionPipeline, ladder, trials: int = 10,
                           base_seed: int = 0) -> list[ExperimentRecord]:
    """Run `trials` independent observe-fit(-invert) pipelines per ladder point.

    Sensor locations depend on (base seed, ladder index) only; noise streams
    are derived per trial.  Trials run one after another, in index order.
    Individual trial failures propagate (they indicate configuration errors,
    not statistical bad luck).
    """
    records = []
    for i, point in enumerate(ladder):
        pt_seed = int(np.random.SeedSequence(entropy=base_seed,
                                             spawn_key=(i,)).generate_state(1)[0])
        points = sample_points(pipeline.grid.dim, point.n, seed=pt_seed)
        workspace = _FitWorkspace(pipeline.grid, pipeline.beta, points)
        if pipeline.lam_policy == "fixed":
            if point.lam is None:
                raise ValueError("fixed lam policy needs a lam on every ladder point")
            lam = point.lam
        elif pipeline.lam_policy == "prior":
            lam = optimal_lambda_prior(pipeline.norm_f_true(), point.sigma,
                                       point.n, pipeline.s)
        elif pipeline.lam_policy == "self-consistent":
            lam = None
        else:
            raise ValueError(f"unknown lam policy {pipeline.lam_policy!r}")

        outcomes = [_run_trial(pipeline, point, points, workspace, lam, base_seed, i, t)
                    for t in range(trials)]

        rho0 = float(pipeline.norm_f_true() + point.sigma / np.sqrt(point.n))
        records.append(ExperimentRecord(
            config={
                "label": point.label, "n": point.n, "sigma": point.sigma,
                "s": pipeline.s, "lam_policy": pipeline.lam_policy,
                "trials": trials, "base_seed": base_seed, "ladder_index": i,
                "grid_cells": pipeline.grid.cells_per_side, "beta": pipeline.beta,
            },
            bundles=[o[0] for o in outcomes],
            sf_errors_n=[o[1] for o in outcomes],
            lams=[o[2] for o in outcomes],
            fp_iterations=[o[3] for o in outcomes],
            rho0=rho0,
        ))
    return records


@dataclass
class RateFit:
    """Least-squares line through (log lam, log err)."""

    slope: float
    intercept: float
    r_squared: float
    pairs: list[tuple[float, float]]


def fit_rate(pairs) -> RateFit:
    """Fit a power law err ~ C * lam^slope from (lam, err) samples."""
    pairs = [(float(a), float(b)) for a, b in pairs]
    if len(pairs) < 3:
        raise ValueError("need at least three (lam, err) pairs")
    arr = np.asarray(pairs)
    if (arr <= 0).any():
        raise ValueError("lam and err values must be positive for a log-log fit")
    x = np.log(arr[:, 0])
    y = np.log(arr[:, 1])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float((resid**2).sum()) / ss_tot
    return RateFit(float(slope), float(intercept), float(max(min(r2, 1.0), 0.0)), pairs)


@dataclass
class TailCurve:
    """Empirical exceedance of the scaled empirical error over a z grid."""

    z: np.ndarray
    exceedance: np.ndarray
    lam: float
    rho0: float
    trials: int


def tail_histogram(record: ExperimentRecord, z: np.ndarray,
                   min_trials: int = 50) -> TailCurve:
    """P(||Sf - Sf*||_n >= sqrt(lam) * rho0 * z) estimated over the trials.

    Only the shape is meaningful (monotone decay in z); no constants are
    asserted.  Requires enough trials for the empirical tail to be stable.
    """
    if record.trials < min_trials:
        raise ValueError(f"need at least {min_trials} trials, have {record.trials}")
    z = np.asarray(z, dtype=float)
    errs = np.asarray(record.sf_errors_n)
    thresholds = np.sqrt(record.lam) * record.rho0 * z
    exceed = (errs[None, :] >= thresholds[:, None]).mean(axis=1)
    return TailCurve(z, exceed, record.lam, record.rho0, record.trials)
