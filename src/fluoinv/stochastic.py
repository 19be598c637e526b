"""Sensor sampling, noise models, and Monte-Carlo rate experiments.

Sensors are Halton points (low-discrepancy, hence quasi-uniform) pushed
into the open domain by a small margin; noise draws are seeded per trial by
hashing (base seed, ladder index, trial index) so that the trial execution
order cannot change any result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fit import MeasurementSet, _FitWorkspace, fit_at_weight, point_evaluation
from .forward import ProblemData
from .grid import ConvergenceError, Grid, GridFunction
from .inverse import fixed_point_solve
from .metrics import ErrorBundle, error_bundle, hs_norm

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
    "rate_fits",
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
    noise_kind: str = "gaussian"
    data: ProblemData | None = None
    q_true: GridFunction | None = None


@dataclass
class LadderPoint:
    """One rung of a sample-size/regularization ladder."""

    n: int
    sigma: float
    lam: float | None = None    # weight of every trial; None: self-consistent per trial


@dataclass
class ExperimentRecord:
    """Aggregated outcome of all trials at one ladder point."""

    point: LadderPoint
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
               base_seed: int, ladder_index: int, trial_index: int):
    seed = trial_seed(base_seed, ladder_index, trial_index)
    noise = NoiseModel(pipeline.noise_kind, point.sigma, seed)
    meas = observe(pipeline.sf_true, points, noise)
    lam, fit, lam_trace = fit_at_weight(pipeline.grid, pipeline.beta, meas, pipeline.s,
                                        point.lam, workspace=workspace)
    if not lam_trace.converged:
        raise ConvergenceError(f"self-consistent weight loop did not stabilize at rung "
                               f"n={point.n}, trial {trial_index}")
    ev_err = workspace.ev.apply(fit.sf) - workspace.ev.apply(pipeline.sf_true)
    sf_err_n = float(np.sqrt(np.mean(ev_err**2)))

    q_rec = None
    fp_iters = 0
    if pipeline.data is not None and pipeline.q_true is not None:
        q_rec, trace = fixed_point_solve(pipeline.data, fit.f, fit.sf)
        if not trace.converged:
            raise ConvergenceError(f"fixed-point iteration did not converge at rung "
                                   f"n={point.n}, trial {trial_index}")
        fp_iters = trace.iterations
    bundle = error_bundle(
        meas=meas, sf=fit.sf, sf_true=pipeline.sf_true,
        f=fit.f, f_true=pipeline.f_true,
        q=q_rec, q_true=pipeline.q_true,
    )
    return bundle, sf_err_n, float(lam), fp_iters


def expectation_experiment(pipeline: InversionPipeline, ladder, trials: int = 10,
                           base_seed: int = 0) -> list[ExperimentRecord]:
    """Run `trials` independent observe-fit(-invert) pipelines per ladder point.

    Sensor locations depend on (base seed, ladder index) only; noise streams
    are derived per trial.  Trials run one after another, in index order.
    Individual trial failures propagate (they indicate configuration errors,
    not statistical bad luck); a self-consistent weight loop that does not
    stabilize, or a fixed-point iteration that does not converge, raises
    ConvergenceError.
    """
    norm_f_true = hs_norm(pipeline.f_true, pipeline.s)
    records = []
    for i, point in enumerate(ladder):
        pt_seed = int(np.random.SeedSequence(entropy=base_seed,
                                             spawn_key=(i,)).generate_state(1)[0])
        points = sample_points(pipeline.grid.dim, point.n, seed=pt_seed)
        workspace = _FitWorkspace(pipeline.grid, pipeline.beta, points)
        outcomes = [_run_trial(pipeline, point, points, workspace, base_seed, i, t)
                    for t in range(trials)]

        rho0 = float(norm_f_true + point.sigma / np.sqrt(point.n))
        records.append(ExperimentRecord(
            point=point,
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


def rate_fits(records: list[ExperimentRecord]) -> dict[str, RateFit]:
    """Fit each mean error against the mean weight across the ladder.

    An error gets a fit when at least three rungs report it; the keys keep
    the order err1..err5.
    """
    means = [(rec.lam, rec.mean_errors()) for rec in records]
    fits = {}
    for key in ("err1", "err2", "err3", "err4", "err5"):
        pairs = [(lam, m[key]) for lam, m in means if key in m]
        if len(pairs) >= 3:
            fits[key] = fit_rate(pairs)
    return fits


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
