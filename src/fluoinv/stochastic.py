"""Sensor sampling, noise models, and Monte-Carlo rate experiments.

Sensors are Halton points (low-discrepancy, hence quasi-uniform) pushed
into the open domain by a small margin; noise draws are seeded per trial by
hashing (base seed, ladder index, trial index) so that the trial execution
order cannot change any result.  That is what lets the trials of an
experiment run on a pool of forked worker processes with outputs identical
to the serial loop.
"""

from __future__ import annotations

import os
from dataclasses import astuple, dataclass

import numpy as np

from .fit import MeasurementSet, PointEvaluation, fit_at_weight
from .forward import ProblemData
from .grid import ConvergenceError, Grid, GridFunction
from .inverse import PositivityError, fixed_point_solve
from .metrics import ERRORS, ErrorBundle, empirical_norm, error_bundle, hs_norm

__all__ = [
    "NoiseModel",
    "sample_points",
    "observe",
    "trial_seed",
    "available_cpus",
    "worker_count",
    "InversionPipeline",
    "LadderPoint",
    "TrialOutcome",
    "ExperimentRecord",
    "expectation_experiment",
    "RateFit",
    "fit_rate",
    "rate_fits",
    "tail_histogram",
    "WorkerKilledError",
]

POINT_MARGIN = 1e-3
NOISE_KINDS = ("gaussian", "uniform", "zero")
TAIL_MIN_TRIALS = 50        # fewest trials that give a stable empirical tail
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


def sample_points(dim: int, n: int, seed: int = 0) -> np.ndarray:
    """Quasi-uniform sensor locations strictly inside the unit domain.

    The Halton sequence with a seed-derived start offset, mapped into
    (margin, 1 - margin)^dim.  Deterministic for a fixed (seed, n).
    """
    if n < 1:
        raise ValueError("need at least one point")
    if dim not in (1, 2):
        raise ValueError("dim must be 1 or 2")
    lo, span = POINT_MARGIN, 1.0 - 2.0 * POINT_MARGIN
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
        if self.kind not in NOISE_KINDS:
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


def observe(g: GridFunction, sensors: PointEvaluation, noise: NoiseModel) -> MeasurementSet:
    """Read the field through the sensor map and add one noise realization;
    the measurements carry the map."""
    return MeasurementSet(sensors, sensors.apply(g) + noise.draw(sensors.n))


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

    @property
    def recovers_source(self) -> bool:
        return self.data is not None and self.q_true is not None


@dataclass
class LadderPoint:
    """One rung of a sample-size/regularization ladder."""

    n: int
    sigma: float
    lam: float | None = None    # weight of every trial; None: self-consistent per trial


@dataclass(frozen=True)
class TrialOutcome:
    """What one Monte-Carlo trial measured, and the work it took."""

    errors: ErrorBundle
    sf_err_n: float          # absolute empirical error of Sf against the truth
    lam: float               # the weight used
    lambda_passes: int       # weight-loop passes (0 at a given weight)
    fp_iterations: int       # fixed-point iterations (0 without source recovery)


@dataclass
class ExperimentRecord:
    """The outcomes of all trials at one ladder point, in trial order."""

    point: LadderPoint
    outcomes: list[TrialOutcome]
    rho0: float

    @property
    def trials(self) -> int:
        return len(self.outcomes)

    @property
    def lam(self) -> float:
        return float(np.mean(np.asarray([o.lam for o in self.outcomes])))

    @property
    def sf_errors_n(self) -> list[float]:
        return [o.sf_err_n for o in self.outcomes]

    def mean_errors(self) -> ErrorBundle:
        """Each error's mean over the trials; None where some trial lacks it."""
        columns = zip(*(astuple(o.errors) for o in self.outcomes))
        return ErrorBundle(*(None if None in vals else float(np.mean(np.asarray(vals)))
                             for vals in columns))


def available_cpus() -> int:
    """CPUs this process may run on (its affinity mask, else the host count)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def worker_count(requested: int, tasks: int) -> int:
    """Worker processes for `tasks` trials: the request, clamped to the
    available CPUs and to the number of trials."""
    if requested < 1:
        raise ValueError(f"need at least one worker, got {requested}")
    return max(1, min(requested, available_cpus(), tasks))


class _TrialRunner:
    """Runs trial (ladder index, trial index) of one experiment and returns
    its TrialOutcome.

    Built in the calling process: it draws the sensor points of every rung
    and builds each rung's sensor map (with the E'E of its fits) once,
    factorizes the two matrices the trials share (the Robin Laplacian at
    beta and the grid's H1 Gram matrix) and computes the last two levels
    of the zero-source excitation that every map and first iterate read,
    so forked workers inherit them instead of redoing them.  Every trial's
    fit and errors read both factors, so they stay cached on the grid for
    the whole experiment, also beside each map's step factor; unlike
    ``p2``, ``rates`` never releases them.
    """

    def __init__(self, pipeline: InversionPipeline, ladder: list[LadderPoint], base_seed: int):
        self.pipeline = pipeline
        self.ladder = ladder
        self.base_seed = base_seed
        self.sensors = []
        for i, point in enumerate(self.ladder):
            pt_seed = int(np.random.SeedSequence(entropy=base_seed,
                                                 spawn_key=(i,)).generate_state(1)[0])
            points = sample_points(pipeline.grid.dim, point.n, seed=pt_seed)
            self.sensors.append(PointEvaluation(pipeline.grid, points))
        pipeline.grid.operators(pipeline.beta).lu_laplacian()  # every fit's S and S'
        pipeline.grid.lu_h1()   # the dual-H1 errors of every trial, and the H1 fits' R_1
        if pipeline.recovers_source:
            pipeline.data.zero_source_levels()  # every map and first iterate

    def __call__(self, task: tuple[int, int]) -> TrialOutcome:
        i, t = task
        pipeline, point, sensors = self.pipeline, self.ladder[i], self.sensors[i]
        noise = NoiseModel(pipeline.noise_kind, point.sigma, trial_seed(self.base_seed, i, t))
        meas = observe(pipeline.sf_true, sensors, noise)
        q_rec, fp_iters = None, 0
        try:
            lam, fit, lam_trace = fit_at_weight(pipeline.beta, meas, pipeline.s, point.lam)
            if pipeline.recovers_source:
                q_rec, trace = fixed_point_solve(pipeline.data, fit.sf)
                fp_iters = trace.iterations
        except (ConvergenceError, PositivityError) as exc:
            raise type(exc)(f"{exc} at rung n={point.n}, trial {t}") from exc
        errors = error_bundle(meas=meas, sf=fit.sf, sf_true=pipeline.sf_true, f=fit.f,
                              f_true=pipeline.f_true, q=q_rec, q_true=pipeline.q_true)
        sf_err_n = empirical_norm(sensors.apply(fit.sf) - sensors.apply(pipeline.sf_true))
        return TrialOutcome(errors, sf_err_n, float(lam), lam_trace.outer_iterations, fp_iters)


class WorkerKilledError(RuntimeError):
    """A trial worker process ended before returning its outcome.

    The operating system ends a worker this way, most likely its
    out-of-memory killer; ``fluoinv.cli.main`` reports it in one line and
    exits 2, as for a ``MemoryError``.
    """


_worker_runner: _TrialRunner | None = None   # set in pool workers only


def _install_runner(runner: _TrialRunner) -> None:
    global _worker_runner
    _worker_runner = runner


def _run_task(task: tuple[int, int]) -> TrialOutcome:
    return _worker_runner(task)


def _run_tasks(runner: _TrialRunner, tasks: list, workers: int) -> list[TrialOutcome]:
    """Outcomes of `tasks` in task order, on `workers` forked processes.

    The runner reaches the workers by fork inheritance, not by pickling
    (factorizations do not pickle).  Results are read in task order, so the
    first exception in task order is re-raised here, as the serial loop
    would raise it; the trials not yet started are cancelled.  A worker
    killed from outside breaks the pool instead of hanging it, and raises
    WorkerKilledError.
    """
    if workers == 1:
        return [runner(task) for task in tasks]
    import multiprocessing  # deferred: only the pool path pays these imports
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    try:
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                                 initializer=_install_runner, initargs=(runner,)) as pool:
            return list(pool.map(_run_task, tasks))
    except BrokenProcessPool as exc:
        raise WorkerKilledError(f"a trial worker process was killed, most likely out of "
                                f"memory, with {workers} workers running") from exc


def expectation_experiment(pipeline: InversionPipeline, ladder, trials: int = 10,
                           base_seed: int = 0, workers: int = 1) -> list[ExperimentRecord]:
    """Run `trials` independent observe-fit(-invert) pipelines per ladder point.

    Sensor locations depend on (base seed, ladder index) only; noise streams
    are derived per trial.  With ``workers`` above 1 the trials of all rungs
    run on that many forked processes (clamped by :func:`worker_count`);
    the records are identical to the serial run's.  Individual trial
    failures propagate (they indicate configuration errors, not statistical
    bad luck); the first ConvergenceError or PositivityError in (rung,
    trial) order is raised again with that rung and trial named.
    """
    ladder = list(ladder)
    tasks = [(i, t) for i in range(len(ladder)) for t in range(trials)]
    workers = worker_count(workers, len(tasks))
    runner = _TrialRunner(pipeline, ladder, base_seed)
    outcomes = _run_tasks(runner, tasks, workers)

    norm_f_true = hs_norm(pipeline.f_true, pipeline.s)
    return [ExperimentRecord(point=point, outcomes=outcomes[i * trials:(i + 1) * trials],
                             rho0=float(norm_f_true + point.sigma / np.sqrt(point.n)))
            for i, point in enumerate(ladder)]


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
    if len({a for a, _ in pairs}) < 3:  # one weight leaves no line, two no residual
        raise ValueError("need (lam, err) pairs at three or more distinct lam")
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

    An error gets a fit when the rungs that report it span at least three
    distinct weights (so none at one fixed weight); the keys keep the order
    of ERRORS.
    """
    means = [(rec.lam, rec.mean_errors()) for rec in records]
    fits = {}
    for key in ERRORS:
        pairs = [(lam, v) for lam, m in means if (v := getattr(m, key)) is not None]
        if len({lam for lam, _ in pairs}) >= 3:
            fits[key] = fit_rate(pairs)
    return fits


def tail_histogram(record: ExperimentRecord, z: np.ndarray) -> np.ndarray:
    """The exceedance P(||Sf - Sf*||_n >= sqrt(lam) * rho0 * z) at each z,
    estimated over the trials.

    Only the shape is meaningful (monotone decay in z); no constants are
    asserted.  Requires TAIL_MIN_TRIALS trials for the empirical tail to be
    stable.
    """
    if record.trials < TAIL_MIN_TRIALS:
        raise ValueError(f"need at least {TAIL_MIN_TRIALS} trials, have {record.trials}")
    z = np.asarray(z, dtype=float)
    errs = np.asarray(record.sf_errors_n)
    thresholds = np.sqrt(record.lam) * record.rho0 * z
    return (errs[None, :] >= thresholds[:, None]).mean(axis=1)
