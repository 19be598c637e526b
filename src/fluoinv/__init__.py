"""Reconstruction of an absorption source in a coupled excitation/emission
diffusion model from noisy terminal-time point measurements.

The package provides the structured-grid discretization, the two coupled
forward solvers, the regularized scattered-data fit with self-consistent
choice of the regularization weight, the monotone fixed-point inversion,
Monte-Carlo rate experiments, and eigenvalue diagnostics, plus a CLI
(`fluoinv`) that reproduces the benchmark experiments end to end.
"""

__version__ = "0.1.0"

from .fit import (
    FitResult,
    MeasurementSet,
    PointEvaluation,
    SolveReport,
    optimal_lambda_prior,
    self_consistent_lambda,
    solve_data_fit,
)
from .forward import (
    ProblemData,
    coupled_levels,
    elliptic_solve,
    terminal_excitation,
    terminal_fields,
)
from .grid import ConvergenceError, Grid, GridFunction
from .inverse import (
    IterationTrace,
    PositivityError,
    fixed_point_map,
    fixed_point_solve,
    stability_constants,
)
from .metrics import ErrorBundle, dual_h1_norm, empirical_norm, error_bundle, hs_norm, l2_norm
from .spectral import SpectrumReport, empirical_smoothing_spectrum, laplacian_spectrum
from .stochastic import (
    ExperimentRecord,
    InversionPipeline,
    LadderPoint,
    NoiseModel,
    RateFit,
    TrialOutcome,
    WorkerKilledError,
    expectation_experiment,
    fit_rate,
    observe,
    rate_fits,
    sample_points,
    tail_histogram,
)

__all__ = [name for name in dir() if not name.startswith("_")]
