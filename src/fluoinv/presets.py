"""Built-in problem configurations for the CLI and the test batteries."""

from __future__ import annotations

import numpy as np

from .forward import ProblemData, elliptic_solve, terminal_fields
from .grid import Grid, GridFunction

__all__ = [
    "trig_forcing",
    "smooth_source",
    "discontinuous_source",
    "zero_source",
    "example2_absorption",
    "example2_boundary",
    "example2_problem",
    "stability_problem",
    "SOURCES",
    "TRUTHS",
    "build_source",
    "build_truth",
    "PRESETS",
]


def trig_forcing(grid: Grid) -> GridFunction:
    """Separable sine forcing used by the scattered-data fit benchmark."""
    if grid.dim == 1:
        return grid.function(lambda x: np.sin(2 * np.pi * x))
    return grid.function(lambda x, y: np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y))


def smooth_source(grid: Grid) -> GridFunction:
    """Smooth benchmark source 2 + cos(2 pi x) cos(2 pi y)."""
    return grid.function(lambda x, y: 2.0 + np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y))


def discontinuous_source(grid: Grid) -> GridFunction:
    """Two disks and an annulus of unit strength on a zero background."""
    x, y = grid.x, grid.y
    r1 = np.hypot(x - 0.3, y - 0.8)
    r2 = np.hypot(x - 0.7, y - 0.8)
    r3 = np.hypot(x - 0.4, y - 0.5)
    vals = ((r1 <= 0.1) | (r2 <= 0.1) | ((r3 >= 0.2) & (r3 <= 0.3))).astype(float)
    return GridFunction(grid, vals)


def zero_source(grid: Grid) -> GridFunction:
    return grid.zeros()


def example2_absorption(grid: Grid) -> GridFunction:
    return grid.function(lambda x, y: x + y + 10.0)


def example2_boundary(coords: np.ndarray, t: float) -> np.ndarray:
    s = coords.sum(axis=1)
    return s**2 * t + 5.0


def example2_problem(grid: Grid, beta: float = 1.0, T: float = 1.0,
                     tau: float = 0.01, M: float = 5.0,
                     flip_boundary: bool = False) -> ProblemData:
    """The coupled-diffusion benchmark: p = x + y + 10, b = (x+y)^2 t + 5.

    ``flip_boundary`` negates the boundary data, a deliberate hypothesis
    violation (listed in ``violations``) used as a negative control by the
    verification battery.
    Raises ValueError for a grid that is not 2-D.
    """
    if grid.dim != 2:
        raise ValueError(f"the example2 problem needs a 2-D grid, got dim {grid.dim}")
    b = example2_boundary
    if flip_boundary:
        b = lambda coords, t: -example2_boundary(coords, t)  # noqa: E731
    return ProblemData(grid, example2_absorption(grid), b, beta=beta, T=T, tau=tau, M=M)


def stability_problem(grid: Grid) -> ProblemData:
    """Configuration on which the Lipschitz stability hypothesis holds.

    Large constant absorption alone does not make the hypothesis ratio
    drop below one on the unit square: the terminal excitation floor decays
    like exp(-sqrt(p) / 2), which beats the sqrt(p) gain.  The ratio only
    dips below one with near-Dirichlet coupling (small beta), a short
    horizon, constant unit boundary data, and a small admissible bound;
    these values give a ratio of about 0.9 at 32 cells per side.
    """
    p = grid.function(np.full(grid.node_count, 100.0))
    b = lambda coords, t: np.ones(len(coords))  # noqa: E731
    return ProblemData(grid, p, b, beta=1e-3, T=0.04, tau=0.002, M=0.01)


# Flat configurations merged under the CLI's config file and flags; the CLI's
# key table supplies every key they leave out.
PRESETS: dict[str, dict] = {
    "example1": {"grid": 100, "truth": "example1", "n": 10000, "sigma": 0.002, "s": 0},
    "example2-smooth": {
        "grid": 100, "source": "example2-smooth", "truth": "example2-smooth",
        "n": 500, "relative_sigma": 0.01, "s": 1, "lambda": {"mode": "self-consistent"},
    },
    "example2-discontinuous": {
        "grid": 100, "source": "example2-discontinuous", "truth": "example2-discontinuous",
        "n": 500, "relative_sigma": 0.01, "s": 0, "lambda": {"mode": "self-consistent"},
    },
    "zero-source": {"grid": 50, "source": "zero"},
    "verify-default": {"seed": 20250810},
    "verify-violated": {"flip_boundary": True, "seed": 20250810},
}


SOURCES = {
    "example2-smooth": smooth_source,
    "example2-discontinuous": discontinuous_source,
    "zero": zero_source,
}
TRUTHS = ("example1", "example2-smooth", "example2-discontinuous")


def build_source(name: str, grid: Grid) -> GridFunction:
    """The named benchmark source; raises ValueError for an unknown name."""
    if name not in SOURCES:
        raise ValueError(f"unknown source {name!r}; choose from {', '.join(SOURCES)}")
    return SOURCES[name](grid)


def build_truth(name: str, grid: Grid, beta: float = 1.0, T: float = 1.0,
                tau: float = 0.01, M: float = 5.0, flip_boundary: bool = False):
    """Return (f_true, sf_true, data, q_true) for a named benchmark truth.

    ``example1`` observes the smoothing of the sine forcing and has no
    source, so ``data`` and ``q_true`` are None.  The coupled-model truths
    observe the terminal emission field of a forward run from the named
    source, and its discrete negative Laplacian is the forcing, consistent
    with the solver.  Raises ValueError for an unknown name or invalid
    problem parameters.
    """
    if name == "example1":
        f_true = trig_forcing(grid)
        return f_true, elliptic_solve(grid, beta, f_true), None, None
    if name not in TRUTHS:
        raise ValueError(f"unknown truth {name!r}; choose from {', '.join(TRUTHS)}")
    data = example2_problem(grid, beta=beta, T=T, tau=tau, M=M, flip_boundary=flip_boundary)
    q_true = build_source(name, grid)
    _, _, g = terminal_fields(data, q_true)
    f_true = grid.function(grid.operators(beta).pointwise_laplacian(g.values))
    return f_true, g, data, q_true
