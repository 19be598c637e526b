import numpy as np
import pytest
from hypothesis import settings

import fluoinv as fv
from fluoinv.presets import example2_problem, smooth_source

# Property tests draw the same examples on every run (reproducible, and no
# example database is written); no deadline, so a slow shared host cannot
# fail them.
settings.register_profile("tier1", derandomize=True, deadline=None, database=None)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def grid16():
    return fv.Grid(2, 16)


@pytest.fixture(scope="session")
def grid32():
    return fv.Grid(2, 32)


@pytest.fixture(scope="session")
def grid100():
    return fv.Grid(2, 100)


@pytest.fixture(scope="session")
def ex2_32():
    """Coupled-model benchmark at battery scale: problem, source, fields and
    the terminal data g the fixed point reads."""
    grid = fv.Grid(2, 32)
    data = example2_problem(grid, tau=0.25)
    q_true = smooth_source(grid)
    u_e = fv.solve_excitation(data, q_true)
    u_m = fv.solve_emission(data, q_true, u_e)
    g = fv.terminal_data(u_m)
    return dict(grid=grid, data=data, q_true=q_true, u_e=u_e, u_m=u_m, g=g)


@pytest.fixture(scope="session")
def dirichlet64():
    """Dense Dirichlet spectrum at diagnostic scale (shared: it costs seconds)."""
    return fv.laplacian_spectrum(fv.Grid(2, 64), 200)


def restrict(fine_values: np.ndarray, coarse_cells: int, fine_cells: int) -> np.ndarray:
    """Values of a fine-grid field at the nodes of a nested coarse grid."""
    step = fine_cells // coarse_cells
    assert step * coarse_cells == fine_cells
    nc, nf = coarse_cells + 1, fine_cells + 1
    ii, jj = np.meshgrid(np.arange(nc), np.arange(nc), indexing="xy")
    return fine_values[(jj * step * nf + ii * step).ravel()]
