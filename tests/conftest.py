import os
from pathlib import Path

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

SRC = Path(fv.__file__).resolve().parents[1]


def package_env(**extra):
    """The environment for a subprocess that imports this package from its
    sources: this one, with ``extra`` added and SRC first on PYTHONPATH."""
    return dict(os.environ, **extra,
                PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))


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
    """Coupled-model benchmark at battery scale: problem, source, the stacked
    levels of both fields and the terminal data g the fixed point reads."""
    grid = fv.Grid(2, 32)
    data = example2_problem(grid, tau=0.25)
    q_true = smooth_source(grid)
    u_e, u_m = stacked_levels(data, q_true)
    _, _, g = fv.terminal_fields(data, q_true)
    return dict(grid=grid, data=data, q_true=q_true, u_e=u_e, u_m=u_m, g=g)


@pytest.fixture
def lu_counts(monkeypatch):
    """Counts of sparse factorizations and solves made from here on."""
    import scipy.sparse.linalg as spla

    counts = {"factorizations": 0, "solves": 0}
    splu = spla.splu

    class CountedFactor:
        def __init__(self, lu):
            self._lu = lu

        def solve(self, rhs):
            counts["solves"] += 1
            return self._lu.solve(rhs)

    def counted_splu(*args, **kwargs):
        counts["factorizations"] += 1
        return CountedFactor(splu(*args, **kwargs))

    monkeypatch.setattr(spla, "splu", counted_splu)
    return counts


@pytest.fixture(scope="session")
def dirichlet64():
    """Dirichlet spectrum at diagnostic scale, shared by the spectral tests."""
    return fv.laplacian_spectrum(2, 64, 200)


def stacked_levels(data, q):
    """Both fields of ``coupled_levels`` stacked into (N + 1, nodes) arrays,
    the zero level 0 first."""
    zero = np.zeros(data.grid.node_count)
    pairs = [(zero, zero)] + list(fv.coupled_levels(data, q))
    return np.array([u_e for u_e, _ in pairs]), np.array([u_m for _, u_m in pairs])


def restrict(fine_values: np.ndarray, coarse_cells: int, fine_cells: int) -> np.ndarray:
    """Values of a fine-grid field at the nodes of a nested coarse grid."""
    step = fine_cells // coarse_cells
    assert step * coarse_cells == fine_cells
    nc, nf = coarse_cells + 1, fine_cells + 1
    ii, jj = np.meshgrid(np.arange(nc), np.arange(nc), indexing="xy")
    return fine_values[(jj * step * nf + ii * step).ravel()]
