"""Discrete-structure properties over small grids, time steps and sources.

The finite-volume steps are M-matrix solves, so these hold exactly up to
roundoff on every grid: nonnegative fields, the comparison principle for
the excitation field, excitation plus emission equal to the excitation at
q = 0, and a monotone fixed-point map on clean data.  The map's Krylov
path, ``terminal_excitation``, reads the march's last two excitation levels
to roundoff on random problems, at its step cap and at breakdowns too; the
weight loop's Krylov path, ``fit._ShiftedLanczos``, reads the fits of a
dense solve of the normal equations at weights over six decades.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import fluoinv as fv
from fluoinv import fit
from fluoinv.fit import _FitWorkspace, _ShiftedLanczos
from fluoinv.forward import _last_two, terminal_excitation, terminal_fields
from fluoinv.presets import example2_problem

from conftest import stacked_levels

M = 5.0
TOL = 1e-10


@st.composite
def problems(draw):
    """The example2 problem on 4 to 12 cells per side with T/tau = 1 to 8 steps."""
    grid = fv.Grid(2, draw(st.integers(4, 12)))
    return example2_problem(grid, tau=1.0 / draw(st.integers(1, 8)), M=M)


def sources(draw, grid):
    return fv.GridFunction(grid, draw(arrays(np.float64, grid.node_count,
                                             elements=st.floats(0.0, M))))


def ordered_pair(draw, grid):
    """Sources q1 <= q2 in [0, M] nodewise."""
    low = sources(draw, grid)
    t = draw(arrays(np.float64, grid.node_count, elements=st.floats(0.0, 1.0)))
    high = np.minimum(low.values + t * (M - low.values), M)
    return low, fv.GridFunction(grid, high)


@given(st.data())
def test_fields_are_nonnegative(data):
    problem = data.draw(problems())
    q = sources(data.draw, problem.grid)
    u_e, u_m = stacked_levels(problem, q)
    assert min(u_e.min(), u_m.min()) >= -1e-12


@given(st.data())
def test_more_absorption_gives_less_excitation(data):
    problem = data.draw(problems())
    q1, q2 = ordered_pair(data.draw, problem.grid)
    u1, _ = stacked_levels(problem, q1)
    u2, _ = stacked_levels(problem, q2)
    assert (u1 - u2).min() >= -TOL


@given(st.data())
def test_fields_sum_to_the_excitation_at_zero_source(data):
    # adding the two backward-Euler steps cancels the coupling term q * u_e,
    # so u_e + u_m is the q = 0 excitation at every level
    problem = data.draw(problems())
    q = sources(data.draw, problem.grid)
    u_e, u_m = stacked_levels(problem, q)
    v, _ = stacked_levels(problem, problem.grid.zeros())
    gap = np.abs(u_e + u_m - v).max(axis=1)
    assert (gap <= 1e-12 * np.abs(v).max(axis=1)).all()


@given(st.data())
def test_fixed_point_map_is_monotone(data):
    problem = data.draw(problems())
    grid = problem.grid
    _, _, g = terminal_fields(problem, sources(data.draw, grid))
    q1, q2 = ordered_pair(data.draw, grid)
    step = fv.fixed_point_map(problem, q2, g) - fv.fixed_point_map(problem, q1, g)
    assert step.min() >= -TOL


@st.composite
def krylov_problems(draw):
    """A problem on 4 to 12 cells per side with T/tau = 1 to 60 steps, a
    random positive absorption and boundary data of rank 1 to 4 in time,
    sum_j phi_j t^j with random signed profiles phi_j, so the sign
    hypotheses may fail; a space of 25 nodes is exhausted well before 60
    steps.  The data are of order 1, or scaled by 1e-200 to 1e-150, where
    their squares underflow below about 1e-154."""
    grid = fv.Grid(2, draw(st.integers(4, 12)))
    p = fv.GridFunction(grid, draw(arrays(np.float64, grid.node_count,
                                          elements=st.floats(0.01, 10.0))))
    magnitude = draw(st.one_of(st.just(1.0), st.integers(-200, -150).map(lambda k: 10.0**k)))
    profiles = magnitude * draw(arrays(
        np.float64, (draw(st.integers(1, 4)), len(grid.boundary_indices)),
        elements=st.one_of(st.floats(-1.0, -0.1), st.floats(0.1, 1.0))))

    def b(coords, t):
        return sum(phi * t**j for j, phi in enumerate(profiles))

    return fv.ProblemData(grid, p, b, beta=1.0, T=1.0, tau=1.0 / draw(st.integers(1, 60)), M=M)


@given(st.data())
def test_krylov_levels_match_the_march(data):
    problem = data.draw(krylov_problems())
    q = sources(data.draw, problem.grid)
    zero = np.zeros(problem.grid.node_count)
    (march_N, _), (march_prev, _) = _last_two(fv.coupled_levels(problem, q), (zero, zero))
    for level, march in zip(terminal_excitation(problem, q), (march_N, march_prev)):
        assert np.abs(level - march).max() <= 1e-12 * np.abs(march).max()


@st.composite
def fit_problems(draw):
    """Readings of order 1 (signed) at 1 to 60 sensors anywhere inside a
    grid of 4 to 8 cells per side, and a penalty order."""
    grid = fv.Grid(2, draw(st.integers(4, 8)))
    n = draw(st.integers(1, 60))
    points = draw(arrays(np.float64, (n, 2), elements=st.floats(0.001, 0.999)))
    values = draw(arrays(np.float64, n,
                         elements=st.one_of(st.floats(-1.0, -0.1), st.floats(0.1, 1.0))))
    return fv.MeasurementSet(fv.PointEvaluation(grid, points), values), draw(st.integers(0, 1))


@given(fit_problems(), st.lists(st.floats(-9.0, -3.0), min_size=1, max_size=3))
def test_shifted_lanczos_matches_the_dense_normal_equations(problem, exponents):
    # one process serves every weight, in any order: the misfit and penalty
    # norm of the dense solve of (lam R_s + (ES)'(ES)/n) f = (ES)'y/n, and a
    # fit that meets the CG residual rule on the dense system
    meas, s = problem
    grid, n, y = meas.sensors.grid, meas.n, meas.values
    ws = _FitWorkspace(meas.sensors, 1.0)
    krylov = _ShiftedLanczos(ws, s, y)
    es = meas.sensors.matrix.toarray() @ np.linalg.solve(ws.ops.laplacian.toarray(),
                                                         np.diag(grid.weights))
    gram = np.diag(grid.mass_diag) + s * grid.stiffness_natural.toarray()
    rhs = es.T @ y / n
    for lam in 10.0 ** np.array(exponents):
        system = lam * gram + es.T @ es / n
        dense = np.linalg.solve(system, rhs)
        penalty = np.sqrt(dense @ gram @ dense)
        misfit_k, penalty_k = krylov.norms(lam)
        assert abs(penalty_k - penalty) <= 1e-8 * penalty
        assert abs(misfit_k**2 - np.mean((es @ dense - y) ** 2)) <= 1e-9 * (y @ y) / n
        f, _ = krylov.fit(lam)
        assert np.linalg.norm(rhs - system @ f) <= 2 * fit.SOLVER_TOL * np.linalg.norm(rhs)
        assert np.sqrt((f - dense) @ gram @ (f - dense)) <= 1e-5 * penalty
