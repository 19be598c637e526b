"""A dense oracle for the fixed-point map at tiny sizes.

Backward Euler is marched densely, one ``np.linalg.solve`` per level, on
the assembled Laplacian; the oracle shares no code with the sparse
factorizations or with ``coupled_levels``.  ``terminal_excitation``'s two
levels and ``fixed_point_map`` are compared with it on the example2 problem
on grids of 4 to 8 cells per side with 1 to 20 time steps, and with 1,000
on the smallest grid.
"""

import numpy as np
import pytest

import fluoinv as fv
from fluoinv.forward import terminal_excitation
from fluoinv.presets import example2_problem, smooth_source

CASES = [(cells, steps) for cells in range(4, 9) for steps in (1, 2, 3, 7, 20)] + [(4, 1000)]


def dense_terminal_levels(data, q):
    """The last two levels ((u_e^N, u_e^(N-1)), (u_m^N, u_m^(N-1))) of both
    fields at source q, by dense backward Euler from zero."""
    ops = data.grid.operators(data.beta)
    laplacian = ops.laplacian.toarray()
    w, tau = data.grid.weights, data.tau

    def step_matrix(absorption):
        return np.diag(w / tau + w * absorption) + laplacian

    A_e, A_m = step_matrix(data.p.values + q), step_matrix(data.p.values)
    zero = np.zeros(data.grid.node_count)
    u_e = u_m = (zero, zero)
    for k in range(1, data.n_steps + 1):
        e = np.linalg.solve(A_e, w * u_e[0] / tau + ops.load_weights * data.boundary_field(k))
        m = np.linalg.solve(A_m, w * u_m[0] / tau + w * q * e)
        u_e, u_m = (e, u_e[0]), (m, u_m[0])
    return u_e, u_m


def relative(x, reference):
    return np.abs(x - reference).max() / np.abs(reference).max()


@pytest.mark.parametrize("cells, steps", CASES, ids=[f"grid{c}-N{s}" for c, s in CASES])
def test_map_matches_the_dense_march(cells, steps):
    # both excitation levels to 1e-12 relative at a random admissible q, and
    # the map for the terminal field of the smooth source to 1e-9
    data = example2_problem(fv.Grid(2, cells), tau=1.0 / steps)
    assert data.n_steps == steps
    rng = np.random.default_rng(1000 * cells + steps)
    q = rng.uniform(0.0, data.M, data.grid.node_count)
    (ue_N, ue_prev), (um_N, um_prev) = dense_terminal_levels(data, q)
    levels = terminal_excitation(data, data.grid.function(q))
    assert relative(levels[0], ue_N) <= 1e-12
    assert relative(levels[1], ue_prev) <= 1e-12 if steps > 1 else not levels[1].any()
    g = dense_terminal_levels(data, smooth_source(data.grid).values)[1][0]
    laplacian = data.grid.operators(data.beta).laplacian.toarray()
    forcing = laplacian @ g / data.grid.weights + data.p.values * g   # -Delta_h g + p g
    F = fv.fixed_point_map(data, data.grid.function(q), data.grid.function(g))
    assert relative(F.values, ((um_N - um_prev) / data.tau + forcing) / ue_N) <= 1e-9
