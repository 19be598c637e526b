import json
import subprocess
import sys

import numpy as np
import pytest

import fluoinv as fv
from fluoinv import forward, inverse
from fluoinv.forward import _last_two, terminal_excitation, terminal_fields
from fluoinv.inverse import _apply_map, _forcing
from fluoinv.presets import (build_source, build_truth, example2_absorption, example2_problem,
                             smooth_source, stability_problem)

from conftest import package_env, restrict, stacked_levels


def zero_boundary_problem(grid):
    return fv.ProblemData(grid, grid.function(lambda x, y: x + y + 10.0),
                          lambda c, t: np.zeros(len(c)), beta=1.0, T=1.0, tau=0.25, M=5.0)


def test_zero_boundary_data_gives_zero_field(grid16):
    data = zero_boundary_problem(grid16)
    u_e, _ = stacked_levels(data, grid16.zeros())
    assert np.abs(u_e).max() == 0.0


def test_excitation_positivity_and_floor(ex2_32):
    u_e, data = ex2_32["u_e"], ex2_32["data"]
    assert u_e.min() >= -1e-12
    sc = fv.stability_constants(data)
    assert sc.m_Q > 0
    assert u_e[-1].min() >= sc.m_Q - 1e-10


def test_excitation_bounded_by_boundary_maximum(ex2_32):
    u_e, data = ex2_32["u_e"], ex2_32["data"]
    assert u_e.max() <= data.M_b + 1e-10


def test_emission_zero_source(ex2_32):
    data = ex2_32["data"]
    _, u_m = stacked_levels(data, data.grid.zeros())
    assert np.abs(u_m).max() == 0.0


def test_emission_terminal_positivity(ex2_32):
    assert ex2_32["g"].values.min() > 0.0


def test_emission_time_monotone(ex2_32):
    assert (np.diff(ex2_32["u_m"], axis=0) / ex2_32["data"].tau).min() >= -1e-12


def test_terminal_fields_are_the_last_levels(ex2_32):
    # the observation is the last level of the coupled march, on one step too
    u_e, u_m = ex2_32["u_e"], ex2_32["u_m"]
    ue_T, _, um_T = terminal_fields(ex2_32["data"], ex2_32["q_true"])
    assert np.array_equal(ue_T.values, u_e[-1])
    assert np.array_equal(um_T.values, u_m[-1])
    one_step = example2_problem(ex2_32["grid"], tau=1.0)
    ue_1, um_1 = stacked_levels(one_step, ex2_32["q_true"])
    ue_T, dtum_T, um_T = terminal_fields(one_step, ex2_32["q_true"])
    assert np.array_equal(ue_T.values, ue_1[1]) and np.array_equal(um_T.values, um_1[1])
    assert np.array_equal(dtum_T.values, um_1[1] / one_step.tau)


def test_terminal_derivative_trivial_cases(ex2_32):
    data, grid = ex2_32["data"], ex2_32["grid"]
    _, dtum_T, _ = terminal_fields(data, grid.zeros())
    assert np.abs(dtum_T.values).max() == 0.0
    _, dtum_T, _ = terminal_fields(data, ex2_32["q_true"])
    assert dtum_T.values.min() >= -1e-12


def run_terminal_emission(cells, tau):
    grid = fv.Grid(2, cells)
    data = example2_problem(grid, tau=tau)
    return grid, terminal_fields(data, smooth_source(grid))[2]


def test_terminal_emission_refinement_oracle():
    # halving h and tau must reproduce the coarse terminal field to 1%
    coarse_grid, g_coarse = run_terminal_emission(32, 0.02)
    _, g_fine = run_terminal_emission(64, 0.01)
    diff = fv.GridFunction(coarse_grid, g_coarse.values - restrict(g_fine.values, 32, 64))
    assert fv.l2_norm(diff) / fv.l2_norm(g_coarse) <= 1e-2


def test_refinement_first_order():
    # O(h) convergence of the terminal emission field under joint refinement
    grid_a, ga = run_terminal_emission(16, 0.04)
    grid_b, gb = run_terminal_emission(32, 0.02)
    _, gc = run_terminal_emission(64, 0.01)
    d1 = fv.l2_norm(fv.GridFunction(grid_a, ga.values - restrict(gb.values, 16, 32)))
    d2 = fv.l2_norm(fv.GridFunction(grid_b, gb.values - restrict(gc.values, 32, 64)))
    assert d2 <= 0.75 * d1  # at least first-order decay between consecutive halvings


def test_elliptic_solve_zero(grid16):
    assert np.abs(fv.elliptic_solve(grid16, 1.0, grid16.zeros()).values).max() == 0.0


def test_elliptic_self_adjoint(grid32):
    rng = np.random.default_rng(5)
    mass = grid32.mass_diag
    f = grid32.function(rng.standard_normal(grid32.node_count))
    g = grid32.function(rng.standard_normal(grid32.node_count))
    sf = fv.elliptic_solve(grid32, 1.0, f)
    sg = fv.elliptic_solve(grid32, 1.0, g)
    lhs = sf.values @ (mass * g.values)
    rhs = f.values @ (mass * sg.values)
    assert lhs == pytest.approx(rhs, abs=1e-9 * max(1.0, abs(lhs)))


def test_elliptic_refinement_oracle():
    from fluoinv.presets import trig_forcing

    coarse = fv.Grid(2, 32)
    fine = fv.Grid(2, 64)
    s_coarse = fv.elliptic_solve(coarse, 1.0, trig_forcing(coarse))
    s_fine = fv.elliptic_solve(fine, 1.0, trig_forcing(fine))
    ref = restrict(s_fine.values, 32, 64)
    diff = fv.GridFunction(coarse, s_coarse.values - ref)
    assert fv.l2_norm(diff) / fv.l2_norm(fv.GridFunction(coarse, ref)) <= 5e-3


def test_monotone_ordering_in_source(ex2_32):
    data, grid = ex2_32["data"], ex2_32["grid"]
    rng = np.random.default_rng(11)
    lo = rng.uniform(0, data.M, grid.node_count)
    hi = lo + rng.uniform(0, 1, grid.node_count) * (data.M - lo)
    u_lo, _ = stacked_levels(data, fv.GridFunction(grid, lo))
    u_hi, _ = stacked_levels(data, fv.GridFunction(grid, hi))
    assert (u_lo - u_hi).min() >= -1e-12


def test_emission_excitation_conservation(ex2_32):
    # u_m(q1) - u_m(q2) = u_e(q2) - u_e(q1) level by level
    data, grid = ex2_32["data"], ex2_32["grid"]
    rng = np.random.default_rng(13)
    q1 = fv.GridFunction(grid, rng.uniform(0, data.M, grid.node_count))
    q2 = fv.GridFunction(grid, rng.uniform(0, data.M, grid.node_count))
    ue1, um1 = stacked_levels(data, q1)
    ue2, um2 = stacked_levels(data, q2)
    gap = (um1 - um2) - (ue2 - ue1)
    assert np.abs(gap).max() < 1e-10


def test_energy_estimate(ex2_32):
    data, grid = ex2_32["data"], ex2_32["grid"]
    bound = np.sqrt(data.T) * data.M_b / np.sqrt(data.p.values.min())
    rng = np.random.default_rng(17)
    for _ in range(20):
        qa = fv.GridFunction(grid, rng.uniform(0, data.M, grid.node_count))
        qb = fv.GridFunction(grid, rng.uniform(0, data.M, grid.node_count))
        num = fv.l2_norm(fv.GridFunction(grid, terminal_excitation(data, qa)[0]
                                         - terminal_excitation(data, qb)[0]))
        den = fv.l2_norm(qa - qb)
        assert num <= bound * den


def test_validation_and_violations(grid16):
    data = example2_problem(grid16, tau=0.25)
    assert data.violations == []
    negative = grid16.function(np.full(grid16.node_count, -0.1))
    for march in (fv.coupled_levels, terminal_excitation, terminal_fields):
        with pytest.raises(ValueError):
            march(data, negative)  # on the call, before any level is drawn
    with pytest.raises(ValueError):
        example2_problem(grid16, T=1.0, tau=0.3)  # not an integer number of steps
    # b = -((x+y)^2 t + 5) lies in [-9, -5]: the messages are data, in a fixed order
    assert example2_problem(grid16, tau=0.25, flip_boundary=True).violations == [
        "boundary data takes negative values (min -9)",
        "boundary data decreases in time (min rate -4)",
        "boundary data has no positive value",
        "terminal boundary data is not strictly positive (min -9)",
    ]


@pytest.mark.parametrize("build", [
    lambda: build_source("bogus", fv.Grid(2, 16)),
    lambda: build_truth("bogus", fv.Grid(2, 16)),
    lambda: example2_problem(fv.Grid(1, 16), tau=0.25),
    lambda: build_truth("example2-smooth", fv.Grid(1, 16), tau=0.25),
], ids=["unknown-source", "unknown-truth", "example2-1d", "example2-truth-1d"])
def test_preset_builders_raise_value_error(build):
    with pytest.raises(ValueError):
        build()


def test_grid_mismatch_rejected(ex2_32, grid16):
    data = ex2_32["data"]
    for march in (fv.coupled_levels, terminal_excitation, terminal_fields):
        with pytest.raises(ValueError):
            march(data, grid16.zeros())


def test_fixed_point_map_cost(lu_counts):
    # the cost model of one map application: the excitation step matrix
    # depends on q and is factorized anew, and the two levels are read off a
    # Lanczos process per time component of the load (2 for example2), about
    # half the 100 solves of a march; the emission levels come from the
    # cached q = 0 levels
    grid = fv.Grid(2, 16)
    _, g, data, _ = build_truth("example2-smooth", grid)
    assert data.n_steps == 100
    q = grid.function(np.full(grid.node_count, 1.0))
    fv.fixed_point_map(data, q, g)  # the q = 0 levels are cached by now
    lu_counts.reset()
    fv.fixed_point_map(data, q, g)
    assert lu_counts["factorizations"] == 1
    assert lu_counts["solves"] <= 55


def test_zero_source_levels_are_cached(lu_counts):
    # the q = 0 levels, which every map application and the iteration's
    # first iterate F(0) read, are terminal_excitation at q = 0, computed
    # once per problem: one factorization and about half a march's solves,
    # then nothing; being the grid's first map factor, it first orders the
    # step pattern, at one factorization more
    grid = fv.Grid(2, 16)
    _, g, data, _ = build_truth("example2-smooth", grid)
    lu_counts.reset()
    data.zero_source_levels()
    assert lu_counts["factorizations"] == 2
    assert lu_counts["solves"] <= 55
    lu_counts.reset()
    data.zero_source_levels()
    assert lu_counts == {"factorizations": 0, "solves": 0, "solve_calls": 0}


def test_no_step_factor_outlives_its_march(lu_counts):
    # the march holds its two step factors, excitation and emission, while
    # it runs and frees both when it ends or is dropped: neither the truth
    # nor a forward observation leaves a factor alive
    grid = fv.Grid(2, 16)
    _, _, data, q = build_truth("example2-smooth", grid)
    assert (lu_counts.live, lu_counts.peak_live) == (0, 2)
    terminal_fields(data, q)
    assert lu_counts.live == 0
    levels = fv.coupled_levels(data, q)
    next(levels)
    assert lu_counts.live == 2
    del levels
    assert lu_counts.live == 0
    assert lu_counts["factorizations"] == 6


def close(a, b, rtol=1e-13):
    """a within rtol of b, relative to the largest entry of b."""
    return np.abs(a - b).max() <= rtol * np.abs(b).max()


def test_terminal_fields_match_the_histories():
    # the observation keeps the last two levels of the march whose stacked
    # output is the history, and returns owned arrays; the Lanczos levels
    # of the map agree with the march to roundoff
    grid = fv.Grid(2, 16)
    data = example2_problem(grid, tau=0.05)
    q = smooth_source(grid)
    u_e, u_m = stacked_levels(data, q)
    ue_T, dtum_T, um_T = terminal_fields(data, q)
    assert np.array_equal(ue_T.values, u_e[-1])
    assert np.array_equal(dtum_T.values, (u_m[-1] - u_m[-2]) / data.tau)
    assert np.array_equal(um_T.values, u_m[-1])
    assert all(v.values.base is None for v in (ue_T, dtum_T, um_T))
    for level, stacked in zip(terminal_excitation(data, q), u_e[::-1]):
        assert close(level, stacked)
    zero, _ = stacked_levels(data, grid.zeros())
    for level, stacked in zip(data.zero_source_levels(), zero[::-1]):
        assert close(level, stacked)


@pytest.mark.parametrize("source", ["example2-smooth", "example2-discontinuous"])
def test_map_fields_match_the_forward_observation(source):
    # u_m = v - u_e, v the cached q = 0 excitation, gives the emission field
    # of terminal_fields' two marches to roundoff, and the map built on the
    # map's own fields that built on the march's: at the true source, where
    # the map's numerator reads dt u_m, to the emission fields' roundoff; at
    # q = 0, where both emission fields are exactly zero, to u_e(T)'s 1e-13
    grid = fv.Grid(2, 24)
    _, g, data, q = build_truth(source, grid, tau=0.05)
    forcing = _forcing(data, g)
    for source_q, rtol in ((q, 1e-9), (grid.zeros(), 1e-13)):
        F, um_T = _apply_map(data, source_q, forcing)
        ue_T, dtum_T, um_march = terminal_fields(data, source_q)
        F_march = (dtum_T.values + forcing) / ue_T.values
        assert close(F.values, F_march, rtol)
        if source_q is q:
            assert np.abs(um_T.values - um_march.values).max() \
                <= 1e-9 * np.abs(um_march.values).max()
        else:
            assert np.array_equal(um_T.values, um_march.values) and not um_march.values.any()


def with_source(data, source):
    return data, source(data)


def smooth_on(data):
    return smooth_source(data.grid)


def bound_on(data):
    """The constant source M, at which stability_constants reads its floor."""
    return data.grid.function(np.full(data.grid.node_count, data.M))


def lanczos_cases():
    """pytest params of a builder of (problem, source on its grid)."""
    for cells in (16, 32):
        for truth in ("example2-smooth", "example2-discontinuous"):
            yield pytest.param(lambda c=cells, t=truth: build_truth(t, fv.Grid(2, c))[2:],
                               id=f"{truth}-{cells}")
        yield pytest.param(lambda c=cells: build_truth("example2-smooth", fv.Grid(2, c),
                                                       flip_boundary=True)[2:],
                           id=f"example2-flipped-{cells}")
    for tau in (1.0, 0.25, 0.001):
        yield pytest.param(lambda tau=tau: with_source(example2_problem(fv.Grid(2, 16), tau=tau),
                                                       smooth_on),
                           id=f"N={round(1 / tau)}")
    yield pytest.param(lambda: with_source(stability_problem(fv.Grid(2, 32)), bound_on),
                       id="stability")


@pytest.mark.parametrize("build", lanczos_cases())
def test_lanczos_levels_match_the_march(build, lu_counts):
    # both levels within 1e-13 relative of the reference march, from one
    # factorization once the grid's step ordering is known; a process capped
    # at N - 1 steps costs at most N solves per time component (the
    # stability problem has one, N = 20), each of one vector
    data, q = build()
    zero = np.zeros(data.grid.node_count)
    (ue_N, _), (ue_prev, _) = _last_two(fv.coupled_levels(data, q), (zero, zero))
    data.grid.step_order()
    lu_counts.reset()
    levels = terminal_excitation(data, q)
    assert close(levels[0], ue_N)
    assert close(levels[1], ue_prev) if data.n_steps > 1 else not levels[1].any()
    assert lu_counts["factorizations"] == 1
    assert lu_counts["solves"] <= len(data._load_components) * data.n_steps
    assert lu_counts["solve_calls"] == lu_counts["solves"]


def test_component_shares_are_added_in_component_order(monkeypatch):
    # the shares enter the levels in the order of the load split, at any
    # tolerance, so the bits of the levels do not depend on which process
    # stops first
    data = example2_problem(fv.Grid(2, 16), tau=0.01)
    added = []
    add_levels = forward._add_component_levels

    def recorded(data, lu, order, a, *args):
        added.append(a)
        add_levels(data, lu, order, a, *args)

    monkeypatch.setattr(forward, "_add_component_levels", recorded)
    for tol in (forward.LANCZOS_TOL, 1e-4):
        added.clear()
        terminal_excitation(data, smooth_source(data.grid), tol)
        assert len(added) == len(data._load_components) == 2
        assert all(a is b for a, (b, _) in zip(added, data._load_components))


def test_zero_boundary_data_has_no_time_component(grid16, lu_counts):
    # rank 0: the excitation is zero at every source, with no factorization
    data = zero_boundary_problem(grid16)
    assert data._load_components == []
    u_N, u_prev = terminal_excitation(data, grid16.function(np.full(grid16.node_count, 2.0)))
    assert not u_N.any() and not u_prev.any()
    assert lu_counts == {"factorizations": 0, "solves": 0, "solve_calls": 0}


@pytest.mark.parametrize("magnitude", [1e-200, 1e-150, 1.0, 1e200])
def test_time_components_at_any_data_scale(magnitude):
    # the load split and the Lanczos coordinates scale by powers of two, so
    # no square underflows or overflows: b = c (1 + t) keeps its one time
    # component, and the map's levels match the march's, at 1e-200 too
    grid = fv.Grid(2, 4)
    data = fv.ProblemData(grid, grid.function(np.ones(grid.node_count)),
                          lambda c, t: np.full(len(c), magnitude * (1.0 + t)),
                          beta=1.0, T=1.0, tau=0.1, M=5.0)
    assert len(data._load_components) == 1
    q = grid.function(np.full(grid.node_count, 0.5))
    ue_T = terminal_fields(data, q)[0].values
    assert ue_T.min() > 0.0
    assert close(terminal_excitation(data, q)[0], ue_T, rtol=1e-14)


def fill(lu):
    return lu.L.nnz + lu.U.nnz


def test_step_factor_fill():
    # fill pins, machine-independent: the map's factor is of the step matrix
    # permuted by the grid's minimum-degree ordering of the symmetric
    # pattern (applying SuperLU's perm_c instead of its inverse gives 5.9M
    # entries at grid 100); the ordering reads the pattern only, the H1 Gram
    # matrix's, so the operators at two Robin parameters factor in the one
    # ordering, two absorptions and time steps give it, and no call history
    # can change it.  The reference march keeps SuperLU's default COLAMD, on
    # whose bits the benchmark reference values of rates-source rest until
    # ROADMAP item 2 regenerates them
    import scipy.sparse.linalg as spla

    for cells, entries in ((50, 73_494), (100, 386_976)):
        grid = fv.Grid(2, cells)
        absorption = example2_absorption(grid).values
        for beta in (1.0, 1e-3):
            ops = grid.operators(beta)
            lu, order = ops.ordered_step_lu(0.01, absorption)
            assert fill(lu) == entries and order is grid.step_order()
            for tau, field in ((0.01, absorption),
                               (0.25, np.linspace(0.0, 7.0, grid.node_count))):
                lu = spla.splu(ops.step_matrix(tau, field), permc_spec="MMD_AT_PLUS_A")
                assert np.array_equal(np.argsort(lu.perm_c), order)
    assert fill(grid.operators(1.0).step_lu(0.01, absorption)) == 659_092


_ONE_HISTORY = """
import json, tracemalloc
import fluoinv as fv
from fluoinv import inverse
from fluoinv.forward import terminal_fields
from fluoinv.presets import build_truth

grid = fv.Grid(2, 16)
_, g, data, q = build_truth("example2-smooth", grid, tau=0.01)
history = (data.n_steps + 1) * grid.node_count * 8


def peak(run):
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        run()
        return (tracemalloc.get_traced_memory()[1] - start) / history
    finally:
        tracemalloc.stop()


def four_steps():
    inverse.FIXED_POINT_MAX_ITER, inverse.FIXED_POINT_TOL = 4, 1e-300
    try:
        fv.fixed_point_solve(data, g)
    except fv.ConvergenceError:
        return
    raise AssertionError("four fixed-point steps converged")


print(json.dumps({"forward": peak(lambda: terminal_fields(data, q)),
                  "fixed point": peak(four_steps),
                  "map": peak(lambda: fv.fixed_point_map(data, q, g))}))
"""


def test_forward_pass_keeps_one_history():
    # no pass keeps a history: peak traced memory stays below half of one,
    # for a forward observation (both fields marched in lockstep), for one
    # map application (the excitation alone) and over a fixed-point run of
    # several, since no returned field pins a history.  It is measured in a
    # fresh interpreter: scipy records every live SuperLU factor in a table,
    # and a rebuild of that table inside the window, likelier the more
    # factors other tests keep alive, would add its size to the peak
    run = subprocess.run([sys.executable, "-c", _ONE_HISTORY], capture_output=True,
                         text=True, env=package_env(), timeout=300)
    assert run.returncode == 0, run.stderr
    peaks = json.loads(run.stdout.splitlines()[-1])
    assert all(share < 0.5 for share in peaks.values()), peaks
