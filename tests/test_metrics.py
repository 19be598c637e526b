import numpy as np
import pytest

import fluoinv as fv


def test_l2_norm_values(grid16, grid100):
    ones = grid16.function(np.ones(grid16.node_count))
    assert fv.l2_norm(ones) == pytest.approx(1.0)
    assert fv.l2_norm(grid16.zeros()) == 0.0
    trig = grid100.function(lambda x, y: np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y))
    assert fv.l2_norm(trig) == pytest.approx(0.5, abs=1e-3)


def h1_norm(u):
    return fv.hs_norm(u, 1)


def test_h1_norm_values(grid16):
    ones = grid16.function(np.ones(grid16.node_count))
    assert h1_norm(ones) == pytest.approx(1.0)
    assert h1_norm(grid16.zeros()) == 0.0
    line = fv.Grid(1, 100)
    u = line.function(lambda x: x)
    assert h1_norm(u) == pytest.approx(np.sqrt(1.0 / 3.0 + 1.0), abs=1e-3)


@pytest.mark.parametrize("dim, cells", [(1, 30), (2, 8)])
def test_hs_norm_is_the_gram_form_and_the_penalty_norm(dim, cells):
    # sqrt(v' R_s v) against the dense Gram matrices R_0 = M and R_1 = M + A;
    # l2_norm is its s = 0 case, and a fit reports |f|_{H^s} by it, bit for bit
    from fluoinv.stochastic import NoiseModel, observe, sample_points

    grid = fv.Grid(dim, cells)
    v = grid.function(np.random.default_rng(5).standard_normal(grid.node_count))
    mass = np.diag(grid.mass_diag)
    for s, gram in ((0, mass), (1, mass + grid.stiffness_natural.toarray())):
        assert fv.hs_norm(v, s) == pytest.approx(np.sqrt(v.values @ gram @ v.values),
                                                 rel=1e-13)
    assert fv.l2_norm(v) == fv.hs_norm(v, 0)
    with pytest.raises(ValueError, match="penalty order"):
        fv.hs_norm(v, 2)
    sf = grid.function(np.cos(np.pi * grid.x))
    meas = observe(sf, fv.PointEvaluation(grid, sample_points(dim, 20, seed=1)),
                   NoiseModel("gaussian", 1e-3, np.random.SeedSequence(2)))
    for s in (0, 1):
        fit = fv.solve_data_fit(1.0, meas, s, 1e-4)
        assert fit.penalty_norm == fv.hs_norm(fit.f, s)


def test_dual_norm_values(grid16):
    const = grid16.function(np.full(grid16.node_count, -2.5))
    assert fv.dual_h1_norm(const) == pytest.approx(2.5, rel=1e-10)
    assert fv.dual_h1_norm(grid16.zeros()) == 0.0


def test_norms_keep_their_digits_when_squares_are_subnormal():
    # the example2-smooth truth on Grid(2, 8) at beta = 1e160 has fields near
    # 1e-160, whose squares are subnormal: unscaled, the dual-H1 norm of the
    # forcing was 3.9 % off the same norm of the forcing scaled by 2^530 (then
    # divided back), the L2 norm of the observed field 0.28 %.  Each norm
    # scales by a power of two, exactly, so the two agree bit for bit, and a
    # field of normal squares keeps the unscaled norm bit for bit
    from fluoinv.metrics import _dot
    from fluoinv.presets import build_truth

    grid = fv.Grid(2, 8)
    f, g, _, _ = build_truth("example2-smooth", grid, beta=1e160)
    big = 2.0**530
    norms = (fv.dual_h1_norm, fv.l2_norm, h1_norm, lambda u: fv.empirical_norm(u.values))
    for norm in norms:
        for u in (f, g):
            assert norm(u) == norm(grid.function(u.values * big)) / big
    v = np.random.default_rng(6).standard_normal(grid.node_count)
    w = grid.lu_h1().solve(grid.mass_diag * v)
    assert fv.dual_h1_norm(grid.function(v)) == np.sqrt(_dot(v, grid.mass_diag * w))
    for s in (0, 1):
        assert fv.hs_norm(grid.function(v), s) == np.sqrt(_dot(v, grid.gram_apply(s, v)))
    assert fv.empirical_norm(v) == np.sqrt(np.mean(v**2))


def test_norm_ordering_and_riesz_identity(grid16):
    rng = np.random.default_rng(0)
    for _ in range(20):
        v = grid16.function(rng.standard_normal(grid16.node_count))
        dual, l2, h1 = fv.dual_h1_norm(v), fv.l2_norm(v), h1_norm(v)
        assert dual <= l2 + 1e-10
        assert l2 <= h1 + 1e-10
        w = grid16.lu_h1().solve(grid16.mass_diag * v.values)
        assert dual**2 == pytest.approx(v.values @ (grid16.mass_diag * w), abs=1e-10)


def test_norm_axioms(grid16):
    rng = np.random.default_rng(1)
    for norm in (fv.l2_norm, h1_norm, fv.dual_h1_norm):
        for _ in range(10):
            a = grid16.function(rng.standard_normal(grid16.node_count))
            b = grid16.function(rng.standard_normal(grid16.node_count))
            c = rng.standard_normal()
            assert norm(grid16.function(c * a.values)) == pytest.approx(
                abs(c) * norm(a), rel=1e-10, abs=1e-12)
            assert norm(grid16.function(a.values + b.values)) <= norm(a) + norm(b) + 1e-10


def test_error_bundle_zero_for_exact_reconstruction(grid16):
    from fluoinv.stochastic import sample_points

    rng = np.random.default_rng(2)
    u = grid16.function(1.0 + rng.random(grid16.node_count))
    meas = fv.MeasurementSet(fv.PointEvaluation(grid16, sample_points(2, 50, seed=3)),
                             np.zeros(50))
    b = fv.error_bundle(meas=meas, sf=u, sf_true=u, f=u, f_true=u, q=u, q_true=u)
    assert (b.err1, b.err2, b.err3, b.err4, b.err5) == (0.0,) * 5


def test_error_bundle_scale_invariance(grid16):
    rng = np.random.default_rng(3)
    truth = grid16.function(1.0 + rng.random(grid16.node_count))
    rec = grid16.function(truth.values + 0.1 * rng.standard_normal(grid16.node_count))
    b1 = fv.error_bundle(f=rec, f_true=truth, q=rec, q_true=truth)
    rec10, truth10 = (grid16.function(10.0 * u.values) for u in (rec, truth))
    b10 = fv.error_bundle(f=rec10, f_true=truth10, q=rec10, q_true=truth10)
    for key in ("err2", "err3", "err4", "err5"):
        assert getattr(b10, key) == pytest.approx(getattr(b1, key), abs=1e-12)
    assert b1.err1 is None and b10.err1 is None


def test_error_bundle_partial_and_degenerate(grid16):
    rng = np.random.default_rng(4)
    u = grid16.function(rng.random(grid16.node_count))
    b = fv.error_bundle(q=u, q_true=grid16.function(np.ones(grid16.node_count)))
    assert (b.err1, b.err2, b.err3) == (None, None, None)
    assert b.err4 is not None and b.err5 is not None
    with pytest.raises(ValueError):
        fv.error_bundle(f=u, f_true=grid16.zeros())
