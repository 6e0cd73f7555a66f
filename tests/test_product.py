import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from prodhardy import (ProductSpace, block_square_function, building_blocks,
                       cmo_p, cmo_p_exhaustive, double_center, hp_seminorm,
                       inverse_product_transform, level_sets, product_transform,
                       square_function)

from conftest import line_space
from strategies import CHECK, spaces


def product_pair(pspace, i, j):
    """f = psi_i x psi_j as a grid function."""
    return np.outer(pspace.bases[0].wavelets[i].values,
                    pspace.bases[1].wavelets[j].values)


def test_transform_of_product_wavelet(pspace8):
    f = product_pair(pspace8, 2, 4)
    co = product_transform(pspace8, f)
    expect = np.zeros(pspace8.shape)
    expect[2, 4] = 1.0
    np.testing.assert_allclose(co.matrix, expect, atol=1e-12)


def test_transform_of_constant_hits_scaling_only(pspace8):
    co = product_transform(pspace8, np.full(pspace8.shape, 3.7))
    norms = co.channel_norms()
    assert norms["ww"] < 1e-12 and norms["ws"] < 1e-12 and norms["sw"] < 1e-12
    assert norms["ss"] > 0


def test_parseval_and_inverse(pspace8):
    rng = np.random.default_rng(7)
    for _ in range(100):
        f = rng.standard_normal(pspace8.shape)
        co = product_transform(pspace8, f)
        f2 = float(((f ** 2) * pspace8.weights).sum())
        assert abs(float((co.matrix ** 2).sum()) - f2) <= 1e-10 * f2
        back = inverse_product_transform(pspace8, co)
        assert pspace8.lq_norm(back - f, 2.0) <= 1e-10 * math.sqrt(f2)


def test_pairing_against_double_sum_oracle(pspace8):
    rng = np.random.default_rng(3)
    f = rng.standard_normal(pspace8.shape)
    co = product_transform(pspace8, f)
    w1, w2 = pspace8.x1.weight, pspace8.x2.weight
    for (i, j) in [(0, 0), (3, 5), (6, 1)]:
        psi = product_pair(pspace8, i, j)
        direct = sum(f[a, b] * psi[a, b] * w1[a] * w2[b]
                     for a in range(8) for b in range(8))
        assert co.matrix[i, j] == pytest.approx(direct, rel=1e-12)


def test_square_function_single_pair(pspace8):
    f = product_pair(pspace8, 1, 2)
    co = product_transform(pspace8, f)
    sf = square_function(pspace8, co)
    c1, c2 = pspace8.wavelet_rectangle(1, 2)
    mask = pspace8.rectangle_mask(c1, c2)
    mu = c1.measure * c2.measure
    np.testing.assert_allclose(sf, mask / math.sqrt(mu), atol=1e-12)
    assert pspace8.lq_norm(sf, 2.0) == pytest.approx(1.0, abs=1e-12)


def test_square_function_zero(pspace8):
    co = product_transform(pspace8, np.zeros(pspace8.shape))
    assert not square_function(pspace8, co).any()


def test_square_function_plancherel(pspace8):
    rng = np.random.default_rng(1)
    for _ in range(100):
        f = pspace8.random_function(rng)
        sf = square_function(pspace8, product_transform(pspace8, f))
        fn = pspace8.lq_norm(f, 2.0)
        assert abs(pspace8.lq_norm(sf, 2.0) - fn) <= 1e-10 * fn


def test_square_function_monotone_under_coefficient_removal(pspace8):
    rng = np.random.default_rng(2)
    f = pspace8.random_function(rng)
    co = product_transform(pspace8, f)
    sf = square_function(pspace8, co)
    co.matrix[:3, :] = 0.0
    sf_less = square_function(pspace8, co)
    assert (sf_less <= sf + 1e-15).all()


def test_hp_seminorm_single_pair(pspace8):
    f = product_pair(pspace8, 0, 0)
    c1, c2 = pspace8.wavelet_rectangle(0, 0)
    expect = math.sqrt(c1.measure * c2.measure)
    assert hp_seminorm(pspace8, f, 1.0) == pytest.approx(expect, rel=1e-12)


def test_hp_seminorm_homogeneous(pspace8):
    rng = np.random.default_rng(4)
    f = pspace8.random_function(rng)
    for p in (0.8, 1.0):
        base = hp_seminorm(pspace8, f, p)
        assert hp_seminorm(pspace8, 3.0 * f, p) == pytest.approx(3.0 * base, rel=1e-12)


def test_hp_seminorm_layer_cake_bracket(pspace8):
    rng = np.random.default_rng(5)
    for _ in range(10):
        f = pspace8.random_function(rng)
        sf = square_function(pspace8, product_transform(pspace8, f))
        _, rep = level_sets(pspace8, sf, p=1.0)
        assert 0.5 <= rep["ratio"] <= 2.0


def test_hp_p_range_and_warning(pspace8):
    with pytest.raises(ValueError):
        hp_seminorm(pspace8, np.zeros(pspace8.shape), 1.5)
    warns = []
    hp_seminorm(pspace8, np.zeros(pspace8.shape), min(0.5, pspace8.p0), warn=warns)
    assert warns and "p0" in warns[0]


def test_lp_below_hp_measured_constant(pspace8):
    rng = np.random.default_rng(6)
    for p in (0.8, 1.0):
        worst = 0.0
        for _ in range(50):
            f = pspace8.random_function(rng)
            lp = float(((np.abs(f) ** p) * pspace8.weights).sum() ** (1 / p))
            worst = max(worst, lp / hp_seminorm(pspace8, f, p))
        assert math.isfinite(worst) and worst > 0


def test_cmo_single_pair(pspace8):
    f = product_pair(pspace8, 1, 2)
    co = product_transform(pspace8, f)
    c1, c2 = pspace8.wavelet_rectangle(1, 2)
    mu = c1.measure * c2.measure
    got = cmo_p(pspace8, co, 1.0)
    # the optimum is the rectangle itself: mu^(1-2) * 1 under the square root
    assert got == pytest.approx(mu ** -0.5, rel=1e-12)


def test_cmo_zero(pspace8):
    co = product_transform(pspace8, np.zeros(pspace8.shape))
    assert cmo_p(pspace8, co, 1.0) == 0.0


def test_cmo_candidate_vs_exhaustive_micro():
    s3 = line_space([0.0, 1.0, 2.0])
    s4 = line_space([0.0, 1.0, 2.0, 3.0])
    ps = ProductSpace(s3, s4, delta=0.5)
    rng = np.random.default_rng(8)
    for _ in range(5):
        f = ps.random_function(rng)
        co = product_transform(ps, f)
        cand = cmo_p(ps, co, 1.0)
        exact = cmo_p_exhaustive(ps, co, 1.0)
        single_best = max(
            cmo_p(ps, co, 1.0, candidates=[ps.rectangle_mask(c1, c2)])
            for c1 in ps.systems[0].all_cubes() for c2 in ps.systems[1].all_cubes())
        assert single_best <= cand + 1e-12
        assert cand == pytest.approx(exact, rel=1e-10)


@CHECK
@given(spaces(), spaces(), st.sampled_from([0.25, 0.5, 0.9]), st.sampled_from([0.6, 1.0]),
       st.integers(0, 2 ** 32 - 1))
def test_cmo_matches_exhaustive_on_micro_products(x1, x2, delta, p, seed):
    assume(x1.n * x2.n <= 12)
    ps = ProductSpace(x1, x2, delta=delta)
    co = product_transform(ps, ps.random_function(np.random.default_rng(seed)))
    assert cmo_p(ps, co, p) == pytest.approx(cmo_p_exhaustive(ps, co, p), rel=1e-10)


def test_cmo_rejects_empty_candidate(pspace8):
    co = product_transform(pspace8, np.zeros(pspace8.shape))
    with pytest.raises(ValueError, match="empty candidate"):
        cmo_p(pspace8, co, 1.0, candidates=[np.zeros(pspace8.shape, dtype=bool)])


def test_block_square_function_zero(pspace8):
    g1, g2 = pspace8.x1.omega + 1, pspace8.x2.omega + 1
    blocks1 = [building_blocks(pspace8.x1, w, g1, 2.0) for w in pspace8.bases[0].wavelets]
    blocks2 = [building_blocks(pspace8.x2, w, g2, 2.0) for w in pspace8.bases[1].wavelets]
    vals, rep = block_square_function(pspace8, np.zeros(pspace8.shape),
                                      blocks1, blocks2, 0, 0)
    assert not vals.any() and rep["ratio"] == 0.0


def test_block_square_function_single_block_reduction(micro22):
    # cbar large enough that every block series has length 1 (L = 0)
    cb = 16.0
    g1 = micro22.x1.omega + 1.0
    g2 = micro22.x2.omega + 1.0
    blocks1 = [building_blocks(micro22.x1, w, g1, cb) for w in micro22.bases[0].wavelets]
    blocks2 = [building_blocks(micro22.x2, w, g2, cb) for w in micro22.bases[1].wavelets]
    assert all(b.n_blocks == 1 for b in blocks1 + blocks2)
    rng = np.random.default_rng(9)
    g = rng.standard_normal(micro22.shape)
    vals, rep = block_square_function(micro22, g, blocks1, blocks2, 0, 0)
    # phi_0 = cbar^gamma psi/kappa, so the values are the ordinary square
    # function of the kappa-normalized coefficients scaled by cbar^(g1+g2)
    co = product_transform(micro22, g)
    s2 = np.zeros(micro22.shape)
    for i in range(1):
        for j in range(1):
            c1, c2 = micro22.wavelet_rectangle(i, j)
            kap = blocks1[i].kappa * blocks2[j].kappa
            s2 += ((co.ww[i, j] / kap) ** 2 / (c1.measure * c2.measure)
                   * micro22.rectangle_mask(c1, c2))
    expect = cb ** g1 * cb ** g2 * np.sqrt(s2)
    np.testing.assert_allclose(vals, expect, rtol=1e-10)
    assert math.isfinite(rep["ratio"])


def test_block_square_function_random_ratio(pspace8):
    g1, g2 = pspace8.x1.omega + 1, pspace8.x2.omega + 1
    blocks1 = [building_blocks(pspace8.x1, w, g1, 2.0) for w in pspace8.bases[0].wavelets]
    blocks2 = [building_blocks(pspace8.x2, w, g2, 2.0) for w in pspace8.bases[1].wavelets]
    rng = np.random.default_rng(10)
    g = rng.standard_normal(pspace8.shape)
    for (l1, l2) in [(0, 0), (1, 0), (1, 2)]:
        vals, rep = block_square_function(pspace8, g, blocks1, blocks2, l1, l2)
        assert math.isfinite(rep["ratio"]) and (vals >= 0).all()


def test_double_center_kills_mixed_channels(pspace8):
    rng = np.random.default_rng(11)
    f = double_center(pspace8, rng.standard_normal(pspace8.shape))
    norms = product_transform(pspace8, f).channel_norms()
    assert norms["ws"] <= 1e-12 * norms["ww"]
    assert norms["sw"] <= 1e-12 * norms["ww"]
    assert norms["ss"] <= 1e-12 * norms["ww"]


def test_channel_norms_without_overflow(pspace8):
    rng = np.random.default_rng(11)
    co = product_transform(pspace8, rng.standard_normal(pspace8.shape))
    norms = co.channel_norms()
    for c in ("ww", "ws", "sw", "ss"):          # finite sums of squares: the plain formula
        assert norms[c] == float(np.sqrt((getattr(co, c) ** 2).sum()))
    huge = product_transform(pspace8, 1e160 * rng.standard_normal(pspace8.shape))
    with warnings.catch_warnings():
        warnings.simplefilter("error")             # squares past 1.8e308 must not warn
        big = huge.channel_norms()
    for c in ("ww", "ws", "sw", "ss"):
        expect = 1e160 * float(np.sqrt(((getattr(huge, c) / 1e160) ** 2).sum()))
        assert big[c] == pytest.approx(expect, rel=1e-12)


def test_coefficient_entries_export(pspace8):
    f = product_pair(pspace8, 2, 4) + 0.5 * product_pair(pspace8, 0, 1)
    co = product_transform(pspace8, f)
    entries = dict(co.entries(pspace8, tol=1e-12))
    w1 = pspace8.bases[0].wavelets
    w2 = pspace8.bases[1].wavelets
    assert entries[w1[2].id + w2[4].id] == pytest.approx(1.0)
    assert entries[w1[0].id + w2[1].id] == pytest.approx(0.5)
    assert len(entries) == 2


def test_shape_mismatch(pspace8):
    with pytest.raises(ValueError):
        product_transform(pspace8, np.zeros((3, 3)))
