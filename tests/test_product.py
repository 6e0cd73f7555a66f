import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from prodhardy import journe, product
from prodhardy import (ProductCoefficients, ProductSpace, building_blocks, cmo_p,
                       double_center, hp_seminorm, inverse_product_transform, product_transform,
                       square_function)
from prodhardy.cli import _default_space
from prodhardy.oracles import cmo_p_exhaustive

import per_cube
from blocks import block_square_function
from conftest import layer_cake_ratio, line_space, rectangle_mask, wavelet_rectangle
from strategies import CHECK, decade_spaces, inexact_spaces, instances, spaces


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


def test_weights_are_built_once_and_read_only(pspace8):
    w = pspace8.weights
    assert w is pspace8.weights
    assert w.tobytes() == np.outer(pspace8.x1.weight, pspace8.x2.weight).tobytes()
    with pytest.raises(ValueError):
        w[0, 0] = 2.0


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
    c1, c2 = wavelet_rectangle(pspace8, 1, 2)
    mask = rectangle_mask(pspace8, c1, c2)
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
    c1, c2 = wavelet_rectangle(pspace8, 0, 0)
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
        assert 0.5 <= layer_cake_ratio(pspace8, sf) <= 2.0


def test_hp_p_range(pspace8):
    with pytest.raises(ValueError):
        hp_seminorm(pspace8, np.zeros(pspace8.shape), 1.5)


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
    c1, c2 = wavelet_rectangle(pspace8, 1, 2)
    mu = c1.measure * c2.measure
    got = cmo_p(pspace8, co, 1.0)
    # the optimum is the rectangle itself: mu^(1-2) * 1 under the square root
    assert got == pytest.approx(mu ** -0.5, rel=1e-12)


def test_cmo_zero(pspace8):
    co = product_transform(pspace8, np.zeros(pspace8.shape))
    assert cmo_p(pspace8, co, 1.0) == 0.0


def rectangle_value(ps, co, c1, c2, p):
    """The candidate value of the single rectangle c1 x c2: (mu^(1-2/p) times
    the energy of the wavelet rectangles inside it)^(1/2), pair by pair."""
    mask = rectangle_mask(ps, c1, c2)
    energy = sum(float(co.ww[i, j]) ** 2
                 for i in range(co.n_wav[0]) for j in range(co.n_wav[1])
                 if mask[rectangle_mask(ps, *wavelet_rectangle(ps, i, j))].all())
    return math.sqrt((c1.measure * c2.measure) ** (1.0 - 2.0 / p) * energy)


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
        single_best = max(rectangle_value(ps, co, c1, c2, 1.0)
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


@CHECK
@given(st.one_of(instances(), instances(inexact_spaces()), instances(decade_spaces())),
       st.sampled_from([0.6, 1.0]), st.sampled_from([1.0, 0.2]), st.integers(0, 2 ** 32 - 1))
def test_cmo_matches_the_all_pairs_oracle(instance, p, density, seed):
    """Dense coefficients and sparse ones, whose few energy rectangles make
    every union of them a candidate on larger grids too."""
    ps, _ = instance
    rng = np.random.default_rng(seed)
    co = product_transform(ps, ps.random_function(rng))
    co.matrix[rng.random(co.matrix.shape) >= density] = 0.0
    assert cmo_p(ps, co, p) == pytest.approx(per_cube.cmo_p(ps, co, p), rel=1e-12, abs=0.0)


def test_cmo_on_the_built_in_line_matches_the_all_pairs_oracle():
    ps = ProductSpace(_default_space(), _default_space(), delta=0.99)
    assert [(s.n_cubes(), len(s.tops)) for s in ps.systems] == [(580, 14)] * 2
    co = product_transform(ps, ps.random_function(np.random.default_rng(0)))
    assert cmo_p(ps, co, 1.0) == pytest.approx(per_cube.cmo_p(ps, co, 1.0), rel=1e-12)


def test_cmo_unions_in_several_stacks_keep_the_value(monkeypatch):
    ps = ProductSpace(line_space([0.0, 1.0, 2.0]), line_space([0.0, 1.0, 2.0, 3.0]), delta=0.5)
    co = product_transform(ps, ps.random_function(np.random.default_rng(8)))
    want = cmo_p(ps, co, 1.0)
    stacks, inside = [], journe._inside

    def counted(pspace, masks, rows1, rows2):
        stacks.append(len(masks))
        return inside(pspace, masks, rows1, rows2)

    monkeypatch.setattr(journe, "_inside", counted)
    monkeypatch.setattr(product, "SUM_BATCH", 2 * 12)      # two masks of the 3 x 4 grid
    assert cmo_p(ps, co, 1.0) == want
    assert max(stacks) == 2 and stacks.count(2) > 1


@pytest.mark.parametrize("batch", [product.SUM_BATCH, 3 * 12])    # 3 x 4 masks a stack
@pytest.mark.parametrize("m", range(1, 7))
def test_unions_are_the_unions_of_every_combination(m, batch, monkeypatch):
    ps = ProductSpace(line_space([0.0, 1.0, 2.0]), line_space([0.0, 1.0, 2.0, 3.0]), delta=0.5)
    rects = np.random.default_rng(m).random((m, *ps.shape)) < 0.3
    monkeypatch.setattr(product, "SUM_BATCH", batch)
    for max_size in range(1, m + 2):
        got = [u.tobytes() for stack in journe._unions(ps, rects, max_size) for u in stack]
        want = [rects[list(c)].any(axis=0).tobytes() for r in range(1, min(max_size, m) + 1)
                for c in itertools.combinations(range(m), r)]
        assert sorted(got) == sorted(want)


def test_cmo_takes_an_l_shaped_union_of_maximal_rectangles(pspace8, monkeypatch):
    """Energy 1 on Q x X2 and on X1 x Q: the support's maximal rectangles
    are the two arms, and their union beats every single rectangle (p = 1:
    2/mu(L) against 1/mu(arm) and 2/mu(X)).  With the all-unions candidates
    cut to one rectangle, the unions of maximal rectangles still find it.
    The two factors of pspace8 share one system and basis."""
    s1 = pspace8.systems[0]
    b1 = pspace8.bases[0]
    rows = b1.cube_rows
    small = int(np.argmin(s1.sizes[rows]))                  # a wavelet on a small cube Q
    root = int(np.flatnonzero(rows == 0)[0])                # a wavelet on the whole line
    matrix = np.zeros(pspace8.shape)
    matrix[small, root] = matrix[root, small] = 1.0
    co = ProductCoefficients(matrix=matrix, n_wav=(b1.n_wavelets, b1.n_wavelets))
    q = s1.incidence[rows[small]] > 0
    arms = np.zeros(pspace8.shape, dtype=bool)
    arms[q, :] = arms[:, q] = True
    want = math.sqrt(2.0 / pspace8.set_measure(arms))
    assert cmo_p(pspace8, co, 1.0) == pytest.approx(want, rel=1e-12)
    monkeypatch.setattr(journe, "CMO_MICRO_LIMIT", 1)
    assert cmo_p(pspace8, co, 1.0) == pytest.approx(want, rel=1e-12)
    monkeypatch.setattr(journe, "CMO_MAX_UNION", 1)
    assert cmo_p(pspace8, co, 1.0) < want


def test_cmo_with_a_one_point_factor_is_zero():
    ps = ProductSpace(line_space([0.0]), line_space([0.0, 1.0, 2.0]), delta=0.5)
    co = product_transform(ps, np.arange(3.0)[None, :])
    assert co.n_wav[0] == 0
    assert cmo_p(ps, co, 1.0) == 0.0


def factor_blocks(pspace, factor, gamma, cbar):
    """kappa and the block array of each wavelet of one factor."""
    basis = pspace.bases[factor]
    return [building_blocks(basis.space, w, gamma, cbar) for w in basis.wavelets]


def test_block_square_function_zero(pspace8):
    g1, g2 = pspace8.x1.omega + 1, pspace8.x2.omega + 1
    blocks1 = [phi for _, phi in factor_blocks(pspace8, 0, g1, 2.0)]
    blocks2 = [phi for _, phi in factor_blocks(pspace8, 1, g2, 2.0)]
    vals, rep = block_square_function(pspace8, np.zeros(pspace8.shape),
                                      blocks1, blocks2, 0, 0)
    assert not vals.any() and rep["ratio"] == 0.0


def test_block_square_function_single_block_reduction(micro22):
    # cbar large enough that every block series has length 1 (L = 0)
    cb = 16.0
    g1 = micro22.x1.omega + 1.0
    g2 = micro22.x2.omega + 1.0
    (kappa1, phi1), = factor_blocks(micro22, 0, g1, cb)
    (kappa2, phi2), = factor_blocks(micro22, 1, g2, cb)
    assert len(phi1) == len(phi2) == 1
    rng = np.random.default_rng(9)
    g = rng.standard_normal(micro22.shape)
    vals, rep = block_square_function(micro22, g, [phi1], [phi2], 0, 0)
    # phi_0 = cbar^gamma psi/kappa, so the values are the ordinary square
    # function of the kappa-normalized coefficients scaled by cbar^(g1+g2)
    co = product_transform(micro22, g)
    c1, c2 = wavelet_rectangle(micro22, 0, 0)
    s2 = ((co.ww[0, 0] / (kappa1 * kappa2)) ** 2 / (c1.measure * c2.measure)
          * rectangle_mask(micro22, c1, c2))
    expect = cb ** g1 * cb ** g2 * np.sqrt(s2)
    np.testing.assert_allclose(vals, expect, rtol=1e-10)
    assert math.isfinite(rep["ratio"])


def test_block_square_function_random_ratio(pspace8):
    g1, g2 = pspace8.x1.omega + 1, pspace8.x2.omega + 1
    blocks1 = [phi for _, phi in factor_blocks(pspace8, 0, g1, 2.0)]
    blocks2 = [phi for _, phi in factor_blocks(pspace8, 1, g2, 2.0)]
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
    # a stack rescales only the grids whose squares overflow
    g = 1e160 * rng.standard_normal(pspace8.shape)
    both = product_transform(pspace8, np.stack([g, g * 1e-160])).channel_norms()
    alone = [product_transform(pspace8, h).channel_norms() for h in (g, g * 1e-160)]
    for c in ("ww", "ws", "sw", "ss"):
        assert both[c].shape == (2,)
        assert both[c].tolist() == [alone[0][c], alone[1][c]]


def test_coefficient_entries_export(pspace8):
    f = product_pair(pspace8, 2, 4) + 0.5 * product_pair(pspace8, 0, 1)
    co = product_transform(pspace8, f)
    # the ww channel holds the two wavelet pairs, and nothing else
    entries = {(int(i), int(j)): float(co.ww[i, j]) for i, j in np.argwhere(np.abs(co.ww) > 1e-12)}
    assert entries == {(0, 1): pytest.approx(0.5), (2, 4): pytest.approx(1.0)}


def test_shape_mismatch(pspace8):
    with pytest.raises(ValueError):
        product_transform(pspace8, np.zeros((3, 3)))


@pytest.mark.parametrize("shape", [(4, 5, 3), (3,), (15,)],
                         ids=["transposed-stack", "one-axis", "flattened"])
def test_transforms_check_the_trailing_axes(shape):
    # on a 3 x 5 grid a stack of 5 x 3 grids is not a stack of functions,
    # and neither is a 1-D array that broadcasts against a grid axis
    ps = ProductSpace(line_space(np.arange(3.0)), line_space(np.arange(5.0)), delta=0.5)
    bad = np.zeros(shape)
    expected = r"expected grid shape \(3, 5\)"
    with pytest.raises(ValueError, match=expected):
        product_transform(ps, bad)
    with pytest.raises(ValueError, match=expected):
        hp_seminorm(ps, bad, 1.0)
    with pytest.raises(ValueError, match=expected):
        inverse_product_transform(ps, ProductCoefficients(bad, (2, 4)))
