import gc
import json
import math
import re
import tracemalloc
import weakref

import numpy as np
import pytest

from prodhardy import (OpenSet, ProductSpace, ell_enlarge, enlarge, epsilon0,
                       level_sets, strong_maximal)
import prodhardy.maximal as maximal_mod
from prodhardy.dyadic import dilate_mask
from prodhardy.maximal import MAX_PAIRS, rectangles_inside
from prodhardy.oracles import rectangles_inside_exhaustive, strong_maximal_exhaustive

from conftest import cube, layer_cake_ratio, line_space, rectangle_mask


def test_strong_maximal_of_constant(micro22):
    g = np.full(micro22.shape, 2.5)
    np.testing.assert_allclose(strong_maximal(micro22, g), 2.5, atol=1e-14)


def test_strong_maximal_dominates_pointwise(pspace8):
    rng = np.random.default_rng(0)
    g = rng.standard_normal(pspace8.shape)
    ms = strong_maximal(pspace8, g)
    assert (ms >= np.abs(g) - 1e-14).all()


def test_strong_maximal_point_indicator_oracle(micro22):
    # 3 realized balls per 2-point factor -> 9 ball pairs per grid point
    from prodhardy.maximal import realized_ball_masks
    assert len(realized_ball_masks(micro22.x1)) == 3
    g = np.zeros(micro22.shape)
    g[0, 1] = 1.0
    oracle = strong_maximal_exhaustive(micro22, g)
    got = strong_maximal(micro22, g)
    np.testing.assert_allclose(got, oracle, atol=0)
    # frozen from the exhaustive oracle
    np.testing.assert_allclose(oracle, [[0.5, 1.0], [0.25, 0.5]], atol=0)


def test_strong_maximal_matches_oracle_on_micro_instances():
    spaces = [(line_space([0.0, 1.0]), line_space([0.0, 1.0, 2.5])),
              (line_space([0.0, 1.0, 2.0]), line_space([0.0, 2.0, 3.0, 7.0]))]
    rng = np.random.default_rng(1)
    for x1, x2 in spaces:
        ps = ProductSpace(x1, x2, delta=0.5)
        for _ in range(3):
            g = rng.standard_normal(ps.shape)
            np.testing.assert_allclose(strong_maximal(ps, g),
                                       strong_maximal_exhaustive(ps, g), atol=1e-14)


def test_strong_maximal_sublinear_monotone(pspace8):
    rng = np.random.default_rng(2)
    f = rng.standard_normal(pspace8.shape)
    g = rng.standard_normal(pspace8.shape)
    mf, mg, mfg = (strong_maximal(pspace8, x) for x in (f, g, f + g))
    assert (mfg <= mf + mg + 1e-12).all()
    small = np.abs(f)
    big = small + np.abs(g)
    assert (strong_maximal(pspace8, small) <= strong_maximal(pspace8, big) + 1e-14).all()


def test_indicator_maximal_in_unit_interval(pspace8):
    mask = np.zeros(pspace8.shape, dtype=bool)
    mask[2:4, 1:5] = True
    ms = strong_maximal(pspace8, mask.astype(float))
    assert (ms >= 0).all() and (ms <= 1 + 1e-14).all()


def test_ball_cache_dies_with_its_space():
    # the realized balls are stored on the space, not in a module-level table
    space = line_space([0.0, 1.0, 3.0])
    ps = ProductSpace(space, space, delta=0.5)
    strong_maximal(ps, np.ones(ps.shape))
    ref = weakref.ref(space)
    del space, ps
    gc.collect()
    assert ref() is None


def test_epsilon0_formula(micro22):
    # both factors: a0 = 1, cmu = 2, omega = 1
    assert micro22.x1.cmu == 2.0 and micro22.x1.omega == 1.0
    assert epsilon0(micro22) == pytest.approx(1.0 / 10368.0, rel=1e-14)


def test_epsilon0_monotone_in_cmu(micro22, two_pt):
    heavier = line_space([0.0, 1.0], weights=[1.0, 7.0])   # cmu = 8
    assert heavier.cmu > two_pt.cmu
    ps2 = ProductSpace(two_pt, heavier, delta=0.5)
    assert epsilon0(ps2) < epsilon0(micro22)
    assert 0 < epsilon0(ps2) < 1


def test_epsilon0_underflow_named(tmp_path):
    from conftest import epsilon0_underflow_docs
    from prodhardy import load_space
    spaces = []
    for k, doc in enumerate(epsilon0_underflow_docs()):
        (tmp_path / f"{k}.json").write_text(json.dumps(doc))
        spaces.append(load_space(tmp_path / f"{k}.json"))
    ps = ProductSpace(*spaces, delta=0.5)
    expect = -math.log10(2.0) - sum(math.log10(x.cmu) + x.omega * math.log10(36.0 * x.a0 ** 9)
                                    for x in spaces)
    with pytest.raises(ValueError, match="not a positive normal float") as err:
        epsilon0(ps)
    got = float(re.search(r"epsilon0 = 10\^(\S+) ", str(err.value)).group(1))
    assert got == pytest.approx(expect, abs=1e-3) and got < math.log10(np.finfo(float).tiny)
    for x in spaces:
        assert f"a0 = {x.a0!r}, cmu = {x.cmu!r}, omega = {x.omega!r}" in str(err.value)


def test_enlarge_full_and_empty(pspace8):
    full = OpenSet.from_mask(pspace8, np.ones(pspace8.shape, dtype=bool))
    assert enlarge(pspace8, full, 0.5).measure == pspace8.total_measure()
    empty = OpenSet.from_mask(pspace8, np.zeros(pspace8.shape, dtype=bool))
    assert enlarge(pspace8, empty, 0.5).is_empty()


def test_enlarge_contains_and_nests(pspace8):
    rng = np.random.default_rng(3)
    for _ in range(5):
        om = OpenSet.from_mask(pspace8, rng.random(pspace8.shape) < 0.3)
        big = enlarge(pspace8, om, 0.25)
        small = enlarge(pspace8, om, 0.75)
        assert (om.mask <= big.mask).all()
        assert (small.mask <= big.mask).all()     # eps >= eps' nests


def test_enlarge_single_point_via_oracle(micro22):
    mask = np.zeros(micro22.shape, dtype=bool)
    mask[0, 1] = True
    om = OpenSet.from_mask(micro22, mask)
    eps = epsilon0(micro22)
    ms = strong_maximal_exhaustive(micro22, om.mask.astype(float))
    expect = ms > eps
    got = enlarge(micro22, om, eps)
    np.testing.assert_array_equal(got.mask, expect)
    assert got.mask.all()      # tiny eps0 swallows the whole 2x2 grid


@pytest.mark.parametrize("weights", ["unit", "decimal"])
def test_enlarge_equals_the_maximal_function_on_both_sides_of_the_ratio(monkeypatch, weights):
    # mu(Omega)/mu(X) bounds M_s chi_Omega below: eps under it (past the
    # rounding margin) gives the whole grid without strong_maximal; eps
    # within 1e-15 of it, or above it, is decided by strong_maximal
    w = None if weights == "unit" else [0.1, 0.2, 0.3, 0.7, 0.1, 0.3, 0.2, 0.7]
    space = line_space(np.arange(8.0), w)
    ps = ProductSpace(space, space, delta=0.25)
    oracle = maximal_mod.strong_maximal
    calls = []
    monkeypatch.setattr(maximal_mod, "strong_maximal",
                        lambda *a: calls.append(1) or oracle(*a))
    rng = np.random.default_rng(8)
    for _ in range(10):
        om = OpenSet.from_mask(ps, rng.random(ps.shape) < rng.uniform(0.05, 0.6))
        if om.is_empty():
            continue
        ratio = om.measure / ps.total_measure()
        ms = oracle(ps, om.mask.astype(float))
        for factor in (1e-6, 0.5, 1.0 - 1e-15, 1.0 + 1e-15, 1.5, rng.uniform(0.1, 3.0)):
            eps = ratio * factor
            if not 0 < eps < 1:
                continue
            calls.clear()
            got = enlarge(ps, om, eps)
            np.testing.assert_array_equal(got.mask, ms > eps)
            assert got.measure == OpenSet.from_mask(ps, ms > eps).measure
            assert len(calls) == (0 if factor < 1.0 - 1e-12 else 1), factor


def test_weak_type_certificate(pspace8):
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(20):
        om = OpenSet.from_mask(pspace8, rng.random(pspace8.shape) < 0.2)
        if om.is_empty():
            continue
        for eps in (0.3, 0.6):
            til = enlarge(pspace8, om, eps)
            worst = max(worst, til.measure * eps ** 2 / om.measure)
    assert math.isfinite(worst) and worst > 0


def test_rectangles_inside_names_too_many_pairs_before_it_allocates():
    # the built-in 8-point line at delta 0.999 has 5695 cubes per factor:
    # its pair table would hold 5695^2 ~ 32.4M floats, 259 MB
    x = line_space(np.arange(8.0))
    ps = ProductSpace(x, x, delta=0.999)
    om = OpenSet.from_mask(ps, np.ones(ps.shape, dtype=bool))
    assert ps.systems[0].n_cubes() ** 2 > MAX_PAIRS
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"5695 x 5695 = 32433025 cube pairs"):
            rectangles_inside(ps, om)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2 ** 20


def test_ell_enlarge_zero_is_outer_ball_union(pspace8):
    rng = np.random.default_rng(5)
    om = OpenSet.from_mask(pspace8, rng.random(pspace8.shape) < 0.4)
    out = ell_enlarge(pspace8, om, 0, 0, 1.0, 1.0)
    assert (om.mask <= out.mask).all()
    # oracle: union of outer-ball products over contained rectangles
    expect = np.zeros(pspace8.shape, dtype=bool)
    for c1, c2 in rectangles_inside_exhaustive(pspace8, om):
        expect |= np.outer(dilate_mask(pspace8.systems[0], c1, 1.0),
                           dilate_mask(pspace8.systems[1], c2, 1.0))
    np.testing.assert_array_equal(out.mask, expect)


def test_ell_enlarge_empty(pspace8):
    empty = OpenSet.from_mask(pspace8, np.zeros(pspace8.shape, dtype=bool))
    out = ell_enlarge(pspace8, empty, 1, 0, 2.0, 1.0)
    assert out.is_empty()


def test_ell_enlarge_one_rectangle_dilate_oracle(pspace8):
    c1 = cube(pspace8.systems[0], -1, 0)
    c2 = cube(pspace8.systems[1], 0, 3)
    om = OpenSet.from_mask(pspace8, rectangle_mask(pspace8, c1, c2))
    out = ell_enlarge(pspace8, om, 1, 0, 2.0, 1.0)
    # membership oracle for the widest contributing dilate
    s1, s2 = pspace8.systems
    expect = np.zeros(pspace8.shape, dtype=bool)
    for d1, d2 in rectangles_inside_exhaustive(pspace8, om):
        r1 = 2.0 * s1.outer_eff * d1.side
        r2 = 1.0 * s2.outer_eff * d2.side
        expect |= np.outer(pspace8.x1.dist[d1.center] < r1,
                           pspace8.x2.dist[d2.center] < r2)
    np.testing.assert_array_equal(out.mask, expect)
    assert (om.mask <= out.mask).all()


def test_level_sets_zero(pspace8):
    assert level_sets(pspace8, np.zeros(pspace8.shape)) == {}
    assert layer_cake_ratio(pspace8, np.zeros(pspace8.shape)) == 1.0


def test_level_sets_constant_one(pspace8):
    sets = level_sets(pspace8, np.ones(pspace8.shape))
    assert list(sets) == [-1]
    assert sets[-1].measure == pspace8.total_measure()


def test_level_sets_nested_and_bracketed(pspace8):
    rng = np.random.default_rng(7)
    for _ in range(10):
        sf = np.abs(rng.standard_normal(pspace8.shape))
        sets = level_sets(pspace8, sf)
        js = list(sets)
        assert js == sorted(js)
        for a, b in zip(js, js[1:]):
            assert (sets[b].mask <= sets[a].mask).all()
        assert 0.5 <= layer_cake_ratio(pspace8, sf) <= 2.0


def test_level_sets_rejects_negative(pspace8):
    with pytest.raises(ValueError):
        level_sets(pspace8, -np.ones(pspace8.shape))
