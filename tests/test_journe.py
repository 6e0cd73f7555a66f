import math

import numpy as np
import pytest

from prodhardy import OpenSet, ProductSpace, journe_check, maximal_rectangles
from prodhardy.oracles import stretch_exhaustive

from conftest import cube, flat, key, line_space, member_mask, rectangle_mask


def maximal_oracle(pspace, omega):
    """Brute-force containment scan, independent of the module's filtering."""
    s1, s2 = pspace.systems
    inside = []
    for c1 in s1.all_cubes():
        for c2 in s2.all_cubes():
            if omega.mask[np.ix_(c1.members, c2.members)].all():
                inside.append((c1, c2))
    keys = {(key(c1), key(c2)) for c1, c2 in inside}

    def parent_of(cube):
        return None if cube.parent is None else (cube.level - 1, cube.parent)

    out = set()
    for c1, c2 in inside:
        p1, p2 = parent_of(c1), parent_of(c2)
        grow1 = p1 is not None and (p1, key(c2)) in keys
        grow2 = p2 is not None and (key(c1), p2) in keys
        if not grow1 and not grow2:
            out.add(key(c1) + key(c2))
    return out


def test_single_rectangle_families(pspace8):
    c1 = cube(pspace8.systems[0], -1, 0)
    c2 = cube(pspace8.systems[1], -1, 1)
    om = OpenSet.from_mask(pspace8, rectangle_mask(pspace8, c1, c2))
    fam = maximal_rectangles(pspace8, om, "both")
    assert fam.m_all == [key(c1) + key(c2)]
    assert len(fam.rows) == len(fam.cols) == len(fam.hat1) == len(fam.hat2) == 1


def test_empty_omega(pspace8):
    om = OpenSet.from_mask(pspace8, np.zeros(pspace8.shape, dtype=bool))
    fam = maximal_rectangles(pspace8, om, "both")
    assert not fam.m_all and not len(fam.hat1) and not len(fam.hat2)


def test_crossing_rectangles_match_oracle(canon):
    ps = ProductSpace(canon, canon, delta=0.25)
    s1, s2 = ps.systems
    # a vertical and a horizontal rectangle that cross
    vert = rectangle_mask(ps, cube(s1, -1, 0), cube(s2, -2, 0))
    horiz = rectangle_mask(ps, cube(s1, -2, 0), cube(s2, -1, 0))
    om = OpenSet.from_mask(ps, vert | horiz)
    fam = maximal_rectangles(ps, om, "both")
    assert set(fam.m_all) == maximal_oracle(ps, om)


def test_random_omegas_match_oracle(pspace8):
    rng = np.random.default_rng(0)
    for _ in range(5):
        om = OpenSet.from_mask(pspace8, rng.random(pspace8.shape) < 0.45)
        fam = maximal_rectangles(pspace8, om, "both")
        assert set(fam.m_all) == maximal_oracle(pspace8, om)


def test_every_contained_rectangle_is_covered(pspace8):
    rng = np.random.default_rng(1)
    s1, s2 = pspace8.systems
    for _ in range(3):
        om = OpenSet.from_mask(pspace8, rng.random(pspace8.shape) < 0.4)
        fam = maximal_rectangles(pspace8, om, "both")
        masks1, masks2 = ([member_mask(s, c) for c in s.all_cubes()] for s in (s1, s2))
        members = [(masks1[a], masks2[b]) for a, b in zip(fam.rows, fam.cols)]
        for m1 in masks1:
            for m2 in masks2:
                if not om.mask[np.ix_(m1, m2)].all():
                    continue
                assert any((m1 <= a).all() and (m2 <= b).all() for a, b in members)


def stretches(pspace, family, i):
    """The keys of Q2^ and Q1^, the stretches of the family's rectangle i."""
    s1, s2 = pspace.systems
    return s2.keys(family.hat2[i:i + 1])[0], s1.keys(family.hat1[i:i + 1])[0]


def stretch_rows(pspace, omega, family, i):
    """The flat rows of Q2^ and Q1^ of the family's rectangle i, by the oracle."""
    rect = (family.rows[i], family.cols[i])
    return (stretch_exhaustive(pspace, omega, rect, 1),
            stretch_exhaustive(pspace, omega, rect, 2))


def test_stretch_thin_omega_stays_put(pspace8):
    # omega exactly one rectangle whose factor-2 parent more than doubles it:
    # the half test fails at the parent, so the stretch stays at Q2
    s1, s2 = pspace8.systems
    c1 = cube(s1, -1, 0)
    c2 = cube(s2, 0, 0)         # a singleton inside a 4-point parent
    parent2 = cube(s2, -1, c2.parent)
    assert parent2.measure > 2.0 * c2.measure
    om = OpenSet.from_mask(pspace8, rectangle_mask(pspace8, c1, c2))
    fam = maximal_rectangles(pspace8, om, "both")
    assert fam.m_all == [key(c1) + key(c2)]
    assert stretches(pspace8, fam, 0)[0] == key(c2)
    assert stretch_rows(pspace8, om, fam, 0)[0] == fam.cols[0]


def test_stretch_full_grid_reaches_top(pspace8):
    om = OpenSet.from_mask(pspace8, np.ones(pspace8.shape, dtype=bool))
    fam = maximal_rectangles(pspace8, om, "both")
    assert len(fam.m_all) == 1
    s1, s2 = pspace8.systems
    assert stretches(pspace8, fam, 0) == ((s2.k_min, 0), (s1.k_min, 0))
    assert stretch_rows(pspace8, om, fam, 0) == (0, 0)


def test_stretch_ratio_range(pspace8):
    rng = np.random.default_rng(2)
    for _ in range(5):
        om = OpenSet.from_mask(pspace8, rng.random(pspace8.shape) < 0.35)
        if om.is_empty():
            continue
        fam = maximal_rectangles(pspace8, om, "both")
        for i, rect in enumerate(fam.m_all):
            k2 = rect[2]
            khat = stretches(pspace8, fam, i)[0][0]
            assert fam.hat2[i] == stretch_rows(pspace8, om, fam, i)[0]
            assert khat <= k2                      # l(Q2) <= l(Q2^)
            ratio = pspace8.systems[1].delta ** (k2 - khat)
            assert 0 < ratio <= 1


def test_stretch_of_a_single_rectangle_family(pspace8):
    c1 = cube(pspace8.systems[0], -1, 0)
    c2 = cube(pspace8.systems[1], -1, 1)
    om = OpenSet.from_mask(pspace8, rectangle_mask(pspace8, c1, c2))
    fam = maximal_rectangles(pspace8, om, "both")
    assert fam.m_all == [key(c1) + key(c2)]
    assert (fam.hat2[0], fam.hat1[0]) == stretch_rows(pspace8, om, fam, 0)


def test_journe_single_rectangle_constant_below_one(pspace8):
    c1 = cube(pspace8.systems[0], -1, 0)
    c2 = cube(pspace8.systems[1], -1, 1)
    om = OpenSet.from_mask(pspace8, rectangle_mask(pspace8, c1, c2))
    prev1, prev2 = math.inf, math.inf
    for rep in journe_check(pspace8, om, (0.5, 1.0, 2.0)):
        assert rep["C1"] <= 1.0 + 1e-12 and rep["C2"] <= 1.0 + 1e-12
        assert rep["C1"] <= prev1 + 1e-12 and rep["C2"] <= prev2 + 1e-12
        prev1, prev2 = rep["C1"], rep["C2"]


def test_journe_corpus_finite(pspace8):
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(20):
        mask = rng.random(pspace8.shape) < 0.4
        if not mask.any():
            continue
        om = OpenSet.from_mask(pspace8, mask)
        [rep] = journe_check(pspace8, om, (1.0,))
        worst = max(worst, rep["C1"], rep["C2"])
        assert math.isfinite(rep["C1"]) and math.isfinite(rep["C2"])
    assert worst > 0


def test_journe_check_of_several_exponents_is_each_single_call(pspace8):
    # certify reads all three exponents of a mask from one call
    rng = np.random.default_rng(5)
    for _ in range(10):
        om = OpenSet.from_mask(pspace8, rng.random(pspace8.shape) < 0.35)
        reports = journe_check(pspace8, om, (0.5, 1.0, 2.0))
        assert reports == [r for d in (0.5, 1.0, 2.0) for r in journe_check(pspace8, om, [d])]
    for deltas in ((1.0, 0.0), ()):
        with pytest.raises(ValueError, match="delta"):
            journe_check(pspace8, om, deltas)


def test_journe_weight_rescale_invariance(canon):
    rng = np.random.default_rng(4)
    mask = rng.random((4, 4)) < 0.5
    mask[0, 0] = True
    ps1 = ProductSpace(canon, canon, delta=0.25)
    scaled = line_space([0.0, 1.0, 2.0, 10.0], weights=[3.0] * 4)
    ps2 = ProductSpace(scaled, scaled, delta=0.25)
    [r1] = journe_check(ps1, OpenSet.from_mask(ps1, mask), (1.0,))
    [r2] = journe_check(ps2, OpenSet.from_mask(ps2, mask), (1.0,))
    assert r1["C1"] == pytest.approx(r2["C1"], rel=1e-12)
    assert r1["C2"] == pytest.approx(r2["C2"], rel=1e-12)


def test_journe_check_errors(pspace8):
    om = OpenSet.from_mask(pspace8, np.zeros(pspace8.shape, dtype=bool))
    with pytest.raises(ValueError, match="positive measure"):
        journe_check(pspace8, om, (1.0,))
    full = OpenSet.from_mask(pspace8, np.ones(pspace8.shape, dtype=bool))
    with pytest.raises(ValueError, match="delta"):
        journe_check(pspace8, full, (0.0,))


def test_member_mask_oracles_never_build_the_geometry():
    # Cube records carry their member ids, so the per-pair oracles need no
    # cube x point incidence or ancestor matrix
    from prodhardy.oracles import rectangles_inside_exhaustive
    ps = ProductSpace(line_space(np.arange(6.0)), line_space([0.0, 1.0, 3.0, 7.0]), delta=0.5)
    mask = np.zeros(ps.shape, dtype=bool)
    mask[:3, :2] = True
    om = OpenSet.from_mask(ps, mask)
    rects = rectangles_inside_exhaustive(ps, om)
    assert rects and rectangle_mask(ps, *rects[0]).sum() > 0
    c1, c2 = rects[-1]
    a2 = flat(ps.systems[1], c2)
    hat = stretch_exhaustive(ps, om, (flat(ps.systems[0], c1), a2), 1)
    assert ps.systems[1].level_rows[hat] <= ps.systems[1].level_rows[a2]
    assert all("incidence" not in vars(s) for s in ps.systems)
