import math

import numpy as np
import pytest

from prodhardy import (OpenSet, ProductSpace, journe_check, maximal_rectangles,
                       stretch)

from conftest import line_space


def maximal_oracle(pspace, omega):
    """Brute-force containment scan, independent of the module's filtering."""
    s1, s2 = pspace.systems
    inside = []
    for c1 in s1.all_cubes():
        for c2 in s2.all_cubes():
            m = omega.mask[np.ix_(s1.member_mask(*c1.id), s2.member_mask(*c2.id))]
            if m.all():
                inside.append((c1, c2))
    keys = {(c1.id, c2.id) for c1, c2 in inside}

    def parent_of(system, cube):
        if cube.level == system.k_min or cube.parent is None:
            return None
        return system.cube(cube.level - 1, cube.parent)

    out = set()
    for c1, c2 in inside:
        p1, p2 = parent_of(s1, c1), parent_of(s2, c2)
        grow1 = p1 is not None and (p1.id, c2.id) in keys
        grow2 = p2 is not None and (c1.id, p2.id) in keys
        if not grow1 and not grow2:
            out.add(c1.id + c2.id)
    return out


def test_single_rectangle_families(pspace8):
    c1 = pspace8.systems[0].cube(-1, 0)
    c2 = pspace8.systems[1].cube(-1, 1)
    om = OpenSet.from_mask(pspace8, pspace8.rectangle_mask(c1, c2))
    fam = maximal_rectangles(pspace8, om, "both")
    key = c1.id + c2.id
    assert [r.key for r in fam.m_all] == [key]
    assert list(fam.stretch1) == list(fam.stretch2) == [key]


def test_empty_omega(pspace8):
    om = OpenSet.from_mask(pspace8, np.zeros(pspace8.shape, dtype=bool))
    fam = maximal_rectangles(pspace8, om, "both")
    assert not fam.m_all and not fam.stretch1 and not fam.stretch2


def test_crossing_rectangles_match_oracle(canon):
    ps = ProductSpace(canon, canon, delta=0.25)
    s1, s2 = ps.systems
    # a vertical and a horizontal rectangle that cross
    vert = ps.rectangle_mask(s1.cube(-1, 0), s2.cube(-2, 0))
    horiz = ps.rectangle_mask(s1.cube(-2, 0), s2.cube(-1, 0))
    om = OpenSet.from_mask(ps, vert | horiz)
    fam = maximal_rectangles(ps, om, "both")
    assert {r.key for r in fam.m_all} == maximal_oracle(ps, om)


def test_random_omegas_match_oracle(pspace8):
    rng = np.random.default_rng(0)
    for _ in range(5):
        om = OpenSet.from_mask(pspace8, rng.random(pspace8.shape) < 0.45)
        fam = maximal_rectangles(pspace8, om, "both")
        assert {r.key for r in fam.m_all} == maximal_oracle(pspace8, om)


def test_every_contained_rectangle_is_covered(pspace8):
    rng = np.random.default_rng(1)
    s1, s2 = pspace8.systems
    for _ in range(3):
        om = OpenSet.from_mask(pspace8, rng.random(pspace8.shape) < 0.4)
        fam = maximal_rectangles(pspace8, om, "both")
        members = [(s1.member_mask(*r.q1), s2.member_mask(*r.q2)) for r in fam.m_all]
        for c1 in s1.all_cubes():
            for c2 in s2.all_cubes():
                m1 = s1.member_mask(*c1.id)
                m2 = s2.member_mask(*c2.id)
                if not om.mask[np.ix_(m1, m2)].all():
                    continue
                assert any((m1 <= a).all() and (m2 <= b).all() for a, b in members)


def test_stretch_thin_omega_stays_put(pspace8):
    # omega exactly one rectangle whose factor-2 parent more than doubles it:
    # the half test fails at the parent, so the stretch stays at Q2
    s1, s2 = pspace8.systems
    c1 = s1.cube(-1, 0)
    c2 = s2.cube(0, 0)          # a singleton inside a 4-point parent
    parent2 = s2.cube(-1, c2.parent)
    assert parent2.measure > 2.0 * c2.measure
    om = OpenSet.from_mask(pspace8, pspace8.rectangle_mask(c1, c2))
    fam = maximal_rectangles(pspace8, om, "both")
    assert fam.stretch2[c1.id + c2.id] == c2.id


def test_stretch_full_grid_reaches_top(pspace8):
    om = OpenSet.from_mask(pspace8, np.ones(pspace8.shape, dtype=bool))
    fam = maximal_rectangles(pspace8, om, "both")
    (ref,) = fam.m_all
    assert fam.stretch2[ref.key] == (pspace8.systems[1].k_min, 0)
    assert fam.stretch1[ref.key] == (pspace8.systems[0].k_min, 0)


def test_stretch_ratio_range(pspace8):
    rng = np.random.default_rng(2)
    for _ in range(5):
        om = OpenSet.from_mask(pspace8, rng.random(pspace8.shape) < 0.35)
        if om.is_empty():
            continue
        fam = maximal_rectangles(pspace8, om, "both")
        for ref in fam.m_all:
            k2 = ref.q2[0]
            khat = fam.stretch2[ref.key][0]
            assert khat <= k2                      # l(Q2) <= l(Q2^)
            ratio = pspace8.systems[1].delta ** (k2 - khat)
            assert 0 < ratio <= 1


def test_public_stretch_membership(pspace8):
    c1 = pspace8.systems[0].cube(-1, 0)
    c2 = pspace8.systems[1].cube(-1, 1)
    om = OpenSet.from_mask(pspace8, pspace8.rectangle_mask(c1, c2))
    fam = maximal_rectangles(pspace8, om, "both")
    ref = fam.m_all[0]
    assert stretch(pspace8, fam, ref, 1).id == fam.stretch2[ref.key]
    from prodhardy import DyadicRectangle
    alien = DyadicRectangle(q1=(0, 0), q2=(0, 0), measure=1.0)
    with pytest.raises(ValueError, match="not in this family"):
        stretch(pspace8, fam, alien, 1)


def test_journe_single_rectangle_constant_below_one(pspace8):
    c1 = pspace8.systems[0].cube(-1, 0)
    c2 = pspace8.systems[1].cube(-1, 1)
    om = OpenSet.from_mask(pspace8, pspace8.rectangle_mask(c1, c2))
    prev1, prev2 = math.inf, math.inf
    for d in (0.5, 1.0, 2.0):
        rep = journe_check(pspace8, om, d)
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
        rep = journe_check(pspace8, om, 1.0)
        worst = max(worst, rep["C1"], rep["C2"])
        assert math.isfinite(rep["C1"]) and math.isfinite(rep["C2"])
    assert worst > 0


def test_journe_weight_rescale_invariance(canon):
    rng = np.random.default_rng(4)
    mask = rng.random((4, 4)) < 0.5
    mask[0, 0] = True
    ps1 = ProductSpace(canon, canon, delta=0.25)
    scaled = line_space([0.0, 1.0, 2.0, 10.0], weights=[3.0] * 4)
    ps2 = ProductSpace(scaled, scaled, delta=0.25)
    r1 = journe_check(ps1, OpenSet.from_mask(ps1, mask), 1.0)
    r2 = journe_check(ps2, OpenSet.from_mask(ps2, mask), 1.0)
    assert r1["C1"] == pytest.approx(r2["C1"], rel=1e-12)
    assert r1["C2"] == pytest.approx(r2["C2"], rel=1e-12)


def test_journe_check_errors(pspace8):
    om = OpenSet.from_mask(pspace8, np.zeros(pspace8.shape, dtype=bool))
    with pytest.raises(ValueError, match="positive measure"):
        journe_check(pspace8, om, 1.0)
    full = OpenSet.from_mask(pspace8, np.ones(pspace8.shape, dtype=bool))
    with pytest.raises(ValueError, match="delta"):
        journe_check(pspace8, full, 0.0)
