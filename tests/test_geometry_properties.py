"""Property tests: the matrix geometry paths against their loop oracles,
on the small random spaces and open sets of ``strategies``.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from prodhardy import build_system, ell_enlarge, maximal_rectangles, strong_maximal
from prodhardy.dyadic import dilate_mask
from prodhardy.maximal import (ell_enlarge_exhaustive, realized_ball_masks,
                               rectangles_inside, rectangles_inside_exhaustive)

from strategies import CHECK, instances, spaces
from test_journe import maximal_oracle

def keys(rects):
    return [c1.id + c2.id for c1, c2 in rects]


@CHECK
@given(instances())
def test_rectangles_inside_matches_oracle_in_order(inst):
    ps, om = inst
    assert keys(rectangles_inside(ps, om)) == keys(rectangles_inside_exhaustive(ps, om))


@CHECK
@given(instances(), st.sampled_from([(0, 0), (1, 0), (0, 2), (2, 1)]), st.booleans())
def test_ell_enlarge_matches_oracle(inst, ells, atom_lams):
    ps, om = inst
    ell1, ell2 = ells
    lam1, lam2 = 2.0 ** ell1, 2.0 ** ell2
    if atom_lams:                # the 2 a0^2 2^ell multipliers of the atoms pipeline
        lam1 *= 2.0 * ps.x1.a0 ** 2
        lam2 *= 2.0 * ps.x2.a0 ** 2
    out, rep = ell_enlarge(ps, om, ell1, ell2, lam1, lam2)
    np.testing.assert_array_equal(out.mask, ell_enlarge_exhaustive(ps, om, lam1, lam2).mask)
    assert (rep["lam1"], rep["lam2"]) == (lam1, lam2)


@CHECK
@given(instances())
def test_maximal_rectangles_match_oracle(inst):
    ps, om = inst
    fam = maximal_rectangles(ps, om, "both")
    assert [r.key for r in fam.m_all] == sorted(maximal_oracle(ps, om))


def strong_maximal_loop(pspace, g):
    """The per-point loop strong_maximal ran before it was vectorized."""
    g = np.abs(np.asarray(g, dtype=float))
    m1, m2 = realized_ball_masks(pspace.x1), realized_ball_masks(pspace.x2)
    sums = ((m1 * pspace.x1.weight) @ g) @ (m2 * pspace.x2.weight).T
    avg = sums / np.outer(m1 @ pspace.x1.weight, m2 @ pspace.x2.weight)
    out = np.empty(pspace.shape)
    for x1 in range(pspace.x1.n):
        rows = avg[np.flatnonzero(m1[:, x1])]
        for x2 in range(pspace.x2.n):
            out[x1, x2] = rows[:, np.flatnonzero(m2[:, x2])].max()
    return out


@CHECK
@given(instances(), st.integers(0, 2 ** 32 - 1))
def test_strong_maximal_is_the_loop_bit_for_bit(inst, seed):
    ps, om = inst
    g = np.random.default_rng(seed).standard_normal(ps.shape)
    for h in (g, om.mask.astype(float)):
        np.testing.assert_array_equal(strong_maximal(ps, h), strong_maximal_loop(ps, h))


@CHECK
@given(spaces(), st.sampled_from([0.25, 0.5, 0.9]), st.sampled_from([1.0, 2.0, 4.5]))
def test_geometry_rows_are_the_cubes(space, delta, lam):
    system = build_system(space, delta)
    g = system.geometry
    assert [c.id for c in g.cubes] == [c.id for c in system.all_cubes()]
    dil = system.dilate_matrix(lam)
    for a, c in enumerate(g.cubes):
        members = np.isin(np.arange(space.n), c.members)
        np.testing.assert_array_equal(g.incidence[a] == 1.0, members)
        np.testing.assert_array_equal(system.member_mask(*c.id), members)
        np.testing.assert_array_equal(dil[a], dilate_mask(system, c, lam))
        assert g.flat(*c.id) == a and g.measures[a] == c.measure
        par = g.cubes[g.parent[a]].id if g.parent[a] >= 0 else None
        assert par == (None if c.level == system.k_min else (c.level - 1, c.parent))
        chain, up = {a}, a
        while g.parent[up] >= 0:
            up = g.parent[up]
            chain.add(up)
        assert set(np.flatnonzero(g.ancestors[a])) == chain
