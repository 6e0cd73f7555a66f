"""Property tests: the matrix geometry paths against their loop oracles,
on the small random spaces and open sets of ``strategies``.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from prodhardy import build_system, ell_enlarge, enlarge, maximal_rectangles, strong_maximal
from prodhardy.dyadic import dilate_mask
from prodhardy.journe import _covers
from prodhardy.maximal import realized_ball_masks, rectangles_inside
from prodhardy.oracles import (ell_enlarge_exhaustive, rectangles_inside_exhaustive,
                               strong_maximal_exhaustive)

from conftest import flat, key
from strategies import CHECK, instances, spaces
from test_journe import maximal_oracle


@CHECK
@given(instances())
def test_rectangles_inside_matches_oracle_in_order(inst):
    ps, om = inst
    s1, s2 = ps.systems
    assert rectangles_inside(ps, om).tolist() == [
        [flat(s1, c1), flat(s2, c2)] for c1, c2 in rectangles_inside_exhaustive(ps, om)]


@CHECK
@given(instances(), st.sampled_from([(0, 0), (1, 0), (0, 2), (2, 1)]), st.booleans())
def test_ell_enlarge_matches_oracle(inst, ells, atom_lams):
    ps, om = inst
    ell1, ell2 = ells
    lam1, lam2 = 2.0 ** ell1, 2.0 ** ell2
    if atom_lams:                # the 2 a0^2 2^ell multipliers of the atoms pipeline
        lam1 *= 2.0 * ps.x1.a0 ** 2
        lam2 *= 2.0 * ps.x2.a0 ** 2
    out = ell_enlarge(ps, om, ell1, ell2, lam1, lam2)
    np.testing.assert_array_equal(out.mask, ell_enlarge_exhaustive(ps, om, lam1, lam2).mask)


@CHECK
@given(instances())
def test_maximal_rectangles_match_oracle(inst):
    ps, om = inst
    fam = maximal_rectangles(ps, om, "both")
    assert fam.m_all == sorted(maximal_oracle(ps, om))


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
    cubes = list(system.all_cubes())
    assert len(cubes) == system.n_cubes()
    # each measure is the cube's own pairwise sum, bit for bit
    assert system.measures.tobytes() == np.array(
        [space.weight[c.members].sum() for c in cubes]).tobytes()
    dil = system.dilate_matrix(lam)
    tops = system.tops
    for a, c in enumerate(cubes):
        members = np.isin(np.arange(space.n), c.members)
        np.testing.assert_array_equal(system.incidence[a] == 1.0, members)
        np.testing.assert_array_equal(dil[a], dilate_mask(system, c, lam))
        assert flat(system, c) == a and system.measures[a] == c.measure
        assert system.sizes[a] == len(c.members)
        assert system.keys([a]) == [key(c)]
        par = key(cubes[system.parent[a]]) if system.parent[a] >= 0 else None
        assert par == (None if c.level == system.k_min else (c.level - 1, c.parent))
        chain, up = {a}, a
        while system.parent[up] >= 0:
            up = system.parent[up]
            chain.add(up)
        # a top's members hold cube a's exactly when it is a or an ancestor
        assert set(tops[_covers(system, np.array([a]), tops)[0]].tolist()) == chain & set(tops)
        # the tops are the root and the cubes with fewer members than their parent
        assert (a in tops) == (system.parent[a] < 0 or len(cubes[system.parent[a]].members)
                                                      > len(c.members))


@CHECK
@given(instances(), st.sampled_from([1e-9, 0.25, 0.5, 1.0 - 1e-15, 1.0 + 1e-15, 2.0]))
def test_enlarge_matches_the_maximal_function(inst, factor):
    # eps on both sides of mu(Omega)/mu(X), the bound the whole-grid test reads
    ps, om = inst
    eps = om.measure / ps.total_measure() * factor
    if om.is_empty() or not 0 < eps < 1:
        return
    chi = om.mask.astype(float)
    got = enlarge(ps, om, eps).mask
    np.testing.assert_array_equal(got, strong_maximal(ps, chi) > eps)
    if factor <= 0.5:         # far from the threshold the independent loops agree too
        assert got.all()
        np.testing.assert_array_equal(got, strong_maximal_exhaustive(ps, chi) > eps)
