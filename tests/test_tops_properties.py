"""Property tests: the rectangle questions asked once per single-child chain
against the per-cube oracles of ``per_cube``, on deep systems.

A cube with one child has that child's members, so containment, the half
test, the stretches, tau and the enlargement are asked only of the chain
tops (``DyadicSystem.tops``).  At delta 0.99 a 5-point factor has hundreds to
thousands of cubes over a few distinct member sets, and weights 10^u for
real u make the half tests near their half go to the per-rectangle rescan.
"""

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from prodhardy import OpenSet, ProductSpace, ell_enlarge, maximal_rectangles
from prodhardy import journe
from prodhardy.journe import _families, tau
from prodhardy.oracles import ell_enlarge_exhaustive

import per_cube
from strategies import CHECK, inexact_spaces, instances
from test_journe_stack_properties import DELTAS, assert_stack_matches_oracle
from test_stretch_properties import line

DEEP = (0.99, 0.9, 0.5, 0.25)     # first listed, most often drawn: deep systems


# The first net point lies between the others, so the root keeps all three
# points for eight levels at delta 0.9.  On Omega = {1, 2} x {0} each of the
# eight cubes times the one point ties its half in exact arithmetic
# (0.14 + 0.07 = 0.6 * 0.7 / 2).
_TOP_TIE_SPACE = ProductSpace(line([2, 0, 4], [0.3, 0.2, 0.1]), line([0], [0.7]), delta=0.9)
TOP_TIE = (_TOP_TIE_SPACE, OpenSet.from_mask(_TOP_TIE_SPACE, np.array([[0], [1], [1]], bool)))


def test_the_rescan_runs_once_per_chain_on_its_top(monkeypatch):
    ps, om = TOP_TIE
    s1 = ps.systems[0]
    chain = np.flatnonzero(s1.sizes == ps.x1.n)
    assert len(chain) == 8 and s1.tops[0] == 0 and 1 not in s1.tops
    rescans = {journe: [], per_cube: []}
    for module, calls in rescans.items():
        def counted(*args, calls=calls, original=module._measure_in):
            calls.append(args[2])                    # the Q1 member mask
            return original(*args)
        monkeypatch.setattr(module, "_measure_in", counted)
    fam = _families(ps, om.mask[None], DELTAS)
    # the per-cube half test rescans every cube of the chain, the tops' once
    want = per_cube.family(ps, om.mask)
    assert [m.tolist() for m in rescans[journe]] == [[True] * 3]
    assert len(rescans[per_cube]) == len(chain)
    for got, exp in zip((fam.rows, fam.cols, fam.hat1, fam.hat2), want):
        assert got.tolist() == exp.tolist()


@CHECK
@given(instances(inexact_spaces(), DEEP), st.integers(0, 2 ** 32 - 1))
@example(TOP_TIE, 0)
def test_tops_families_and_tau_are_the_per_cube_ones(inst, seed):
    ps, om = inst
    rng = np.random.default_rng(seed)
    masks = np.array([om.mask, rng.random(ps.shape) < 0.5])
    assert_stack_matches_oracle(ps, masks)
    # tau on some contained rectangles, against ancestry over every cube
    fam = maximal_rectangles(ps, om)
    rows, cols = np.nonzero(per_cube.containment(ps, om.mask))
    pick = rng.permutation(len(rows))[:64]
    np.testing.assert_array_equal(tau(ps, fam, rows[pick], cols[pick]),
                                  per_cube.tau(ps, fam, rows[pick], cols[pick]))


@CHECK
@given(instances(inexact_spaces(), DEEP), st.sampled_from([(0, 0), (1, 0), (0, 2), (2, 1)]))
@example(TOP_TIE, (1, 1))
def test_ell_enlarge_on_tops_is_the_per_cube_union(inst, ells):
    ps, om = inst
    s1, s2 = ps.systems
    lam1, lam2 = 2.0 ** ells[0], 2.0 ** ells[1]
    got = ell_enlarge(ps, om, *ells, lam1, lam2)
    union = s1.dilate_matrix(lam1).T @ per_cube.containment(ps, om.mask) @ s2.dilate_matrix(lam2)
    np.testing.assert_array_equal(got.mask, union)
    if s1.n_cubes() * s2.n_cubes() <= 3000:
        np.testing.assert_array_equal(got.mask, ell_enlarge_exhaustive(ps, om, lam1, lam2).mask)
