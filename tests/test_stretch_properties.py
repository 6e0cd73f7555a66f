"""Property tests: stretch maps and tau on the cube arrays against the
per-rectangle scans they replace.

The stretch half test compares mu((Q1 x Q2^) cap Omega) with mu(Q1 x Q2^)/2.
Decimal weights such as 0.1, 0.2, 0.3, 0.7 make the two sides equal in exact
arithmetic and leave the float comparison to rounding, so the spaces here
mix such weights with integer (exactly summed) and decade weights.
"""

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from prodhardy import (OpenSet, ProductSpace, generate_atom, journe_check, make_space,
                       maximal_rectangles, verify_atom)
from prodhardy import dyadic, journe
from prodhardy.journe import _majority, _measure_in, tau
from prodhardy.maximal import _inside, rectangles_inside
from prodhardy.oracles import stretch_exhaustive

import per_cube
from strategies import CHECK, instances, weighted_spaces
from test_golden_reports import CASES, report_digest


def line(points, weights):
    pts = np.asarray(points, dtype=float)
    return make_space(np.abs(pts[:, None] - pts[None, :]), np.asarray(weights))


def near_tie(x1, x2, delta, mask):
    ps = ProductSpace(x1, x2, delta=delta)
    return ps, OpenSet.from_mask(ps, np.asarray(mask, dtype=bool))


# Half tests that tie in exact arithmetic, left to rounding.  In the last, the
# set's measure in the whole space is 0.27 from the batched product and
# 0.26999999999999996 = mu(X)/2 from the per-rectangle sum, on opposite sides
# of the half: only the near-half rescan gives the per-rectangle decision.
NEAR_TIES = [
    near_tie(line([0, 1, 4], [0.3, 0.2, 0.1]), line([0], [0.7]), 0.25, [[0], [1], [1]]),
    near_tie(line([0, 3], [0.3, 0.3]), line([0, 5], [0.2, 0.7]), 0.5, [[0, 0], [1, 1]]),
    # integer products w1[i] w2[j] whose factor weights do not sum exactly:
    # the whole space ties, mu(Omega) = 1000004 = mu(X)/2 in exact arithmetic
    near_tie(line(range(5), [1e-3, 1e-3, 1e3, 1e-3, 1e-3]), line([0, 1], [1e3, 1e3]), 0.25,
             [[1, 1], [1, 0], [1, 0], [0, 0], [1, 0]]),
    near_tie(line([1, 9], [0.7, 0.2]), line([4, 3, 1], [0.2, 0.3, 0.1]), 0.9,
             [[1, 0, 1], [1, 0, 1]]),
]


@CHECK
@given(instances(weighted_spaces()))
@example(NEAR_TIES[0])
@example(NEAR_TIES[1])
@example(NEAR_TIES[2])
@example(NEAR_TIES[3])
def test_majority_matrix_is_the_per_rectangle_half_test(inst):
    ps, om = inst
    passes = _majority(ps, om.mask, slice(None), slice(None))
    for a, c1 in enumerate(ps.systems[0].all_cubes()):
        m1 = np.isin(np.arange(ps.x1.n), c1.members)
        for b, c2 in enumerate(ps.systems[1].all_cubes()):
            m2 = np.isin(np.arange(ps.x2.n), c2.members)
            mu = c1.measure * c2.measure
            assert passes[a, b] == (_measure_in(ps, om.mask, m1, m2) > mu / 2.0)


@CHECK
@given(instances(weighted_spaces()), st.data())
@example(NEAR_TIES[0], None)
@example(NEAR_TIES[1], None)
@example(NEAR_TIES[2], None)
@example(NEAR_TIES[3], None)
def test_majority_on_some_rows_is_the_full_matrix_at_those_rows(inst, data):
    # the half threshold is built for the requested rows only, and the
    # near-half rescan decides each pair as the per-rectangle sum does, so a
    # smaller product changes no decision; each set of a stack gets its own
    ps, om = inst
    s1, s2 = ps.systems
    masks = np.stack([om.mask, ~om.mask, np.ones(ps.shape, dtype=bool)])
    full = per_cube.majority(ps, masks)
    if data is None:                 # every row, in reverse order
        rows1, rows2 = np.arange(s1.n_cubes())[::-1], np.arange(s2.n_cubes())[::-1]
    else:
        rows1, rows2 = (np.array(data.draw(st.lists(st.integers(0, s.n_cubes() - 1),
                                                    min_size=1, max_size=8)))
                        for s in ps.systems)
    passes = journe._majority(ps, masks, rows1, rows2)
    np.testing.assert_array_equal(passes, full[:, rows1][:, :, rows2])
    np.testing.assert_array_equal(_majority(ps, om.mask, slice(None), slice(None)), full[0])
    for i, a in enumerate(rows1):
        for j, b in enumerate(rows2):
            mu = s1.measures[a] * s2.measures[b]
            for k, mask in enumerate(masks):
                assert passes[k, i, j] == (_measure_in(ps, mask, s1.incidence[a] > 0,
                                                       s2.incidence[b] > 0) > mu / 2.0)


@CHECK
@given(instances(weighted_spaces()))
@example(NEAR_TIES[0])
@example(NEAR_TIES[1])
@example(NEAR_TIES[2])
@example(NEAR_TIES[3])
def test_stretches_match_oracle(inst):
    ps, om = inst
    fam = maximal_rectangles(ps, om, "both")
    s1, s2 = ps.systems
    assert len(fam.m_all) == len(fam.rows) == len(fam.cols) == len(fam.hat1) == len(fam.hat2)
    for i, key in enumerate(fam.m_all):
        rect = (fam.rows[i], fam.cols[i])
        assert key == s1.keys([rect[0]])[0] + s2.keys([rect[1]])[0]
        assert fam.hat2[i] == stretch_exhaustive(ps, om, rect, 1)
        assert fam.hat1[i] == stretch_exhaustive(ps, om, rect, 2)


def tau_scan(pspace, family, rect):
    """The member-set scan tau ran before: the smallest maximal rectangle,
    in key order, whose factors contain the factors of ``rect`` (flat rows)
    as point sets."""
    cubes1, cubes2 = (list(s.all_cubes()) for s in pspace.systems)
    q1, q2 = set(cubes1[rect[0]].members.tolist()), set(cubes2[rect[1]].members.tolist())
    for cand, a, b in sorted(zip(family.m_all, family.rows, family.cols)):
        if q1 <= set(cubes1[a].members.tolist()) and q2 <= set(cubes2[b].members.tolist()):
            return cand
    raise AssertionError(f"no maximal rectangle contains {rect}")


@CHECK
@given(instances(weighted_spaces()), st.integers(0, 2 ** 32 - 1))
def test_tau_matches_member_scan(inst, seed):
    ps, om = inst
    fam = maximal_rectangles(ps, om, "both")
    inside = rectangles_inside(ps, om).tolist()
    rng = np.random.default_rng(seed)
    # distinct pairs in random order, then repeats of some of them
    picks = rng.permutation(len(inside))[:6]
    picks = np.concatenate([picks, rng.choice(picks, size=min(4, len(picks)))])
    rows, cols = (np.array([inside[int(i)][f] for i in picks], dtype=int) for f in (0, 1))
    assert ([fam.m_all[h] for h in tau(ps, fam, rows, cols)]
            == [tau_scan(ps, fam, rect) for rect in zip(rows, cols)])



@CHECK
@given(instances())
def test_tau_covers_exactly_the_contained_rectangles(inst):
    # the decomposition checks that each classified rectangle lies in its
    # enlargement by tau alone: some family rectangle has ancestors-or-self
    # of both factors exactly when the rectangle lies in the set, and
    # tau's member containment finds the first of them
    ps, om = inst
    fam = maximal_rectangles(ps, om, "both")
    s1, s2 = ps.systems
    covered = (per_cube.ancestors(s1)[:, fam.rows].astype(int)
               @ per_cube.ancestors(s2)[:, fam.cols].T.astype(int)) > 0
    inside = _inside(ps, om.mask, slice(None), slice(None))
    np.testing.assert_array_equal(covered, inside)
    np.testing.assert_array_equal(inside, per_cube.containment(ps, om.mask))
    rows, cols = np.nonzero(inside)
    np.testing.assert_array_equal(tau(ps, fam, rows, cols), per_cube.tau(ps, fam, rows, cols))

def test_fast_paths_never_call_the_oracles(monkeypatch, tmp_path):
    def refuse(*args):
        raise AssertionError("fast path called an oracle")

    monkeypatch.setattr(dyadic, "dilate_mask", refuse)
    for name in ("decompose-deep-pair", "decompose-snowflake-pair"):   # q = 1.5
        assert report_digest(name, tmp_path) == CASES[name][2]

    ps = ProductSpace(line(range(6), [0.1, 0.2, 0.3, 0.7, 0.2, 0.1]),
                      line(range(5), [0.3, 0.7, 0.1, 0.2, 0.3]), delta=0.5)
    om = OpenSet.from_mask(ps, np.random.default_rng(0).random(ps.shape) < 0.5)
    journe_check(ps, om, (1.0,))
    grids = (dyadic.build_system(ps.x1, 0.25), dyadic.build_system(ps.x2, 0.25))
    rng = np.random.default_rng(1)
    atoms = [generate_atom(ps, rng, 0.8, 1.5, 1, 0, grids=grids) for _ in range(4)]
    assert all(verify_atom(ps, a)["passed"] for a in atoms if a is not None)
