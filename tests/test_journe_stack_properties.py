"""Property tests: the stacked family pass (``journe._families``) against the
per-set maximal family and covering sums it replaces.

``per_cube.family`` and ``sums_oracle`` are the per-set code over every
cube pair: one containment matrix, one majority matrix and two stretch
passes per set, then each exponent's sums added term by term in family
order.  The sums use an explicit ``acc += t`` loop, not ``sum()``: Python
3.12's ``sum`` of floats is compensated, and the loop is the order the
stacked pass must reproduce.
"""

import contextlib
import io
import json
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from prodhardy import OpenSet, ProductSpace, journe_check, make_space, maximal_rectangles
from prodhardy import atoms, cli, journe, product
from prodhardy.cli import main
from prodhardy.journe import _families, _largest_constants

import per_cube
from strategies import CHECK, instances, weighted_spaces
from test_stretch_properties import NEAR_TIES

DELTAS = (0.5, 1.0, 2.0)


def ordered_sum(terms) -> float:
    acc = 0.0
    for t in terms:
        acc += t
    return acc


def family_terms(ps, rows, cols, hat1, hat2, d):
    """The terms mu(R) r^d of L1 and of L2, in family order."""
    s1, s2 = ps.systems
    measures = (s1.measures[rows] * s2.measures[cols]).tolist()
    ratios2 = [s2.delta ** k for k in (s2.level_rows[cols] - s2.level_rows[hat2]).tolist()]
    ratios1 = [s1.delta ** k for k in (s1.level_rows[rows] - s1.level_rows[hat1]).tolist()]
    return ([m * r ** d for m, r in zip(measures, ratios2)],
            [m * r ** d for m, r in zip(measures, ratios1)])


def sums_oracle(ps, rows, cols, hat1, hat2, deltas):
    """(L1, L2) per exponent, added left to right in family order."""
    return [tuple(ordered_sum(t) for t in family_terms(ps, rows, cols, hat1, hat2, d))
            for d in deltas]


def bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def assert_stack_matches_oracle(ps, masks):
    fam = _families(ps, masks, DELTAS)
    assert np.all(np.diff(fam.sets) >= 0)        # set after set
    s1, s2 = ps.systems
    for k, mask in enumerate(masks):
        at = fam.sets == k
        want = per_cube.family(ps, mask)
        for got, exp in zip((fam.rows, fam.cols, fam.hat1, fam.hat2), want):
            assert got[at].tolist() == exp.tolist()
        sums = sums_oracle(ps, *want, DELTAS)
        assert bits(fam.l1[:, k]) == bits([l1 for l1, _ in sums])
        assert bits(fam.l2[:, k]) == bits([l2 for _, l2 in sums])
        om = OpenSet.from_mask(ps, mask)
        single = maximal_rectangles(ps, om)
        assert single.m_all == [a + b for a, b in zip(s1.keys(want[0]), s2.keys(want[1]))]
        if om.measure > 0:
            for rep, (l1, l2) in zip(journe_check(ps, om, DELTAS), sums):
                assert bits([rep["L1"], rep["L2"]]) == bits([l1, l2])
                assert rep["n_rectangles"] == len(want[0])


@CHECK
@given(st.one_of(instances(), instances(weighted_spaces())), st.data())
@example(NEAR_TIES[0], None)
@example(NEAR_TIES[2], None)
def test_stacked_families_are_the_per_set_families(inst, data):
    # one-point factors, inexact weights and empty masks inside the stack
    ps, om = inst
    masks = [om.mask, np.zeros(ps.shape, dtype=bool)]
    if data is not None:
        n1, n2 = ps.shape
        more = data.draw(st.lists(st.lists(st.booleans(), min_size=n1 * n2, max_size=n1 * n2),
                                  max_size=3))
        masks += [np.reshape(b, ps.shape) for b in more]
        masks = [masks[i] for i in data.draw(st.permutations(range(len(masks))))]
    assert_stack_matches_oracle(ps, np.array(masks))


def test_near_half_rescans_run_on_a_stack(monkeypatch):
    # each near tie's half test is decided by the per-rectangle sum, also
    # when its set sits inside a stack behind other sets (the third near
    # tie has integer product weights: its sums are exact, so not rescanned)
    calls = []
    original = journe._measure_in

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(journe, "_measure_in", counted)
    for ps, om in NEAR_TIES[:2]:
        rng = np.random.default_rng(len(calls))
        masks = np.array([rng.random(ps.shape) < 0.5, om.mask, np.zeros(ps.shape, dtype=bool)])
        before = len(calls)
        assert_stack_matches_oracle(ps, masks)
        assert len(calls) > before


def test_wide_families_keep_the_per_set_order():
    # families of some 50 rectangles on 12-point lines with inexact weights,
    # where a pairwise sum of a family's terms differs from the ordered one
    rng = np.random.default_rng(0)
    pts = np.cumsum(np.r_[0.0, rng.uniform(0.5, 2.0, 11)])
    x = make_space(np.abs(pts[:, None] - pts[None, :]), rng.uniform(0.1, 3.0, 12))
    ps = ProductSpace(x, x, delta=0.5)
    masks = rng.random((6, *ps.shape)) < 0.6
    assert_stack_matches_oracle(ps, masks)
    terms = [family_terms(ps, *per_cube.family(ps, mask), 0.5)[0] for mask in masks]
    assert min(len(t) for t in terms) > 8
    assert any(bits(np.sum(t)) != bits(ordered_sum(t)) for t in terms)


def test_cumsum_adds_each_row_left_to_right():
    # the stacked sums read the last column of np.cumsum along rows; rows
    # wider than 8 entries are where np.add.reduce switches to pairwise sums
    rng = np.random.default_rng(11)
    table = rng.standard_normal((40, 37)) * 10.0 ** rng.uniform(-8, 8, (40, 37))
    assert table.flags.c_contiguous
    loops = np.array([ordered_sum(row.tolist()) for row in table])
    assert bits(np.cumsum(table, axis=1)[:, -1]) == bits(loops)
    assert bits(np.cumsum(table, axis=-1)[:, -1]) == bits(loops)
    assert bits(table.sum(axis=1)) != bits(loops)       # pairwise: another order


def test_single_set_family_and_check_are_the_stack_of_one(pspace8):
    om = OpenSet.from_mask(pspace8, np.random.default_rng(8).random(pspace8.shape) < 0.4)
    fam = maximal_rectangles(pspace8, om)
    one = _families(pspace8, om.mask[None], DELTAS)
    for name in ("rows", "cols", "hat1", "hat2"):
        assert getattr(fam, name).tolist() == getattr(one, name).tolist()
        assert not getattr(fam, name).flags.writeable
    reports = journe_check(pspace8, om, DELTAS)
    assert [r["L1"] for r in reports] == one.l1[:, 0].tolist()
    assert [r["L2"] for r in reports] == one.l2[:, 0].tolist()


def test_largest_constants_are_the_max_of_the_single_checks(pspace8):
    rng = np.random.default_rng(9)
    masks = rng.random((12, *pspace8.shape)) < 0.35
    masks[3] = False
    want = [0.0] * len(DELTAS)
    for mask in masks:
        if mask.any():
            for e, rep in enumerate(journe_check(pspace8, OpenSet.from_mask(pspace8, mask), DELTAS)):
                want[e] = max(want[e], rep["C1"], rep["C2"])
    assert _largest_constants(pspace8, masks, DELTAS) == want
    assert _largest_constants(pspace8, masks[3:4], DELTAS) == [0.0] * len(DELTAS)
    with pytest.raises(ValueError, match="delta"):
        _largest_constants(pspace8, masks, ())


def test_a_nonempty_set_of_measure_zero_is_named_without_a_warning(pspace8, monkeypatch):
    ps = ProductSpace(pspace8.x1, pspace8.x2, *pspace8.systems)
    monkeypatch.setattr(ps, "set_measure", lambda mask: 0.0)
    masks = np.ones((2, *ps.shape), dtype=bool)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="omega must have positive measure"):
            _largest_constants(ps, masks, DELTAS)


def test_certify_keeps_no_family_of_its_random_sets(monkeypatch, tmp_path):
    # the random open sets' families are used once, inside the stacked
    # pass: the atom layer builds families of its atoms' pools only
    drawn, families = [], []
    original_constants = cli._largest_constants
    original_family = atoms.maximal_rectangles

    def constants(pspace, masks, deltas):
        drawn.extend(m.tobytes() for m in masks)
        return original_constants(pspace, masks, deltas)

    def family(pspace, omega, direction="both"):
        families.append(omega.key())
        return original_family(pspace, omega, direction)

    monkeypatch.setattr(cli, "_largest_constants", constants)
    monkeypatch.setattr(atoms, "maximal_rectangles", family)
    assert main(["certify", "--corpus", "50", "--out", str(tmp_path / "c.json")]) == 0
    assert len(drawn) == 50 and families
    assert not set(drawn) & set(families)


def test_certify_draws_its_sets_in_stacks_within_the_budget(monkeypatch, tmp_path):
    # the stacks are sized by the chain-top pairs _families tests; at 8
    # points each factor has 17 cubes and 9 tops: the 50 masks are one stack
    # under the default budget, and budgets of one and two masks' (9, 9)
    # arrays give stacks of one and two masks with the same report
    stacks = []
    original = cli._largest_constants

    def constants(pspace, masks, deltas):
        stacks.append(len(masks))
        return original(pspace, masks, deltas)

    monkeypatch.setattr(cli, "_largest_constants", constants)
    reports = []
    for budget in (product.SUM_BATCH, 9 * 9, 2 * 9 * 9):
        monkeypatch.setattr(product, "SUM_BATCH", budget)
        out = tmp_path / f"{budget}.json"
        assert main(["certify", "--corpus", "50", "--seed", "3", "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert stacks == [50] + [1] * 50 + [2] * 25
    assert reports[0] == reports[1] == reports[2]


@pytest.mark.parametrize("weight, product_range", [(1e-200, "0.0 to 0.0"), (1e200, "inf to inf")])
@pytest.mark.parametrize("command", ["build", "decompose", "certify"])
def test_weights_outside_the_float_range_are_named(weight, product_range, command, tmp_path):
    # build makes no product space: its Haar basis names the factor and cube
    pts = np.arange(6.0)
    path = tmp_path / "space.json"
    path.write_text(json.dumps({"matrix": np.abs(pts[:, None] - pts[None, :]).tolist(),
                                "weights": [weight] * 6}))
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main([command, "--space", str(path), "--out", str(tmp_path / "out.json")])
    assert code == 2 and not caught
    assert err.getvalue().startswith(
        f"error: Haar normalisation of cube (-1, 0) on the 6-point factor (weights {weight!r}"
        if command == "build" else f"error: product weights {product_range}")


def test_factors_whose_own_haar_normalisation_leaves_the_float_range():
    # the product weights are 1, but the first factor's child measures
    # multiply to a subnormal float
    pts = np.arange(4.0)
    dist = np.abs(pts[:, None] - pts[None, :])
    tiny, huge = make_space(dist, [1e-160] * 4), make_space(dist, [1e160] * 4)
    with pytest.raises(ValueError, match=r"Haar normalisation of cube \(-?\d+, 0\) on the "
                                         r"4-point factor \(weights 1e-160 to 1e-160\)"):
        ProductSpace(tiny, huge, delta=0.5)
    with pytest.raises(ValueError, match="product weights"):
        ProductSpace(huge, huge, delta=0.5)
