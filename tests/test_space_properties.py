"""Property tests: the space constants against their exhaustive oracles.

a0 and cmu must equal the exhaustive scans bit for bit (``==``, no tolerance).  The a0 scan changes only which entries
are computed; the growth scan rounds its prefix sums differently and must
rescan every center that could hold the maximum in the masked arithmetic.
Wide weight ranges make those last-bit differences common.
Spaces have tied distances, snowflake exponents, weights from 1e-6 to 1e6,
one or two points, and sizes on both sides of the 64-row blocks of both
scans.  Circles of equally spaced points are the same seen from every
center; with a constant decimal weight every center ties within the
rounding margin, so the growth scan rescans them all.
"""

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from prodhardy import make_space
from prodhardy import oracles
from prodhardy import space as space_mod
from prodhardy.cli import main
from prodhardy.oracles import _doubling_constant_exhaustive, _quasi_triangle_constant_exhaustive
from prodhardy.space import _ball_radius_candidates

from strategies import CHECK

def circle(n):
    """Chords between n equally spaced points on the unit circle: d(i, j)
    depends on |i - j| mod n only, so every center sees the same row."""
    steps = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
    return 2.0 * np.sin(np.pi * np.minimum(steps, n - steps) / n)


@st.composite
def spaces(draw, sizes=st.one_of(st.integers(1, 2), st.integers(3, 12),
                                 st.sampled_from([63, 64, 65, 127, 128, 129]))):
    n = draw(sizes)
    kind = draw(st.sampled_from(["cloud", "snowflake", "tied-line", "matrix", "circle"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "matrix":
        # symmetric {1, 2, 3} entries: heavy ties, often not a metric
        d = np.triu(rng.integers(1, 4, (n, n)).astype(float), 1)
        dist = d + d.T
    elif kind == "circle":
        dist = circle(n) ** draw(st.sampled_from([1.0, 1.5]))
    elif kind == "tied-line":
        # integer coordinates: equal gaps give tied distances
        pts = rng.choice(4 * n, size=n, replace=False).astype(float)
        dist = np.abs(pts[:, None] - pts[None, :])
    else:
        pts = rng.uniform(0.0, 1.0, (n, 2))
        dist = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(-1))
        if kind == "snowflake":
            dist = dist ** draw(st.sampled_from([1.5, 2.5]))
    np.fill_diagonal(dist, 0.0)
    logw = draw(st.sampled_from([0.0, 1.0, 6.0, None]))   # 1, 1e-1..1e1, 1e-6..1e6, 0.1
    weight = np.full(n, 0.1) if logw is None else 10.0 ** rng.uniform(-logw, logw, n)
    return make_space(dist, weight)


@CHECK
@given(spaces())
def test_a0_equals_exhaustive(space):
    assert space.a0 == _quasi_triangle_constant_exhaustive(space.dist)


@CHECK
@given(spaces(st.integers(1, 40)), st.sampled_from([1, 64, 400, 2000]))
def test_a0_tiles_equal_exhaustive(space, tile):
    # tiles of 1 x 1 up to 10 x 20 pairs: partial tiles at the edges, and
    # tiles across the diagonal whose x = y pairs must be left out
    with mock.patch.object(space_mod, "_A0_TILE", tile):
        assert space_mod._quasi_triangle_constant(space.dist) == space.a0
    assert space.a0 == _quasi_triangle_constant_exhaustive(space.dist)


# The broadcast forms the per-axis metrics replace: their specification.
BROADCAST = {
    "euclidean": lambda p: np.sqrt(((p[:, None, :] - p[None, :, :]) ** 2).sum(-1)),
    "manhattan": lambda p: np.abs(p[:, None, :] - p[None, :, :]).sum(-1),
    "chebyshev": lambda p: np.abs(p[:, None, :] - p[None, :, :]).max(-1),
}


@pytest.mark.parametrize("dim", [*range(1, 21), 130])
@pytest.mark.parametrize("metric", sorted(BROADCAST))
def test_metrics_equal_their_broadcast_form(metric, dim):
    # coordinates over 8 decades, so each order of adding the axes rounds
    # differently; 1..7 axes are added one (n, n) term at a time, 8 and more
    # (NumPy's pairwise order: 8 lanes up to 128 terms, halves beyond) as
    # the broadcast form itself, here in one row block
    rng = np.random.default_rng(dim)
    p = rng.standard_normal((9, dim)) * 10.0 ** rng.uniform(-4, 4, (9, dim))
    p[3] = p[5]                                  # a zero distance off the diagonal
    assert space_mod._METRICS[metric](p).tobytes() == BROADCAST[metric](p).tobytes()


@pytest.mark.parametrize("n, dim", [(300, 9), (257, 64), (40, 300), (1000, 8)])
@pytest.mark.parametrize("metric", ["euclidean", "manhattan"])
def test_metrics_equal_their_broadcast_form_across_row_blocks(metric, n, dim):
    # enough points that the broadcast form is summed in several row blocks
    # (of 24, 3, 5 and 8 rows; the first two end in a shorter block)
    assert max(1, space_mod._ROW_BLOCK // (n * dim)) < n
    rng = np.random.default_rng([n, dim])
    p = rng.standard_normal((n, dim)) * 10.0 ** rng.uniform(-4, 4, (n, dim))
    assert space_mod._METRICS[metric](p).tobytes() == BROADCAST[metric](p).tobytes()


@CHECK
@given(spaces())
def test_cmu_equals_exhaustive(space):
    assert space.cmu == _doubling_constant_exhaustive(space.dist, space.weight)


def candidate_scan(space):
    """Per-center prefix-sum growth over every candidate radius of
    ``_ball_radius_candidates``, one center at a time, ties by point id."""
    out = []
    for drow in space.dist:
        order = np.argsort(drow, kind="stable")
        prefix = np.concatenate([[0.0], np.cumsum(space.weight[order])])
        radii = _ball_radius_candidates(drow)
        small = prefix[np.searchsorted(drow[order], radii)]
        big = prefix[np.searchsorted(drow[order], 2.0 * radii)]
        out.append((big / small).max())
    return out


@CHECK
@given(spaces())
def test_prefix_growth_equals_the_candidate_scan(space):
    # positive distances as the only radii, blocks of 64 centers and the
    # unstable sort change no per-center value
    if space.n > 1:
        fast = space_mod._prefix_growth(space.dist, space.weight)
        assert fast.tolist() == candidate_scan(space)


def test_fast_path_never_calls_the_oracles(monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("fast path called an exhaustive oracle")

    for name in ("_quasi_triangle_constant_exhaustive", "_doubling_constant_exhaustive",
                 "_build_net_by_point"):
        monkeypatch.setattr(oracles, name, refuse)
    rng = np.random.default_rng(3)
    pts = rng.uniform(0.0, 1.0, (70, 2))
    dist = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(-1)) ** 1.5
    np.fill_diagonal(dist, 0.0)
    sp = make_space(dist, 10.0 ** rng.uniform(-6, 6, 70))
    assert sp.a0 > 1.0 and sp.cmu > 1.0
    # a build of a cloud document: load_space, make_space and build_system
    doc = {"metric": "euclidean", "snowflake": 1.5,
           "points": [{"id": i, "coords": c.tolist()} for i, c in enumerate(pts)]}
    (tmp_path / "cloud.json").write_text(json.dumps(doc))
    assert main(["build", "--space", str(tmp_path / "cloud.json"), "--delta", "0.25",
                 "--out", str(tmp_path / "build.json")]) == 0


def test_a_circle_with_decimal_weights_rescans_every_center(monkeypatch):
    masked, rescanned = space_mod._growth_by_masks, []

    def counted(drow, weight):
        rescanned.append(len(drow))
        return masked(drow, weight)

    monkeypatch.setattr(space_mod, "_growth_by_masks", counted)
    sp = make_space(circle(70), np.full(70, 0.1))
    assert rescanned == [70] * 70
    assert sp.cmu == _doubling_constant_exhaustive(sp.dist, sp.weight)


@pytest.mark.parametrize("dist", [[[0.0]], [[0.0, 1.0], [1.0, 0.0]], [[0.0, 3.5], [3.5, 0.0]]])
@pytest.mark.parametrize("weight", [1.0, 0.1, 1e-6])
def test_one_and_two_points(dist, weight):
    # the suite turns RuntimeWarnings (0/0 on an empty row) into errors
    sp = make_space(dist, np.full(len(dist), weight))
    assert sp.a0 == _quasi_triangle_constant_exhaustive(sp.dist)
    assert sp.cmu == _doubling_constant_exhaustive(sp.dist, sp.weight)
