import json
import math

import numpy as np
import pytest

from prodhardy import SpaceValidationError, ball, doubling_profile, load_space, make_space

from conftest import line_space


def doubling_oracle(dist, weight):
    """Independent exhaustive scan over all centers and realized radii."""
    n = dist.shape[0]
    worst = 1.0
    for x in range(n):
        pos = sorted({d for d in dist[x] if d > 0} | {d / 2 for d in dist[x] if d > 0})
        for r in pos:
            small = weight[dist[x] < r].sum()
            big = weight[dist[x] < 2 * r].sum()
            if small > 0:
                worst = max(worst, big / small)
    return worst


def test_single_point_degenerate():
    sp = make_space([[0.0]])
    assert sp.a0 == 1.0 and sp.cmu == 1.0 and sp.omega == 0.0
    assert sp.total_measure == 1.0


def test_line_is_metric(canon):
    assert canon.a0 == 1.0


def test_cmu_matches_exhaustive_oracle(canon):
    # oracle value computed first and frozen: worst pair is B(10, 8) vs B(10, 16)
    oracle = doubling_oracle(canon.dist, canon.weight)
    assert oracle == canon.cmu == 4.0
    assert canon.omega == 2.0


def test_quasi_triangle_exhaustive_and_minimal():
    rng = np.random.default_rng(5)
    pts = rng.random((12, 2))
    d = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(-1)) ** 1.5   # snowflake
    np.fill_diagonal(d, 0.0)
    sp = make_space(d)
    assert sp.a0 > 1.0
    n = sp.n
    attained = False
    for x in range(n):
        for y in range(n):
            if x == y:
                continue
            for z in range(n):
                s = sp.dist[x, z] + sp.dist[z, y]
                assert sp.dist[x, y] <= sp.a0 * s * (1 + 1e-12)
                if abs(sp.dist[x, y] - sp.a0 * s) <= 1e-12 * sp.dist[x, y]:
                    attained = True
    assert attained, "a0 must be attained (minimality)"


def test_quasi_triangle_at_scale_200():
    rng = np.random.default_rng(17)
    pts = rng.random((200, 3))
    d = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(-1))
    np.fill_diagonal(d, 0.0)
    sp = make_space(d)
    # independent sweep: best intermediate sums, then both directions of minimality
    best = np.full((200, 200), np.inf)
    for z in range(200):
        best = np.minimum(best, d[:, z][:, None] + d[z, :][None, :])
    off = ~np.eye(200, dtype=bool)
    assert (d[off] <= sp.a0 * best[off] * (1 + 1e-12)).all()
    assert (d[off] / best[off]).max() >= sp.a0 * (1 - 1e-12)


def test_ball_members_and_measures(canon):
    b = ball(canon, 0, 1.5)
    assert list(b.members) == [0, 1] and b.measure == 2.0
    b = ball(canon, 0, 0.5)
    assert list(b.members) == [0] and b.measure == 1.0
    # distance oracle: d(2,10)=8 < 9 and d(2,0)=2 < 9, so everything is inside
    assert canon.dist[2, 3] == 8.0 < 9 and canon.dist[2, 0] == 2.0 < 9
    b = ball(canon, 2, 9.0)
    assert list(b.members) == [0, 1, 2, 3] and b.measure == 4.0


def test_ball_requires_positive_radius(canon):
    with pytest.raises(ValueError):
        ball(canon, 0, 0.0)


def test_doubling_profile_single_point():
    sp = make_space([[0.0]])
    for row in doubling_profile(sp):
        assert row["max_ratio"] == 1.0 and row["certified"]


def test_doubling_profile_certified(canon):
    rows = doubling_profile(canon, lambdas=(1.0, 2.0, 3.0, 4.0))
    assert rows[0]["lambda"] == 1.0 and rows[0]["max_ratio"] == 1.0
    for row in rows:
        assert row["certified"]
        assert row["max_ratio"] <= canon.cmu * row["lambda"] ** canon.omega + 1e-12


def test_every_realized_ball_doubles(canon):
    for x in range(canon.n):
        for r in sorted({d for d in canon.dist[x] if d > 0}):
            small = canon.weight[canon.dist[x] < r].sum()
            big = canon.weight[canon.dist[x] < 2 * r].sum()
            if small > 0:
                assert 0 < big <= canon.cmu * small


def test_load_space_coords_document():
    doc = {"points": [{"id": i, "coords": [float(c)], "weight": 1.0}
                      for i, c in enumerate([0, 1, 2, 10])],
           "metric": "euclidean"}
    sp = load_space(json.dumps(doc))
    assert sp.a0 == 1.0 and sp.cmu == 4.0


def test_load_space_matrix_document(tmp_path):
    doc = {"matrix": [[0.0, 1.0], [1.0, 0.0]], "weights": [1.0, 2.0]}
    path = tmp_path / "space.json"
    path.write_text(json.dumps(doc))
    sp = load_space(path)
    assert sp.n == 2 and sp.total_measure == 3.0


@pytest.mark.parametrize("doc,msg", [
    ({"matrix": [[0, 1], [2, 0]]}, "asymmetric"),
    ({"matrix": [[0, 1], [1, 0]], "weights": [1, 0]}, "not positive"),
    ({"matrix": [[0, 0], [0, 0]]}, "zero distance"),
    ({"matrix": [[0, 1, 2], [1, 0, 1]]}, "square"),
    ({"points": [{"coords": [0]}], "metric": "hyperbolic"}, "unknown metric"),
    ({"wrong": 1}, "'matrix' or 'points'"),
    ('{"matrix": [[0, Infinity], [Infinity, 0]]}', r"matrix\[0\]\[1\] = inf is not finite"),
])
def test_load_space_rejects(doc, msg):
    with pytest.raises(SpaceValidationError, match=msg):
        load_space(doc)


@pytest.mark.parametrize("dist,weight,msg", [
    ([[0.0, math.inf], [math.inf, 0.0]], None, r"matrix\[0\]\[1\] = inf is not finite"),
    ([[0.0, 1.0], [1.0, 0.0]], [1.0, math.inf], r"weights\[1\] = inf is not finite"),
    ([[0.0, 1.0, 2.0], [1.0, 0.0, math.nan], [2.0, math.nan, 0.0]], None,
     r"matrix\[1\]\[2\] = nan is not finite"),
    ([[0.0, 1.0], [1.0, 0.0]], [math.nan, 1.0], r"weights\[0\] = nan is not finite"),
    # finite weights whose total overflows: no ball measure is usable
    ([[0.0, 1.0], [1.0, 0.0]], [1e308, 1e308], r"total measure inf is not finite"),
])
def test_make_space_rejects_non_finite(dist, weight, msg):
    # rejected before any constant is computed from the entry
    with pytest.raises(SpaceValidationError, match=msg):
        make_space(dist, weight)


def test_load_space_invalid_json_is_line_precise():
    with pytest.raises(SpaceValidationError, match="line 2"):
        load_space('{"matrix":\n [[0, 1], [1, 0]],}')


def test_snowflake_rejects_bad_exponent():
    with pytest.raises(SpaceValidationError, match="snowflake"):
        load_space({"matrix": [[0.0, 1.0], [1.0, 0.0]], "snowflake": -1})


def test_weighted_space():
    sp = line_space([0.0, 1.0], weights=[1.0, 3.0])
    assert sp.total_measure == 4.0
    assert ball(sp, 0, 2.0).measure == 4.0
