"""Property tests: the space constants against their exhaustive oracles.

a0, cmu and every ``doubling_profile`` row must equal the exhaustive scans
bit for bit (``==``, no tolerance).  The a0 scan changes only which entries
are computed; the growth scan rounds its prefix sums differently and must
rescan every center that could hold the maximum in the masked arithmetic.
Wide weight ranges make those last-bit differences common.
Spaces have tied distances, snowflake exponents, weights from 1e-6 to 1e6,
one or two points, and sizes on both sides of the 64-row block of the a0
scan.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from prodhardy import doubling_profile, make_space
from prodhardy import space as space_mod
from prodhardy.space import (_ball_radius_candidates, _doubling_constant_exhaustive,
                             _quasi_triangle_constant_exhaustive)

CHECK = settings(max_examples=40, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])

LAMBDAS = (1.0, 1.5, 2.0, 3.0, 4.0, 8.0)


def profile_oracle(space, lam):
    """The per-lambda loop ``doubling_profile`` ran before prefix measures:
    two masks over all candidate radii per center."""
    worst = 1.0
    for x in range(space.n):
        drow = space.dist[x]
        radii = _ball_radius_candidates(drow, extra_scale=max(lam, 2.0))
        small = (drow[None, :] < radii[:, None]) @ space.weight
        big = (drow[None, :] < lam * radii[:, None]) @ space.weight
        ok = small > 0
        if ok.any():
            worst = max(worst, float((big[ok] / small[ok]).max()))
    return worst


@st.composite
def spaces(draw):
    n = draw(st.one_of(st.integers(1, 2), st.integers(3, 12),
                       st.sampled_from([63, 64, 65, 127, 128, 129])))
    kind = draw(st.sampled_from(["cloud", "snowflake", "tied-line", "matrix"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "matrix":
        # symmetric {1, 2, 3} entries: heavy ties, often not a metric
        d = np.triu(rng.integers(1, 4, (n, n)).astype(float), 1)
        dist = d + d.T
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
    logw = draw(st.sampled_from([0.0, 1.0, 6.0]))     # 1, 1e-1..1e1, 1e-6..1e6
    weight = 10.0 ** rng.uniform(-logw, logw, n)
    return make_space(dist, weight)


@CHECK
@given(spaces())
def test_a0_equals_exhaustive(space):
    assert space.a0 == _quasi_triangle_constant_exhaustive(space.dist)


@CHECK
@given(spaces())
def test_cmu_equals_exhaustive(space):
    assert space.cmu == _doubling_constant_exhaustive(space.dist, space.weight)


@CHECK
@given(spaces())
def test_doubling_profile_equals_oracle(space):
    rows = doubling_profile(space, LAMBDAS)
    assert [r["lambda"] for r in rows] == list(LAMBDAS)
    for row in rows:
        assert row["max_ratio"] == profile_oracle(space, row["lambda"])
    assert rows[LAMBDAS.index(2.0)]["max_ratio"] == space.cmu


def test_fast_path_never_calls_the_oracles(monkeypatch):
    def refuse(*args):
        raise AssertionError("fast path called an exhaustive oracle")

    monkeypatch.setattr(space_mod, "_quasi_triangle_constant_exhaustive", refuse)
    monkeypatch.setattr(space_mod, "_doubling_constant_exhaustive", refuse)
    rng = np.random.default_rng(3)
    pts = rng.uniform(0.0, 1.0, (70, 2))
    dist = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(-1)) ** 1.5
    np.fill_diagonal(dist, 0.0)
    sp = make_space(dist, 10.0 ** rng.uniform(-6, 6, 70))
    doubling_profile(sp)
    assert sp.a0 > 1.0 and sp.cmu > 1.0
