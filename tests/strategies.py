"""Shared hypothesis settings and strategies for the property tests.

``spaces`` draws small random factors: lines with tied distances,
snowflakes with s > 1, random symmetric matrices with few distinct entries,
weights over several decades, and one to five points, drawn independently
so the two factors of a product usually differ in size.  ``decade_spaces``
draws points at powers of 3 with weights over twelve decades.  ``weighted_spaces``
gives such a factor integer, decimal or decade weights; decimal weights
such as 0.1, 0.2, 0.3, 0.7 make many half tests tie in exact arithmetic.
``inexact_spaces`` gives it weights 10^u for real u in [-3, 3].
"""

import numpy as np
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from prodhardy import OpenSet, ProductSpace, enlarge, make_space

CHECK = settings(max_examples=40, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])

WEIGHTS = {"integer": [1.0, 2.0, 3.0], "decimal": [0.1, 0.2, 0.3, 0.7],
           "decades": [1e-3, 1.0, 1e3]}


@st.composite
def spaces(draw, min_points=1):
    n = draw(st.integers(min_points, 5))
    kind = draw(st.sampled_from(["line", "snowflake", "matrix"]))
    if kind == "matrix":
        upper = draw(st.lists(st.integers(1, 3), min_size=n * n, max_size=n * n))
        d = np.triu(np.reshape(np.asarray(upper, dtype=float), (n, n)), 1)
        dist = d + d.T
    else:
        # integer coordinates: equal gaps give tied distances
        pts = np.asarray(draw(st.lists(st.integers(0, 12), min_size=n, max_size=n,
                                       unique=True)), dtype=float)
        dist = np.abs(pts[:, None] - pts[None, :])
        if kind == "snowflake":
            dist = dist ** draw(st.sampled_from([1.5, 2.5]))
    logw = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    return make_space(dist, 10.0 ** np.asarray(logw, dtype=float))


@st.composite
def decade_spaces(draw):
    """Up to six points at powers of 3 (distances over decades) with weights
    10^u, u uniform in [-6, 6]: the product weights span 24 decades."""
    ks = draw(st.lists(st.integers(0, 9), min_size=1, max_size=6, unique=True))
    pts = 3.0 ** np.asarray(ks, dtype=float)
    logw = draw(st.lists(st.floats(-6.0, 6.0), min_size=len(ks), max_size=len(ks)))
    return make_space(np.abs(pts[:, None] - pts[None, :]), 10.0 ** np.asarray(logw))


@st.composite
def weighted_spaces(draw):
    base = draw(spaces())
    kind = draw(st.sampled_from(sorted(WEIGHTS)))
    w = draw(st.lists(st.sampled_from(WEIGHTS[kind]), min_size=base.n, max_size=base.n))
    return make_space(base.dist, np.asarray(w))


@st.composite
def inexact_spaces(draw):
    """A ``spaces()`` factor with weights 10^u, u uniform in [-3, 3]: sums
    of them round, so half tests near their half go to the rescan."""
    base = draw(spaces())
    logw = draw(st.lists(st.floats(-3.0, 3.0), min_size=base.n, max_size=base.n))
    return make_space(base.dist, 10.0 ** np.asarray(logw))


@st.composite
def instances(draw, factors=None, deltas=(0.25, 0.5, 0.9)):
    """A product space of two ``factors`` (default ``spaces()``) at one of
    ``deltas`` and an open set on it, sometimes enlarged."""
    factors = spaces() if factors is None else factors
    ps = ProductSpace(draw(factors), draw(factors), delta=draw(st.sampled_from(deltas)))
    n1, n2 = ps.shape
    bits = draw(st.lists(st.booleans(), min_size=n1 * n2, max_size=n1 * n2))
    om = OpenSet.from_mask(ps, np.reshape(bits, ps.shape))
    if not om.is_empty() and draw(st.booleans()):
        om = enlarge(ps, om, draw(st.sampled_from([0.3, 0.6])))
    return ps, om
