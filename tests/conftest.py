import numpy as np
import pytest

from prodhardy import ProductSpace, level_sets, make_space


def line_space(coords, weights=None):
    pts = np.asarray(coords, dtype=float)
    return make_space(np.abs(pts[:, None] - pts[None, :]), weights)


@pytest.fixture(scope="session")
def canon():
    """The 4-point line {0, 1, 2, 10} with unit weights."""
    return line_space([0.0, 1.0, 2.0, 10.0])


@pytest.fixture(scope="session")
def two_pt():
    return line_space([0.0, 1.0])


@pytest.fixture(scope="session")
def line8():
    return line_space(np.arange(8.0))


@pytest.fixture(scope="session")
def pspace8(line8):
    """8 x 8 product of unit lines, desk delta = 1/4."""
    return ProductSpace(line8, line8, delta=0.25)


@pytest.fixture(scope="session")
def micro22(two_pt):
    """2 x 2 product of 2-point spaces (the 9-ball-pair micro instance)."""
    return ProductSpace(two_pt, two_pt, delta=0.5)


def layer_cake_ratio(pspace, sf) -> float:
    """The layer-cake sum sum_j 2^j mu(Omega_j) over ``level_sets``' Omega_j
    divided by ||S||_1, which is provably within [1/2, 2]; 1 for S = 0."""
    exact = float((np.asarray(sf) * pspace.weights).sum())
    dyadic = sum(2.0 ** j * s.measure for j, s in level_sets(pspace, sf).items())
    return dyadic / exact if exact > 0 else 1.0


def epsilon0_underflow_docs():
    """Space documents of two s = 2.5 snowflakes of 5 random plane points
    with weights over 12 decades: epsilon0's denominator overflows, so
    epsilon0 (about 10^-348) is no positive normal float."""
    rng = np.random.default_rng(6)
    docs = []
    for _ in range(2):
        n = int(rng.integers(2, 9))
        coords = rng.uniform(0, 1, (n, 2))
        weights = 10.0 ** rng.uniform(-6, 6, n)
        docs.append({"metric": "euclidean", "snowflake": 2.5,
                     "points": [{"id": i, "coords": c.tolist(), "weight": float(w)}
                                for i, (c, w) in enumerate(zip(coords, weights))]})
    return docs
