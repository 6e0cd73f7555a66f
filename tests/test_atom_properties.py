"""Property test: rescaling the measure never changes whether a
decomposition succeeds.

Random factors of two to five points get their weights multiplied by 10^k
for k from -30 to 30.  Every random doubly mean-zero function must then
decompose into terms that rebuild it and atoms that pass every check.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prodhardy import ProductSpace, atomic_decompose, make_space, verify_atom

from strategies import CHECK, spaces


@pytest.mark.parametrize("k", [-30, -12, 0, 12, 30])
@settings(CHECK, max_examples=12)
@given(spaces(min_points=2), spaces(min_points=2), st.sampled_from([0.25, 0.5, 0.9]),
       st.sampled_from([(1.0, 2.0), (0.8, 1.5)]), st.integers(0, 2 ** 32 - 1))
def test_decomposition_survives_rescaled_weights(k, x1, x2, delta, pq, seed):
    ps = ProductSpace(make_space(x1.dist, x1.weight * 10.0 ** k),
                      make_space(x2.dist, x2.weight * 10.0 ** k), delta=delta)
    f = ps.random_function(np.random.default_rng(seed))
    p, q = pq
    dec = atomic_decompose(ps, f, p, q)
    assert dec.terms or not f.any()
    recon = sum((t.lam * t.atom.values for t in dec.terms), np.zeros(ps.shape))
    assert ps.lq_norm(recon - f, q) <= 1e-8 * ps.lq_norm(f, q)
    assert all(verify_atom(ps, t.atom)["passed"] for t in dec.terms)
