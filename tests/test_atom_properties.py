"""Property tests: rescaling the measure never changes whether a
decomposition succeeds, and rescaling the distances by delta changes no bit.

Random factors of two to five points get their weights multiplied by 10^k
for k from -30 to 30.  Every random doubly mean-zero function must then
decompose into terms that rebuild it and atoms that pass every check.

Multiplying both distance matrices by delta (1/4 or 1/2, exact in binary)
and decomposing at that same delta moves every cube one level down and keeps
its points and measure, so atoms, lambdas and their p-sum keep every bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prodhardy import ProductSpace, atomic_decompose, make_space, verify_atom

from strategies import CHECK, instances, spaces


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


def bits(x):
    return np.float64(x).tobytes()


@settings(CHECK, max_examples=60)
@given(instances(deltas=(0.25, 0.5)), st.sampled_from([(1.0, 2.0), (0.8, 1.5), (0.5, 4.0)]),
       st.integers(0, 2 ** 32 - 1))
def test_level_shift_changes_no_bit(inst, pq, seed):
    ps, _ = inst
    delta = ps.systems[0].delta
    shifted = ProductSpace(*(make_space(x.dist * delta, x.weight) for x in (ps.x1, ps.x2)),
                           delta=delta)
    f = ps.random_function(np.random.default_rng(seed))
    p, q = pq
    try:
        dec = atomic_decompose(ps, f, p, q)
    except ValueError as e:             # a named range error names the shifted space too
        with pytest.raises(ValueError) as moved_error:
            atomic_decompose(shifted, f, p, q)
        assert str(moved_error.value) == str(e)
        return
    moved = atomic_decompose(shifted, f, p, q)
    assert bits(moved.report["lam_sum"]) == bits(dec.report["lam_sum"])
    assert len(moved.terms) == len(dec.terms)
    for t, u in zip(dec.terms, moved.terms):
        assert (bits(u.lam), bits(u.lam_raw)) == (bits(t.lam), bits(t.lam_raw))
        assert u.atom.values.tobytes() == t.atom.values.tobytes()
