"""Property tests: a stack of grids (..., n1, n2) gives each grid the floats
of its own call, bit for bit, in every product-layer function that takes one.

``certify`` runs its corpus through these stacked forms and its reports must
not change, so the tests compare bytes, not values within a tolerance.  The
instances are weighted factors of one to five points, drawn independently,
so the two factors usually differ in size.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from prodhardy import (double_center, hp_seminorm, inverse_product_transform,
                       product_transform, square_function)
from prodhardy.cli import _corpus_stacks
from prodhardy.product import stack_slices

from strategies import CHECK, instances, weighted_spaces

LEADS = st.sampled_from([(1,), (3,), (2, 2)])
SEEDS = st.integers(0, 2 ** 32 - 1)


def _grids(lead):
    """Every grid index of a stack with leading axes ``lead``."""
    return list(np.ndindex(*lead))


@settings(CHECK)
@given(instances(weighted_spaces()), LEADS, SEEDS)
def test_stacked_transforms_equal_per_grid_calls(inst, lead, seed):
    ps, _ = inst
    f = np.random.default_rng(seed).standard_normal((*lead, *ps.shape))
    co = product_transform(ps, f)
    back = inverse_product_transform(ps, co)
    sf = square_function(ps, co)
    centered = double_center(ps, f)
    for i in _grids(lead):
        one = product_transform(ps, f[i])
        assert co.matrix[i].tobytes() == one.matrix.tobytes()
        assert back[i].tobytes() == inverse_product_transform(ps, one).tobytes()
        assert sf[i].tobytes() == square_function(ps, one).tobytes()
        assert centered[i].tobytes() == double_center(ps, f[i]).tobytes()
        norms = one.channel_norms()
        assert [co.channel_norms()[c][i] for c in norms] == list(norms.values())


@settings(CHECK)
@given(instances(weighted_spaces()), LEADS, SEEDS, st.sampled_from([0.8, 1.0]),
       st.sampled_from([1.5, 2.0, 3.0]))
def test_stacked_norms_equal_per_grid_calls(inst, lead, seed, p, q):
    ps, _ = inst
    f = double_center(ps, np.random.default_rng(seed).standard_normal((*lead, *ps.shape)))
    for stacked, single in ((ps.lq_norm(f, q), lambda g: ps.lq_norm(g, q)),
                            (ps.lq_norm(f, p), lambda g: ps.lq_norm(g, p)),
                            (hp_seminorm(ps, f, p), lambda g: hp_seminorm(ps, g, p))):
        assert stacked.shape == lead
        for i in _grids(lead):
            one = single(f[i])
            assert type(one) is float
            assert np.float64(one).tobytes() == stacked[i].tobytes()


@settings(CHECK)
@given(instances(weighted_spaces()), st.integers(1, 7), SEEDS)
def test_one_stacked_draw_reads_the_stream_as_grid_draws(inst, k, seed):
    ps, _ = inst
    stack = np.random.default_rng(seed).standard_normal((k, *ps.shape))
    rng = np.random.default_rng(seed)
    for i in range(k):
        assert stack[i].tobytes() == rng.standard_normal(ps.shape).tobytes()
    # certify's corpus: the grids of k random_function calls, in stacks
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    grids = [g for s in _corpus_stacks(ps, rng, k) for g in s]
    assert [g.tobytes() for g in grids] == [ps.random_function(ref).tobytes()
                                            for _ in range(k)]


def test_stack_slices_keep_to_the_budget(pspace8, monkeypatch):
    # 2^16 entries hold 1024 grids of 8 x 8; a budget below one grid still
    # cuts one grid per stack
    assert stack_slices(pspace8, 2050) == [slice(0, 1024), slice(1024, 2048),
                                           slice(2048, 2050)]
    assert stack_slices(pspace8, 0) == []
    monkeypatch.setattr("prodhardy.product.SUM_BATCH", 1)
    assert stack_slices(pspace8, 3) == [slice(0, 1), slice(1, 2), slice(2, 3)]
