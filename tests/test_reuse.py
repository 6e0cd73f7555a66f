"""What a ProductSpace keeps between calls, and the ordered outer-product sum.

The Chang-Fefferman pool of a level set, each maximal family and the
building-block stacks are kept on the space they were computed on, a bounded
number of them; atom cells are summed with ``product._outer_sum``, which must
add its terms in the order of the plain loop so reports stay byte-identical.
"""

import gc
import sys
import threading
import weakref

import numpy as np
import pytest

import prodhardy.atoms as atoms_mod
import prodhardy.maximal as maximal_mod
import prodhardy.product as product_mod
from prodhardy import (OpenSet, ProductSpace, atomic_decompose, build_system,
                       building_blocks, ell_enlarge, enlarge, epsilon0, maximal_rectangles,
                       verify_atom)
from prodhardy.atoms import _block_stack, _boxes, _pool, _view_on
from prodhardy.product import MEMO_ENTRIES, SUM_BATCH, _outer_sum

from conftest import line_space


def weighted_line24(seed=1):
    rng = np.random.default_rng([seed, 1])
    return line_space(np.arange(24.0), np.exp(rng.uniform(-2.0, 2.0, 24)))


def loop_sum(s, u, v):
    acc = np.zeros((u.shape[1], v.shape[1]))
    for k in range(len(s)):
        acc = acc + s[k] * np.outer(u[k], v[k])
    return acc


@pytest.mark.parametrize("shape", [(24, 24), (2, 3)])
def test_outer_sum_is_the_loop_bit_for_bit(shape):
    n1, n2 = shape
    step = max(1, SUM_BATCH // (n1 * n2) - 1)
    rng = np.random.default_rng(11)
    # one unit across the pass boundaries, then units of mixed lengths
    # (empty ones too) that end inside passes and span several chunks
    for sizes in ([1], [step - 1], [step], [step + 1], [3 * step + 2],
                  [3, 0, 7, 1, 7, 2], list(rng.integers(0, 2 * step, 40)),
                  list(rng.integers(0, 5, SUM_BATCH // (n1 * n2)))):
        k = sum(sizes)
        s = rng.standard_normal(k) * np.exp(rng.uniform(-20.0, 20.0, k))   # mixed signs
        u = rng.standard_normal((k, n1)) * np.exp(rng.uniform(-5.0, 5.0, (k, n1)))
        v = rng.standard_normal((k, n2))
        at = np.arange(k)
        got = _outer_sum(s, u, at, v, at[::-1].copy(), sizes)
        assert got.shape == (len(sizes), n1, n2)
        first = np.cumsum(sizes) - sizes
        for i, (lo, n) in enumerate(zip(first, sizes)):
            want = loop_sum(s[lo:lo + n], u[lo:lo + n], v[::-1][lo:lo + n])
            assert got[i].tobytes() == want.tobytes(), (sizes, i)


@pytest.mark.parametrize("shape", [(2, 2), (2, 3), (24, 24)])
def test_add_reduce_over_the_leading_axis_is_sequential(shape):
    # _outer_sum relies on this: NumPy sums pairwise only along its inner loop
    rng = np.random.default_rng(5)
    for k in (9, 17, 200):
        stack = (rng.standard_normal((k,) + shape)
                 * np.exp(rng.uniform(-30.0, 30.0, (k,) + shape)))
        seq = stack[0]
        for t in stack[1:]:
            seq = seq + t
        assert np.add.reduce(stack, axis=0).tobytes() == seq.tobytes()
    # the data tells the orders apart: along a contiguous axis the sum differs
    flat = np.ascontiguousarray(stack.reshape(k, -1).T)
    assert np.add.reduce(flat, axis=1).tobytes() != seq.ravel().tobytes()


@pytest.mark.parametrize("units, shape", [(1, (2, 2)), (3, (2, 3)), (40, (8, 8)),
                                          (5, (24, 24))])
def test_add_reduce_of_a_unit_stack_is_sequential_per_unit(units, shape):
    # product._ordered_sums reduces (k, units, n1, n2) stacks into a slice of its
    # running sums: each unit's grid gets its k slices added in order
    rng = np.random.default_rng(6)
    for k in (2, 9, 65):
        stack = (rng.standard_normal((k, units) + shape)
                 * np.exp(rng.uniform(-30.0, 30.0, (k, units) + shape)))
        out = np.empty((units + 2,) + shape)
        np.add.reduce(stack, axis=0, out=out[:units])
        for i in range(units):
            seq = stack[0, i]
            for t in stack[1:, i]:
                seq = seq + t
            assert out[i].tobytes() == seq.tobytes()
            assert np.add.reduce(stack[:, i], axis=0).tobytes() == seq.tobytes()
    # pairwise sums (reduceat over a run) round differently on such data
    runs = np.ascontiguousarray(stack.reshape(k, -1).T)
    assert np.add.reduceat(runs, [0], axis=1).ravel().tobytes() != out[:units].tobytes()


def test_memo_stays_within_its_bound(pspace8):
    ps = ProductSpace(pspace8.x1, pspace8.x2, *pspace8.systems)
    rng = np.random.default_rng(2)
    masks = []
    while len(masks) < MEMO_ENTRIES + 5:
        m = rng.random(ps.shape) < 0.3
        if m.any() and not any((m == old).all() for old in masks):
            masks.append(m)
    for m in masks:
        _pool(ps, OpenSet.from_mask(ps, m))
        assert len(ps._memo) <= MEMO_ENTRIES
    keys = [k for k in ps._memo if k[0] == "pool"]
    assert ("pool", masks[-1].tobytes()) in keys
    assert ("pool", masks[0].tobytes()) not in keys       # least recently used went first


def test_memo_dies_with_its_space():
    space = line_space([0.0, 1.0, 3.0, 4.0])
    ps = ProductSpace(space, space, delta=0.5)
    dec = atomic_decompose(ps, ps.random_function(np.random.default_rng(0)), 1.0, 2.0)
    assert dec.terms and ps._memo
    refs = weakref.ref(ps), weakref.ref(space)
    del space, ps, dec
    gc.collect()
    assert all(r() is None for r in refs)


def test_view_keeps_its_own_entries(pspace8):
    ps = ProductSpace(pspace8.x1, pspace8.x2, *pspace8.systems)
    om = OpenSet.from_mask(ps, np.random.default_rng(4).random(ps.shape) < 0.3)
    _pool(ps, om)
    parent_keys = list(ps._memo)
    grids = tuple(build_system(x, 0.5) for x in (ps.x1, ps.x2))
    view = _view_on(ps, grids)
    assert view is not ps and not view._memo
    eps0, omega_t, family = _pool(view, om)
    assert list(ps._memo) == parent_keys and view._memo
    fresh = maximal_rectangles(view, omega_t, "both")
    assert family.m_all == fresh.m_all
    assert family is not _pool(ps, om)[2]
    assert _view_on(ps, ps.systems) is ps


def test_memo_hit_equals_a_fresh_computation(pspace8):
    ps = ProductSpace(pspace8.x1, pspace8.x2, *pspace8.systems)
    om = OpenSet.from_mask(ps, np.random.default_rng(6).random(ps.shape) < 0.2)
    first = _pool(ps, om)
    hit = _pool(ps, OpenSet.from_mask(ps, om.mask.copy()))
    assert hit is first
    eps0 = epsilon0(ps)
    omega_t = enlarge(ps, om, eps0)
    fam = maximal_rectangles(ps, omega_t, "both")
    assert hit[0] == eps0
    np.testing.assert_array_equal(hit[1].mask, omega_t.mask)
    assert hit[1].measure == omega_t.measure
    assert hit[2].m_all == fam.m_all
    for name in ("rows", "cols", "hat1", "hat2"):
        np.testing.assert_array_equal(getattr(hit[2], name), getattr(fam, name))

    gamma = ps.x1.omega * 2.0 + 1.0
    counts, kphi = _block_stack(ps, 0, gamma)
    assert _block_stack(ps, 0, gamma)[1] is kphi
    for i, w in enumerate(ps.bases[0].wavelets):
        bs = building_blocks(ps.x1, w, gamma, cbar=1.0)
        assert counts[i] == bs.n_blocks
        for ell, phi in enumerate(bs.blocks):
            assert kphi[i, ell].tobytes() == (bs.kappa * phi).tobytes()
        assert not kphi[i, bs.n_blocks:].any()


def test_decompose_enlarges_without_the_maximal_function(monkeypatch):
    space = weighted_line24()
    ps = ProductSpace(space, space, delta=0.25)
    calls = {"strong_maximal": 0, "maximal_rectangles": []}

    def counted_strong_maximal(*args, **kwargs):
        calls["strong_maximal"] += 1
        return strong_maximal(*args, **kwargs)

    def counted_family(pspace, omega, direction="both"):
        calls["maximal_rectangles"].append(omega.key())
        return maximal_rectangles(pspace, omega, direction)

    strong_maximal = maximal_mod.strong_maximal
    monkeypatch.setattr(maximal_mod, "strong_maximal", counted_strong_maximal)
    monkeypatch.setattr(atoms_mod, "maximal_rectangles", counted_family)
    dec = atomic_decompose(ps, ps.random_function(np.random.default_rng(3)), 1.0, 2.0)
    assert all(verify_atom(ps, t.atom)["passed"] for t in dec.terms)
    pools = [v for k, v in ps._memo.items() if k[0] == "pool"]     # one per level set
    enlarged = {omega_t.key() for _, omega_t, _ in pools}
    assert dec.terms and calls["strong_maximal"] == 0
    # one family per distinct enlargement, so at most one per level set
    assert sorted(calls["maximal_rectangles"]) == sorted(enlarged)
    assert len(enlarged) <= len(pools)


def test_a_repeated_factor_has_one_system_and_one_basis():
    space = line_space([0.0, 1.0, 3.0, 4.0])
    ps = ProductSpace(space, space, delta=0.5)
    assert ps.systems[0] is ps.systems[1] and ps.bases[0] is ps.bases[1]
    assert _view_on(ps, ps.systems) is ps
    gamma = space.omega * 2.0 + 1.0
    assert _block_stack(ps, 1, gamma) is _block_stack(ps, 0, gamma)
    assert _block_stack(ps, 1, gamma + 1.0) is not _block_stack(ps, 0, gamma)
    # an equal space that is another object, and systems passed in, stay apart
    apart = ProductSpace(space, line_space([0.0, 1.0, 3.0, 4.0]), delta=0.5)
    assert apart.systems[0] is not apart.systems[1] and apart.bases[0] is not apart.bases[1]
    s1, s2 = build_system(space, 0.5), build_system(space, 0.5)
    given = ProductSpace(space, space, s1, s2)
    assert given.systems[0] is s1 and given.systems[1] is s2
    assert _block_stack(given, 1, gamma) is not _block_stack(given, 0, gamma)


def test_decompose_and_verify_build_one_system_and_each_block_set_once(monkeypatch):
    calls = {"build_system": 0, "building_blocks": []}

    def counted_system(*args, **kwargs):
        calls["build_system"] += 1
        return build_system(*args, **kwargs)

    def counted_blocks(space, wavelet, gamma, cbar):
        calls["building_blocks"].append((wavelet.id, gamma))
        return building_blocks(space, wavelet, gamma, cbar)

    monkeypatch.setattr(product_mod, "build_system", counted_system)
    monkeypatch.setattr(atoms_mod, "building_blocks", counted_blocks)
    space = weighted_line24()
    ps = ProductSpace(space, space, delta=0.25)
    dec = atomic_decompose(ps, ps.random_function(np.random.default_rng(3)), 1.0, 2.0)
    assert dec.terms and all(verify_atom(ps, t.atom)["passed"] for t in dec.terms)
    assert calls["build_system"] == 1
    gamma = dec.gammas[0]
    assert sorted(calls["building_blocks"]) == sorted((w.id, gamma) for w in ps.bases[0].wavelets)


def test_verify_reuses_each_ell_enlargement(monkeypatch):
    calls = []

    def counted_ell_enlarge(pspace, omega_tilde, ell1, ell2, lam1=None, lam2=None):
        calls.append((omega_tilde.key(), ell1, ell2))
        return ell_enlarge(pspace, omega_tilde, ell1, ell2, lam1, lam2)

    monkeypatch.setattr(atoms_mod, "ell_enlarge", counted_ell_enlarge)
    space = weighted_line24()
    ps = ProductSpace(space, space, delta=0.25)
    dec = atomic_decompose(ps, ps.random_function(np.random.default_rng(3)), 1.0, 2.0)
    assert all(verify_atom(ps, t.atom)["passed"] for t in dec.terms)
    assert len(calls) == len(set(calls)) < len(dec.terms)
    assert len(ps._memo) <= MEMO_ENTRIES
    enlarged = {v[1].key(): v[1] for k, v in ps._memo.items() if k[0] == "pool"}
    hits = [(k, v) for k, v in ps._memo.items() if k[0] == "ell"]
    assert len(hits) == len(calls)
    for (_, key, ell1, ell2), (support, _) in hits:
        fresh, _ = ell_enlarge(ps, enlarged[key], ell1, ell2,
                               *_boxes(ps, ell1, ell2)[0])
        np.testing.assert_array_equal(support.mask, fresh.mask)
        assert support.measure == fresh.measure


def test_memoized_is_thread_safe_while_it_evicts(monkeypatch):
    # 8 threads cycle through 8 keys of a 4-key memo, each from its own
    # start, switching as often as the interpreter allows: a key another
    # thread evicts between the lookup and the read must not raise, and each
    # call gets its own key's value
    monkeypatch.setattr(product_mod, "MEMO_ENTRIES", 4)
    ps = ProductSpace(line_space([0.0, 1.0]), line_space([0.0, 1.0]), delta=0.5)
    failures = []

    def cycle(start):
        try:
            for i in range(start, start + 20000):
                key = ("k", i % 8)
                if ps.memoized(key, lambda: ("value", key)) != ("value", key):
                    failures.append(key)
        except Exception as exc:
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=cycle, args=(t,)) for t in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not failures, failures[:3]
    assert len(ps._memo) <= 4
