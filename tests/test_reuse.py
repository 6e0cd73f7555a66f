"""What is shared, and where, and the ordered outer-product sum.

A space keeps nothing of its calls.  Within one decomposition, level sets
with one mask share a Chang-Fefferman pool, pools with one enlargement share
a maximal family and a repeated factor shares its building-block stack; each
atom carries its pool to ``verify_atom``.  Threads that share a space get the
serial results.  Atom cells are summed with ``product._outer_sum``, which
must add its terms in the order of the plain loop so reports stay
byte-identical.
"""

import gc
import json
import sys
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest

import prodhardy
import prodhardy.atoms as atoms_mod
import prodhardy.maximal as maximal_mod
import prodhardy.product as product_mod
from prodhardy import (OpenSet, ProductSpace, atomic_decompose, build_system,
                       building_blocks, enlarge, epsilon0, equivalence_report, generate_atom,
                       maximal_rectangles, verify_atom)
from prodhardy.atoms import _block_stacks, _decompose_stack, _gammas, _lams, _pools, _view_on
from prodhardy.cli import main
from prodhardy.product import SUM_BATCH, _outer_sum

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


def counted(monkeypatch, module, *names):
    """Record the arguments of each call of ``module``'s functions ``names``."""
    calls = {name: [] for name in names}
    for name in names:
        def wrapper(*args, _name=name, _fn=getattr(module, name), **kwargs):
            calls[_name].append(args)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)
    return calls


def test_a_space_holds_no_values_of_its_calls(pspace8):
    # a space keeps what it was built from and its read-only weight grid;
    # pools, families, enlargements and block stacks live in the calls
    ps = ProductSpace(pspace8.x1, pspace8.x2, *pspace8.systems)
    rng = np.random.default_rng(2)
    for _ in range(5):
        dec = atomic_decompose(ps, ps.random_function(rng), 1.0, 2.0)
        assert dec.terms and all(verify_atom(ps, t.atom)["passed"] for t in dec.terms)
    equivalence_report(ps, [ps.random_function(rng) for _ in range(3)], 1.0, 2.0)
    assert set(vars(ps)) <= {"x1", "x2", "systems", "bases", "p0", "weights"}


def test_a_space_dies_with_its_decomposition():
    space = line_space([0.0, 1.0, 3.0, 4.0])
    ps = ProductSpace(space, space, delta=0.5)
    dec = atomic_decompose(ps, ps.random_function(np.random.default_rng(0)), 1.0, 2.0)
    assert dec.terms and dec.terms[0].atom.pool is not None
    refs = weakref.ref(ps), weakref.ref(space), weakref.ref(dec.terms[0].atom.pool[2])
    del space, ps, dec
    gc.collect()
    assert all(r() is None for r in refs)


def test_a_view_builds_its_pool_on_its_own_grids(pspace8):
    ps = pspace8
    grids = tuple(build_system(x, 0.5) for x in (ps.x1, ps.x2))
    view = _view_on(ps, grids)
    assert view is not ps and _view_on(ps, ps.systems) is ps
    atom = None
    rng = np.random.default_rng(4)
    while atom is None:
        atom = generate_atom(ps, rng, 1.0, 2.0, 0, 0, grids=grids)
    eps0, omega_t, family = atom.pool
    assert omega_t.mask.tobytes() == enlarge(view, atom.omega, eps0).mask.tobytes()
    assert family.m_all == maximal_rectangles(view, omega_t, "both").m_all
    assert family.m_all != _pools(ps, [atom.omega])[0][2].m_all
    assert verify_atom(ps, atom)["passed"]


def test_pools_share_by_mask_and_equal_a_fresh_computation(pspace8):
    ps = pspace8
    rng = np.random.default_rng(6)
    om, other = (OpenSet.from_mask(ps, rng.random(ps.shape) < 0.2) for _ in range(2))
    first, again, second = _pools(ps, [om, OpenSet.from_mask(ps, om.mask.copy()), other])
    assert again is first and second is not first
    eps0 = epsilon0(ps)
    omega_t = enlarge(ps, om, eps0)
    fam = maximal_rectangles(ps, omega_t, "both")
    assert first[0] == eps0
    np.testing.assert_array_equal(first[1].mask, omega_t.mask)
    assert first[1].measure == omega_t.measure
    assert first[2].m_all == fam.m_all
    for name in ("rows", "cols", "hat1", "hat2"):
        np.testing.assert_array_equal(getattr(first[2], name), getattr(fam, name))
    # two sets with one enlargement, the whole grid: two pools, one family
    whole = np.ones(ps.shape, dtype=bool)
    almost = whole.copy()
    almost[0, 0] = False
    a, b = _pools(ps, [OpenSet.from_mask(ps, almost), OpenSet.from_mask(ps, whole)])
    assert a is not b and a[1].mask.all() and a[2] is b[2]

    gamma = ps.x1.omega * 2.0 + 1.0
    (counts, kphi), _ = _block_stacks(ps, (gamma, gamma))
    for i, w in enumerate(ps.bases[0].wavelets):
        kappa, blocks = building_blocks(ps.x1, w, gamma, cbar=1.0)
        assert counts[i] == len(blocks)
        for ell, phi in enumerate(blocks):
            assert kphi[i, ell].tobytes() == (kappa * phi).tobytes()
        assert not kphi[i, len(blocks):].any()


def test_decompose_enlarges_without_the_maximal_function(monkeypatch):
    space = weighted_line24()
    ps = ProductSpace(space, space, delta=0.25)
    calls = counted(monkeypatch, maximal_mod, "strong_maximal")
    calls.update(counted(monkeypatch, atoms_mod, "enlarge", "maximal_rectangles"))
    rng = np.random.default_rng(3)
    f = ps.random_function(rng)
    gammas = _gammas(ps, 1.0, 2.0, None, None)
    # f and 2f have the same level sets, one index apart: they share pools
    terms, *_, reports = _decompose_stack(ps, np.stack([f, 2.0 * f, ps.random_function(rng)]),
                                          1.0, 2.0, gammas, _block_stacks(ps, gammas))
    assert terms and calls["strong_maximal"] == []
    pools = {}
    for omega, pool, *_ in terms:
        assert pools.setdefault(omega.key(), pool) is pool
    n0, n1 = reports[0]["n_terms"], reports[1]["n_terms"]
    assert {o.key() for o, *_ in terms[:n0]} & {o.key() for o, *_ in terms[n0:n0 + n1]}
    sets = [omega.key() for _, omega, *_ in calls["enlarge"]]
    assert len(sets) == len(set(sets))
    enlarged = [enlarge(ps, omega, eps0).key() for _, omega, eps0 in calls["enlarge"]]
    # one family per distinct enlargement, so at most one per level set
    assert sorted(omega.key() for _, omega in calls["maximal_rectangles"]) == sorted(set(enlarged))


def test_a_repeated_factor_has_one_system_and_one_basis():
    space = line_space([0.0, 1.0, 3.0, 4.0])
    ps = ProductSpace(space, space, delta=0.5)
    assert ps.systems[0] is ps.systems[1] and ps.bases[0] is ps.bases[1]
    assert _view_on(ps, ps.systems) is ps
    gamma = space.omega * 2.0 + 1.0
    first, second = _block_stacks(ps, (gamma, gamma))
    assert second is first
    first, second = _block_stacks(ps, (gamma, gamma + 1.0))
    assert second is not first and second[1].tobytes() != first[1].tobytes()
    # an equal space that is another object, and systems passed in, stay apart
    apart = ProductSpace(space, line_space([0.0, 1.0, 3.0, 4.0]), delta=0.5)
    assert apart.systems[0] is not apart.systems[1] and apart.bases[0] is not apart.bases[1]
    s1, s2 = build_system(space, 0.5), build_system(space, 0.5)
    given = ProductSpace(space, space, s1, s2)
    assert given.systems[0] is s1 and given.systems[1] is s2
    first, second = _block_stacks(given, (gamma, gamma))
    assert second is not first


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


def test_verify_enlarges_each_atom_pool_once(monkeypatch):
    space = weighted_line24()
    ps = ProductSpace(space, space, delta=0.25)
    dec = atomic_decompose(ps, ps.random_function(np.random.default_rng(3)), 1.0, 2.0)
    calls = counted(monkeypatch, atoms_mod, "ell_enlarge")["ell_enlarge"]
    assert all(verify_atom(ps, t.atom)["passed"] for t in dec.terms)
    assert len(calls) == len(dec.terms)
    for (_, omega_t, ell1, ell2, lam1, lam2), t in zip(calls, dec.terms):
        assert omega_t is t.atom.pool[1] and (ell1, ell2) == (t.atom.ell1, t.atom.ell2)
        assert (lam1, lam2) == _lams(ps, ell1, ell2)


def test_verify_after_100_decompositions_builds_no_pool(monkeypatch):
    space = weighted_line24()
    ps = ProductSpace(space, space, delta=0.25)
    rng = np.random.default_rng(0)
    decs = [atomic_decompose(ps, ps.random_function(rng), 1.0, 2.0) for _ in range(101)]
    calls = counted(monkeypatch, atoms_mod, "enlarge", "maximal_rectangles")
    assert decs[0].terms and all(verify_atom(ps, t.atom)["passed"] for t in decs[0].terms)
    assert calls == {"enlarge": [], "maximal_rectangles": []}


def test_verify_of_a_generated_atom_builds_no_pool(pspace8, monkeypatch):
    rng = np.random.default_rng(1)
    atoms = [a for a in (generate_atom(pspace8, rng, 1.0, 2.0, 1, 0) for _ in range(6)) if a]
    calls = counted(monkeypatch, atoms_mod, "enlarge", "maximal_rectangles")
    assert atoms and all(verify_atom(pspace8, a)["passed"] for a in atoms)
    assert calls == {"enlarge": [], "maximal_rectangles": []}


def decompose_and_verify(ps, seed, p, q):
    """JSON bytes of one seed's decomposition and its atoms' certificates."""
    dec = atomic_decompose(ps, ps.random_function(np.random.default_rng(seed)), p, q)
    return json.dumps({
        "residual": dec.residual, "summary": dec.report,
        "terms": [[t.lam, t.lam_raw, t.provenance, t.atom.values.tolist(),
                   sorted(t.atom.rectangle_atoms), verify_atom(ps, t.atom)] for t in dec.terms],
    }, default=str).encode()


@pytest.mark.parametrize("p, q", [(1.0, 2.0), (0.8, 1.5)])
def test_threads_sharing_a_space_write_the_serial_reports(p, q):
    # 8 threads decompose and verify a different seed each on one space,
    # switching as often as the interpreter allows
    space = weighted_line24()
    ps = ProductSpace(space, space, delta=0.25)
    serial = [decompose_and_verify(ProductSpace(space, space, delta=0.25), seed, p, q)
              for seed in range(8)]
    got, failures = [None] * 8, []

    def run(seed):
        try:
            got[seed] = decompose_and_verify(ps, seed, p, q)
        except Exception as exc:
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(seed,)) for seed in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not failures, failures[:3]
    assert got == serial


def test_threads_making_one_space_at_once_get_the_serial_constants():
    # 8 threads each make the space of one 64-point cloud at once, each
    # with a0's own helpers, switching as often as the interpreter allows
    rng = np.random.default_rng(64)
    pts = rng.uniform(0.0, 1.0, (64, 2))
    dist = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(-1))
    np.fill_diagonal(dist, 0.0)
    weight = 10.0 ** rng.uniform(-1.0, 1.0, 64)
    serial = prodhardy.make_space(dist, weight)
    got, failures = [None] * 8, []
    before = threading.active_count()

    def run(i):
        try:
            got[i] = prodhardy.make_space(dist, weight)
        except Exception as exc:
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert threading.active_count() == before
    assert not failures, failures[:3]
    assert [(sp.a0, sp.cmu) for sp in got] == [(serial.a0, serial.cmu)] * 8


def test_hardy_threads_changes_no_byte(monkeypatch, tmp_path):
    src = Path(prodhardy.__file__).parent
    assert not any("HARDY_THREADS" in f.read_text() for f in src.glob("*.py"))
    written = []
    for value in (None, "1", "4"):
        if value is None:
            monkeypatch.delenv("HARDY_THREADS", raising=False)
        else:
            monkeypatch.setenv("HARDY_THREADS", value)
        out = tmp_path / f"dec-{value}.json"
        assert main(["decompose", "--seed", "3", "--out", str(out)]) == 0
        written.append(out.read_bytes())
    assert written[0] == written[1] == written[2]
