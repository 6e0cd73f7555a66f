"""Property tests: the stacked decomposition core gives every function of a
corpus the floats of the per-cell construction, byte for byte.

``decompose_by_cells`` is that construction written out one (j, l1, l2) cell
and one rectangle at a time, every sum a plain loop from zero; it is the
oracle for ``atoms._decompose_stack``, which decomposes a whole stack at once
(its records made by ``atoms._records``, each atom carrying its pool), for
``atomic_decompose`` (the stack of one) and for ``equivalence_report``.
The instances are products of one to five points per factor, so one-point
factors occur, and corpora mix scales and zero functions.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prodhardy import (ChannelError, OpenSet, atomic_decompose, atoms, epsilon0,
                       equivalence_report, hp_seminorm, level_sets, maximal_rectangles,
                       product_transform, square_function)
from prodhardy.atoms import (COEFF_TOL, _block_stacks, _budget_measure, _decompose_stack,
                             _gammas, _pools, _recancelled, _records)
from prodhardy.journe import _majority, tau
from prodhardy.maximal import _inside
from prodhardy.product import cell_scale

from strategies import CHECK, instances

PQ = st.sampled_from([(1.0, 2.0), (0.8, 1.5), (1.0, 3.0)])
SCALES = st.lists(st.sampled_from([0.0, 1e-3, 1.0, 1e3]), min_size=1, max_size=4)


def loop_sum(s, u, v, shape):
    acc = np.zeros(shape)
    for k in range(len(s)):
        acc = acc + s[k] * np.outer(u[k], v[k])
    return acc


def decompose_by_cells(ps, f, p, q):
    """(terms as (lam, lam_raw, weight, provenance, values, rectangle atoms,
    pool), residual, report) of f, one cell at a time, default gammas; each
    level set's pool is built for that set alone."""
    qprime = q / (q - 1.0)
    g1, g2 = (x.omega * (1.0 / p + 1.0 / qprime) + 1.0 for x in (ps.x1, ps.x2))
    coeffs = product_transform(ps, f)
    norms = coeffs.channel_norms()
    tested = [c for c, n in (("ws", ps.x2.n), ("sw", ps.x1.n), ("ss", 2)) if n > 1]
    if max(norms[c] for c in tested) > 1e-10 * math.hypot(*norms.values()):
        raise ChannelError(norms)
    cw = coeffs.ww
    cmax = float(np.abs(cw).max(initial=0.0))
    fq = ps.lq_norm(f, q)
    if cw.size == 0 or not f.any():      # no terms: f itself is left over
        residual = ps.lq_norm(np.zeros(ps.shape) - f, q) / fq if fq > 0 else 0.0
        return [], residual, {"n_terms": 0, "lam_sum": 0.0, "sf_p_norm": 0.0}
    live = np.argwhere(np.abs(cw) > COEFF_TOL * cmax)
    sf = square_function(ps, coeffs)
    omegas = level_sets(ps, sf)
    j_lo = min(omegas)
    (b1, b2), (s1, s2) = ps.bases, ps.systems
    rows, cols = b1.cube_rows[live[:, 0]], b2.cube_rows[live[:, 1]]
    j_of = np.full(len(live), j_lo - 1)
    for jj, omega in omegas.items():
        j_of[_majority(ps, omega.mask, slice(None), slice(None))[rows, cols]] = jj
    assert (j_of >= j_lo).all()
    (nb1, kphi1), (nb2, kphi2) = _block_stacks(ps, (g1, g2))
    r = q if q >= 2 else 2.0
    terms, recon = [], np.zeros(ps.shape)
    for jj in sorted(set(j_of.tolist())):
        sel = j_of == jj
        ii, jw, ra, rb = live[sel, 0], live[sel, 1], rows[sel], cols[sel]
        cs = cw[ii, jw]
        eps0, omega_t, family = _pools(ps, [omegas[jj]])[0]
        assert _inside(ps, omega_t.mask, slice(None), slice(None))[ra, rb].all()
        group = tau(ps, family, ra, rb)
        sq = np.array([c ** 2 for c in cs.tolist()])
        sfb2 = loop_sum(sq / (s1.measures[ra] * s2.measures[rb]), s1.incidence[ra],
                        s2.incidence[rb], ps.shape)
        sfb_norm = ps.lq_norm(np.sqrt(sfb2), r)
        if sfb_norm == 0.0:
            continue
        for l1 in range(nb1[ii].max()):
            for l2 in range(nb2[jw].max()):
                cell = np.flatnonzero((nb1[ii] > l1) & (nb2[jw] > l2))
                if not len(cell):
                    continue
                lam_raw = (cell_scale(ps, l1, l2) * sfb_norm
                           * _budget_measure(ps, omega_t, l1, l2) ** (1.0 / p - 1.0 / r))
                weight = 2.0 ** (-l1 * g1 - l2 * g2)
                rects = {}
                for g in dict.fromkeys(group[cell].tolist()):
                    k = cell[group[cell] == g]
                    rects[family.m_all[g]] = _recancelled(ps, loop_sum(
                        cs[k] / lam_raw, kphi1[ii[k], l1], kphi2[jw[k], l2], ps.shape))
                avals = np.zeros(ps.shape)
                for v in rects.values():
                    avals = avals + v
                if np.abs(avals).max() == 0.0:
                    continue
                terms.append((weight * lam_raw, lam_raw, weight, (jj, l1, l2), avals, rects,
                              (eps0, omega_t, family)))
                recon = recon + weight * lam_raw * avals
    residual = ps.lq_norm(recon - f, q) / fq if fq > 0 else 0.0
    lam_sum = 0                                  # as the report adds: left to right from 0
    for t in terms:
        lam_sum = lam_sum + abs(t[0]) ** p
    sf_p = float(((sf ** p) * ps.weights).sum())
    return terms, residual, {"n_terms": len(terms), "lam_sum": lam_sum, "sf_p_norm": sf_p,
                             "lam_sum_constant": lam_sum / sf_p if sf_p > 0 else 0.0,
                             "epsilon0": eps0, "gammas": (g1, g2)}


def bits(x):
    return np.float64(x).tobytes()


def assert_same(dec, want):
    terms, residual, report = want
    assert bits(dec.residual) == bits(residual)
    assert repr(dec.report) == repr(report)
    assert len(dec.terms) == len(terms)
    for t, (lam, lam_raw, weight, prov, values, rects, pool) in zip(dec.terms, terms):
        assert (bits(t.lam), bits(t.lam_raw), bits(t.weight)) == (bits(lam), bits(lam_raw),
                                                                   bits(weight))
        assert t.provenance == prov and (t.atom.ell1, t.atom.ell2) == prov[1:]
        assert t.atom.values.tobytes() == values.tobytes()
        assert list(t.atom.rectangle_atoms) == list(rects)
        for key, v in rects.items():
            assert t.atom.rectangle_atoms[key].tobytes() == v.tobytes()
        # the atom carries the pool its level set builds alone, though the
        # stack shares pools between functions with one level set
        (eps0, omega_t, family), (e, o, fam) = t.atom.pool, pool
        assert (bits(eps0), bits(omega_t.measure)) == (bits(e), bits(o.measure))
        assert omega_t.mask.tobytes() == o.mask.tobytes() and family.m_all == fam.m_all
        for name in ("rows", "cols", "hat1", "hat2"):
            assert getattr(family, name).tobytes() == getattr(fam, name).tobytes()


def corpus_of(ps, scales, seed):
    rng = np.random.default_rng(seed)
    return [scale * ps.random_function(rng) for scale in scales]


@settings(CHECK, max_examples=30)
@given(instances(), SCALES, st.integers(0, 2 ** 32 - 1), PQ)
def test_stacked_core_equals_the_cell_loop(inst, scales, seed, pq):
    ps, _ = inst
    p, q = pq
    gammas = _gammas(ps, p, q, None, None)
    corpus = corpus_of(ps, scales, seed)
    try:
        wants = [decompose_by_cells(ps, f, p, q) for f in corpus]
    except ValueError as e:       # the epsilon0 range error: every path names it
        with pytest.raises(type(e), match="epsilon0"):
            _decompose_stack(ps, np.stack(corpus), p, q, gammas, _block_stacks(ps, gammas))
        return
    stack = _decompose_stack(ps, np.stack(corpus), p, q, gammas, _block_stacks(ps, gammas))
    for k, (f, want) in enumerate(zip(corpus, wants)):
        assert_same(_records(ps, stack, k, p, q, gammas), want)
        assert_same(atomic_decompose(ps, f, p, q), want)


@settings(CHECK, max_examples=20)
@given(instances(), SCALES, st.integers(0, 2 ** 32 - 1), PQ)
def test_equivalence_report_of_a_generator_equals_the_cell_loop(inst, scales, seed, pq):
    ps, _ = inst
    p, q = pq
    corpus = corpus_of(ps, scales, seed)
    try:
        wants = [decompose_by_cells(ps, f, p, q) for f in corpus]
    except ValueError:
        return
    rep = equivalence_report(ps, (f for f in corpus), p, q)
    for row, f, (terms, residual, report) in zip(rep["per_function"], corpus, wants):
        hp_p = hp_seminorm(ps, f, p) ** p
        assert bits(row["hp_p"]) == bits(hp_p)
        assert bits(row["lam_sum"]) == bits(report["lam_sum"])
        assert bits(row["residual"]) == bits(residual)
        sa = [hp_seminorm(ps, t[4], p) for t in terms]
        assert bits(row["max_sa_p"]) == bits(max(sa, default=0.0))


def test_a_rectangle_outside_its_enlargement_is_named(pspace8, monkeypatch):
    # a pool whose set is one point holds no classified rectangle: tau, the
    # covering check, raises and names the rectangle's key
    def one_point_pools(view, sets):
        mask = np.zeros(view.shape, dtype=bool)
        mask[0, 0] = True
        small = OpenSet.from_mask(view, mask)
        return [(epsilon0(view), small, maximal_rectangles(view, small))] * len(sets)

    monkeypatch.setattr(atoms, "_pools", one_point_pools)
    f = pspace8.random_function(np.random.default_rng(0))
    with pytest.raises(AssertionError, match=r"no maximal rectangle contains \(-?\d+, \d+, -?\d+, \d+\)"):
        atomic_decompose(pspace8, f, 1.0, 2.0)
