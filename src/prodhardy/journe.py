"""Maximal dyadic rectangle families and the Journe-type covering check.

A rectangle R = Q1 x Q2 inside an open set is maximal when neither
single-factor parent extension stays inside the set.  The maximal rectangles
form one family m(Omega) with two stretch maps, one per direction: one
takes R to the coarsest ancestor Q2^ of Q2 with
mu((Q1 x Q2^) cap Omega) > mu(Q1 x Q2^)/2 (a chain maximum, by dyadic
nesting), the other takes it to Q1^, symmetrically.  This is the
restricted (Chang-Fefferman style) convention: a single-rectangle set has
exactly one maximal rectangle and covering constant at most 1.  The
covering check certifies, for each direction,

    sum_{R in m(Omega)} mu(R) (l(Q)/l(Q^))^delta  <=  C mu(Omega)

with a measured C, for power weights w(t) = t^delta.

A family holds its rectangles and stretches as flat cube indices of the
factors' dyadic systems, and tau answers with positions in the family; the
(k1, a1, k2, a2) keys are kept alongside for the atoms and reports that
show them.  The families and covering sums of a whole stack of sets come
from one pass (``_families``); a single set is its stack of one.

Every cube of a single-child chain holds one member set, and containment,
the half test and the measures depend only on it.  So a maximal rectangle's
factors are chain tops (``DyadicSystem.tops``: a lower cube's parent extension
stays inside), and so are its stretches (the coarsest passing cube of a
chain is its top).  The family pass asks its questions of tops only, and
ancestry among them is member containment (``_covers``).

The CMO^p candidate supremum (``cmo_p``) ranges over single rectangles and
unions of maximal rectangles, so it lives here too.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dyadic import DyadicSystem
from .maximal import OpenSet, _inside
from .product import ProductCoefficients, ProductSpace, stack_slices
from .space import _exact_sums


@dataclass(frozen=True)
class MaximalRectangleFamily:
    """Rectangle i is cubes1[rows[i]] x cubes2[cols[i]] (flat indices of
    each system's cubes, level then index), its stretches are
    Q1^ = cubes1[hat1[i]] and Q2^ = cubes2[hat2[i]], and m_all[i] is its
    (k1, a1, k2, a2) key.  The arrays are read-only: families are shared."""

    rows: np.ndarray
    cols: np.ndarray
    hat1: np.ndarray
    hat2: np.ndarray
    m_all: list[tuple[int, int, int, int]]


def maximal_rectangles(pspace: ProductSpace, omega: OpenSet,
                       direction: str = "both") -> MaximalRectangleFamily:
    """The maximal rectangle family from the containment matrix: a contained
    Q1 x Q2 is maximal when neither parent(Q1) x Q2 nor Q1 x parent(Q2) is
    contained (the root has no parent).

    One family in deterministic level-then-index order, with both stretch
    maps; its rectangles may overlap.  ``direction`` accepts only "both".
    """
    if direction != "both":
        raise ValueError(f"direction must be 'both', got {direction!r}")
    fam = _families(pspace, omega.mask[None])
    for arr in (fam.rows, fam.cols, fam.hat1, fam.hat2):
        arr.flags.writeable = False
    s1, s2 = pspace.systems
    return MaximalRectangleFamily(
        rows=fam.rows, cols=fam.cols, hat1=fam.hat1, hat2=fam.hat2,
        m_all=[a + b for a, b in zip(s1.keys(fam.rows), s2.keys(fam.cols))])


class _Families(NamedTuple):
    """The maximal families of a stack of sets, set after set: rectangle i
    is cubes1[rows[i]] x cubes2[cols[i]] of set ``sets[i]``, with stretches
    hat1[i] and hat2[i]; l1[e, k] and l2[e, k] are set k's weighted sums for
    exponent e."""

    sets: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    hat1: np.ndarray
    hat2: np.ndarray
    l1: np.ndarray
    l2: np.ndarray


def _families(pspace: ProductSpace, masks: np.ndarray, deltas=()) -> _Families:
    """Every set's maximal family and, for each exponent delta, its sums
    L1 = sum mu(R) (l(Q2)/l(Q2^))^delta and L2 (with Q1^), for a stack of
    masks (K, n1, n2): containment of the chain tops and of their parent
    extensions, one majority matrix of the tops and one stretch pass per
    direction for the whole stack.

    Each set's family is in level-then-index order (row-major over its cube
    pairs; the tops are an ascending subset of the flat order), and each sum
    adds its family's terms m * r^delta one after another from +0.0, the
    order of a Python ``sum`` over the family: the terms fill a zero-padded
    row per set, and ``np.cumsum`` along a row adds left to right.  The
    ratios r = delta^drop are Python powers, one per distinct level drop.
    """
    s1, s2 = pspace.systems
    t1, t2 = s1.tops, s2.tops
    up1, up2 = s1.parent[t1], s2.parent[t2]
    inside = _inside(pspace, masks, t1, t2)
    # the root's parent -1 reads the last row; parent >= 0 masks it out
    grows1 = (up1 >= 0)[:, None] & _inside(pspace, masks, up1, t2)
    grows2 = (up2 >= 0)[None, :] & _inside(pspace, masks, t1, up2)
    sets, r, c = np.nonzero(inside & ~grows1 & ~grows2)   # row-major: set, level, index
    # stretches: the coarsest ancestor-or-self along each rectangle's row or
    # column that keeps the majority, a top (its chain passes alike); the
    # rectangle itself, inside Omega, does
    passes = _majority(pspace, masks, t1, t2)
    hat2 = t2[(_covers(s2, t2[c], t2) & passes[sets, r]).argmax(axis=1)]
    hat1 = t1[(_covers(s1, t1[r], t1) & passes[sets, :, c]).argmax(axis=1)]
    rows, cols = t1[r], t2[c]
    sums = np.zeros((2, len(deltas), len(masks)))
    if len(deltas) and len(sets):
        counts = np.bincount(sets, minlength=len(masks))
        slot = np.arange(len(sets)) - (np.cumsum(counts) - counts)[sets]
        table = np.zeros((2, len(deltas), len(masks), int(counts.max())))
        measures = s1.measures[rows] * s2.measures[cols]
        # l(Q)/l(Q^) = delta^(level_Q - level_Q^) <= 1, one stretch map per direction
        for side, (system, cubes, hats) in enumerate(((s2, cols, hat2), (s1, rows, hat1))):
            drops, at = np.unique(_level_drops(system, cubes, hats), return_inverse=True)
            ratios = [system.delta ** d for d in drops.tolist()]
            for e, d in enumerate(deltas):
                table[side, e, sets, slot] = measures * np.array([r ** d for r in ratios])[at]
        sums = np.cumsum(table.reshape(-1, table.shape[-1]), axis=1)[:, -1].reshape(sums.shape)
    return _Families(sets, rows, cols, hat1, hat2, sums[0], sums[1])


def _majority(pspace: ProductSpace, masks: np.ndarray, rows1, rows2) -> np.ndarray:
    """The half test passes[..., i, j] = mu((Q1 x Q2) cap Omega) > mu(Q1 x Q2)/2
    for Q1 x Q2 = cubes1[rows1[i]] x cubes2[rows2[j]] (flat indices or
    slices) and each set of a stack of masks (..., n1, n2), as the
    per-rectangle sum decides it: it gives the stretch maps and each
    coefficient rectangle's B_j.

    One matrix product gives mu((Q1 x Q2) cap Omega) for every pair asked.
    It adds the per-rectangle sum's nonnegative terms, the products
    w1[i] w2[j], in another order, so with k = n1 n2 + n1 + n2 terms and
    roundings the two differ by at most k eps of the value, plus k
    underflows of at most the smallest normal each; the margin below is
    twice that.  Pairs that close to their half are recomputed with the
    per-rectangle sum; integer products with a total below 2^53 make both
    sums exact, so none are.  (Summing the factor weights first would not
    do: 1e-3 and 1e3 have integer products but inexact factor sums.)
    """
    s1, s2 = pspace.systems
    weights = pspace.weights
    inc1, inc2 = s1.incidence[rows1], s2.incidence[rows2]
    meas = inc1 @ np.where(masks, weights, 0.0) @ inc2.T
    half = np.outer(s1.measures[rows1], s2.measures[rows2]) / 2.0
    passes = meas > half
    if not _exact_sums(weights.ravel()):
        k = weights.size + sum(weights.shape)
        margin = 2.0 * k * (np.finfo(float).eps * meas + np.finfo(float).tiny)
        for *lead, a, b in np.argwhere(np.abs(meas - half) <= margin):
            passes[(*lead, a, b)] = _measure_in(pspace, masks[tuple(lead)], inc1[a] > 0,
                                                inc2[b] > 0) > half[a, b]
    return passes


def _covers(system: DyadicSystem, rows, cols) -> np.ndarray:
    """covers[i, j] is True when cube cols[j] holds every member of cube
    rows[i] (flat indices); for a top cols[j] that is ancestry-or-self."""
    inc = system.incidence
    return inc[rows] @ inc[cols].T == system.sizes[rows][:, None]


def _measure_in(pspace: ProductSpace, mask: np.ndarray, mask1, mask2) -> float:
    """mu((Q1 x Q2) cap Omega) for Omega's mask and member masks of Q1 and Q2,
    one rectangle at a time."""
    w = np.outer(pspace.x1.weight[mask1], pspace.x2.weight[mask2])
    return float(w[mask[np.ix_(mask1, mask2)]].sum())


def tau(pspace: ProductSpace, family: MaximalRectangleFamily, rows, cols) -> np.ndarray:
    """For each rectangle cubes1[rows[k]] x cubes2[cols[k]] (flat cube
    indices), the position in ``family`` of its first rectangle (key order)
    whose factors are ancestors-or-self of the rectangle's factors.

    A maximal rectangle's factors are the coarsest cubes of their
    single-child chains, so for them ancestry and member containment agree
    (``_covers``): this is the lexicographically smallest maximal rectangle
    containing the given one.
    """
    s1, s2 = pspace.systems
    covers = _covers(s1, rows, family.rows) & _covers(s2, cols, family.cols)
    found = covers.any(axis=1)
    if not found.all():
        at = int(np.argmin(found))
        raise AssertionError("no maximal rectangle contains "
                             f"{s1.keys(rows[at:at + 1])[0] + s2.keys(cols[at:at + 1])[0]}")
    return covers.argmax(axis=1) if covers.size else np.zeros(0, dtype=int)


def _level_drops(system: DyadicSystem, cubes, hats) -> list[int]:
    """level(Q) - level(Q^) for each flat row of ``cubes`` and of its stretch in ``hats``."""
    return (system.level_rows[cubes] - system.level_rows[hats]).tolist()


def journe_check(pspace: ProductSpace, omega: OpenSet, deltas) -> list[dict]:
    """Weighted maximal-rectangle sums against mu(Omega) for w(t) = t^delta,
    one report for each exponent delta of the sequence ``deltas`` (the
    family is found once)."""
    deltas = _exponents(deltas)
    if omega.measure <= 0:
        raise ValueError("omega must have positive measure")
    fam = _families(pspace, omega.mask[None], deltas)
    s1, s2 = pspace.systems
    return [{
        "delta": d,
        "L1": l1,
        "L2": l2,
        "C1": l1 / omega.measure,
        "C2": l2 / omega.measure,
        "n_rectangles": len(fam.rows),
        "dilation_ratios": (s1.outer_eff / s1.inner_cert, s2.outer_eff / s2.inner_cert),
    } for d, l1, l2 in zip(deltas, fam.l1[:, 0].tolist(), fam.l2[:, 0].tolist())]


def _largest_constants(pspace: ProductSpace, masks: np.ndarray, deltas) -> list[float]:
    """For each exponent, the largest C1 or C2 that ``journe_check`` reports
    over the nonempty sets of a stack of masks (K, n1, n2); 0.0 without one."""
    deltas = _exponents(deltas)
    masks = masks[masks.any(axis=(1, 2))]
    measures = np.array([pspace.set_measure(m) for m in masks])
    if (measures <= 0).any():
        raise ValueError("omega must have positive measure")
    fam = _families(pspace, masks, deltas)
    return np.maximum(fam.l1 / measures, fam.l2 / measures).max(axis=1, initial=0.0).tolist()


def _exponents(deltas) -> list:
    deltas = list(deltas)
    if not deltas or not all(d > 0 for d in deltas):
        raise ValueError("delta exponents must be a nonempty sequence of positive numbers")
    return deltas


CMO_MAX_UNION = 3      # unions of up to this many maximal rectangles are candidates
CMO_MICRO_LIMIT = 15   # up to this many energy rectangles, every union of them is one


def cmo_p(pspace: ProductSpace, coeffs: ProductCoefficients, p: float) -> float:
    """Lower bound for the CMO^p supremum over a structured candidate family.

    Candidate value: (mu(Omega)^(1-2/p) * sum_{R in Omega} |<f,psi psi>|^2)^(1/2),
    the sum over wavelet rectangles contained in Omega.  Candidates: every
    single dyadic rectangle, unions of <= CMO_MAX_UNION maximal rectangles
    of the coefficient support, and -- when at most CMO_MICRO_LIMIT
    rectangles carry energy -- all unions of those rectangles, which makes
    the candidate supremum equal to the exhaustive all-subsets supremum (the
    optimum is always attained at such a union: dropping points outside the
    contained rectangles shrinks mu(Omega) without losing energy).

    Energy is kept once per distinct wavelet rectangle.  A single rectangle
    holds the members of a pair of chain tops, so one product over their
    covers scores them all; unions are masks, tested a stack at a time.
    """
    s1, s2 = pspace.systems
    b1, b2 = pspace.bases
    # energy[i, j]: sum of |<f,psi psi>|^2 over the wavelets on cubes ra[i] x rb[j]
    ra, at1 = np.unique(b1.cube_rows, return_inverse=True)
    rb, at2 = np.unique(b2.cube_rows, return_inverse=True)
    energy = np.bincount((at1[:, None] * len(rb) + at2).ravel(), (coeffs.ww ** 2).ravel(),
                         len(ra) * len(rb)).reshape(len(ra), len(rb))
    best = _cmo_best(np.outer(s1.measures[s1.tops], s2.measures[s2.tops]),
                     _covers(s1, ra, s1.tops).T @ energy @ _covers(s2, rb, s2.tops), p)
    if not energy.any():
        return best
    inc1, inc2 = s1.incidence[ra], s2.incidence[rb]
    fam = maximal_rectangles(pspace, OpenSet.from_mask(pspace, inc1.T @ (energy > 0) @ inc2 > 0))
    groups = [(s1.incidence[fam.rows], s2.incidence[fam.cols], CMO_MAX_UNION)]
    a, b = np.nonzero(energy)
    if len(a) <= CMO_MICRO_LIMIT:
        groups.append((inc1[a], inc2[b], len(a)))
    for rows, cols, max_size in groups:
        for masks in _unions(pspace, rows[:, :, None] * cols[:, None, :] > 0, max_size):
            contained = _inside(pspace, masks, ra, rb)
            best = max(best, _cmo_best(np.where(masks, pspace.weights, 0.0).sum(axis=(1, 2)),
                                       (contained * energy).sum(axis=(1, 2)), p))
    return best


def _cmo_best(mu: np.ndarray, energy: np.ndarray, p: float) -> float:
    """The largest candidate value (mu^(1-2/p) energy)^(1/2) among the
    candidates that hold energy; 0.0 without one."""
    held = energy > 0
    return float(np.sqrt(mu[held] ** (1.0 - 2.0 / p) * energy[held]).max(initial=0.0))


def _unions(pspace: ProductSpace, rects: np.ndarray, max_size: int):
    """Every union of one to ``max_size`` of the masks ``rects`` (m, n1, n2),
    size by size in stacks of at most SUM_BATCH grid entries.  A stack's
    combinations are the rows of a 0/1 selection matrix, and its unions the
    nonzero entries of one product with the flattened masks (counts of at
    most m, exact in floats)."""
    m = len(rects)
    flat = rects.reshape(m, -1).astype(float)
    for r in range(1, min(max_size, m) + 1):
        combos = itertools.chain.from_iterable(itertools.combinations(range(m), r))
        for cut in stack_slices(pspace, math.comb(m, r)):
            k = cut.stop - cut.start
            pick = np.zeros((k, m))
            pick[np.arange(k)[:, None], np.fromiter(combos, np.intp, k * r).reshape(k, r)] = 1.0
            yield (pick @ flat > 0).reshape(k, *rects.shape[1:])
