"""Maximal dyadic rectangle families and the Journe-type covering check.

A rectangle R = Q1 x Q2 inside an open set is maximal when neither
single-factor parent extension stays inside the set.  The maximal rectangles
form one family m(Omega) with two stretch maps, one per direction: stretch2
takes R to the coarsest ancestor Q2^ of Q2 with
mu((Q1 x Q2^) cap Omega) > mu(Q1 x Q2^)/2 (a chain maximum, by dyadic
nesting), and stretch1 takes it to Q1^, symmetrically.  This is the
restricted (Chang-Fefferman style) convention: a single-rectangle set has
exactly one maximal rectangle and covering constant at most 1.  The
covering check certifies, for each direction,

    sum_{R in m(Omega)} mu(R) (l(Q)/l(Q^))^delta  <=  C mu(Omega)

with a measured C, for power weights w(t) = t^delta.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .maximal import OpenSet, containment_matrix
from .product import DyadicRectangle, ProductSpace
from .space import _exact_sums


@dataclass
class MaximalRectangleFamily:
    m_all: list[DyadicRectangle] = field(default_factory=list)
    stretch2: dict = field(default_factory=dict)   # R -> Q2^ cube id
    stretch1: dict = field(default_factory=dict)   # R -> Q1^ cube id


def maximal_rectangles(pspace: ProductSpace, omega: OpenSet,
                       direction: str = "both") -> MaximalRectangleFamily:
    """The maximal rectangle family from the containment matrix: a contained
    Q1 x Q2 is maximal when neither parent(Q1) x Q2 nor Q1 x parent(Q2) is
    contained (the root has no parent).

    One family ``m_all`` in deterministic level-then-index order, with both
    stretch maps; its rectangles may overlap.  ``direction`` accepts only
    "both".
    """
    if direction != "both":
        raise ValueError(f"direction must be 'both', got {direction!r}")
    fam = MaximalRectangleFamily()
    if omega.is_empty():
        return fam
    g1, g2 = pspace.systems[0].geometry, pspace.systems[1].geometry
    inside = containment_matrix(pspace, omega)
    # inside[-1] (the root's parent) reads the last row; parent >= 0 masks it out
    grows1 = (g1.parent >= 0)[:, None] & inside[g1.parent, :]
    grows2 = (g2.parent >= 0)[None, :] & inside[:, g2.parent]
    rects = np.argwhere(inside & ~grows1 & ~grows2)      # row-major: level then index
    for a, b in rects:
        c1, c2 = g1.cubes[a], g2.cubes[b]
        fam.m_all.append(DyadicRectangle(q1=c1.id, q2=c2.id, measure=c1.measure * c2.measure))
    # stretches: the coarsest ancestor-or-self along each rectangle's row or
    # column that keeps the majority; the rectangle itself, inside Omega, does
    passes = majority_matrix(pspace, omega)
    rows, cols = rects[:, 0], rects[:, 1]
    hat2 = (g2.ancestors[cols] & passes[rows]).argmax(axis=1)
    hat1 = (g1.ancestors[rows] & passes[:, cols].T).argmax(axis=1)
    for ref, b, a in zip(fam.m_all, hat2, hat1):
        fam.stretch2[ref.key] = g2.cubes[b].id
        fam.stretch1[ref.key] = g1.cubes[a].id
    return fam


def majority_matrix(pspace: ProductSpace, omega: OpenSet) -> np.ndarray:
    """The half test passes[a, b] = mu((Q1 x Q2) cap Omega) > mu(Q1 x Q2)/2
    for every cube pair (flat indices), as the per-rectangle sum decides it:
    it gives the stretch maps and each coefficient rectangle's B_j.

    One matrix product gives mu((Q1 x Q2) cap Omega) for every cube pair.
    It adds the per-rectangle sum's nonnegative terms, the products
    w1[i] w2[j], in another order, so with k = n1 n2 + n1 + n2 terms and
    roundings the two differ by at most k eps of the value, plus k
    underflows of at most the smallest normal each; the margin below is
    twice that.  Pairs that close to their half are recomputed with the
    per-rectangle sum; integer products with a total below 2^53 make both
    sums exact, so none are.  (Summing the factor weights first would not
    do: 1e-3 and 1e3 have integer products but inexact factor sums.)
    """
    g1, g2 = pspace.systems[0].geometry, pspace.systems[1].geometry
    weights = pspace.weights
    meas = g1.incidence @ np.where(omega.mask, weights, 0.0) @ g2.incidence.T
    half = np.outer(g1.measures, g2.measures) / 2.0
    passes = meas > half
    if not _exact_sums(weights.ravel()):
        k = weights.size + sum(weights.shape)
        margin = 2.0 * k * (np.finfo(float).eps * meas + np.finfo(float).tiny)
        for a, b in np.argwhere(np.abs(meas - half) <= margin):
            passes[a, b] = _measure_in(pspace, omega, g1.incidence[a] > 0,
                                       g2.incidence[b] > 0) > half[a, b]
    return passes


def _measure_in(pspace: ProductSpace, omega: OpenSet, mask1, mask2) -> float:
    """mu((Q1 x Q2) cap Omega) for member masks of Q1 and Q2, one rectangle at a time."""
    w = np.outer(pspace.x1.weight[mask1], pspace.x2.weight[mask2])
    return float(w[omega.mask[np.ix_(mask1, mask2)]].sum())


def stretch(pspace: ProductSpace, family: MaximalRectangleFamily,
            ref: DyadicRectangle, direction: int = 1):
    """Public stretch map (direction 1: Q2^, else Q1^); the rectangle must
    belong to the family."""
    table, system = ((family.stretch2, pspace.systems[1]) if direction == 1
                     else (family.stretch1, pspace.systems[0]))
    if ref.key not in table:
        raise ValueError(f"rectangle {ref.key} is not in this family")
    return system.cube(*table[ref.key])


def stretch_exhaustive(pspace: ProductSpace, omega: OpenSet, ref: DyadicRectangle,
                       direction: int):
    """Specification of the stretch maps: for R = Q1 x Q2 in m(Omega), the
    coarsest ancestor Q^ of the other factor keeping
    mu((stretched R) cap Omega) > mu(stretched R)/2.

    The rectangle itself satisfies the condition (it lies inside Omega), so
    the chain scan from the root down returns the first ancestor that does.
    """
    s1, s2 = pspace.systems
    c1 = s1.cube(*ref.q1)
    c2 = s2.cube(*ref.q2)
    if direction == 1:
        fixed_mask = s1.member_mask(*c1.id)
        fixed_measure = c1.measure
        moving, system, axis = c2, s2, 1
    else:
        fixed_mask = s2.member_mask(*c2.id)
        fixed_measure = c2.measure
        moving, system, axis = c1, s1, 0

    chain = [moving]
    while chain[-1].level > system.k_min and chain[-1].parent is not None:
        chain.append(system.cube(chain[-1].level - 1, chain[-1].parent))
    for cand in reversed(chain):         # coarsest first
        cand_mask = system.member_mask(*cand.id)
        inter_measure = (_measure_in(pspace, omega, fixed_mask, cand_mask) if axis == 1
                         else _measure_in(pspace, omega, cand_mask, fixed_mask))
        if inter_measure > fixed_measure * cand.measure / 2.0:
            return cand
    raise AssertionError("rectangle inside Omega must satisfy its own half test")


def tau(pspace: ProductSpace, family: MaximalRectangleFamily, keys) -> list:
    """For each rectangle key, the first rectangle of ``family.m_all`` (key
    order) whose factors are ancestors-or-self of the key's factors.

    A maximal rectangle's factors are the coarsest cubes of their
    single-child chains, so for them ancestry and member containment agree:
    this is the lexicographically smallest maximal rectangle containing the
    key's rectangle.
    """
    g1, g2 = pspace.systems[0].geometry, pspace.systems[1].geometry
    rows = [g1.flat(*r.q1) for r in family.m_all]
    cols = [g2.flat(*r.q2) for r in family.m_all]
    covers = (g1.ancestors[np.ix_([g1.flat(*k[:2]) for k in keys], rows)]
              & g2.ancestors[np.ix_([g2.flat(*k[2:]) for k in keys], cols)])
    found = covers.any(axis=1)
    if not found.all():
        raise AssertionError(f"no maximal rectangle contains {keys[int(np.argmin(found))]}")
    return [family.m_all[h].key for h in covers.argmax(axis=1)] if keys else []


def journe_check(pspace: ProductSpace, omega: OpenSet, delta_exp: float) -> dict:
    """Weighted maximal-rectangle sums against mu(Omega) for w(t) = t^delta."""
    if delta_exp <= 0:
        raise ValueError("delta exponent must be positive")
    if omega.measure <= 0:
        raise ValueError("omega must have positive measure")
    fam = maximal_rectangles(pspace, omega, "both")
    s1, s2 = pspace.systems
    # l(Q)/l(Q^) = delta^(level_Q - level_Q^) <= 1, one stretch map per direction
    l1 = sum(ref.measure * (s2.delta ** (ref.q2[0] - fam.stretch2[ref.key][0])) ** delta_exp
             for ref in fam.m_all)
    l2 = sum(ref.measure * (s1.delta ** (ref.q1[0] - fam.stretch1[ref.key][0])) ** delta_exp
             for ref in fam.m_all)
    return {
        "delta": delta_exp,
        "L1": l1,
        "L2": l2,
        "C1": l1 / omega.measure,
        "C2": l2 / omega.measure,
        "n_rectangles": len(fam.m_all),
        "dilation_ratios": (s1.outer_eff / s1.inner_cert, s2.outer_eff / s2.inner_cert),
    }
