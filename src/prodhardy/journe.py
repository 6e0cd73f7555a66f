"""Maximal dyadic rectangle families and the Journe-type covering check.

A rectangle R = Q1 x Q2 inside an open set is maximal when neither
single-factor parent extension stays inside the set.  The families m1 and m2
coincide with m(Omega) as rectangle sets and differ in the direction their
stretch map extends: for R in m1(Omega) the stretch Q2^ is the coarsest
ancestor of Q2 with mu((Q1 x Q2^) cap Omega) > mu(Q1 x Q2^)/2 (a chain
maximum, by dyadic nesting), symmetrically for m2.  This is the restricted
(Chang-Fefferman style) convention: a single-rectangle set has exactly one
maximal rectangle and covering constant at most 1.  The covering check
certifies

    sum_{R in m_i} mu(R) (l(Q_j)/l(Q_j^))^delta  <=  C mu(Omega)

with a measured C, for power weights w(t) = t^delta.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .maximal import OpenSet, containment_matrix
from .product import DyadicRectangle, ProductSpace


@dataclass
class MaximalRectangleFamily:
    omega_ref: OpenSet
    m_all: list[DyadicRectangle] = field(default_factory=list)
    m1: list[DyadicRectangle] = field(default_factory=list)
    m2: list[DyadicRectangle] = field(default_factory=list)
    stretch2: dict = field(default_factory=dict)   # R in m1 -> Q2^ cube id
    stretch1: dict = field(default_factory=dict)   # R in m2 -> Q1^ cube id


def _parent(system, cube):
    if cube.level == system.k_min or cube.parent is None:
        return None
    return system.cube(cube.level - 1, cube.parent)


def maximal_rectangles(pspace: ProductSpace, omega: OpenSet,
                       direction: str = "both") -> MaximalRectangleFamily:
    """Maximal rectangle families from the containment matrix: a contained
    Q1 x Q2 is maximal when neither parent(Q1) x Q2 nor Q1 x parent(Q2) is
    contained (the root has no parent).

    Deterministic level-then-index ordering.  Families may overlap; none of
    them is a disjoint collection.
    """
    fam = MaximalRectangleFamily(omega_ref=omega)
    if omega.is_empty():
        return fam
    g1, g2 = pspace.systems[0].geometry, pspace.systems[1].geometry
    inside = containment_matrix(pspace, omega)
    # inside[-1] (the root's parent) reads the last row; parent >= 0 masks it out
    grows1 = (g1.parent >= 0)[:, None] & inside[g1.parent, :]
    grows2 = (g2.parent >= 0)[None, :] & inside[:, g2.parent]
    for a, b in np.argwhere(inside & ~grows1 & ~grows2):   # row-major: level then index
        c1, c2 = g1.cubes[a], g2.cubes[b]
        ref = DyadicRectangle(q1=c1.id, q2=c2.id, measure=c1.measure * c2.measure)
        fam.m_all.append(ref)
        if direction in ("1", "both"):
            fam.m1.append(ref)
        if direction in ("2", "both"):
            fam.m2.append(ref)

    for ref in fam.m1:
        fam.stretch2[ref.key] = _stretch(pspace, omega, ref, direction=1).id
    for ref in fam.m2:
        fam.stretch1[ref.key] = _stretch(pspace, omega, ref, direction=2).id
    return fam


def stretch(pspace: ProductSpace, family: MaximalRectangleFamily,
            ref: DyadicRectangle, direction: int = 1):
    """Public stretch map; the rectangle must belong to the family's m_i."""
    members = family.m1 if direction == 1 else family.m2
    if ref.key not in {r.key for r in members}:
        raise ValueError(f"rectangle {ref.key} is not in m{direction} of this family")
    return _stretch(pspace, family.omega_ref, ref, direction)


def _stretch(pspace: ProductSpace, omega: OpenSet, ref: DyadicRectangle, direction: int):
    """For R = Q1 x Q2 in m_i(Omega), the coarsest ancestor Q^ of the other
    factor keeping mu((stretched R) cap Omega) > mu(stretched R)/2.

    The rectangle itself satisfies the condition (it lies inside Omega), so
    the chain scan from the root down returns the first ancestor that does.
    """
    s1, s2 = pspace.systems
    c1 = s1.cube(*ref.q1)
    c2 = s2.cube(*ref.q2)
    if direction == 1:
        fixed_mask = pspace.systems[0].member_mask(*c1.id)
        fixed_measure = c1.measure
        moving, system, axis = c2, s2, 1
    else:
        fixed_mask = pspace.systems[1].member_mask(*c2.id)
        fixed_measure = c2.measure
        moving, system, axis = c1, s1, 0

    chain = [moving]
    while True:
        par = _parent(system, chain[-1])
        if par is None:
            break
        chain.append(par)
    for cand in reversed(chain):         # coarsest first
        cand_mask = system.member_mask(*cand.id)
        if axis == 1:
            inter = omega.mask[np.ix_(fixed_mask, cand_mask)]
        else:
            inter = omega.mask[np.ix_(cand_mask, fixed_mask)]
        w = (np.outer(pspace.x1.weight[fixed_mask], pspace.x2.weight[cand_mask])
             if axis == 1 else
             np.outer(pspace.x1.weight[cand_mask], pspace.x2.weight[fixed_mask]))
        inter_measure = float(w[inter].sum())
        if inter_measure > fixed_measure * cand.measure / 2.0:
            return cand
    raise AssertionError("rectangle inside Omega must satisfy its own half test")


def journe_check(pspace: ProductSpace, omega: OpenSet, delta_exp: float) -> dict:
    """Weighted maximal-rectangle sums against mu(Omega) for w(t) = t^delta."""
    if delta_exp <= 0:
        raise ValueError("delta exponent must be positive")
    if omega.measure <= 0:
        raise ValueError("omega must have positive measure")
    fam = maximal_rectangles(pspace, omega, "both")
    s1, s2 = pspace.systems
    d1, d2 = s1.delta, s2.delta

    def ratio(level_from: int, level_to: int, base: float) -> float:
        # l(Q)/l(Q^) = base^(level_Q - level_Q^) <= 1
        return base ** (level_from - level_to)

    l1 = sum(ref.measure * ratio(ref.q2[0], fam.stretch2[ref.key][0], d2) ** delta_exp
             for ref in fam.m1)
    l2 = sum(ref.measure * ratio(ref.q1[0], fam.stretch1[ref.key][0], d1) ** delta_exp
             for ref in fam.m2)
    return {
        "delta": delta_exp,
        "L1": l1,
        "L2": l2,
        "C1": l1 / omega.measure,
        "C2": l2 / omega.measure,
        "n_m1": len(fam.m1),
        "n_m2": len(fam.m2),
        "dilation_ratios": (s1.outer_eff / s1.inner_cert, s2.outer_eff / s2.inner_cert),
    }
