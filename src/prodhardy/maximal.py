"""Strong maximal function, level sets and enlargements on a product grid.

The strong maximal function is computed by brute force over all realized
balls in each factor (every distinct member set a quasi-metric ball can have
on the finite space), not via dyadic majorization.  Enlargements are
superlevel sets of the strong maximal function of an indicator; the
(ell1, ell2)-enlargement is a union of dilated rectangles with per-call
dilation multipliers, since the atom machinery needs both the plain 2^ell
dilates and the 2 a0^2 2^ell variants.

Dyadic-rectangle geometry runs on each system's cube x point incidence
matrix and dilate matrix (``DyadicSystem.geometry``, ``dilate_matrix``):
containment of every cube pair is one matrix product, and the enlargement
another.  The per-pair loops they replace are kept beside them as oracles
(``rectangles_inside_exhaustive``, ``ell_enlarge_exhaustive``,
``strong_maximal_exhaustive``) and are not called by the fast paths.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .dyadic import dilate_mask
from .product import ProductSpace
from .space import realized_ball_masks  # re-exported: the balls M_s ranges over


@dataclass
class OpenSet:
    mask: np.ndarray             # (n1, n2) bool
    measure: float

    @classmethod
    def from_mask(cls, pspace: ProductSpace, mask: np.ndarray) -> "OpenSet":
        mask = np.asarray(mask, dtype=bool)
        return cls(mask=mask, measure=pspace.set_measure(mask))

    @classmethod
    def from_pairs(cls, pspace: ProductSpace, pairs) -> "OpenSet":
        mask = np.zeros(pspace.shape, dtype=bool)
        for i, j in pairs:
            mask[i, j] = True
        return cls.from_mask(pspace, mask)

    def is_empty(self) -> bool:
        return not self.mask.any()


def strong_maximal(pspace: ProductSpace, g: np.ndarray) -> np.ndarray:
    """M_s g(x1,x2) = max over ball pairs B1 x B2 containing (x1,x2) of the
    average of |g| over B1 x B2, exhaustively over realized balls."""
    g = np.abs(np.asarray(g, dtype=float))
    x1, x2 = pspace.x1, pspace.x2
    b1, b2 = x1.realized_balls, x2.realized_balls
    # avg[b1, b2] = average of |g| over B1 x B2
    sums = ((b1 * x1.weight) @ g) @ (b2 * x2.weight).T
    avg = sums / np.outer(b1 @ x1.weight, b2 @ x2.weight)
    # the max over ball pairs splits: first over the balls containing x1,
    # then over the balls containing x2; max picks values, so nothing rounds
    rows = np.stack([avg[b1[:, p]].max(axis=0) for p in range(x1.n)])
    return np.stack([rows[:, b2[:, p]].max(axis=1) for p in range(x2.n)], axis=1)


def strong_maximal_exhaustive(pspace: ProductSpace, g: np.ndarray) -> np.ndarray:
    """Independent oracle: plain loops over centers and radii, no caching."""
    g = np.abs(np.asarray(g, dtype=float))
    x1, x2 = pspace.x1, pspace.x2
    out = np.zeros(pspace.shape)
    balls1 = [(c, r) for c in range(x1.n) for r in np.unique(x1.dist[c]) ]
    balls2 = [(c, r) for c in range(x2.n) for r in np.unique(x2.dist[c]) ]
    for p1 in range(x1.n):
        for p2 in range(x2.n):
            best = 0.0
            for (c1, r1) in balls1:
                m1 = x1.dist[c1] <= r1
                if not m1[p1]:
                    continue
                w1 = x1.weight[m1]
                g1 = g[m1]
                for (c2, r2) in balls2:
                    m2 = x2.dist[c2] <= r2
                    if not m2[p2]:
                        continue
                    w2 = x2.weight[m2]
                    num = float(w1 @ g1[:, m2] @ w2)
                    den = float(w1.sum() * w2.sum())
                    best = max(best, num / den)
            out[p1, p2] = best
    return out


def epsilon0(pspace: ProductSpace) -> float:
    """Threshold (2 C_mu1 C_mu2 (36 a01^9)^w1 (36 a02^9)^w2)^-1, in (0,1).

    Uses the measured doubling constants and upper dimensions together with
    the reference dilation ratio 36 a0^9; realized grids have smaller ratios,
    so classified rectangles land strictly inside the enlargement.  A
    threshold that is no positive normal float is a ValueError naming its
    log10 (summed in logs) and each factor's constants.
    """
    x1, x2 = pspace.x1, pspace.x2
    log10_eps = -math.log10(2.0) - sum(math.log10(x.cmu) + x.omega * math.log10(36.0)
                                       + 9.0 * x.omega * math.log10(x.a0) for x in (x1, x2))
    # the denominator's factors are >= 1: none overflows unless the threshold underflows
    val = (1.0 / (2.0 * x1.cmu * x2.cmu
                  * (36.0 * x1.a0 ** 9) ** x1.omega
                  * (36.0 * x2.a0 ** 9) ** x2.omega)
           if log10_eps >= math.log10(np.finfo(float).tiny) else 0.0)
    if val < np.finfo(float).tiny:
        raise ValueError(f"epsilon0 = 10^{log10_eps:.6g} is not a positive normal float ("
                         + "; ".join(f"factor {k}: a0 = {x.a0!r}, cmu = {x.cmu!r}, "
                                     f"omega = {x.omega!r}" for k, x in ((1, x1), (2, x2))) + ")")
    return val


def enlarge(pspace: ProductSpace, omega_set: OpenSet, eps: float) -> OpenSet:
    """Superlevel set {M_s(chi_Omega) > eps}; contains Omega for eps < 1."""
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    if omega_set.is_empty():
        return OpenSet.from_mask(pspace, omega_set.mask.copy())
    ms = strong_maximal(pspace, omega_set.mask.astype(float))
    return OpenSet.from_mask(pspace, ms > eps)


def containment_matrix(pspace: ProductSpace, omega_set: OpenSet) -> np.ndarray:
    """inside[a, b] is True when cubes1[a] x cubes2[b] lies in the set, for
    every cube pair at once (flat indices of each system's ``geometry``).

    (M1 chi M2^T)[a, b] counts the grid points of the rectangle that lie in
    the set, which is |Q1||Q2| exactly when the rectangle is contained.  The
    counts are small integers, so float64 holds them exactly.
    """
    g1, g2 = pspace.systems[0].geometry, pspace.systems[1].geometry
    counts = g1.incidence @ omega_set.mask.astype(float) @ g2.incidence.T
    return counts == np.outer(g1.sizes, g2.sizes)


def rectangles_inside(pspace: ProductSpace, omega_set: OpenSet):
    """All dyadic rectangles (cube pairs) contained in the set, level then index."""
    cubes1, cubes2 = pspace.systems[0].geometry.cubes, pspace.systems[1].geometry.cubes
    return [(cubes1[a], cubes2[b])
            for a, b in np.argwhere(containment_matrix(pspace, omega_set))]


def rectangles_inside_exhaustive(pspace: ProductSpace, omega_set: OpenSet):
    """Oracle for rectangles_inside: one membership test per cube pair."""
    out = []
    for c1, c2 in itertools.product(*(s.all_cubes() for s in pspace.systems)):
        sub = omega_set.mask[np.ix_(pspace.systems[0].member_mask(*c1.id),
                                    pspace.systems[1].member_mask(*c2.id))]
        if sub.all():
            out.append((c1, c2))
    return out


def ell_enlarge(pspace: ProductSpace, omega_tilde: OpenSet, ell1: int, ell2: int,
                lam1: float | None = None, lam2: float | None = None) -> tuple[OpenSet, dict]:
    """Union of lam1 Q1 x lam2 Q2 over dyadic rectangles inside omega_tilde.

    Default multipliers are 2^ell1, 2^ell2; the atoms pipeline passes
    2 a0^2 2^ell instead (the constants the rectangle-atom support condition
    carries).  The report records the multipliers used and the measured
    constant in mu(result) <= C (1 + l1 w1 + l2 w2) 2^(l1 w1 + l2 w2) mu(input).
    """
    if ell1 < 0 or ell2 < 0:
        raise ValueError("enlargement parameters must be nonnegative")
    lam1 = 2.0 ** ell1 if lam1 is None else lam1
    lam2 = 2.0 ** ell2 if lam2 is None else lam2
    s1, s2 = pspace.systems
    # (x1, x2) is covered when some contained Q1 x Q2 has x1 in lam1 Q1 and
    # x2 in lam2 Q2: a boolean product D1^T [inside] D2
    mask = (s1.dilate_matrix(lam1).T @ containment_matrix(pspace, omega_tilde)
            @ s2.dilate_matrix(lam2))
    result = OpenSet.from_mask(pspace, mask)
    growth = growth_factor(pspace, ell1, ell2)
    measured_c = (result.measure / (growth * omega_tilde.measure)
                  if omega_tilde.measure > 0 else 0.0)
    report = {"lam1": lam1, "lam2": lam2, "growth_factor": growth,
              "measured_constant": measured_c}
    return result, report


def growth_factor(pspace: ProductSpace, ell1: int, ell2: int) -> float:
    """(1 + l1 w1 + l2 w2) 2^(l1 w1 + l2 w2): the factor by which the
    (l1, l2)-enlargement may grow a set's measure, and the atom budget's."""
    w1, w2 = pspace.x1.omega, pspace.x2.omega
    return (1.0 + ell1 * w1 + ell2 * w2) * 2.0 ** (ell1 * w1 + ell2 * w2)


def ell_enlarge_exhaustive(pspace: ProductSpace, omega_tilde: OpenSet,
                           lam1: float, lam2: float) -> OpenSet:
    """Oracle for ell_enlarge's set: one dilated rectangle at a time over
    rectangles_inside_exhaustive."""
    mask = np.zeros(pspace.shape, dtype=bool)
    for c1, c2 in rectangles_inside_exhaustive(pspace, omega_tilde):
        mask |= np.outer(dilate_mask(pspace.systems[0], c1, lam1),
                         dilate_mask(pspace.systems[1], c2, lam2))
    return OpenSet.from_mask(pspace, mask)


@dataclass
class LevelSetFamily:
    j_lo: int
    sets: dict[int, OpenSet] = field(default_factory=dict)

    def js(self) -> list[int]:
        return sorted(self.sets)


def level_sets(pspace: ProductSpace, sf: np.ndarray, p: float = 1.0) -> tuple[LevelSetFamily, dict]:
    """Nested level sets Omega_j = {S > 2^j} over the realized dynamic range.

    j runs from floor(log2 min positive S) - 1 to ceil(log2 max S); empty top
    sets are dropped.  The report compares sum_j 2^(pj) mu(Omega_j) with the
    exact sorted-integral layer-cake value of ||S||_p^p; for p = 1 the ratio
    is provably within [1/2, 2].
    """
    sf = np.asarray(sf, dtype=float)
    if (sf < 0).any():
        raise ValueError("square function values must be nonnegative")
    pos = sf[sf > 0]
    if pos.size == 0:
        fam = LevelSetFamily(j_lo=0)
        return fam, {"dyadic_sum": 0.0, "exact_integral": 0.0, "ratio": 1.0}
    j_lo = math.floor(math.log2(pos.min())) - 1
    j_hi = math.ceil(math.log2(sf.max()))
    fam = LevelSetFamily(j_lo=j_lo)
    for j in range(j_lo, j_hi + 1):
        s = OpenSet.from_mask(pspace, sf > 2.0 ** j)
        if s.is_empty() and j > j_lo:
            break
        fam.sets[j] = s
    dyadic = sum(2.0 ** (p * j) * fam.sets[j].measure for j in fam.sets)
    # exact integral of S^p by sorting values (layer-cake without shells)
    w = pspace.weights.ravel()
    exact = float(((sf.ravel() ** p) * w).sum())
    report = {"dyadic_sum": dyadic, "exact_integral": exact,
              "ratio": dyadic / exact if exact > 0 else 1.0}
    return fam, report
