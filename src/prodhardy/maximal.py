"""Strong maximal function, level sets and enlargements on a product grid.

The strong maximal function is computed by brute force over all realized
balls in each factor (every distinct member set a quasi-metric ball can have
on the finite space), not via dyadic majorization.  Enlargements are
superlevel sets of the strong maximal function of an indicator; the
(ell1, ell2)-enlargement is a union of dilated rectangles with the caller's
dilation multipliers (the atoms pass 2 a0^2 2^ell).

Dyadic-rectangle geometry runs on each system's cube x point incidence
matrix and dilate matrix (``DyadicSystem.incidence``, ``dilate_matrix``):
containment of the requested cube pairs is one matrix product, and the
enlargement another.  Every cube of a single-child chain holds one member
set, so the enlargement, like the maximal families, asks only of the chain
tops (``DyadicSystem.tops``) and builds only their dilates.  The per-pair
loops they replace are kept beside them as oracles
(``rectangles_inside_exhaustive``, ``ell_enlarge_exhaustive``,
``strong_maximal_exhaustive``) and are not called by the fast paths.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .dyadic import dilate_mask
from .product import ProductSpace, _left_sum
from .space import _normal
from .space import realized_ball_masks  # re-exported: the balls M_s ranges over


@dataclass
class OpenSet:
    mask: np.ndarray             # (n1, n2) bool
    measure: float

    @classmethod
    def from_mask(cls, pspace: ProductSpace, mask: np.ndarray) -> "OpenSet":
        mask = np.asarray(mask, dtype=bool)
        return cls(mask=mask, measure=pspace.set_measure(mask))

    def is_empty(self) -> bool:
        return not self.mask.any()

    def key(self) -> bytes:
        """The mask's bytes: the key under which one call shares values per set."""
        return np.asarray(self.mask, dtype=bool).tobytes()


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
    log10_eps = -math.log10(2.0) - _left_sum(math.log10(x.cmu) + x.omega * math.log10(36.0)
                                             + 9.0 * x.omega * math.log10(x.a0)
                                             for x in (x1, x2))
    # the denominator's factors are >= 1: none overflows unless the threshold underflows
    val = (1.0 / (2.0 * x1.cmu * x2.cmu
                  * (36.0 * x1.a0 ** 9) ** x1.omega
                  * (36.0 * x2.a0 ** 9) ** x2.omega)
           if log10_eps >= math.log10(np.finfo(float).tiny) else 0.0)
    if not _normal(val):
        raise ValueError(f"epsilon0 = 10^{log10_eps:.6g} is not a positive normal float ("
                         + "; ".join(f"factor {k}: a0 = {x.a0!r}, cmu = {x.cmu!r}, "
                                     f"omega = {x.omega!r}" for k, x in ((1, x1), (2, x2))) + ")")
    return val


def enlarge(pspace: ProductSpace, omega_set: OpenSet, eps: float) -> OpenSet:
    """Superlevel set {M_s(chi_Omega) > eps}; contains Omega for eps < 1.

    Each factor's whole space is a realized ball, so M_s chi_Omega >=
    mu(Omega)/mu(X) everywhere, and the set is the whole grid once that
    ratio clears eps by the rounding margin of ``_clears_everywhere``;
    otherwise ``strong_maximal`` decides point by point.
    """
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    if omega_set.is_empty():
        return OpenSet.from_mask(pspace, omega_set.mask.copy())
    if _clears_everywhere(pspace, omega_set.mask, eps):
        return OpenSet.from_mask(pspace, np.ones(pspace.shape, dtype=bool))
    ms = strong_maximal(pspace, omega_set.mask.astype(float))
    return OpenSet.from_mask(pspace, ms > eps)


def _clears_everywhere(pspace: ProductSpace, mask: np.ndarray, eps: float) -> bool:
    """True only when strong_maximal's whole-space average of chi_Omega,
    a lower bound of M_s chi_Omega at every point, is sure to exceed eps.

    That average's numerator and denominator, and mu(Omega) and mu(X) here,
    are sums of the same nonnegative terms (the products w1[i] w2[j] over
    Omega, each factor's weights) in other orders.  With k = n1 n2 + n1 + n2
    terms and roundings, each is within a factor 1 +- k u/2 of its exact
    value (u the machine epsilon), plus k underflows below the smallest
    normal.  The margin is at least twice what the four sums, the products
    here and the average's division can move the comparison.  A subnormal
    eps has no relative rounding bound, so it never takes the shortcut.
    """
    u, tiny = np.finfo(float).eps, np.finfo(float).tiny
    if eps < tiny:
        return False
    k = mask.size + sum(mask.shape)
    return (pspace.set_measure(mask)
            > eps * pspace.total_measure() * (1.0 + 8.0 * k * u) + 4.0 * k * tiny)


def _inside(pspace: ProductSpace, masks: np.ndarray, rows1, rows2) -> np.ndarray:
    """inside[..., i, j] is True when cubes1[rows1[i]] x cubes2[rows2[j]]
    lies in the set, for the cubes ``rows1`` x ``rows2`` (flat indices or
    slices) of a mask, or of each mask of a stack (..., n1, n2).

    (M1 (1 - chi) M2^T)[a, b] counts the grid points of the rectangle that
    lie outside the set, which is 0 exactly when the rectangle is contained.
    The counts are small integers, so float64 holds them exactly.
    """
    s1, s2 = pspace.systems
    return s1.incidence[rows1] @ (~masks).astype(float) @ s2.incidence[rows2].T == 0


MAX_PAIRS = 1 << 22     # cube pairs rectangles_inside may test: a 32 MB float table


def rectangles_inside(pspace: ProductSpace, omega_set: OpenSet):
    """All dyadic rectangles (cube pairs) contained in the set, level then
    index; a ValueError when the systems have more than MAX_PAIRS cube pairs."""
    s1, s2 = pspace.systems
    if s1.n_cubes() * s2.n_cubes() > MAX_PAIRS:
        raise ValueError(f"{s1.n_cubes()} x {s2.n_cubes()} = {s1.n_cubes() * s2.n_cubes()} "
                         f"cube pairs exceed rectangles_inside's bound of {MAX_PAIRS}")
    cubes1, cubes2 = (list(s.all_cubes()) for s in pspace.systems)
    return [(cubes1[a], cubes2[b]) for a, b in
            np.argwhere(_inside(pspace, omega_set.mask, slice(None), slice(None)))]


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
                lam1: float, lam2: float) -> OpenSet:
    """Union of lam1 Q1 x lam2 Q2 over dyadic rectangles inside omega_tilde,
    the (ell1, ell2)-enlargement at the multipliers lam1, lam2 (the atoms
    pass 2 a0^2 2^ell, the constants the rectangle-atom support condition
    carries)."""
    if ell1 < 0 or ell2 < 0:
        raise ValueError("enlargement parameters must be nonnegative")
    s1, s2 = pspace.systems
    # (x1, x2) is covered when some contained Q1 x Q2 has x1 in lam1 Q1 and
    # x2 in lam2 Q2: a boolean product D1^T [inside] D2.  A single-child
    # chain shares its members and its center (the parent's center is in the
    # finer net and attaches to itself), and its top has the largest side,
    # so the tops' dilates hold the chain's and the union runs over tops.
    t1, t2 = s1.tops, s2.tops
    mask = (s1.dilate_matrix(lam1, t1).T @ _inside(pspace, omega_tilde.mask, t1, t2)
            @ s2.dilate_matrix(lam2, t2))
    return OpenSet.from_mask(pspace, mask)


def ell_enlarge_exhaustive(pspace: ProductSpace, omega_tilde: OpenSet,
                           lam1: float, lam2: float) -> OpenSet:
    """Oracle for ell_enlarge's set: one dilated rectangle at a time over
    rectangles_inside_exhaustive."""
    mask = np.zeros(pspace.shape, dtype=bool)
    for c1, c2 in rectangles_inside_exhaustive(pspace, omega_tilde):
        mask |= np.outer(dilate_mask(pspace.systems[0], c1, lam1),
                         dilate_mask(pspace.systems[1], c2, lam2))
    return OpenSet.from_mask(pspace, mask)


def level_sets(pspace: ProductSpace, sf: np.ndarray) -> dict[int, OpenSet]:
    """Nested level sets Omega_j = {S > 2^j} over the realized dynamic range,
    by j ascending.

    j runs from floor(log2 min positive S) - 1 to ceil(log2 max S); empty top
    sets are dropped, and S = 0 has none.
    """
    sf = np.asarray(sf, dtype=float)
    if (sf < 0).any():
        raise ValueError("square function values must be nonnegative")
    pos = sf[sf > 0]
    if pos.size == 0:
        return {}
    j_lo = math.floor(math.log2(pos.min())) - 1
    j_hi = math.ceil(math.log2(sf.max()))
    sets = {}
    for j in range(j_lo, j_hi + 1):
        s = OpenSet.from_mask(pspace, sf > 2.0 ** j)
        if s.is_empty() and j > j_lo:
            break
        sets[j] = s
    return sets
