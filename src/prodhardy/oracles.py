"""Brute-force oracles: the specification of each fast path, one point,
cube, cube pair or subset at a time.

Each function here computes by plain loops what a fast path of the package
computes with arrays, and the tests compare the two.  No module of the
package imports this one, so ``import prodhardy`` does not load it; the
oracles read cube membership from ``DyadicSystem.all_cubes()`` records and
walk the tree through ``DyadicSystem.parent``.

- space: ``_quasi_triangle_constant_exhaustive`` (a0),
  ``_doubling_constant_exhaustive`` (cmu);
- dyadic: ``_covering_constant_by_net`` (C0_measured),
  ``_tight_constants_by_cube`` (the tight c1 and C1),
  ``_certificates_by_cube`` (``verify_system``'s certificates),
  ``_build_net_by_point`` (the nets ``build_system`` grows);
- maximal: ``strong_maximal_exhaustive``, ``rectangles_inside_exhaustive``,
  ``ell_enlarge_exhaustive``;
- journe: ``stretch_exhaustive`` (the stretch maps ``hat1``, ``hat2``),
  ``cmo_p_exhaustive`` (``cmo_p`` on micro instances).
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .dyadic import DyadicSystem, dilate_mask
from .journe import _measure_in
from .maximal import OpenSet
from .product import ProductCoefficients, ProductSpace
from .space import FiniteSpace, _ball_radius_candidates


def _quasi_triangle_constant_exhaustive(dist: np.ndarray) -> float:
    """Specification of ``_quasi_triangle_constant``: the full scan over z."""
    n = dist.shape[0]
    if n == 1:
        return 1.0
    best = np.full((n, n), np.inf)
    for z in range(n):
        best = np.minimum(best, dist[:, z][:, None] + dist[z, :][None, :])
    off = ~np.eye(n, dtype=bool)
    ratio = dist[off] / best[off]
    return max(1.0, float(ratio.max()))


def _doubling_constant_exhaustive(dist: np.ndarray, weight: np.ndarray) -> float:
    """Specification of cmu (``_max_growth``): two 2n x n masks per center."""
    n = dist.shape[0]
    worst = 1.0
    for x in range(n):
        drow = dist[x]
        radii = _ball_radius_candidates(drow)
        small = (drow[None, :] < radii[:, None]) @ weight
        big = (drow[None, :] < 2.0 * radii[:, None]) @ weight
        ok = small > 0
        worst = max(worst, float((big[ok] / small[ok]).max()))
    return worst


def _covering_constant_by_net(system: DyadicSystem) -> float:
    """Specification of ``C0_measured``: every point's distance to each net."""
    worst = 0.0
    for k in system.levels():
        d = system.space.dist[:, system.nets[k]]
        worst = max(worst, float(d.min(axis=1).max()) / system.side(k))
    return worst


def _tight_constants_by_cube(system: DyadicSystem) -> tuple[float, float]:
    """Specification of ``inner_tight``, ``outer_tight``: one cube at a time."""
    inner, outer = math.inf, 0.0
    n = system.space.n
    for c in system.all_cubes():
        d = system.space.dist[c.center]
        if len(c.members) < n:
            non = np.ones(n, dtype=bool)
            non[c.members] = False
            inner = min(inner, float(d[non].min()) / c.side)
        if len(c.members) > 1:
            outer = max(outer, float(d[c.members].max()) / c.side)
    return inner, outer


def _certificates_by_cube(system: DyadicSystem) -> tuple[bool, bool]:
    """Specification of the inner and outer certificates of ``verify_system``:
    no non-member in B(z, c1 side), every member in B(z, C1 side)."""
    inner_ok = outer_ok = True
    for c in system.all_cubes():
        d = system.space.dist[c.center]
        inside = d < system.inner_cert * c.side
        inside[c.members] = False
        if inside.any():
            inner_ok = False
        if not (d[c.members] < system.outer_cert * c.side).all():
            outer_ok = False
    return inner_ok, outer_ok


def _build_net_by_point(space: FiniteSpace, delta: float, k: int, seed_net=(),
                        order=None) -> list[int]:
    """Specification of the nets ``build_system`` grows with ``_jump_scan``:
    the greedy maximal delta^k-separated superset of ``seed_net``, every
    candidate (ascending point id, or ``order``) tested in turn."""
    net = list(seed_net)
    r = delta ** k
    in_net = set(net)
    mind = np.full(space.n, np.inf) if not net else space.dist[:, net].min(axis=1)
    for x in (range(space.n) if order is None else order):
        if x in in_net:
            continue
        if mind[x] >= r:
            net.append(x)
            in_net.add(x)
            mind = np.minimum(mind, space.dist[:, x])
    return net


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


def rectangles_inside_exhaustive(pspace: ProductSpace, omega_set: OpenSet):
    """Oracle for rectangles_inside: one membership test per cube pair; the
    contained pairs of ``Cube`` records, level then index."""
    out = []
    for c1, c2 in itertools.product(*(s.all_cubes() for s in pspace.systems)):
        sub = omega_set.mask[np.ix_(c1.members, c2.members)]
        if sub.all():
            out.append((c1, c2))
    return out


def ell_enlarge_exhaustive(pspace: ProductSpace, omega_tilde: OpenSet,
                           lam1: float, lam2: float) -> OpenSet:
    """Oracle for ell_enlarge's set: one dilated rectangle at a time over
    rectangles_inside_exhaustive."""
    mask = np.zeros(pspace.shape, dtype=bool)
    for c1, c2 in rectangles_inside_exhaustive(pspace, omega_tilde):
        mask |= np.outer(dilate_mask(pspace.systems[0], c1, lam1),
                         dilate_mask(pspace.systems[1], c2, lam2))
    return OpenSet.from_mask(pspace, mask)


def stretch_exhaustive(pspace: ProductSpace, omega: OpenSet,
                       rect: tuple[int, int], direction: int) -> int:
    """Specification of the stretch maps: for R = Q1 x Q2 in m(Omega), its
    cubes' flat rows ``rect`` = (a1, a2), the flat row of the coarsest
    ancestor Q^ of the other factor keeping
    mu((stretched R) cap Omega) > mu(stretched R)/2.

    The rectangle itself satisfies the condition (it lies inside Omega), so
    the chain scan from the root down returns the first ancestor that does.
    """
    (s1, s2), (a1, a2) = pspace.systems, rect
    cubes1, cubes2 = list(s1.all_cubes()), list(s2.all_cubes())
    if direction == 1:
        fixed, moving, system, cubes, axis = cubes1[a1], a2, s2, cubes2, 1
    else:
        fixed, moving, system, cubes, axis = cubes2[a2], a1, s1, cubes1, 0

    chain = [moving]
    while system.parent[chain[-1]] >= 0:
        chain.append(int(system.parent[chain[-1]]))
    for cand in reversed(chain):         # coarsest first
        members = cubes[cand].members
        inter_measure = (_measure_in(pspace, omega.mask, fixed.members, members) if axis == 1
                         else _measure_in(pspace, omega.mask, members, fixed.members))
        if inter_measure > fixed.measure * cubes[cand].measure / 2.0:
            return cand
    raise AssertionError("rectangle inside Omega must satisfy its own half test")


def cmo_p_exhaustive(pspace: ProductSpace, coeffs: ProductCoefficients, p: float) -> float:
    """All-subsets oracle; micro instances only (n1*n2 <= 16 cells)."""
    n1, n2 = pspace.shape
    cells = n1 * n2
    if cells > 16:
        raise ValueError("exhaustive CMO oracle limited to micro instances")
    best = 0.0
    c2 = coeffs.ww ** 2
    b1, b2 = pspace.bases
    cubes1, cubes2 = (list(s.all_cubes()) for s in pspace.systems)
    rects = []
    for i in range(coeffs.n_wav[0]):
        for j in range(coeffs.n_wav[1]):
            if c2[i, j] > 0:
                rm = np.zeros(pspace.shape, dtype=bool)
                rm[np.ix_(cubes1[b1.cube_rows[i]].members, cubes2[b2.cube_rows[j]].members)] = True
                rects.append((rm, float(c2[i, j])))
    for bits in range(1, 2 ** cells):
        mask = np.asarray([(bits >> c) & 1 for c in range(cells)],
                          dtype=bool).reshape(n1, n2)
        mu = pspace.set_measure(mask)
        energy = sum(e for rm, e in rects if (rm & ~mask).sum() == 0)
        if energy > 0:
            best = max(best, math.sqrt(mu ** (1.0 - 2.0 / p) * energy))
    return best
