"""Hytonen-Kairema style dyadic cube systems on a FiniteSpace.

Levels run from k_min (one cube covering everything) to k_max (singleton
cubes).  Nets are nested greedy maximal delta^k-separated sets; each
level-(k+1) cube is attached to the level-k net point nearest its center.
The tree is built once as arrays; its point -> cube labels of every level
are composed upward from the singletons through the parents, so nestedness
and disjoint union hold exactly by construction, and member sets,
measures and ``Cube`` records are read off these arrays.  Inner/outer ball
containment is certified with c1 = (3 a0^2)^-1 c0 and C1 = 2 a0 C0 whenever
the base side length satisfies the cube test condition 12 a0^3 C0 delta <=
c0.  Without a given delta the reference rule chooses it ("reference" mode);
a given delta may be any value in (0,1) ("desk" mode), and non-conformance
is recorded instead of failing.

Construction costs per distinct net and per distinct member set, not per
level or per cube.  The nets grow from one vector of each point's distance
to the net, updated only when a point joins; the levels where no point lies
delta^k from the net (found by bisection) keep the net above, and each of
their cubes is its own parent's only child, so the tree fills each run of
them at once, its labels shifted by a constant.  A cube with one child has
that child's members and center, so a single-child chain repeats one member
set; its top is its coarsest cube (``DyadicSystem.tops``).  Each member
set's measure is summed once, and the measured constants come from one pass
over the distance rows of the tops' centers, 64 at a time, against the
labels.  It gives each cube its largest center-member and smallest
center-non-member distance, and each point its distance to the nearest
center of each level, a running minimum over the levels since the nets are
nested.  C0_measured, the tight c1 and C1 and both ball certificates of
``verify_system`` read these extremes; their per-cube loops are oracles
(``oracles._*_by_cube``, ``oracles._covering_constant_by_net``).

The arrays are the only representation of the cubes the pipeline reads:
the cube x point incidence matrix is built on first use, dilate matrices
only for the rows asked, and ``Cube`` records only when asked for, by the
oracles and the tests.  The rectangle layers ask their questions of the
chain tops only.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .space import FiniteSpace

def _reference_power(c: float, a0: float, k: int) -> float:
    """c a0^k, or a ValueError naming a0 when that is no finite float."""
    try:
        val = c * a0 ** k
    except OverflowError:
        val = math.inf
    if not math.isfinite(val):
        raise ValueError(f"a0 = {a0!r} is too large: the reference constant {c:g} a0^{k} "
                         "overflows")
    return val


@dataclass(frozen=True)
class Cube:
    """Read-only record of one cube, made from its system's arrays."""

    level: int
    index: int                   # alpha: position of the center in net(level)
    center: int                  # point id
    members: np.ndarray          # ascending point ids, read-only
    measure: float
    side: float                  # delta^level
    parent: int | None = None    # alpha of the parent at level-1


class DyadicSystem:
    """Leveled tree of cubes with nets, constants and lookup helpers.

    Read-only arrays over the cubes in flat order (level, then index) hold
    the tree: ``first`` (each level's first cube, then the cube count),
    ``level_rows``, ``centers``, ``parent`` (-1 at k_min) and
    ``labels[l, x]``, the cube of level k_min + l holding point x.  Cube a
    has ``sizes[a]`` members, ``members[member_first[a]:member_first[a + 1]]``
    (ids ascending), and measure ``measures[a]``; an ancestor's flat index is
    below its descendants'.  ``tops`` lists, ascending, the root and every
    cube whose parent has other members: the coarsest cube of each
    single-child chain, whose cubes share one member set.  ``incidence``,
    built on first use, holds the member sets.  ``parents[k]`` gives each
    point of ``nets[k]`` its parent's position in ``nets[k - 1]``; a level
    without an entry keeps the net above, each point its own parent.  The
    nets and parents are ``build_system``'s, so every cube holds its center."""

    def __init__(self, space: FiniteSpace, delta: float, k_min: int, k_max: int,
                 nets: dict[int, list[int]], parents: dict[int, list[int]], mode: str):
        self.space = space
        self.delta = delta
        self.k_min = k_min
        self.k_max = k_max
        self.nets = nets
        self.mode = mode                      # "reference" when the reference rule chose delta
        level_sizes = [len(nets[k]) for k in self.levels()]
        self.first = np.cumsum([0, *level_sizes])
        self.level_rows = np.repeat(np.arange(len(level_sizes)), level_sizes)
        # runs of levels from k_min or a level with parents; a level without
        # keeps the net above, each cube its own position there
        lows = [0, *sorted(k - k_min for k in parents if k_min < k <= k_max)]
        runs = list(zip(lows, [*lows[1:], len(level_sizes)]))
        self.centers = np.concatenate([np.asarray(nets[k_min + lo] * (hi - lo), int)
                                       for lo, hi in runs])
        self.parent = np.arange(self.n_cubes()) - np.repeat([0, *level_sizes[:-1]], level_sizes)
        self.parent[:level_sizes[0]] = -1
        for lo in lows[1:]:
            self.parent[self.first[lo]:self.first[lo + 1]] = (
                np.asarray(parents[k_min + lo], int) + self.first[lo - 1])
        # the singletons of k_max, then each run's last level through the
        # parents, and the levels above it in the run shifted by their offset
        self.labels = np.empty((len(level_sizes), space.n), dtype=int)
        self.labels[-1, nets[k_max]] = np.arange(self.first[-2], self.first[-1])
        for lo, hi in reversed(runs):
            if hi < len(level_sizes):
                self.labels[hi - 1] = self.parent[self.labels[hi]]
            self.labels[lo:hi - 1] = self.labels[hi - 1] + (self.first[lo:hi - 1]
                                                            - self.first[hi - 1])[:, None]
        # one stable argsort of the labels lists each cube's members, ids ascending
        self.members = np.argsort(self.labels, axis=1, kind="stable").ravel()
        self.sizes = np.bincount(self.labels.ravel(), minlength=self.n_cubes())
        self.member_first = np.concatenate([[0], np.cumsum(self.sizes)])
        # a nested tree's member set is fixed by its first member and its
        # size, so one member set's cubes form a single-child chain, top first
        self.tops = np.flatnonzero((self.parent < 0) | (self.sizes[self.parent] != self.sizes))
        # the first cube in flat order of each member set is its chain's top;
        # each cube's row among the tops
        first_member = self.members[self.member_first[:-1]]
        _, first, inverse = np.unique(first_member * (space.n + 1) + self.sizes,
                                      return_index=True, return_inverse=True)
        which = np.searchsorted(self.tops, first[inverse])
        ends = self.member_first.tolist()         # each member set's own pairwise sum
        self.measures = np.array([space.weight[self.members[ends[a]:ends[a + 1]]].sum()
                                  for a in self.tops.tolist()])[which]
        for arr in (self.first, self.level_rows, self.centers, self.parent, self.labels,
                    self.members, self.sizes, self.member_first, self.tops, self.measures):
            arr.flags.writeable = False       # shared by every record and view
        # each level's side delta^k, one Python power per level, taken once
        self.level_sides = np.array([delta ** k for k in self.levels()])
        self.level_sides.flags.writeable = False
        self.c0 = 1.0                         # greedy guarantees delta^k separation
        self._measure(which)
        self.C0_cert = 2.0 * space.a0
        self.inner_cert = (1.0 / _reference_power(3.0, space.a0, 2)) * self.c0
        self.outer_cert = 2.0 * space.a0 * max(self.C0_measured, 1.0)
        self.conformant = (_reference_power(12.0, space.a0, 3) * max(self.C0_measured, 1.0)
                           * delta <= self.c0)
        # Effective outer constant for dilates: the lambda = 1 dilate must
        # contain its cube even when the certified constant fails (desk mode).
        self.outer_eff = max(self.outer_cert, self.outer_tight * (1.0 + 1e-9))

    # -- construction ------------------------------------------------------

    def side(self, k: int) -> float:
        return self.delta ** k

    def levels(self) -> range:
        return range(self.k_min, self.k_max + 1)

    def all_cubes(self):
        """``Cube`` records in flat order, made from the arrays on each call:
        the pipeline reads the arrays, and only the oracles, the tests and
        the bench's probe ask for records."""
        keys, ends = self.keys(np.arange(self.n_cubes())), self.member_first.tolist()
        for a, ((k, alpha), center, measure, up) in enumerate(zip(
                keys, self.centers.tolist(), self.measures.tolist(), self.parent.tolist())):
            yield Cube(level=k, index=alpha, center=center,
                       members=self.members[ends[a]:ends[a + 1]], measure=measure,
                       side=self.side(k), parent=keys[up][1] if up >= 0 else None)

    def n_cubes(self) -> int:
        return int(self.first[-1])

    def keys(self, rows) -> list[tuple[int, int]]:
        """The (k, alpha) key of each cube in the flat ``rows``."""
        l = self.level_rows[rows]
        return list(zip((self.k_min + l).tolist(), (rows - self.first[l]).tolist()))

    @cached_property
    def incidence(self) -> np.ndarray:
        """(n_cubes, n) 0/1 floats, 1 where cube a holds point x; built on first use."""
        incidence = np.zeros((self.n_cubes(), self.space.n))
        incidence[self.labels, np.arange(self.space.n)] = 1.0
        incidence.flags.writeable = False
        return incidence

    def dilate_matrix(self, lam: float, rows=slice(None)) -> np.ndarray:
        """Row i is ``dilate_mask`` of cube ``rows[i]`` (flat indices or a
        slice; all cubes in flat order by default), bit for bit; only those
        rows are built."""
        radius = self.dilate_radius(lam, self._sides[rows])
        return self.space.dist[self.centers[rows]] < radius[:, None]

    def dilate_radius(self, lam: float, side):
        """lam C1_eff side, the radius of the lambda-dilate of a cube of ``side``
        (a float or an array of sides)."""
        return lam * self.outer_eff * side

    # -- measured constants --------------------------------------------------

    def _measure(self, which: np.ndarray):
        """C0_measured and the tightest c1, C1 making inner/outer ball
        containment true, from one ``_center_pass`` over the tops, one per
        member set (a chain shares its center); ``which`` gives each cube its
        top's row.  The per-cube extremes are kept, in flat order, for
        ``verify_system``'s certificates."""
        far, near, cover = _center_pass(
            self.space.dist, self.centers, self.level_rows, self.labels, self.tops)
        self._far, self._near = far[which], near[which]
        self._sides = self.level_sides[self.level_rows]
        self.C0_measured = float((cover.max(axis=1) / self.level_sides).max())
        # B(z, r) subset cube for all r <= inner_tight*side
        self.inner_tight = float((self._near / self._sides).min())
        # cube subset B(z, r) for all r > outer_tight*side
        self.outer_tight = float((self._far / self._sides).max())


# Rows per block of the passes over cube centers and net points: a 64 x n
# slice of the distance matrix, whatever the number of cubes.
_BLOCK = 64


def _center_pass(dist: np.ndarray, centers: np.ndarray, row: np.ndarray,
                 labels: np.ndarray, cubes: np.ndarray):
    """One pass over the distance rows of the centers of ``cubes`` (flat
    indices, ascending; ``row`` is each cube's level row of ``labels``), 64
    at a time.

    Per cube asked: ``far``, the largest center-member distance (0 for a
    singleton), and ``near``, the smallest center-non-member distance (inf
    for a cube holding every point); per level and point: ``cover``, the
    distance to the nearest center of the level or a coarser one, which is
    the level's own while the nets are nested.  A cube not asked has an
    asked cube's center a level or more above, so a running minimum over
    the levels reaches every center.  All three are minima or maxima of
    distances, so they are exact in any order.
    """
    far, near = np.empty(len(cubes)), np.empty(len(cubes))
    cover = np.full(labels.shape, np.inf)
    for i in range(0, len(cubes), _BLOCK):
        a = cubes[i:i + _BLOCK]
        d, r = dist[centers[a]], row[a]
        inside = labels[r] == a[:, None]
        np.max(d, axis=1, where=inside, initial=0.0, out=far[i:i + len(a)])
        np.min(d, axis=1, where=~inside, initial=np.inf, out=near[i:i + len(a)])
        cuts = np.flatnonzero(np.diff(r, prepend=-1))         # the block's levels
        cover[r[cuts]] = np.minimum(cover[r[cuts]], np.minimum.reduceat(d, cuts, axis=0))
    return far, near, np.minimum.accumulate(cover, axis=0)


def _jump_scan(net: list, mind: np.ndarray, rows: np.ndarray, scan: np.ndarray,
               r: float) -> list:
    """Append to ``net`` each candidate of ``scan`` still r from it, in turn:
    a greedy maximal r-separated superset of ``net``, so it covers X within r.

    ``mind[i]`` is candidate ``scan[i]``'s distance to the net and ``rows[x]``
    point x's distances to the candidates (the distance matrix, its columns
    in scan order).  The scan jumps from one added point to the next:
    ``argmax`` over the remaining candidates finds the first one still r
    from the net, so Python runs once per added point, and ``mind`` takes
    the added point's row.  A candidate at distance 0 from the net is in it
    already, also when delta^k underflows to 0 (r is at least ``ulp(0)``).
    """
    pos = 0
    while pos < scan.size:
        step = int(np.argmax(mind[pos:] >= r))
        if not mind[pos + step] >= r:
            break
        x = int(scan[pos + step])
        net.append(x)
        pos += step + 1
        np.minimum(mind, rows[x], out=mind)
    return net


def build_system(space: FiniteSpace, delta: float | None = None,
                 order_seed: int | None = None) -> DyadicSystem:
    """Construct the full cube system; see module docstring for the rules.
    ``mode`` is "reference" when the reference rule chose delta, else "desk"."""
    mode = "desk" if delta is not None else "reference"
    if delta is None:
        delta = min(0.5, 1e-3 * space.a0 ** -10)
        if delta == 0:
            raise ValueError(f"a0 = {space.a0!r} is too large: the reference rule's delta "
                             "1e-3 a0^-10 underflows to 0")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")

    order = None
    if order_seed is not None:
        order = list(np.random.default_rng(order_seed).permutation(space.n))

    diam = space.diameter
    minsep = space.min_positive_distance()
    if space.n == 1 or diam == 0:
        k_min = k_max = 0
    else:
        # largest k with delta^k >= diam; smallest k with delta^k < minsep
        k_min = math.floor(math.log(diam) / math.log(delta))
        while delta ** k_min < diam:
            k_min -= 1
        k_max = math.floor(math.log(minsep) / math.log(delta)) + 1
        while delta ** k_max >= minsep:
            k_max += 1
        k_max = max(k_max, k_min + 1)

    # one vector of each candidate's distance to the net shrinks as the net
    # grows; the levels down to the next with a candidate delta^k from the
    # net (found by bisection, the sides falling with k) keep the net above
    scan = np.arange(space.n) if order is None else np.asarray(order, dtype=np.intp)
    rows = space.dist if order is None else space.dist[:, scan]
    mind = np.full(scan.size, np.inf)
    nets: dict[int, list[int]] = {}
    changed, prev, k = [], [], k_min
    while k <= k_max:
        prev = _jump_scan(list(prev), mind, rows, scan, max(delta ** k, math.ulp(0.0)))
        reach = mind.max()
        nxt = k + 1 + bisect.bisect_left(range(k + 1, k_max + 1), True,
                                         key=lambda j: max(delta ** j, math.ulp(0.0)) <= reach)
        nets.update(dict.fromkeys(range(k, nxt), prev))
        changed.append(k)
        k = nxt
    # exactly one top cube: decrement k_min on the (measure-zero) equality edge
    while len(nets[k_min]) > 1:
        k_min -= 1
        nets[k_min] = _jump_scan([], np.full(scan.size, np.inf), rows, scan,
                                 max(delta ** k_min, math.ulp(0.0)))
        changed.append(k_min)

    # argmin takes the first minimum of each row: net-order ties; only the
    # levels whose net changed have parents
    parents = {k: np.argmin(space.dist.take(nets[k], axis=0).take(nets[k - 1], axis=1), axis=1)
               for k in changed if k > k_min}
    return DyadicSystem(space, delta, k_min, k_max, nets, parents, mode)


def verify_system(system: DyadicSystem) -> dict:
    """Exact structural checks plus measured/certified constants report.

    The tree and the nets are checked exactly; any violation is a
    construction bug and raises.  Ball containment is measured, compared with
    the certificate c1 = (3 a0^2)^-1 c0, C1 = 2 a0 C0, and with the
    Auscher-Hytonen reference constants; the system belongs to their
    regular family when its C1 and C1/c1 stay within the reference ones.
    """
    space = system.space
    n = space.n
    # every parent one level up and every cube holding its center, so none is
    # empty; partition and nesting hold by how the labels are built
    rows = system.level_rows
    for ok, fault in ((np.where(rows > 0, rows[system.parent] == rows - 1, system.parent < 0),
                       "has no parent one level up"),
                      (system.labels[rows, system.centers] == np.arange(len(rows)),
                       "does not hold its center")):
        if not ok.all():
            a = int(np.argmin(ok))
            raise AssertionError(f"level {system.k_min + rows[a]}: cube "
                                 f"{a - system.first[rows[a]]} {fault}")

    # nets nested and separated (the greedy guarantee, re-checked); their
    # covering is C0_measured
    nets = [np.asarray(system.nets[k], dtype=int) for k in system.levels()]
    net_rows = np.repeat(np.arange(len(nets)), [len(net) for net in nets])
    points = np.concatenate(nets)
    in_net = np.zeros(system.labels.shape, dtype=int)
    np.add.at(in_net, (net_rows, points), 1)
    nested = ((in_net[:-1] > 0) <= (in_net[1:] > 0)).all(axis=1)
    if not nested.all():
        k = system.k_min + int(np.argmin(nested))
        raise AssertionError(f"nets not nested between levels {k} and {k + 1}")
    for a0 in range(0, len(points), _BLOCK):
        z, r = points[a0:a0 + _BLOCK], net_rows[a0:a0 + _BLOCK]
        others = in_net[r] > 0
        others[np.arange(len(z)), z] = in_net[r, z] > 1      # a point listed twice
        closest = np.min(space.dist[z], axis=1, where=others, initial=np.inf)
        crowded = closest < system.c0 * system.level_sides[r]
        if crowded.any():
            k = system.k_min + int(r[np.argmax(crowded)])
            raise AssertionError(f"net at level {k} is not separated")

    # no non-member within c1 side of a center; every member within C1 side.
    # A product past the float range rounds to inf, which keeps each verdict.
    with np.errstate(over="ignore", under="ignore"):
        inner_cert_ok = not (system._near < system.inner_cert * system._sides).any()
        outer_cert_ok = bool((system._far < system.outer_cert * system._sides).all())

    # Auscher-Hytonen reference dilation constants, recorded for comparison:
    # C1 = 6 a0^4, c1 = a0^-5 / 6, ratio C1/c1 = 36 a0^9
    ah_outer, ah_ratio = _reference_power(6.0, space.a0, 4), _reference_power(36.0, space.a0, 9)
    report = {
        "n_points": n,
        "delta": system.delta,
        "levels": [system.k_min, system.k_max],
        "mode": system.mode,
        "conformant_delta": bool(system.conformant),
        "c0": system.c0,
        "C0_measured": system.C0_measured,
        "C0_certified": system.C0_cert,
        "c1_certified": system.inner_cert,
        "C1_certified": system.outer_cert,
        "c1_measured_tight": system.inner_tight,
        "C1_measured_tight": system.outer_tight,
        "C1_effective": system.outer_eff,
        "inner_certificate_holds": inner_cert_ok,
        "outer_certificate_holds": outer_cert_ok,
        "ah_reference": {"C1": ah_outer, "c1": space.a0 ** (-5) / 6.0, "ratio": ah_ratio},
        "regular_family_ok": (system.outer_cert <= ah_outer + 1e-12 and
                              system.outer_cert / system.inner_cert <= ah_ratio + 1e-9),
    }
    if system.conformant and not (inner_cert_ok and outer_cert_ok):
        raise AssertionError("certified ball containment failed under the cube test condition")
    return report


def dilate_mask(system: DyadicSystem, cube: Cube, lam: float) -> np.ndarray:
    """Points of the lambda-dilate of ``cube``, the ball B(center, lam C1_eff side)."""
    return system.space.ball_mask(cube.center, system.dilate_radius(lam, cube.side))


def _system_document(system: DyadicSystem) -> dict:
    """The system's JSON document: its header, nets, parents (each cube's
    position in the level above, -1 at k_min) and constants; ``build``
    writes it for each factor."""
    first, parent = system.first.tolist(), system.parent
    up = [alpha if a >= 0 else -1 for a, (_, alpha) in zip(parent.tolist(), system.keys(parent))]
    return {
        "delta": system.delta,
        "k_min": system.k_min,
        "k_max": system.k_max,
        "mode": system.mode,
        "nets": {str(k): list(map(int, v)) for k, v in system.nets.items()},
        "parents": {str(k): up[lo:hi] for k, lo, hi in zip(system.levels(), first, first[1:])},
        "constants": {
            "c0": system.c0,
            "C0_measured": system.C0_measured,
            "c1_certified": system.inner_cert,
            "C1_certified": system.outer_cert,
            "C1_effective": system.outer_eff,
        },
    }
