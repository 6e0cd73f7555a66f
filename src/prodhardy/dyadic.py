"""Hytonen-Kairema style dyadic cube systems on a FiniteSpace.

Levels run from k_min (one cube covering everything) to k_max (singleton
cubes).  Nets are nested greedy maximal delta^k-separated sets; each
level-(k+1) cube is attached to the level-k net point nearest its center and
member sets are inherited bottom-up, so nestedness and disjoint union hold
exactly by construction.  Inner/outer ball containment is certified with
c1 = (3 a0^2)^-1 c0 and C1 = 2 a0 C0 whenever the base side length satisfies
the cube test condition 12 a0^3 C0 delta <= c0.  Without a given delta the
reference rule chooses it ("reference" mode); a given delta may be any value
in (0,1) ("desk" mode), and non-conformance is recorded instead of failing.

Each system also offers one array view of its cubes (``CubeGeometry``:
incidence matrix, sizes, centers, sides, parent indices), built on first
use, from which all dyadic-rectangle geometry is computed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .space import Ball, FiniteSpace, ball

# Auscher-Hytonen reference dilation constants, recorded for comparison:
# C1 = 6 a0^4, c1 = a0^-5 / 6, ratio C1/c1 = 36 a0^9.
def AH_OUTER(a0):
    return 6.0 * a0 ** 4


def AH_INNER(a0):
    return a0 ** (-5) / 6.0


def AH_RATIO(a0):
    return 36.0 * a0 ** 9


@dataclass
class Cube:
    level: int
    index: int                   # alpha: position of the center in net(level)
    center: int                  # point id
    members: np.ndarray          # sorted point ids
    measure: float
    side: float                  # delta^level
    parent: int | None = None    # alpha of the parent at level-1
    children: list[int] = field(default_factory=list)   # alphas at level+1

    @property
    def id(self) -> tuple[int, int]:
        return (self.level, self.index)


@dataclass(frozen=True)
class CubeGeometry:
    """Array view of a system's cubes, flattened in ``all_cubes()`` order
    (level, then index): row ``a`` of every array describes ``cubes[a]``.
    Ancestors precede their descendants, so the coarsest cube of any set of
    ancestors has the smallest flat index."""

    cubes: list[Cube]
    first: dict[int, int]        # level -> flat index of its first cube
    incidence: np.ndarray        # (n_cubes, n) 0/1 floats: incidence[a, x] = x in cubes[a]
    sizes: np.ndarray            # (n_cubes,) member counts, as floats
    measures: np.ndarray         # (n_cubes,) cube measures
    centers: np.ndarray          # (n_cubes,) center point ids
    sides: np.ndarray            # (n_cubes,) delta^level
    parent: np.ndarray           # (n_cubes,) flat index of the parent, -1 at k_min
    ancestors: np.ndarray        # (n_cubes, n_cubes) bool: cubes[b] is cubes[a] or an ancestor

    @classmethod
    def of(cls, system: "DyadicSystem") -> "CubeGeometry":
        cubes = list(system.all_cubes())
        first: dict[int, int] = {}
        incidence = np.zeros((len(cubes), system.space.n))
        for a, c in enumerate(cubes):
            first.setdefault(c.level, a)
            incidence[a, c.members] = 1.0
        parent = [-1 if c.level == system.k_min or c.parent is None
                  else first[c.level - 1] + c.parent for c in cubes]
        ancestors = np.eye(len(cubes), dtype=bool)
        for a, b in enumerate(parent):           # parents come first: their rows are done
            if b >= 0:
                ancestors[a] |= ancestors[b]
        geom = cls(cubes=cubes, first=first, incidence=incidence,
                   sizes=incidence.sum(axis=1),
                   measures=np.array([c.measure for c in cubes]),
                   centers=np.array([c.center for c in cubes], dtype=int),
                   sides=np.array([c.side for c in cubes]),
                   parent=np.array(parent, dtype=int), ancestors=ancestors)
        for arr in (geom.incidence, geom.sizes, geom.measures, geom.centers, geom.sides,
                    geom.parent, geom.ancestors):
            arr.flags.writeable = False          # shared by every caller of the system
        return geom

    def flat(self, k: int, alpha: int) -> int:
        """Flat index of cube (k, alpha)."""
        return self.first[k] + alpha


@dataclass(frozen=True)
class RegularFamilyPolicy:
    """Uniform bounds, functions of a0 only, that member systems must meet."""

    max_outer_dilation: float
    max_dilation_ratio: float

    @classmethod
    def auscher_hytonen(cls, a0: float) -> "RegularFamilyPolicy":
        return cls(max_outer_dilation=AH_OUTER(a0), max_dilation_ratio=AH_RATIO(a0))

    def admits(self, system: "DyadicSystem") -> bool:
        return (system.outer_cert <= self.max_outer_dilation + 1e-12
                and system.outer_cert / system.inner_cert <= self.max_dilation_ratio + 1e-9)


class DyadicSystem:
    """Leveled tree of cubes with nets, constants and lookup helpers."""

    def __init__(self, space: FiniteSpace, delta: float, k_min: int, k_max: int,
                 nets: dict[int, list[int]], cubes: dict[int, list[Cube]],
                 mode: str):
        self.space = space
        self.delta = delta
        self.k_min = k_min
        self.k_max = k_max
        self.nets = nets
        self.cubes = cubes
        self.mode = mode                      # "reference" when the reference rule chose delta
        self.c0 = 1.0                         # greedy guarantees delta^k separation
        self.C0_measured = self._covering_constant()
        self.C0_cert = 2.0 * space.a0
        self.inner_cert = (1.0 / (3.0 * space.a0 ** 2)) * self.c0
        self.outer_cert = 2.0 * space.a0 * max(self.C0_measured, 1.0)
        self.conformant = 12.0 * space.a0 ** 3 * max(self.C0_measured, 1.0) * delta <= self.c0
        self._measure_tight_constants()
        # Effective outer constant for dilates: the lambda = 1 dilate must
        # contain its cube even when the certified constant fails (desk mode).
        self.outer_eff = max(self.outer_cert, self.outer_tight * (1.0 + 1e-9))

    # -- construction ------------------------------------------------------

    def side(self, k: int) -> float:
        return self.delta ** k

    def levels(self) -> range:
        return range(self.k_min, self.k_max + 1)

    def cube(self, k: int, alpha: int) -> Cube:
        return self.cubes[k][alpha]

    def all_cubes(self):
        for k in self.levels():
            yield from self.cubes[k]

    def n_cubes(self) -> int:
        return sum(len(v) for v in self.cubes.values())

    @cached_property
    def geometry(self) -> CubeGeometry:
        """Array view of the cubes, built on first use: building a system
        alone never needs it.  The view is published only once complete."""
        return CubeGeometry.of(self)

    def dilate_matrix(self, lam: float) -> np.ndarray:
        """Row ``a`` is ``dilate_mask(self, geometry.cubes[a], lam)``, bit for bit."""
        g = self.geometry
        return self.space.dist[g.centers] < (lam * self.outer_eff * g.sides)[:, None]

    def member_mask(self, k: int, alpha: int) -> np.ndarray:
        """Points of cube (k, alpha), read off the incidence matrix."""
        g = self.geometry
        return g.incidence[g.flat(k, alpha)] > 0.0

    # -- measured constants --------------------------------------------------

    def _covering_constant(self) -> float:
        worst = 0.0
        for k in self.levels():
            d = self.space.dist[:, self.nets[k]]
            worst = max(worst, float(d.min(axis=1).max()) / self.side(k))
        return worst

    def _measure_tight_constants(self):
        """Tightest c1, C1 making inner/outer ball containment true."""
        inner, outer = math.inf, 0.0
        n = self.space.n
        for c in self.all_cubes():
            d = self.space.dist[c.center]
            if len(c.members) < n:
                non = np.ones(n, dtype=bool)
                non[c.members] = False
                inner = min(inner, float(d[non].min()) / c.side)
            if len(c.members) > 1:
                outer = max(outer, float(d[c.members].max()) / c.side)
        self.inner_tight = inner      # B(z, r) subset cube for all r <= inner_tight*side
        self.outer_tight = outer      # cube subset B(z, r) for all r > outer_tight*side


def build_net(space: FiniteSpace, delta: float, k: int, seed_net=(), order=None) -> list[int]:
    """Greedy maximal delta^k-separated superset of seed_net.

    Candidates are scanned in ascending point id (or the supplied order), so
    the net is deterministic.  The result covers X within delta^k (measured
    C0 = 1) because any uncovered point would have been added.
    """
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    r = delta ** k
    seed = list(seed_net)
    if seed:
        d = space.dist[np.ix_(seed, seed)]
        off = ~np.eye(len(seed), dtype=bool)
        if len(seed) > 1 and d[off].min() < r:
            raise ValueError(f"seed net is not {r}-separated")
    net = list(seed)
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


def _assemble_cubes(space: FiniteSpace, delta: float, k_min: int, k_max: int,
                    nets: dict[int, list[int]],
                    parents: dict[int, list[int]]) -> dict[int, list[Cube]]:
    """The cube tree, bottom-up: singletons at k_max, then every level-k cube
    holds the level-(k+1) cubes whose entry in ``parents[k + 1]`` names it."""
    cubes = {k_max: [Cube(level=k_max, index=a, center=z, members=np.asarray([z]),
                          measure=float(space.weight[z]), side=delta ** k_max)
                     for a, z in enumerate(nets[k_max])]}
    for k in range(k_max - 1, k_min - 1, -1):
        level = [Cube(level=k, index=a, center=z, members=np.asarray([], dtype=int),
                      measure=0.0, side=delta ** k) for a, z in enumerate(nets[k])]
        for child, a in zip(cubes[k + 1], parents[k + 1]):
            child.parent = a
            level[a].children.append(child.index)
        for c in level:
            if c.children:
                c.members = np.sort(np.concatenate([cubes[k + 1][b].members for b in c.children]))
            c.measure = float(space.weight[c.members].sum())
        cubes[k] = level
    return cubes


def build_system(space: FiniteSpace, delta: float | None = None,
                 order_seed: int | None = None) -> DyadicSystem:
    """Construct the full cube system; see module docstring for the rules.
    ``mode`` is "reference" when the reference rule chose delta, else "desk"."""
    mode = "desk" if delta is not None else "reference"
    if delta is None:
        delta = min(0.5, 1e-3 * space.a0 ** -10)
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

    nets: dict[int, list[int]] = {}
    prev: list[int] = []
    for k in range(k_min, k_max + 1):
        nets[k] = build_net(space, delta, k, seed_net=prev, order=order)
        prev = nets[k]
    # exactly one top cube: decrement k_min on the (measure-zero) equality edge
    while len(nets[k_min]) > 1:
        k_min -= 1
        nets[k_min] = build_net(space, delta, k_min, seed_net=[], order=order)

    # argmin takes the first minimum of each row: net-order ties
    parents = {k: np.argmin(space.dist[np.ix_(nets[k], nets[k - 1])], axis=1).tolist()
               for k in range(k_min + 1, k_max + 1)}
    cubes = _assemble_cubes(space, delta, k_min, k_max, nets, parents)
    return DyadicSystem(space, delta, k_min, k_max, nets, cubes, mode)


def verify_system(system: DyadicSystem, policy: RegularFamilyPolicy | None = None) -> dict:
    """Exact structural checks plus measured/certified constants report.

    Nestedness and disjoint union are exact properties; any violation is a
    construction bug and raises.  Ball containment is measured, compared with
    the certificate c1 = (3 a0^2)^-1 c0, C1 = 2 a0 C0, and with the
    Auscher-Hytonen reference constants.
    """
    space = system.space
    n = space.n
    for k in system.levels():
        seen = np.concatenate([c.members for c in system.cubes[k]])
        if len(seen) != n or not np.array_equal(np.sort(seen), np.arange(n)):
            raise AssertionError(f"level {k}: cubes do not partition the space")
    for k in range(system.k_min, system.k_max):
        for c in system.cubes[k]:
            kid_members = [system.cubes[k + 1][b].members for b in c.children]
            merged = np.sort(np.concatenate(kid_members)) if kid_members else np.asarray([], dtype=int)
            if not np.array_equal(merged, c.members):
                raise AssertionError(f"cube {c.id}: children do not partition the parent")
        net_k, net_k1 = system.nets[k], system.nets[k + 1]
        if not set(net_k) <= set(net_k1):
            raise AssertionError(f"nets not nested between levels {k} and {k + 1}")

    # separation (greedy guarantee, re-checked) and covering
    for k in system.levels():
        net = system.nets[k]
        if len(net) > 1:
            d = space.dist[np.ix_(net, net)]
            off = ~np.eye(len(net), dtype=bool)
            if d[off].min() < system.c0 * system.side(k):
                raise AssertionError(f"net at level {k} is not separated")

    inner_cert_ok = True
    outer_cert_ok = True
    for c in system.all_cubes():
        d = space.dist[c.center]
        inside = d < system.inner_cert * c.side
        inside[c.members] = False
        if inside.any():
            inner_cert_ok = False
        if not (d[c.members] < system.outer_cert * c.side).all():
            outer_cert_ok = False

    policy = policy or RegularFamilyPolicy.auscher_hytonen(space.a0)
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
        "ah_reference": {"C1": AH_OUTER(space.a0), "c1": AH_INNER(space.a0),
                         "ratio": AH_RATIO(space.a0)},
        "regular_family_ok": policy.admits(system),
    }
    if system.conformant and not (inner_cert_ok and outer_cert_ok):
        raise AssertionError("certified ball containment failed under the cube test condition")
    return report


def dilate_cube(system: DyadicSystem, cube: Cube, lam: float) -> Ball:
    """lambda-dilate of the cube = the lambda-dilate of its outer ball."""
    if lam < 1:
        raise ValueError("dilation factor must be >= 1")
    return ball(system.space, cube.center, lam * system.outer_eff * cube.side)


def dilate_mask(system: DyadicSystem, cube: Cube, lam: float) -> np.ndarray:
    return system.space.ball_mask(cube.center, lam * system.outer_eff * cube.side)


def export_system(system: DyadicSystem) -> str:
    doc = {
        "delta": system.delta,
        "k_min": system.k_min,
        "k_max": system.k_max,
        "mode": system.mode,
        "nets": {str(k): list(map(int, v)) for k, v in system.nets.items()},
        "parents": {str(k): [(-1 if c.parent is None else int(c.parent))
                             for c in system.cubes[k]]
                    for k in system.levels()},
        "constants": {
            "c0": system.c0,
            "C0_measured": system.C0_measured,
            "c1_certified": system.inner_cert,
            "C1_certified": system.outer_cert,
            "C1_effective": system.outer_eff,
        },
    }
    return json.dumps(doc, sort_keys=True)


def import_system(space: FiniteSpace, text: str | Path) -> DyadicSystem:
    """Rebuild a system from its export; parent arrays round-trip bit-exact."""
    doc = json.loads(Path(text).read_text() if isinstance(text, Path) else text)
    delta, k_min, k_max = doc["delta"], doc["k_min"], doc["k_max"]
    nets = {int(k): list(v) for k, v in doc["nets"].items()}
    parents = {int(k): list(v) for k, v in doc["parents"].items()}
    cubes = _assemble_cubes(space, delta, k_min, k_max, nets, parents)
    return DyadicSystem(space, delta, k_min, k_max, nets, cubes, doc.get("mode", "desk"))
