"""Finite weighted quasi-metric spaces and their geometric constants.

A space is a point set {0..n-1}, a symmetric positive off-diagonal distance
matrix, and positive per-point weights (the measure of each singleton).  The
quasi-triangle constant a0, the ball-doubling constant cmu and the upper
dimension omega = log2(cmu) are computed exactly -- they feed every downstream
certified constant, so they are never estimated.  a0 comes from a min-plus
product taken over one triangle of the symmetric distance matrix in tiles of
pairs (x, y): each tile adds rows of x to rows of y over all z at once and
takes the minimum along the contiguous z axis, about 2**16 sums a tile (on a
512-point cloud, tiles of 8 x 16 pairs).  Reordering the points so that
tiles could skip blocks of z ran slower, because nine in ten blocks survive,
and so did tiles split into chunks of z.  No tile size made one core's scan
faster, so its rows of tiles are shared out: when a second CPU is usable, a
helper thread takes rows from one lock-guarded iterator while the calling
thread computes cmu, and then the calling thread takes rows too.  A row's
arithmetic is the same whichever thread runs it, so a0 does not depend on
the number of CPUs.  cmu stays on the calling thread, because its rescan
allocates masks of up to 2n x n entries and a pool thread's buffers would
raise the peak memory.  A space with one row of tiles (up to 32 points)
starts no thread.  cmu comes from per-center prefix measures, 64 centers
per row block: each ball is a prefix of the points sorted by distance to
its center, and the positive distances are the only radii needed.  The few
centers within rounding of the maximum are rescanned in the exhaustive
scan's own arithmetic.  Both equal the exhaustive scans of
``prodhardy.oracles`` (``*_exhaustive``) bit for bit.  Point distances equal
the broadcast (n, n, D) forms bit for bit: below 8 coordinate axes they are
built one (n, n) term per axis, added in order as NumPy adds so few terms,
and from 8 axes the broadcast form is summed itself, in row blocks.

Borel regularity of the measure has no finite-space content; it is noted here
and not modeled.
"""

from __future__ import annotations

import json
import math
import os
import sys
import threading
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np


class SpaceValidationError(ValueError):
    """Raised when an input document violates the space schema."""


@dataclass(frozen=True)
class FiniteSpace:
    """Immutable finite surrogate of a space of homogeneous type."""

    dist: np.ndarray             # (n, n) symmetric, zero diagonal
    weight: np.ndarray           # (n,) positive
    a0: float                    # minimal quasi-triangle constant, >= 1
    cmu: float                   # max realized mu(B(x,2r))/mu(B(x,r)), >= 1
    omega: float                 # log2(cmu)

    @property
    def n(self) -> int:
        return self.dist.shape[0]

    @property
    def total_measure(self) -> float:
        return float(self.weight.sum())

    @property
    def diameter(self) -> float:
        return float(self.dist.max())

    def min_positive_distance(self) -> float:
        if self.n == 1:
            return math.inf
        d = self.dist[~np.eye(self.n, dtype=bool)]
        return float(d.min())

    def ball_mask(self, center: int, radius: float) -> np.ndarray:
        return self.dist[center] < radius

    @cached_property
    def realized_balls(self) -> np.ndarray:
        """``realized_ball_masks(self)``, built on first use and kept with the
        space, so it lives exactly as long as the space does."""
        masks = realized_ball_masks(self)
        masks.flags.writeable = False
        return masks


def realized_ball_masks(space: FiniteSpace) -> np.ndarray:
    """Deduplicated member masks of every realized ball, one row per ball."""
    seen = set()
    rows = []
    for c in range(space.n):
        d = space.dist[c]
        radii = np.unique(d)           # B(c, r) changes membership at these
        for t in radii:
            mask = d <= t              # equals B(c, r) for r just above t
            key = mask.tobytes()
            if key not in seen:
                seen.add(key)
                rows.append(mask)
    return np.asarray(rows)


# Sums per tile of the a0 scan: a tile of bx x by pairs (x, y) holds
# bx * by * n sums d(x, z) + d(z, y), about 2**16 of them (8 x 16 pairs at
# n = 512), so it stays in cache while it is reduced over z.
_A0_TILE = 1 << 16

# Threads that scan a0's rows of tiles: the calling thread and one helper,
# the one configuration measured (two CPUs).  Each further helper would keep
# a tile buffer live during cmu's rescan, which sets the peak memory.
_A0_THREADS = 2


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:                      # no affinity call on this platform
        return os.cpu_count() or 1


def _quasi_triangle_constant(dist: np.ndarray, meanwhile=None) -> float:
    """Minimal a0 with d(x,y) <= a0 (d(x,z)+d(z,y)) over all triples.

    best(x,y) = min_z d(x,z)+d(z,y) is symmetric for a symmetric matrix, so
    only tiles of pairs with y >= the tile's first x are computed.  A tile
    is one ``np.add`` of rows of x against rows of y (d(z,y) = d(y,z)) into
    a (bx, by, n) buffer, then one ``np.minimum.reduce`` along its
    contiguous z axis into the tile's block of best; one division and one
    max per row of tiles follow.

    The rows of tiles are independent, and NumPy lets go of the GIL inside
    the add and the reduce, so up to ``_A0_THREADS`` threads, no more than
    the usable CPUs (``_cpus``) or the rows, take rows from one lock-guarded
    iterator, coarsest (longest) rows first, until none is left: the work
    balances itself.  Helpers start first; when the process is at its thread
    limit, a helper that cannot start leaves its rows to the threads that
    did.  The calling thread runs ``meanwhile`` (the doubling constant, in
    ``make_space``) and then scans rows too.  A space of one row of tiles,
    every space up to 32 points, starts no thread.  Every helper is joined
    before this returns, also when ``meanwhile`` or a helper raises; a
    helper's exception is raised here.  Each row runs the same arithmetic
    whichever thread takes it, and min, max and each single sum are exact
    in any order, so a0, the largest of the threads' maxima, is the
    exhaustive value bit for bit for any number of threads
    and any interleaving.  Degenerate (n = 1) spaces get a0 = 1.
    """
    n = dist.shape[0]
    pairs = max(1, _A0_TILE // n)
    bx = min(n, max(1, math.isqrt(pairs // 2)))
    by = min(n, max(1, pairs // bx))
    starts = range(0, n, bx)
    todo, lock = iter(starts), threading.Lock()
    worst, failures = [1.0], []

    def helper():
        try:
            worst.append(_scan_tile_rows(dist, todo, lock, bx, by))
        except BaseException as exc:            # raised again by the calling thread
            failures.append(exc)

    helpers = []
    try:
        for _ in range(min(_cpus(), len(starts), _A0_THREADS) - 1):
            t = threading.Thread(target=helper)
            try:
                t.start()
            except RuntimeError:                # at the thread limit: the started ones scan
                break
            helpers.append(t)
        if meanwhile is not None:
            meanwhile()
        worst.append(_scan_tile_rows(dist, todo, lock, bx, by))
    finally:
        with lock:
            for _ in todo:                      # leave no row for a helper still running
                pass
        for t in helpers:
            t.join()
    if failures:
        raise failures[0]
    return max(worst)


def _scan_tile_rows(dist: np.ndarray, todo, lock, bx: int, by: int) -> float:
    """The largest d(x,y) / best(x,y) over the rows of tiles taken from
    ``todo`` (their first x), one at a time under ``lock``, in a buffer and
    a strip of this thread's own; 1.0 when it gets none."""
    n = dist.shape[0]
    buf, strip = np.empty((bx, by, n)), np.empty((bx, n))
    worst = 1.0
    while True:
        with lock:
            x0 = next(todo, None)
        if x0 is None:
            return worst
        rows = dist[x0:x0 + bx]
        best = strip[:rows.shape[0], x0:]       # best(x, y) for y >= x0
        for y0 in range(x0, n, by):
            cols = dist[y0:y0 + by]
            tmp = buf[:rows.shape[0], :cols.shape[0]]
            np.add(rows[:, None, :], cols[None, :, :], out=tmp)
            np.minimum.reduce(tmp, axis=2, out=best[:, y0 - x0:y0 - x0 + by])
        diag = np.arange(rows.shape[0])
        best[diag, diag] = np.inf               # x = y: ratio 0, below every a0
        worst = max(worst, float(np.divide(rows[:, x0:], best, out=best).max()))


def _ball_radius_candidates(drow: np.ndarray) -> np.ndarray:
    """Radii at which B(x,r) or B(x,2r) changes membership.

    Both member sets are constant between consecutive candidates, so
    evaluating at the candidates covers every realized (x, r) pair.
    """
    pos = np.unique(drow[drow > 0])
    if pos.size == 0:
        return np.asarray([1.0])
    return np.unique(np.concatenate([pos, pos / 2.0]))


def _growth_by_masks(drow: np.ndarray, weight: np.ndarray) -> float:
    """max mu(B(x, 2r)) / mu(B(x, r)) at one center, with one mask row per
    candidate radius: the exhaustive scan's own arithmetic."""
    radii = _ball_radius_candidates(drow)
    small = (drow[None, :] < radii[:, None]) @ weight
    big = (drow[None, :] < 2.0 * radii[:, None]) @ weight
    ok = small > 0
    return float((big[ok] / small[ok]).max()) if ok.any() else 1.0


def _normal(*values: float) -> bool:
    """True when every value is a finite, positive, normal float (False on NaN)."""
    return all(sys.float_info.min <= v <= sys.float_info.max for v in values)


def _exact_sums(weight: np.ndarray) -> bool:
    """True when every partial sum of the weights, in any order, is exact:
    integer weights whose total is below 2**53."""
    return bool((weight == np.round(weight)).all()) and float(weight.sum()) < 2.0 ** 53


# Centers per block of the growth scan: the block's sorted distances, prefix
# measures and indices are a few 64 x n arrays, whatever n is.
_GROWTH_BLOCK = 64


def _prefix_growth(dist: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """Entry x: max mu(B(x, 2r)) / mu(B(x, r)) over the realized radii r,
    from prefix sums of x's weights taken in ascending distance (ties by
    point id).  Needs n >= 2.

    Centers go in row blocks of at most 64.  Sorting a block's rows makes
    every ball {d(x,.) < r} a prefix of its row, so its measure is a prefix
    sum of one row ``cumsum``.  Only the positive distances p_1 < p_2 < ...
    of a row are needed as radii: for r in (p_i, p_i+1] the small ball is
    one set (for r <= p_1, the center alone) and the big ball can only grow
    with r, and prefix sums of positive weights never decrease, so r = p_i+1
    gives the interval's largest ratio, as the same float.  The small ball
    at p_j is the prefix before p_j's tie run, found by
    ``np.maximum.accumulate`` over the run starts; the big ball takes one
    ``searchsorted`` per row.  The sort is NumPy's unstable one; a block
    with tied distances is re-sorted by (tie run, point id), the order a
    stable sort gives, so the sums are always added in the same order.
    """
    n = dist.shape[0]
    fast = np.empty(n)
    cols = np.arange(n)
    for x0 in range(0, n, _GROWTH_BLOCK):
        rows = dist[x0:x0 + _GROWTH_BLOCK]
        b = rows.shape[0]
        order = np.argsort(rows, axis=1)
        nearest = rows.ravel()[order + n * np.arange(b)[:, None]]
        starts = np.ones((b, n), dtype=bool)
        np.not_equal(nearest[:, 1:], nearest[:, :-1], out=starts[:, 1:])
        if not starts.all():
            key = np.cumsum(starts, axis=1) * n + order
            order = np.take_along_axis(order, np.argsort(key, axis=1), axis=1)
        prefix = np.zeros((b, n + 1))
        np.cumsum(weight[order], axis=1, out=prefix[:, 1:])
        flat = prefix.ravel()
        base = (n + 1) * np.arange(b)[:, None]
        # column 0 is the center itself, the only zero distance of its row
        left = np.maximum.accumulate(np.where(starts, cols, 0), axis=1)
        small = flat[left[:, 1:] + base]
        ends = np.stack([np.searchsorted(row, big)
                         for row, big in zip(nearest, 2.0 * nearest[:, 1:])])
        fast[x0:x0 + b] = (flat[ends + base] / small).max(axis=1)
    return fast


def _max_growth(dist: np.ndarray, weight: np.ndarray) -> float:
    """cmu: max mu(B(x, 2r)) / mu(B(x, r)) over all centers and realized
    radii, equal bit for bit to ``_growth_by_masks`` maximized over every
    center (and 1.0).

    ``_prefix_growth`` adds the weights in another order than the masked
    BLAS products, which themselves round a row differently depending on
    where it sits in the matrix, so the two may differ in the last bits.
    Any order of adding n nonnegative terms stays within about n u of the
    exact sum (u = eps/2), so a center's prefix-sum growth is within a
    factor 1 +- (2n+1) eps of its masked growth, and the center holding the
    masked maximum lies within 1 - (4n+2) eps of the largest prefix-sum
    growth.  Rescanning every center within 1 - 8n eps of it with masks
    makes the result exact; usually that is one center, but on a symmetric
    space with inexact weights it is every center.  No rescan is needed when
    the sums are exact.
    """
    n = dist.shape[0]
    if n == 1:
        return 1.0                           # every ball is the one point
    row = _prefix_growth(dist, weight)
    if _exact_sums(weight):
        return max(1.0, float(row.max()))
    near = np.flatnonzero(row >= row.max() * (1.0 - 8.0 * n * np.finfo(float).eps))
    return max([1.0] + [_growth_by_masks(dist[x], weight) for x in near])


def make_space(dist, weight=None) -> FiniteSpace:
    """Validate raw arrays and compute the geometric constants."""
    dist = np.asarray(dist, dtype=float)
    if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
        raise SpaceValidationError("distance matrix must be square")
    n = dist.shape[0]
    if n == 0:
        raise SpaceValidationError("space must contain at least one point")
    if weight is None:
        weight = np.ones(n)
    try:
        weight = np.asarray(weight, dtype=float)
    except (TypeError, ValueError):
        raise SpaceValidationError(f"weights: expected a list of {n} numbers") from None
    if weight.shape != (n,):
        raise SpaceValidationError(f"weights: expected {n} entries, got {weight.shape}")
    if not np.isfinite(weight).all():
        bad = int(np.flatnonzero(~np.isfinite(weight))[0])
        raise SpaceValidationError(f"weights[{bad}] = {weight[bad]} is not finite")
    if not (weight > 0).all():
        bad = int(np.argmin(weight))
        raise SpaceValidationError(f"weights[{bad}] = {weight[bad]} is not positive")
    with np.errstate(over="ignore"):
        total = float(weight.sum())
    if not math.isfinite(total):
        raise SpaceValidationError(f"weights: total measure {total} is not finite")
    if not np.isfinite(dist).all():
        i, j = np.argwhere(~np.isfinite(dist))[0]
        raise SpaceValidationError(f"matrix[{i}][{j}] = {dist[i, j]} is not finite")
    if (dist < 0).any():
        raise SpaceValidationError("negative distance entry")
    if not np.array_equal(dist, dist.T):
        i, j = np.argwhere(dist != dist.T)[0]
        raise SpaceValidationError(f"matrix[{i}][{j}] != matrix[{j}][{i}]: asymmetric matrix")
    if np.diag(dist).any():
        i = int(np.argmax(np.abs(np.diag(dist))))
        raise SpaceValidationError(f"matrix[{i}][{i}] must be 0")
    off = ~np.eye(n, dtype=bool)
    if n > 1 and not (dist[off] > 0).all():
        i, j = np.argwhere((dist == 0) & off)[0]
        raise SpaceValidationError(f"zero distance between distinct points {i} and {j}")
    # cmu and its rescan stay on this thread while helpers scan a0's tiles
    growth = []
    a0 = _quasi_triangle_constant(dist, lambda: growth.append(_max_growth(dist, weight)))
    cmu = growth[0]
    return FiniteSpace(
        dist=dist,
        weight=weight,
        a0=a0,
        cmu=cmu,
        omega=math.log2(cmu),
    )


# Entries of a (rows, n, D) block of coordinate differences summed at once
_ROW_BLOCK = 1 << 16


def _axis_sum(p: np.ndarray, term) -> np.ndarray:
    """``term(p[:, None, :] - p[None, :, :]).sum(-1)`` bit for bit, for a
    ufunc ``term`` applied in place.  NumPy adds fewer than 8 terms of a
    contiguous axis one by one, so below 8 axes one (n, n) term per axis is
    added to a running sum.  From 8 axes it adds them in its own pairwise
    order, so the broadcast form itself is summed, in row blocks of at most
    2**16 entries: each entry's D terms are reduced on their own, whatever
    the block."""
    n, dim = p.shape
    if dim < 8:
        out = _gaps(p, 0, term)
        for a in range(1, dim):
            out += _gaps(p, a, term)
        return out
    out = np.empty((n, n))
    step = max(1, _ROW_BLOCK // (n * dim))
    for x0 in range(0, n, step):
        block = p[x0:x0 + step, None, :] - p[None, :, :]
        np.add.reduce(term(block, out=block), axis=-1, out=out[x0:x0 + step])
    return out


def _gaps(p: np.ndarray, a: int, term=np.abs) -> np.ndarray:
    """term(p_i[a] - p_j[a]) for all pairs (i, j)."""
    gap = p[:, a, None] - p[None, :, a]
    return term(gap, out=gap)


def _euclidean(p: np.ndarray) -> np.ndarray:
    total = _axis_sum(p, np.square)
    return np.sqrt(total, out=total)


def _manhattan(p: np.ndarray) -> np.ndarray:
    return _axis_sum(p, np.abs)


def _chebyshev(p: np.ndarray) -> np.ndarray:
    out = _gaps(p, 0)
    for a in range(1, p.shape[1]):
        np.maximum(out, _gaps(p, a), out=out)
    return out


# Point distances from (n, D) coordinates, one (n, n) term per axis; each
# equals its broadcast (n, n, D) form bit for bit.
_METRICS = {"euclidean": _euclidean, "manhattan": _manhattan, "chebyshev": _chebyshev}


def load_space(source) -> FiniteSpace:
    """Load a FiniteSpace from a structured document.

    Accepts a dict, a JSON string, or a path to a JSON file, in one of two
    schemas::

        {"points": [{"id": 0, "coords": [..], "weight": 1.0}, ...],
         "metric": "euclidean"}
        {"matrix": [[..], ..], "weights": [..]}

    An optional "snowflake" exponent s > 0 raises all distances to the power
    s (s > 1 produces genuinely quasi-metric spaces).  Schema violations are
    rejected with the offending key path; inputs are never repaired.
    """
    doc = source
    if isinstance(doc, (str, Path)):
        text = str(doc)
        if isinstance(doc, Path) or not text.lstrip().startswith("{"):
            text = Path(doc).read_text()
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as e:
            raise SpaceValidationError(f"invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}") from None
    if not isinstance(doc, dict):
        raise SpaceValidationError("document root must be an object")

    if "matrix" in doc:
        try:
            dist = np.asarray(doc["matrix"], dtype=float)
        except (TypeError, ValueError):
            raise SpaceValidationError("matrix: expected a list of equal-length rows of numbers") from None
        weight = doc.get("weights")
    elif "points" in doc:
        pts = doc["points"]
        if not isinstance(pts, list) or not pts:
            raise SpaceValidationError("points: must be a nonempty list")
        coords, weight = [], []
        for i, rec in enumerate(pts):
            if not isinstance(rec, dict) or "coords" not in rec:
                raise SpaceValidationError(f"points[{i}]: expected an object with 'coords'")
            pid = rec.get("id", i)
            if type(pid) is not int or pid != i:
                raise SpaceValidationError(f"points[{i}].id: ids must be the ints 0..n-1 in order, "
                                           f"got {pid!r}")
            try:
                c = np.atleast_1d(np.asarray(rec["coords"], dtype=float))
            except (TypeError, ValueError):
                c = None
            if c is None or c.ndim != 1 or not c.size:
                raise SpaceValidationError(f"points[{i}].coords: expected a nonempty list of numbers")
            coords.append(c)
            try:
                weight.append(float(rec.get("weight", 1.0)))
            except (TypeError, ValueError):
                raise SpaceValidationError(f"points[{i}].weight: {rec['weight']!r} is not a number") from None
        dims = {c.shape for c in coords}
        if len(dims) > 1:
            raise SpaceValidationError("points[*].coords: inconsistent dimensions")
        metric = doc.get("metric", "euclidean")
        if type(metric) is not str or metric not in _METRICS:
            raise SpaceValidationError(f"metric: unknown metric {metric!r}")
        coords = np.stack(coords)
        if not np.isfinite(coords).all():
            i, k = np.argwhere(~np.isfinite(coords))[0]
            raise SpaceValidationError(f"points[{i}].coords[{k}] = {coords[i, k]} is not finite")
        with np.errstate(over="ignore"):         # an overflow is named below
            dist = _METRICS[metric](coords)
        np.fill_diagonal(dist, 0.0)
    else:
        raise SpaceValidationError("document must contain 'matrix' or 'points'")

    s = doc.get("snowflake")
    if s is not None:
        if not (type(s) in (int, float) and 0 < s <= sys.float_info.max):
            raise SpaceValidationError(f"snowflake: exponent {s!r} is not a positive number")
        s = float(s)
        with np.errstate(over="ignore"):
            dist = dist ** s
    if "matrix" not in doc and not np.isfinite(dist).all():
        i, j = np.argwhere(~np.isfinite(dist))[0]
        raise SpaceValidationError(f"points[{i}] and points[{j}]: their distance overflows")
    return make_space(dist, weight)
