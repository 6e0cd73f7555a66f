"""Finite weighted quasi-metric spaces and their geometric constants.

A space is a point set {0..n-1}, a symmetric positive off-diagonal distance
matrix, and positive per-point weights (the measure of each singleton).  The
quasi-triangle constant a0, the ball-doubling constant cmu and the upper
dimension omega = log2(cmu) are computed exactly -- they feed every downstream
certified constant, so they are never estimated.  a0 comes from a min-plus
product taken over one triangle of the symmetric distance matrix, block by
block; cmu from per-center prefix measures (each ball is a prefix of the
points sorted by distance to its center), with the few centers within
rounding of the maximum rescanned in the exhaustive scan's own arithmetic.
Both equal the exhaustive scans kept beside them (``*_exhaustive``) bit for
bit.

Borel regularity of the measure has no finite-space content; it is noted here
and not modeled.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np


class SpaceValidationError(ValueError):
    """Raised when an input document violates the space schema."""


@dataclass(frozen=True)
class Ball:
    """Quasi-metric ball B(x, r) = {y : d(x, y) < r} (strict inequality)."""

    center: int
    radius: float
    members: np.ndarray          # sorted point ids
    measure: float


@dataclass(frozen=True)
class FiniteSpace:
    """Immutable finite surrogate of a space of homogeneous type."""

    dist: np.ndarray             # (n, n) symmetric, zero diagonal
    weight: np.ndarray           # (n,) positive
    a0: float                    # minimal quasi-triangle constant, >= 1
    cmu: float                   # max realized mu(B(x,2r))/mu(B(x,r)), >= 1
    omega: float                 # log2(cmu)
    meta: dict = field(default_factory=dict, compare=False)

    @property
    def n(self) -> int:
        return self.dist.shape[0]

    @property
    def points(self) -> list[int]:
        return list(range(self.n))

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


# Rows of x per block in the blocked a0 scan: a 64 x n tile of the min-plus
# product stays in cache while every z streams past it.
_A0_BLOCK = 64


def _quasi_triangle_constant(dist: np.ndarray) -> float:
    """Minimal a0 with d(x,y) <= a0 (d(x,z)+d(z,y)) over all triples.

    best(x,y) = min_z d(x,z)+d(z,y) is symmetric for a symmetric matrix, and
    min, max and each single sum are exact in any order, so computing best
    only for y >= the first row of each block of x gives the exhaustive
    value bit for bit.  Degenerate (n = 1) spaces get a0 = 1.
    """
    n = dist.shape[0]
    worst = 1.0
    for i0 in range(0, n, _A0_BLOCK):
        rows = dist[i0:i0 + _A0_BLOCK]
        best = np.full((rows.shape[0], n - i0), np.inf)
        tmp = np.empty_like(best)
        for z in range(n):
            np.add(rows[:, z, None], dist[z, None, i0:], out=tmp)
            np.minimum(best, tmp, out=best)
        diag = np.arange(rows.shape[0])
        best[diag, diag] = np.inf          # x = y: ratio 0, below every a0
        worst = max(worst, float((rows[:, i0:] / best).max()))
    return worst


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


def _ball_radius_candidates(drow: np.ndarray, extra_scale: float = 2.0) -> np.ndarray:
    """Radii at which B(x,r) or B(x,extra_scale*r) changes membership.

    Both member sets are constant between consecutive candidates, so
    evaluating at the candidates covers every realized (x, r) pair.
    """
    pos = np.unique(drow[drow > 0])
    if pos.size == 0:
        return np.asarray([1.0])
    return np.unique(np.concatenate([pos, pos / extra_scale]))


def _ball_measures(drow: np.ndarray, weight: np.ndarray):
    """Measure of every ball around one center, as a lookup by radius.

    Each ball {d(x,.) < r} is a prefix of the points sorted by distance to
    x, so its measure is a prefix sum of their weights.  The returned
    function maps radii to measures.
    """
    order = np.argsort(drow, kind="stable")
    nearest = drow[order]
    prefix = np.concatenate([[0.0], np.cumsum(weight[order])])
    return lambda radii: prefix[np.searchsorted(nearest, radii, side="left")]


def _growth(small: np.ndarray, big: np.ndarray) -> float:
    ok = small > 0
    return float((big[ok] / small[ok]).max()) if ok.any() else 1.0


def _growth_by_masks(drow: np.ndarray, weight: np.ndarray, lam: float) -> float:
    """max mu(B(x, lam r)) / mu(B(x, r)) at one center, with one mask row per
    candidate radius: the exhaustive scans' own arithmetic."""
    radii = _ball_radius_candidates(drow, extra_scale=max(lam, 2.0))
    small = (drow[None, :] < radii[:, None]) @ weight
    big = (drow[None, :] < lam * radii[:, None]) @ weight
    return _growth(small, big)


def _exact_sums(weight: np.ndarray) -> bool:
    """True when every partial sum of the weights, in any order, is exact:
    integer weights whose total is below 2**53."""
    return bool((weight == np.round(weight)).all()) and float(weight.sum()) < 2.0 ** 53


def _max_growth(dist: np.ndarray, weight: np.ndarray, lambdas) -> list[float]:
    """For each lam >= 1, max mu(B(x, lam r)) / mu(B(x, r)) over all centers
    and realized radii, equal bit for bit to ``_growth_by_masks`` maximized
    over every center (and 1.0).

    The prefix sums add the weights in another order than the masked BLAS
    products, which themselves round a row differently depending on where
    it sits in the matrix, so the two may differ in the last bits.  Any
    order of adding n nonnegative terms stays within about n u of the exact
    sum (u = eps/2), so a center's prefix-sum growth is within a factor
    1 +- (2n+1) eps of its masked growth, and the center holding the masked
    maximum lies within 1 - (4n+2) eps of the largest prefix-sum growth.
    Rescanning every center within 1 - 8n eps of it with masks makes the
    result exact; usually that is one center.  No rescan is needed when the
    sums are exact, nor for lam = 1, where each ball is divided by itself.
    """
    n = dist.shape[0]
    fast = np.ones((len(lambdas), n))
    for x, drow in enumerate(dist):
        measure = _ball_measures(drow, weight)
        for i, lam in enumerate(lambdas):
            radii = _ball_radius_candidates(drow, extra_scale=max(lam, 2.0))
            fast[i, x] = _growth(measure(radii), measure(lam * radii))
    exact = _exact_sums(weight)
    margin = 1.0 - 8.0 * n * np.finfo(float).eps
    worst = []
    for lam, row in zip(lambdas, fast):
        if exact or lam == 1.0:
            worst.append(max(1.0, float(row.max())))
        else:
            near = np.flatnonzero(row >= row.max() * margin)
            worst.append(max([1.0] + [_growth_by_masks(dist[x], weight, lam) for x in near]))
    return worst


def _doubling_constant(dist: np.ndarray, weight: np.ndarray) -> float:
    return _max_growth(dist, weight, [2.0])[0]


def _doubling_constant_exhaustive(dist: np.ndarray, weight: np.ndarray) -> float:
    """Specification of ``_doubling_constant``: two 2n x n masks per center."""
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


def make_space(dist, weight=None, meta=None) -> FiniteSpace:
    """Validate raw arrays and compute the geometric constants."""
    dist = np.asarray(dist, dtype=float)
    if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
        raise SpaceValidationError("distance matrix must be square")
    n = dist.shape[0]
    if n == 0:
        raise SpaceValidationError("space must contain at least one point")
    if weight is None:
        weight = np.ones(n)
    weight = np.asarray(weight, dtype=float)
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
    cmu = _doubling_constant(dist, weight)
    return FiniteSpace(
        dist=dist,
        weight=weight,
        a0=_quasi_triangle_constant(dist),
        cmu=cmu,
        omega=math.log2(cmu),
        meta=dict(meta or {}),
    )


_METRICS = {
    "euclidean": lambda p: np.sqrt(((p[:, None, :] - p[None, :, :]) ** 2).sum(-1)),
    "manhattan": lambda p: np.abs(p[:, None, :] - p[None, :, :]).sum(-1),
    "chebyshev": lambda p: np.abs(p[:, None, :] - p[None, :, :]).max(-1),
}


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
        dist = np.asarray(doc["matrix"], dtype=float)
        weight = doc.get("weights")
        meta = {"source": "matrix"}
    elif "points" in doc:
        pts = doc["points"]
        if not isinstance(pts, list) or not pts:
            raise SpaceValidationError("points: must be a nonempty list")
        coords, weight = [], []
        seen = set()
        for i, rec in enumerate(pts):
            if not isinstance(rec, dict) or "coords" not in rec:
                raise SpaceValidationError(f"points[{i}]: expected an object with 'coords'")
            pid = rec.get("id", i)
            if pid != i:
                raise SpaceValidationError(f"points[{i}].id: ids must be 0..n-1 in order, got {pid}")
            if pid in seen:
                raise SpaceValidationError(f"points[{i}].id: duplicate id {pid}")
            seen.add(pid)
            coords.append(np.atleast_1d(np.asarray(rec["coords"], dtype=float)))
            weight.append(float(rec.get("weight", 1.0)))
        dims = {c.shape for c in coords}
        if len(dims) > 1:
            raise SpaceValidationError("points[*].coords: inconsistent dimensions")
        metric = doc.get("metric", "euclidean")
        if metric not in _METRICS:
            raise SpaceValidationError(f"metric: unknown metric {metric!r}")
        dist = _METRICS[metric](np.stack(coords))
        np.fill_diagonal(dist, 0.0)
        meta = {"source": "points", "metric": metric}
    else:
        raise SpaceValidationError("document must contain 'matrix' or 'points'")

    s = doc.get("snowflake")
    if s is not None:
        s = float(s)
        if s <= 0:
            raise SpaceValidationError("snowflake: exponent must be positive")
        dist = dist ** s
        meta["snowflake"] = s
    return make_space(dist, weight, meta)


def ball(space: FiniteSpace, center: int, radius: float) -> Ball:
    """Ball with strict-inequality membership and its measure."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    mask = space.ball_mask(center, radius)
    return Ball(
        center=center,
        radius=radius,
        members=np.flatnonzero(mask),
        measure=float(space.weight[mask].sum()),
    )


def doubling_profile(space: FiniteSpace, lambdas=(1.0, 2.0, 4.0, 8.0)) -> list[dict]:
    """Measured growth mu(B(x, lam*r))/mu(B(x, r)) over all realized (x, r).

    Each row certifies the exhaustive maximum against cmu * lam^omega, which
    is a theorem for omega = log2(cmu) (iterate doubling ceil(log2 lam) times).
    """
    lambdas = [float(lam) for lam in lambdas]
    if any(lam < 1 for lam in lambdas):
        raise ValueError("dilation factor must be >= 1")
    worst = _max_growth(space.dist, space.weight, lambdas)
    rows = []
    for lam, growth in zip(lambdas, worst):
        bound = space.cmu * lam ** space.omega
        rows.append({
            "lambda": lam,
            "max_ratio": growth,
            "bound": bound,
            "certified": growth <= bound * (1 + 1e-12),
        })
    return rows
