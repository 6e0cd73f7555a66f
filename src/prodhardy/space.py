"""Finite weighted quasi-metric spaces and their geometric constants.

A space is a point set {0..n-1}, a symmetric positive off-diagonal distance
matrix, and positive per-point weights (the measure of each singleton).  The
quasi-triangle constant a0, the ball-doubling constant cmu and the upper
dimension omega = log2(cmu) are computed exactly by exhaustive enumeration --
they feed every downstream certified constant, so they are never estimated.

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


def _quasi_triangle_constant(dist: np.ndarray) -> float:
    """Minimal a0 with d(x,y) <= a0 (d(x,z)+d(z,y)) over all triples.

    Exhaustive over z; equality is attained at the maximizing triple by
    construction.  Degenerate (n = 1) spaces get a0 = 1.
    """
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


def _doubling_constant(dist: np.ndarray, weight: np.ndarray) -> float:
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
    if not (weight > 0).all():
        bad = int(np.argmin(weight))
        raise SpaceValidationError(f"weights[{bad}] = {weight[bad]} is not positive")
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
    rows = []
    for lam in lambdas:
        lam = float(lam)
        if lam < 1:
            raise ValueError("dilation factor must be >= 1")
        worst = 1.0
        for x in range(space.n):
            drow = space.dist[x]
            radii = _ball_radius_candidates(drow, extra_scale=max(lam, 2.0))
            small = (drow[None, :] < radii[:, None]) @ space.weight
            big = (drow[None, :] < lam * radii[:, None]) @ space.weight
            ok = small > 0
            if ok.any():
                worst = max(worst, float((big[ok] / small[ok]).max()))
        bound = space.cmu * lam ** space.omega
        rows.append({
            "lambda": lam,
            "max_ratio": worst,
            "bound": bound,
            "certified": worst <= bound * (1 + 1e-12),
        })
    return rows
