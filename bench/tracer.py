"""Outside-in tracer for the prodhardy layers.

``Tracer.install`` wraps every public function of the layer modules and
rebinds the wrapper under each name that refers to that function in any
``prodhardy`` module, so calls across modules, from-imports and function-local
imports all pass through it.  The program's source is not changed;
``uninstall`` puts the originals back.

Each call of a wrapped function is one span: (span id, name, start, end,
parent span id).  Spans of one job are kept together, as NumPy arrays once the
job ends, and written out as JSON lines when the run is over.  Probes attached
to a few functions count work (pairs tested, rectangles found, repeated
inputs, family sizes, atoms) where it happens; they run outside the span they
describe, so their cost lands in the caller's self time and in the tracing
overhead, not in the probed layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import time
from collections import Counter

import numpy as np

LAYERS = ("space", "dyadic", "wavelet", "product", "maximal", "journe", "atoms", "cli")


def public_functions(module) -> dict[str, object]:
    """Module-level functions defined in ``module`` whose names are public."""
    return {name: obj for name, obj in vars(module).items()
            if inspect.isfunction(obj) and obj.__module__ == module.__name__
            and not name.startswith("_")}


class _Job:
    """Counters and repeat sets of the job being traced."""

    def __init__(self):
        self.counts: Counter = Counter()
        self.seen: dict[str, set] = {}
        self.keep: list = []             # keeps objects alive so id() keys stay unique

    def repeat(self, name: str, obj, key) -> None:
        """Count one call of ``name`` on input (obj, key); note it if seen before."""
        self.keep.append(obj)
        seen = self.seen.setdefault(name, set())
        full = (id(obj), key)
        if full in seen:
            self.counts[name + ".repeats"] += 1
        seen.add(full)


def _mask_key(open_set) -> bytes:
    return open_set.mask.tobytes()


def _probe_rectangles_inside(job: _Job, a: dict, result) -> None:
    s1, s2 = a["pspace"].systems
    job.counts["maximal.rectangles_inside.pairs_tested"] += s1.n_cubes() * s2.n_cubes()
    job.counts["maximal.rectangles_inside.found"] += len(result)
    job.repeat("maximal.rectangles_inside", a["pspace"], _mask_key(a["omega_set"]))


def _probe_ell_enlarge(job: _Job, a: dict, result) -> None:
    job.repeat("maximal.ell_enlarge", a["pspace"],
               (_mask_key(a["omega_tilde"]), a["ell1"], a["ell2"], a["lam1"], a["lam2"]))


def _probe_maximal_rectangles(job: _Job, a: dict, result) -> None:
    job.counts["journe.family_size"] += len(result.m_all)
    job.repeat("journe.maximal_rectangles", a["pspace"], (_mask_key(a["omega"]), a["direction"]))


def _probe_building_blocks(job: _Job, a: dict, result) -> None:
    job.repeat("wavelet.building_blocks", a["space"], (a["wavelet"].id, a["gamma"]))


def _probe_atomic_decompose(job: _Job, a: dict, result) -> None:
    job.counts["atoms.terms"] += len(result.terms)
    job.counts["atoms.rectangle_atoms"] += sum(len(t.atom.rectangle_atoms) for t in result.terms)


def _probe_build_system(job: _Job, a: dict, result) -> None:
    cubes = list(result.all_cubes())
    job.counts["dyadic.cubes"] += len(cubes)
    job.counts["dyadic.levels"] += len(result.levels())
    job.counts["dyadic.distinct_members"] += len({c.members.tobytes() for c in cubes})


PROBES = {
    "maximal.rectangles_inside": _probe_rectangles_inside,
    "maximal.ell_enlarge": _probe_ell_enlarge,
    "journe.maximal_rectangles": _probe_maximal_rectangles,
    "wavelet.building_blocks": _probe_building_blocks,
    "atoms.atomic_decompose": _probe_atomic_decompose,
    "dyadic.build_system": _probe_build_system,
}
# functions whose repeated inputs are counted, for their *.repeat_frac
REPEATS = ("maximal.rectangles_inside", "maximal.ell_enlarge",
           "journe.maximal_rectangles", "wavelet.building_blocks")


class Tracer:
    """Spans and counts of the jobs run between ``start_job`` and ``end_job``."""

    def __init__(self):
        self.names: list[str] = []         # span name id -> "layer.function"
        self.jobs: list[dict] = []         # finished jobs: spans, wall time, numbers
        self._spans: list[tuple] = []      # (span id, name id, start, end, parent id)
        self._stack = [-1]
        self._ids = itertools.count()
        self._job: _Job | None = None
        self._bindings: list[tuple] = []   # (module, attribute, original, wrapper)

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Bind the wrappers in place of the originals (built on first use)."""
        if not self._bindings:
            self._bindings = self._bind_all()
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._bindings:
            setattr(module, attr, original)

    def _bind_all(self) -> list[tuple]:
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"prodhardy.{layer}")
            for fname, fn in public_functions(module).items():
                wrappers[id(fn)] = (fn, self._wrap(fn, f"{layer}.{fname}"))
        bindings = []
        for mname, module in list(sys.modules.items()):
            if mname != "prodhardy" and not mname.startswith("prodhardy."):
                continue
            for attr, val in vars(module).items():
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    bindings.append((module, attr, val, hit[1]))
        return bindings

    def _wrap(self, fn, name: str):
        nid = len(self.names)
        self.names.append(name)
        probe = PROBES.get(name)
        signature = inspect.signature(fn)
        spans, stack, ids, clock = self._spans, self._stack, self._ids, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, nid, start, end, parent))
            if probe is not None and tracer._job is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                probe(tracer._job, bound.arguments, result)
            return result

        return wrapper

    # -- jobs -----------------------------------------------------------------

    def start_job(self) -> None:
        self._spans.clear()
        self._job = _Job()

    def end_job(self, wall_s: float) -> None:
        """Close the job: freeze its spans and derive its per-layer numbers."""
        raw = np.asarray(self._spans, dtype=float).reshape(-1, 5)
        self._spans.clear()
        job, self._job = self._job, None
        sid = raw[:, 0].astype(np.int64)
        order = np.argsort(sid)
        spans = {"id": sid[order], "name": raw[order, 1].astype(np.int64),
                 "start": raw[order, 2], "end": raw[order, 3],
                 "parent": raw[order, 4].astype(np.int64)}
        spans["self"] = self_times(spans)
        self.jobs.append({"spans": spans, "wall_s": wall_s,
                          "numbers": self._job_numbers(spans, job, wall_s)})

    def _job_numbers(self, spans: dict, job: _Job, wall_s: float) -> dict[str, float]:
        k = len(self.names)
        calls = np.bincount(spans["name"], minlength=k)
        self_s = np.bincount(spans["name"], weights=spans["self"], minlength=k)
        out: dict[str, float] = {}
        for nid, name in enumerate(self.names):
            out[name + ".calls"] = int(calls[nid])
            out[name + ".self_s"] = float(self_s[nid])
        c = job.counts
        for name in REPEATS:
            n = out[name + ".calls"]
            out[name + ".repeat_frac"] = c[name + ".repeats"] / n if n else 0.0
        pairs = c["maximal.rectangles_inside.pairs_tested"]
        out["maximal.rectangles_inside.pairs_tested"] = pairs
        out["maximal.rectangles_inside.hit_ratio"] = (
            c["maximal.rectangles_inside.found"] / pairs if pairs else 0.0)
        for name in ("journe.family_size", "atoms.terms", "atoms.rectangle_atoms",
                     "dyadic.cubes", "dyadic.levels"):
            out[name] = c[name]
        out["dyadic.distinct_member_frac"] = (
            c["dyadic.distinct_members"] / c["dyadic.cubes"] if c["dyadic.cubes"] else 0.0)
        out["trace.coverage"] = float(spans["self"].sum()) / wall_s
        return out

    # -- output ---------------------------------------------------------------

    def write_spans(self, path) -> int:
        """Write every span of the run as one JSON object per line."""
        n = 0
        with open(path, "w") as fh:
            for job_id, record in enumerate(self.jobs):
                s = record["spans"]
                names = [self.names[i] for i in s["name"]]
                for sid, parent, name, start, end in zip(s["id"].tolist(), s["parent"].tolist(),
                                                         names, s["start"].tolist(),
                                                         s["end"].tolist()):
                    # names are dotted identifiers, so they need no JSON escaping
                    fh.write(f'{{"job":{job_id},"span":{sid},"parent":{parent},'
                             f'"name":"{name}","start":{start!r},"end":{end!r}}}\n')
                n += len(names)
        return n


def self_times(spans: dict) -> np.ndarray:
    """A span's duration minus the durations of its direct children.

    Spans of one thread nest, so the children of a span never overlap and
    their summed duration is the part of the parent they cover.
    """
    dur = spans["end"] - spans["start"]
    self_s = dur.copy()
    parent = spans["parent"]
    has_parent = parent >= 0
    pos = np.searchsorted(spans["id"], parent[has_parent])
    np.subtract.at(self_s, pos, dur[has_parent])
    return self_s
