"""Command-line front end: ingest spaces, run pipelines, emit reports.

Three subcommands:

    build      construct a dyadic system + Haar basis and export them
    decompose  run the atomic decomposition and verify every atom
    certify    run the full property suite with measured constants

Reports are JSON with sorted keys, so identical seeds give byte-identical
output.  Exit code 0 means every exact invariant passed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import atoms as atoms_mod
from .dyadic import _system_document, build_system, verify_system
from .journe import _largest_constants
from .product import (ProductSpace, double_center, hp_seminorm,
                      inverse_product_transform, product_transform,
                      square_function, stack_slices)
from .space import FiniteSpace, load_space, make_space
from .wavelet import build_haar


def _validate(args: argparse.Namespace):
    # each range test is written so that NaN fails it
    if "p" in args and not 0 < args.p <= 1:     # build takes no --p or --q
        raise ValueError("p must lie in (0, 1]")
    if "q" in args and not 1 < args.q < math.inf:
        raise ValueError(f"--q must be a finite number above 1, got {args.q!r}")
    for name in ("gamma1", "gamma2"):            # only decompose takes them
        gamma = getattr(args, name, None)
        if gamma is not None and not -math.inf < gamma < math.inf:
            raise ValueError(f"--{name} must be a finite number, got {gamma!r}")
    if args.delta is not None and not 0 < args.delta < 1:
        raise ValueError("delta must lie in (0, 1)")


@dataclass(frozen=True, slots=True)
class _Entries:
    """The nonzero entries of an array, kept as arrays until they are written:
    one index column per axis and the values, in row-major order."""

    index: tuple[np.ndarray, ...]
    values: np.ndarray


def _nonzero_entries(values: np.ndarray) -> _Entries:
    """Every entry that is not 0.0 (or -0.0), written as [[i, v], ...] for a
    vector and [[i, j, v], ...] for a grid."""
    idx = np.nonzero(values)
    return _Entries(idx, values[idx])


def _entry_rows(entries: _Entries) -> list[list]:
    """The entries as the [[*index, value], ...] list that JSON writes."""
    return [[*ix, v] for ix, v in zip(zip(*[i.tolist() for i in entries.index]),
                                      entries.values.tolist())]


def _json_default(o):
    if isinstance(o, (np.floating, np.integer, np.bool_)):
        return o.item()
    if isinstance(o, np.ndarray):
        return o.tolist()
    if isinstance(o, _Entries):
        return _entry_rows(o)
    raise TypeError(f"not serializable: {type(o)}")


# json.dumps runs its C encoder only without indent.  Entry tables are
# formatted straight from their arrays (_entries_text); any other list of
# numbers is written compactly by this encoder, and _encode re-indents the text
_COMPACT = json.JSONEncoder(separators=(",", ":"), default=_json_default)
_string = json.encoder.encode_basestring_ascii


def _entries_text(entries: _Entries, pad: str) -> str:
    """``_encode(_entry_rows(entries), pad)``, by one %-format over a repeated
    row template: %d and %r write an int's and a float's repr, as JSON does."""
    values = entries.values.tolist()
    if not values:
        return "[]"
    if type(values[0]) is not float or not np.isfinite(entries.values).all():
        return _encode(_entry_rows(entries), pad)     # NaN, Infinity, true, ...
    inner = pad + " "
    cell = inner + " "
    step = len(entries.index) + 1
    row = "[\n" + cell + ("%d,\n" + cell) * (step - 1) + "%r\n" + inner + "]"
    flat = [None] * (step * len(values))
    for axis, column in enumerate(entries.index):
        flat[axis::step] = column.tolist()
    flat[step - 1::step] = values
    body = (",\n" + inner).join([row] * len(values)) % tuple(flat)
    return "[\n" + inner + body + "\n" + pad + "]"


def _key(k) -> str:
    if isinstance(k, str):
        return k
    if k is None or isinstance(k, (int, float)):
        return _encode(k, "")
    raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")


def _encode(o, pad: str) -> str:
    """``json.dumps(o, sort_keys=True, indent=1, default=_json_default)``
    for a value whose lines are indented by ``pad``, byte for byte."""
    if isinstance(o, str):
        return _string(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if o != o:
            return "NaN"
        if o == math.inf:
            return "Infinity"
        if o == -math.inf:
            return "-Infinity"
        return float.__repr__(o)
    inner = pad + " "
    if isinstance(o, dict):
        if not o:
            return "{}"
        items = [_string(_key(k)) + ": " + _encode(v, inner) for k, v in sorted(o.items())]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    if not isinstance(o, (list, tuple)):
        if isinstance(o, _Entries):
            return _entries_text(o, pad)
        return _encode(_json_default(o), pad)
    if not o:
        return "[]"
    if type(o) in (list, tuple) and not isinstance(o[0], (dict, str, list, tuple)):
        # the compact text of a list of numbers has one pair of brackets and
        # its commas separate the items, so it re-indents by replacement
        text = _COMPACT.encode(o)
        if '"' not in text and text.count("[") == 1:
            return "[\n" + inner + text[1:-1].replace(",", ",\n" + inner) + "\n" + pad + "]"
    return "[\n" + inner + (",\n" + inner).join([_encode(v, inner) for v in o]) + "\n" + pad + "]"


def emit(report: dict, out: str | None):
    """Write ``report`` as JSON with sorted keys and one space of indent per level."""
    text = _encode(report, "")
    if out:
        Path(out).write_text(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _default_space() -> FiniteSpace:
    pts = np.arange(8.0)
    return make_space(np.abs(pts[:, None] - pts[None, :]))


def _load(args: argparse.Namespace) -> tuple[FiniteSpace, FiniteSpace]:
    x1 = load_space(Path(args.space)) if args.space else _default_space()
    x2 = load_space(Path(args.space2)) if args.space2 else x1
    return x1, x2


def _finite_number(v) -> bool:
    """A JSON number with a finite float value: not a bool, NaN, an infinity
    or an integer beyond the float range."""
    return type(v) in (int, float) and abs(v) <= sys.float_info.max


def _load_function(pspace: ProductSpace, args: argparse.Namespace) -> np.ndarray:
    if args.function:
        doc = json.loads(Path(args.function).read_text())
        if "dense" in doc:
            rows = doc["dense"]
            if not (type(rows) is list and all(type(row) is list for row in rows)
                    and len({len(row) for row in rows}) == 1
                    and all(type(v) in (int, float) for row in rows for v in row)):
                raise ValueError(f"{args.function}: 'dense' is not a list of equal-length "
                                 f"rows of numbers")
            for i, row in enumerate(rows):
                for j, v in enumerate(row):
                    if not _finite_number(v):
                        raise ValueError(f"dense[{i}][{j}] = {v} is not finite")
            f = np.asarray(rows, dtype=float)
        elif "triples" in doc:
            (n1, n2), given = pspace.shape, np.zeros(pspace.shape, dtype=bool)
            f = np.zeros(pspace.shape)
            for t, triple in enumerate(doc["triples"]):
                i, j, v = triple if type(triple) is list and len(triple) == 3 else [None] * 3
                if not (type(i) is type(j) is int and 0 <= i < n1 and 0 <= j < n2
                        and _finite_number(v)):
                    raise ValueError(f"triples[{t}] = {triple!r} is not [i, j, value] with "
                                     f"integers 0 <= i < {n1}, 0 <= j < {n2} and a finite value")
                if given[i, j]:
                    raise ValueError(f"triples[{t}] repeats the entry ({i}, {j})")
                f[i, j], given[i, j] = v, True
        else:
            raise ValueError("function document must contain 'dense' or 'triples'")
        if f.shape != pspace.shape:
            raise ValueError(f"function shape {f.shape} does not match grid {pspace.shape}")
        return f
    rng = np.random.default_rng(args.seed)
    return pspace.random_function(rng)


def _basis_export(basis) -> dict:
    return {
        "scaling_value": float(basis.scaling[0]),
        "wavelets": [
            {
                "level": w.level,
                "index": w.index,
                "cube": list(w.cube),
                "center": w.center,
                "scale": w.scale,
                "values": _nonzero_entries(w.values),
            }
            for w in basis.wavelets
        ],
    }


def cmd_build(args: argparse.Namespace) -> int:
    x1, x2 = _load(args)
    systems = [build_system(x, args.delta) for x in ((x1, x2) if args.space2 else (x1,))]
    report = {"command": "build", "seed": args.seed,
              "mode": systems[0].mode,     # which rule chose delta
              "factors": [{"system": _system_document(system),
                           "verification": verify_system(system),
                           "basis": _basis_export(build_haar(system))}
                          for system in systems]}
    emit(report, args.out)
    return 0


def cmd_decompose(args: argparse.Namespace) -> int:
    x1, x2 = _load(args)
    pspace = ProductSpace(x1, x2, delta=args.delta)
    f = double_center(pspace, _load_function(pspace, args))
    dec = atoms_mod.atomic_decompose(pspace, f, args.p, args.q, args.gamma1, args.gamma2)
    certs = [atoms_mod.verify_atom(pspace, t.atom) for t in dec.terms]
    all_pass = dec.residual <= 1e-8 and all(c["passed"] for c in certs)
    report = {
        "command": "decompose",
        "p": args.p,
        "q": args.q,
        "seed": args.seed,
        "residual": dec.residual,
        "summary": dec.report,
        "terms": [
            {
                "lambda": t.lam,
                "lambda_raw": t.lam_raw,
                "j": t.provenance[0],
                "ell1": t.provenance[1],
                "ell2": t.provenance[2],
                "atom_values": _nonzero_entries(t.atom.values),
                "rectangle_atoms": sorted(list(k) for k in t.atom.rectangle_atoms),
                "certificate": c,
            }
            for t, c in zip(dec.terms, certs)
        ],
        "all_certificates_pass": all_pass,
    }
    emit(report, args.out)
    return 0 if all_pass else 1


def _corpus_stacks(pspace: ProductSpace, rng, k: int):
    """k doubly mean-zero random grids, drawn as ``pspace.random_function(rng)``
    draws them, in stacks of at most SUM_BATCH entries: one draw of a
    (k, n1, n2) stack reads the stream as k draws of (n1, n2) do."""
    for s in stack_slices(pspace, k):
        yield double_center(pspace, rng.standard_normal((s.stop - s.start, *pspace.shape)))


def cmd_certify(args: argparse.Namespace) -> int:
    if args.corpus <= 0:
        raise ValueError("corpus size must be positive")
    x1, x2 = _load(args)
    rng = np.random.default_rng(args.seed)
    pspace = ProductSpace(x1, x2, delta=args.delta)
    checks: dict[str, dict] = {}

    v1 = verify_system(pspace.systems[0])
    v2 = verify_system(pspace.systems[1])
    checks["dyadic_axioms"] = {"factor1": v1, "factor2": v2, "exact_pass": True}

    b1, b2 = pspace.bases
    g1 = np.abs(b1.gram() - np.eye(x1.n)).max()
    g2 = np.abs(b2.gram() - np.eye(x2.n)).max()
    recon_err = 0.0
    parseval_err = 0.0
    snorm_err = 0.0
    for f in _corpus_stacks(pspace, rng, args.corpus):
        coeffs = product_transform(pspace, f)
        fnorms = pspace.lq_norm(f, 2.0)
        errs = pspace.lq_norm(inverse_product_transform(pspace, coeffs) - f, 2.0)
        energies = (coeffs.matrix ** 2).sum(axis=(-2, -1))
        snorms = pspace.lq_norm(square_function(pspace, coeffs), 2.0)
        for fnorm, err, energy, snorm in zip(fnorms.tolist(), errs, energies, snorms):
            if fnorm == 0.0:
                continue       # a zero function: every doubly mean-zero one on a one-point factor
            recon_err = max(recon_err, err / fnorm)
            parseval_err = max(parseval_err, abs(energy - fnorm ** 2) / fnorm ** 2)
            snorm_err = max(snorm_err, abs(snorm - fnorm) / fnorm)
    checks["basis"] = {
        "gram_error": float(max(g1, g2)),
        "reconstruction_error": recon_err,
        "parseval_error": parseval_err,
        "square_function_l2_error": snorm_err,
        "exact_pass": bool(max(g1, g2) < 1e-10 and recon_err < 1e-10
                           and parseval_err < 1e-10 and snorm_err < 1e-10),
    }

    cps = {}
    for p in (0.8, 1.0):
        worst = 0.0
        for f in _corpus_stacks(pspace, rng, args.corpus):
            for lp, hp in zip(pspace.lq_norm(f, p), hp_seminorm(pspace, f, p)):
                if lp > 0.0:   # a zero function has no ratio
                    worst = max(worst, lp / hp)
        cps[str(p)] = worst
    checks["lp_le_hp"] = {"C_p": cps,
                          "exact_pass": all(math.isfinite(v) for v in cps.values())}

    # random open sets, in stacks whose (sets, tops1, tops2) arrays, the
    # cube pairs _families tests, hold at most SUM_BATCH entries: one
    # (k, n1, n2) draw reads the stream as k draws of (n1, n2) do
    jc = {"0.5": 0.0, "1": 0.0, "2": 0.0}
    s1, s2 = pspace.systems
    for s in stack_slices(pspace, args.corpus, len(s1.tops) * len(s2.tops)):
        masks = rng.random((s.stop - s.start, *pspace.shape)) < 0.35
        for key, c in zip(jc, _largest_constants(pspace, masks, (0.5, 1.0, 2.0))):
            jc[key] = max(jc[key], c)
    checks["journe"] = {"max_constant": jc,
                        "exact_pass": all(math.isfinite(v) for v in jc.values())}

    eq = atoms_mod.equivalence_report(
        pspace, [g for f in _corpus_stacks(pspace, rng, min(args.corpus, 20)) for g in f],
        args.p, args.q)
    max_resid = max(r["residual"] for r in eq["per_function"])
    checks["equivalence"] = {
        "upper_ratio_range": eq["upper_ratio_range"],
        "lower_ratio_range": eq["lower_ratio_range"],
        "max_sa_p": eq["max_sa_p"],
        "max_residual": max_resid,
        "exact_pass": bool(eq["all_finite"] and max_resid <= 1e-8),
    }

    ok = all(c["exact_pass"] for c in checks.values())
    table = [
        f"gram_error\t{checks['basis']['gram_error']:.6e}",
        f"reconstruction_error\t{checks['basis']['reconstruction_error']:.6e}",
        f"square_function_l2_error\t{checks['basis']['square_function_l2_error']:.6e}",
        f"C_0.8\t{cps['0.8']:.6f}",
        f"C_1.0\t{cps['1.0']:.6f}",
        f"journe_C_0.5\t{jc['0.5']:.6f}",
        f"journe_C_1\t{jc['1']:.6f}",
        f"journe_C_2\t{jc['2']:.6f}",
        f"max_Sa_Lp\t{eq['max_sa_p']:.6f}",
        f"max_residual\t{max_resid:.6e}",
    ]
    report = {"command": "certify", "seed": args.seed, "p": args.p, "q": args.q,
              "corpus": args.corpus, "checks": checks,
              "constants_table": table, "all_exact_pass": ok}
    emit(report, args.out)
    return 0 if ok else 1


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="prodhardy",
        description="dyadic systems, Haar bases, square functions and atomic "
                    "decomposition on finite doubling spaces")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, fn in (("build", cmd_build), ("decompose", cmd_decompose),
                     ("certify", cmd_certify)):
        sp = sub.add_parser(name)
        sp.set_defaults(fn=fn)
        sp.add_argument("--space", help="JSON space document for factor 1")
        sp.add_argument("--space2", help="JSON space document for factor 2 (default: factor 1)")
        sp.add_argument("--delta", type=float, default=None,
                        help="base side length; default picks the reference-grid value")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out", default=None)
        if name != "build":
            sp.add_argument("--p", type=float, default=1.0)
            sp.add_argument("--q", type=float, default=2.0)
        if name == "decompose":
            sp.add_argument("--gamma1", type=float, default=None)
            sp.add_argument("--gamma2", type=float, default=None)
            sp.add_argument("--function", default=None,
                            help="JSON {'dense': ...} or {'triples': ...}; default seeded random")
        if name == "certify":
            sp.add_argument("--corpus", type=int, default=50)
    return ap


_PARSER = make_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        _validate(args)
        # the subcommand by its current name, so that a rebound cmd_* (as the
        # benchmark's tracer rebinds every public function) is the one that runs
        return globals()[args.fn.__name__](args)
    except (ValueError, OSError) as e:   # space and channel errors are ValueErrors
        print(f"error: {e}", file=sys.stderr)
        return 2

if __name__ == "__main__":
    sys.exit(main())
