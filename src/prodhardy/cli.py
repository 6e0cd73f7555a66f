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
from .dyadic import build_system, export_system, verify_system
from .journe import journe_check
from .maximal import OpenSet
from .product import (ProductSpace, double_center, hp_seminorm,
                      inverse_product_transform, product_transform,
                      square_function)
from .space import FiniteSpace, SpaceValidationError, load_space, make_space
from .wavelet import build_haar


@dataclass
class RunConfig:
    command: str
    space: str | None = None
    space2: str | None = None
    p: float = 1.0
    q: float = 2.0
    delta: float | None = None
    gamma1: float | None = None
    gamma2: float | None = None
    seed: int = 0
    mode: str = "desk"
    out: str | None = None
    function: str | None = None
    corpus: int = 50

    def validate(self):
        if not 0 < self.p <= 1:
            raise ValueError("p must lie in (0, 1]")
        if self.q <= 1:
            raise ValueError("q must exceed 1")
        if self.delta is not None and not 0 < self.delta < 1:
            raise ValueError("delta must lie in (0, 1)")


def _json_default(o):
    if isinstance(o, (np.floating, np.integer)):
        return o.item()
    if isinstance(o, np.ndarray):
        return o.tolist()
    if isinstance(o, float) and not math.isfinite(o):
        return repr(o)
    raise TypeError(f"not serializable: {type(o)}")


def emit(report: dict, out: str | None):
    text = json.dumps(report, sort_keys=True, indent=1, default=_json_default)
    if out:
        Path(out).write_text(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _default_space() -> FiniteSpace:
    pts = np.arange(8.0)
    return make_space(np.abs(pts[:, None] - pts[None, :]), meta={"source": "builtin-line-8"})


def _load(cfg: RunConfig) -> tuple[FiniteSpace, FiniteSpace]:
    x1 = load_space(Path(cfg.space)) if cfg.space else _default_space()
    x2 = load_space(Path(cfg.space2)) if cfg.space2 else x1
    return x1, x2


def _load_function(pspace: ProductSpace, cfg: RunConfig) -> np.ndarray:
    if cfg.function:
        doc = json.loads(Path(cfg.function).read_text())
        if "dense" in doc:
            f = np.asarray(doc["dense"], dtype=float)
        elif "triples" in doc:
            f = np.zeros(pspace.shape)
            for i, j, v in doc["triples"]:
                f[int(i), int(j)] = float(v)
        else:
            raise ValueError("function document must contain 'dense' or 'triples'")
        if f.shape != pspace.shape:
            raise ValueError(f"function shape {f.shape} does not match grid {pspace.shape}")
        return f
    rng = np.random.default_rng(cfg.seed)
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


def _nonzero_entries(values: np.ndarray) -> list[list]:
    """[[i, values[i]], ...] for every entry that is not 0.0 (or -0.0)."""
    idx = np.flatnonzero(values)
    return [[i, v] for i, v in zip(idx.tolist(), values[idx].tolist())]


def cmd_build(cfg: RunConfig) -> int:
    x1, x2 = _load(cfg)
    report = {"command": "build", "seed": cfg.seed, "mode": cfg.mode, "factors": []}
    for x in (x1, x2) if cfg.space2 else (x1,):
        system = build_system(x, cfg.delta, cfg.mode)
        basis = build_haar(system)
        report["factors"].append({
            "system": json.loads(export_system(system)),
            "verification": verify_system(system),
            "basis": _basis_export(basis),
        })
    emit(report, cfg.out)
    return 0


def cmd_decompose(cfg: RunConfig) -> int:
    x1, x2 = _load(cfg)
    pspace = ProductSpace(x1, x2, delta=cfg.delta, mode=cfg.mode)
    f = double_center(pspace, _load_function(pspace, cfg))
    dec = atoms_mod.atomic_decompose(pspace, f, cfg.p, cfg.q, cfg.gamma1, cfg.gamma2)
    certs = [atoms_mod.verify_atom(pspace, t.atom) for t in dec.terms]
    all_pass = dec.residual <= 1e-8 and all(c["passed"] for c in certs)
    report = {
        "command": "decompose",
        "p": cfg.p,
        "q": cfg.q,
        "seed": cfg.seed,
        "residual": dec.residual,
        "summary": dec.report,
        "terms": [
            {
                "lambda": t.lam,
                "lambda_raw": t.lam_raw,
                "j": t.provenance[0],
                "ell1": t.provenance[1],
                "ell2": t.provenance[2],
                "atom_values": [[int(i), int(j), float(v)]
                                for (i, j), v in np.ndenumerate(t.atom.values) if v != 0.0],
                "rectangle_atoms": sorted(list(k) for k in t.atom.rectangle_atoms),
                "certificate": c,
            }
            for t, c in zip(dec.terms, certs)
        ],
        "all_certificates_pass": all_pass,
    }
    emit(report, cfg.out)
    return 0 if all_pass else 1


def cmd_certify(cfg: RunConfig) -> int:
    if cfg.corpus <= 0:
        raise ValueError("corpus size must be positive")
    x1, x2 = _load(cfg)
    rng = np.random.default_rng(cfg.seed)
    pspace = ProductSpace(x1, x2, delta=cfg.delta, mode=cfg.mode)
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
    for _ in range(cfg.corpus):
        f = pspace.random_function(rng)
        coeffs = product_transform(pspace, f)
        back = inverse_product_transform(pspace, coeffs)
        fnorm = pspace.lq_norm(f, 2.0)
        recon_err = max(recon_err, pspace.lq_norm(back - f, 2.0) / fnorm)
        parseval_err = max(parseval_err, abs((coeffs.matrix ** 2).sum() - fnorm ** 2) / fnorm ** 2)
        snorm_err = max(snorm_err,
                        abs(pspace.lq_norm(square_function(pspace, coeffs), 2.0) - fnorm) / fnorm)
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
        for _ in range(cfg.corpus):
            f = pspace.random_function(rng)
            lp = float(((np.abs(f) ** p) * pspace.weights).sum() ** (1 / p))
            hp = hp_seminorm(pspace, f, p)
            worst = max(worst, lp / hp)
        cps[str(p)] = worst
    checks["lp_le_hp"] = {"C_p": cps,
                          "exact_pass": all(math.isfinite(v) for v in cps.values())}

    jc = {"0.5": 0.0, "1": 0.0, "2": 0.0}
    for _ in range(cfg.corpus):
        mask = rng.random(pspace.shape) < 0.35
        if not mask.any():
            continue
        om = OpenSet.from_mask(pspace, mask)
        for d, key in ((0.5, "0.5"), (1.0, "1"), (2.0, "2")):
            r = journe_check(pspace, om, d)
            jc[key] = max(jc[key], r["C1"], r["C2"])
    checks["journe"] = {"max_constant": jc,
                        "exact_pass": all(math.isfinite(v) for v in jc.values())}

    eq = atoms_mod.equivalence_report(
        pspace, [pspace.random_function(rng) for _ in range(min(cfg.corpus, 20))],
        cfg.p, cfg.q)
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
    report = {"command": "certify", "seed": cfg.seed, "p": cfg.p, "q": cfg.q,
              "corpus": cfg.corpus, "checks": checks,
              "constants_table": table, "all_exact_pass": ok}
    emit(report, cfg.out)
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
        sp.add_argument("--p", type=float, default=1.0)
        sp.add_argument("--q", type=float, default=2.0)
        sp.add_argument("--delta", type=float, default=None,
                        help="base side length; default picks the reference-grid value")
        sp.add_argument("--gamma1", type=float, default=None)
        sp.add_argument("--gamma2", type=float, default=None)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--mode", choices=("desk", "reference"), default="desk")
        sp.add_argument("--out", default=None)
        if name == "decompose":
            sp.add_argument("--function", default=None,
                            help="JSON {'dense': ...} or {'triples': ...}; default seeded random")
        if name == "certify":
            sp.add_argument("--corpus", type=int, default=50)
    return ap


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    cfg = RunConfig(command=args.command,
                    space=args.space, space2=args.space2, p=args.p, q=args.q,
                    delta=args.delta, gamma1=args.gamma1, gamma2=args.gamma2,
                    seed=args.seed, mode=args.mode, out=args.out,
                    function=getattr(args, "function", None),
                    corpus=getattr(args, "corpus", 50))
    try:
        cfg.validate()
        return args.fn(cfg)
    except (ValueError, SpaceValidationError, atoms_mod.ChannelError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
