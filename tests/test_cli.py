import contextlib
import io
import json
import tempfile
import warnings
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prodhardy.cli import main

from strategies import CHECK, decade_spaces, spaces


@pytest.fixture()
def space_file(tmp_path):
    pts = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
    doc = {"matrix": [[abs(a - b) for b in pts] for a in pts]}
    path = tmp_path / "line8.json"
    path.write_text(json.dumps(doc))
    return str(path)


def run(args):
    return main(args)


def test_build_deterministic(space_file, tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert run(["build", "--space", space_file, "--delta", "0.25",
                "--seed", "3", "--out", str(out1)]) == 0
    assert run(["build", "--space", space_file, "--delta", "0.25",
                "--seed", "3", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    fac = doc["factors"][0]
    assert "parents" in fac["system"]
    assert fac["verification"]["C1_certified"] == 2.0
    assert len(fac["basis"]["wavelets"]) == 7


def test_build_one_point_space(tmp_path):
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"matrix": [[0.0]]}))
    out = tmp_path / "out.json"
    assert run(["build", "--space", str(path), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["factors"][0]["basis"]["wavelets"] == []


def test_build_mode_label_follows_delta(space_file, tmp_path):
    # the label says which rule chose delta, at the top as in every factor
    for flags, label in (([], "reference"), (["--delta", "0.25"], "desk")):
        out = tmp_path / "build.json"
        assert run(["build", "--space", space_file, "--space2", space_file, *flags,
                    "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["mode"] == label
        assert [f["verification"]["mode"] for f in doc["factors"]] == [label, label]
        assert [f["system"]["mode"] for f in doc["factors"]] == [label, label]


def test_decompose_zero_function(space_file, tmp_path):
    fpath = tmp_path / "zero.json"
    fpath.write_text(json.dumps({"dense": [[0.0] * 8 for _ in range(8)]}))
    out = tmp_path / "dec.json"
    assert run(["decompose", "--space", space_file, "--delta", "0.25",
                "--function", str(fpath), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["terms"] == [] and doc["residual"] == 0.0


def _scaled_function(tmp_path, scale):
    rng = np.random.default_rng(0)
    f = rng.standard_normal((8, 8))
    f -= f.mean(axis=0)
    f -= f.mean(axis=1, keepdims=True)
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"dense": (scale * f).tolist()}))
    return str(path)


def test_decompose_small_function(tmp_path):
    out = tmp_path / "dec.json"
    assert run(["decompose", "--delta", "0.25", "--function", _scaled_function(tmp_path, 1e-15),
                "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["summary"]["n_terms"] > 0 and doc["terms"]
    assert doc["residual"] <= 1e-8 and doc["all_certificates_pass"]


def test_decompose_huge_function_rejected(tmp_path, capsys):
    assert run(["decompose", "--delta", "0.25",
                "--function", _scaled_function(tmp_path, 1e160)]) == 2
    assert "largest wavelet coefficient" in capsys.readouterr().err


def test_decompose_epsilon0_underflow_rejected(tmp_path, capsys):
    from conftest import epsilon0_underflow_docs
    paths = []
    for k, doc in enumerate(epsilon0_underflow_docs()):
        paths.append(tmp_path / f"snowflake{k}.json")
        paths[-1].write_text(json.dumps(doc))
    assert run(["decompose", "--space", str(paths[0]), "--space2", str(paths[1]),
                "--delta", "0.5"]) == 2
    err = capsys.readouterr().err
    assert "epsilon0 = 10^-347.8" in err and "not a positive normal float" in err
    assert err.count("cmu = ") == 2


def test_decompose_seeded_random(space_file, tmp_path):
    out = tmp_path / "dec.json"
    assert run(["decompose", "--space", space_file, "--delta", "0.25",
                "--seed", "1", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["all_certificates_pass"]
    assert doc["residual"] <= 1e-8
    assert all(t["certificate"]["passed"] for t in doc["terms"])


def test_decompose_triples_function(space_file, tmp_path):
    # a doubly mean-zero bump over a 2x2 corner
    tri = [[0, 0, 1.0], [0, 1, -1.0], [1, 0, -1.0], [1, 1, 1.0]]
    fpath = tmp_path / "f.json"
    fpath.write_text(json.dumps({"triples": tri}))
    out = tmp_path / "dec.json"
    assert run(["decompose", "--space", space_file, "--delta", "0.25",
                "--function", str(fpath), "--out", str(out)]) == 0


def test_decompose_broken_gamma_exits_nonzero(space_file, capsys):
    rc = run(["decompose", "--space", space_file, "--delta", "0.25",
              "--gamma1", "0.1", "--gamma2", "0.1"])
    assert rc == 2
    assert "gamma constraint" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (["decompose", "--delta", "0.25", "--q", "nan"], "--q"),
    (["decompose", "--delta", "0.25", "--q", "inf"], "--q"),
    (["decompose", "--delta", "0.25", "--gamma1", "nan"], "--gamma1"),
    (["decompose", "--delta", "0.25", "--gamma2", "inf"], "--gamma2"),
    (["certify", "--corpus", "2", "--q", "nan"], "--q"),
])
def test_non_finite_flags_rejected(argv, flag, capsys):
    # unchecked, --q nan exits 0 with a NaN lam_sum and the others exit 1
    # with NaN reports
    assert run(argv) == 2
    assert f"error: {flag} must be a finite number" in capsys.readouterr().err


@pytest.mark.parametrize("triples, message", [
    ([[99, 0, 1.0]], "triples[0] = [99, 0, 1.0] is not [i, j, value]"),
    ([[0, 0, 1.0], [-1, 0, -1.0]], "triples[1] = [-1, 0, -1.0] is not [i, j, value]"),
    ([[0, 1.0, 1.0]], "triples[0] = [0, 1.0, 1.0] is not [i, j, value]"),
    ([[0, 0]], "triples[0] = [0, 0] is not [i, j, value]"),
    ([[0, 0, 1.0, 2.0]], "triples[0] = [0, 0, 1.0, 2.0] is not [i, j, value]"),
    ([[0, 0, float("nan")]], "triples[0] = [0, 0, nan] is not [i, j, value]"),
    ([[0, 0, float("inf")]], "triples[0] = [0, 0, inf] is not [i, j, value]"),
    ([[0, 0, "1"]], "triples[0] = [0, 0, '1'] is not [i, j, value]"),
    ([[0, 0, 1.0], [1, 1, 1.0], [0, 0, -1.0]], "triples[2] repeats the entry (0, 0)"),
    ([[0, 0, 10 ** 400]], f"triples[0] = [0, 0, {10 ** 400}] is not [i, j, value]"),
])
def test_decompose_rejects_a_malformed_triple(triples, message, tmp_path, capsys):
    # unchecked, an index of 99 raises IndexError, -1 wraps to row 7, a
    # two-entry triple fails to unpack and a repeat overwrites silently; an
    # integer beyond the float range raised OverflowError in math.isfinite
    fpath = tmp_path / "f.json"
    fpath.write_text(json.dumps({"triples": triples}))
    assert run(["decompose", "--delta", "0.25", "--function", str(fpath)]) == 2
    assert f"error: {message}" in capsys.readouterr().err


ZERO8 = [[0.0] * 8 for _ in range(8)]


def _with(i, j, v):
    rows = [row[:] for row in ZERO8]
    rows[i][j] = v
    return rows


@pytest.mark.parametrize("dense,message", [
    (ZERO8[:7] + [[0.0] * 7], "'dense' is not a list of equal-length rows of numbers"),
    ([[0.0] * 8] + [0.0] * 7, "'dense' is not a list of equal-length rows of numbers"),
    (_with(1, 2, "1"), "'dense' is not a list of equal-length rows of numbers"),
    (_with(1, 2, True), "'dense' is not a list of equal-length rows of numbers"),
    ("zeros", "'dense' is not a list of equal-length rows of numbers"),
    (_with(0, 0, float("inf")), "dense[0][0] = inf is not finite"),
    (_with(2, 5, float("nan")), "dense[2][5] = nan is not finite"),
    (_with(7, 7, -10 ** 309), f"dense[7][7] = {-10 ** 309} is not finite"),
    (ZERO8[:7], "function shape (7, 8) does not match grid (8, 8)"),
])
def test_decompose_rejects_a_malformed_dense_function(dense, message, tmp_path, capsys):
    # unchecked, Infinity reaches product._mean_zero (RuntimeWarnings, then
    # a "no finite normal square" error) and a ragged row gives NumPy's
    # "inhomogeneous shape" text
    fpath = tmp_path / "f.json"
    fpath.write_text(json.dumps({"dense": dense}))
    assert run(["decompose", "--delta", "0.25", "--function", str(fpath)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_build_export_matches_tree_oracle(tmp_path):
    # canonical 4-point line: the exported parent arrays must equal the
    # in-process construction's (the hand-traced {0,1,2} | {10} split)
    pts = [0.0, 1.0, 2.0, 10.0]
    path = tmp_path / "canon.json"
    path.write_text(json.dumps({"matrix": [[abs(a - b) for b in pts] for a in pts]}))
    out = tmp_path / "build.json"
    assert run(["build", "--space", str(path), "--delta", "0.25",
                "--out", str(out)]) == 0
    from conftest import line_space
    from prodhardy import build_system
    from prodhardy.dyadic import _system_document
    expected = _system_document(build_system(line_space(pts), 0.25))
    got = json.loads(out.read_text())["factors"][0]["system"]
    assert got["parents"] == expected["parents"]
    assert got["nets"] == expected["nets"]


def test_decompose_single_wavelet_matches_module_trace(space_file, tmp_path):
    from conftest import line_space
    from prodhardy import ProductSpace, atomic_decompose
    import numpy as np
    sp = line_space(np.arange(8.0))
    ps = ProductSpace(sp, sp, delta=0.25)
    f = np.outer(ps.bases[0].wavelets[1].values, ps.bases[1].wavelets[3].values)
    fpath = tmp_path / "wavelet.json"
    fpath.write_text(json.dumps({"dense": f.tolist()}))
    out = tmp_path / "dec.json"
    assert run(["decompose", "--space", space_file, "--delta", "0.25",
                "--function", str(fpath), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    dec = atomic_decompose(ps, f, 1.0, 2.0)
    assert len(doc["terms"]) == len(dec.terms)
    for got, want in zip(doc["terms"], dec.terms):
        assert got["lambda"] == pytest.approx(want.lam, rel=1e-12)
        assert (got["j"], got["ell1"], got["ell2"]) == want.provenance


def test_certify_default_corpus(tmp_path):
    out = tmp_path / "cert.json"
    assert run(["certify", "--seed", "0", "--delta", "0.25",
                "--corpus", "10", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["all_exact_pass"]
    assert doc["checks"]["basis"]["exact_pass"]
    assert doc["checks"]["journe"]["exact_pass"]


def test_certify_seed_changes_constants_not_exactness(tmp_path):
    outs = []
    for seed in (0, 1):
        out = tmp_path / f"cert{seed}.json"
        assert run(["certify", "--seed", str(seed), "--delta", "0.25",
                    "--corpus", "6", "--out", str(out)]) == 0
        outs.append(json.loads(out.read_text()))
    assert all(doc["all_exact_pass"] for doc in outs)


def test_certify_byte_identical_reports(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert run(["certify", "--seed", "2", "--delta", "0.25",
                    "--corpus", "5", "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_certify_empty_corpus_rejected(capsys):
    assert run(["certify", "--corpus", "0"]) == 2
    assert "corpus" in capsys.readouterr().err


def test_bad_space_document(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"matrix": [[0.0, 1.0], [2.0, 0.0]]}))
    assert run(["build", "--space", str(path)]) == 2
    assert "asymmetric" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["decompose", "--space"], ["decompose", "--function"],
                                  ["build", "--out"]])
def test_a_directory_given_for_a_file_is_named(argv, tmp_path, capsys):
    # an OSError on a path (here IsADirectoryError) is a usage error, not a traceback
    assert run([*argv, str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "directory" in err and str(tmp_path) in err


def test_invalid_p_rejected(space_file, capsys):
    assert run(["decompose", "--space", space_file, "--p", "1.5"]) == 2


def test_build_reference_constant_overflow_named(tmp_path, capsys):
    # a0 = 5e39: 36 a0^9 is past the largest float
    path = tmp_path / "far.json"
    path.write_text(json.dumps({"matrix": [[0, 1, 1e40], [1, 0, 1], [1e40, 1, 0]]}))
    assert run(["build", "--delta", "0.5", "--space", str(path)]) == 2
    err = capsys.readouterr().err
    assert "a0 = 5e+39" in err and "overflows" in err


@pytest.mark.parametrize("delta", ["0.5", "0.9"])
def test_decompose_cut_off_overflow_named(delta, tmp_path, capsys):
    # a 4-point line under snowflake 300 (a0 = 1.02e90): a0^2 times a
    # building block's cut-off radius is past the largest float
    path = tmp_path / "line4-snowflake300.json"
    path.write_text(json.dumps({"points": [{"coords": [x]} for x in range(4)],
                                "snowflake": 300}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["decompose", "--space", str(path), "--delta", delta]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: a0 = 1.0185") and "e+90 is too large" in err
    assert "cut-off radius" in err and "4-point factor" in err and "on cube (" in err


@pytest.mark.parametrize("command", ["build", "decompose", "certify"])
@pytest.mark.parametrize("delta", [None, "0.5"])
@pytest.mark.parametrize("snowflake", [400, 600])
def test_a_large_a0_is_named(snowflake, delta, command, tmp_path, capsys):
    # a 4-point line under snowflake 400 (a0 = 1.29e120) or 600 (a0 = 2.07e180):
    # the reference rule's delta 1e-3 a0^-10 underflows to 0, and 12 a0^3
    # (and at 600 also 3 a0^2) is past the largest float
    path = tmp_path / f"line4-snowflake{snowflake}.json"
    path.write_text(json.dumps({"points": [{"coords": [x]} for x in range(4)],
                                "snowflake": snowflake}))
    argv = [command, "--space", str(path), "--out", str(tmp_path / "out.json")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv + (["--delta", delta] if delta else [])) == 2
    assert capsys.readouterr().err.startswith("error: a0 = ")


BOUNDARY_DOCS = {
    **{f"snowflake{s}": {"points": [{"coords": [x]} for x in range(4)], "snowflake": s}
       for s in (10, 30, 40, 100, 280, 290, 640, 650)},
    **{f"weights1e{u}": {"matrix": [[0, 1, 2], [1, 0, 1], [2, 1, 0]],
                         "weights": [10.0 ** -u, 1, 10.0 ** u]}
       for u in (8, 10, 12, 16, 20, 30)},
}
PASS_FLAG = {"build": None, "decompose": "all_certificates_pass", "certify": "all_exact_pass"}


def passes_or_names_the_error(argv, capsys, out) -> dict | None:
    """Run argv with every warning an error: exit 0 with the command's pass
    flag (and its report returned), or exit 2 with a named error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run([*argv, "--out", str(out)])
    err = capsys.readouterr().err
    if code == 2:
        # every command centres the functions it draws, so a channel error
        # would name no fault of the input
        assert err.startswith("error: ") and "channels" not in err
        return None
    assert code == 0, err
    doc = json.loads(out.read_text())
    assert PASS_FLAG[argv[0]] is None or doc[PASS_FLAG[argv[0]]]
    return doc


@pytest.mark.parametrize("command", sorted(PASS_FLAG))
@pytest.mark.parametrize("delta", [None, "0.5"])
@pytest.mark.parametrize("name", sorted(BOUNDARY_DOCS))
def test_accepted_input_boundary_passes_or_names_the_error(name, delta, command, tmp_path,
                                                           capsys):
    # the 4-point line from where snowflakes decompose to where its distances
    # overflow, and 3 points with weights over 16 to 60 decades: exit 0 with
    # the command's pass flag, or exit 2 with a named error, and no numeric
    # warning (at snowflake 100 the reference delta is about 1e-301, and
    # wide weights leave one centring pass short of cancelling)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(BOUNDARY_DOCS[name]))
    argv = [command, "--space", str(path)] + (["--delta", delta] if delta else [])
    passes_or_names_the_error(argv, capsys, tmp_path / "out.json")


@pytest.mark.parametrize("argv", [
    "decompose --p 0.002",                    # the budget measure^(1/p - 1/q') overflows
    "certify --corpus 2 --p 0.002",           # the H^p root overflows
    "decompose --delta 0.25 --gamma1 1000",   # (2^l)^gamma overflows
    "decompose --delta 0.5 --gamma2 1000",
    "decompose --delta 0.25 --gamma1 300 --gamma2 300",   # (2^l1)^300 (2^l2)^300 does
    "decompose --delta 0.5 --gamma1 400",     # an atom's |a|^2 overflows
    "decompose --q 1e6",                      # |f|^q overflows
    "certify --corpus 2 --q 1e6",
    "decompose --q 300",                      # an atom's |a|^q all underflow
    "decompose --delta 0.5 --q 500",          # a restricted square function's do
    "decompose --q 1000",
], ids=str)
def test_accepted_flag_boundary_passes_or_names_the_error(argv, tmp_path, capsys):
    # flags of the built-in line whose powers leave the floats: a named
    # error, never a traceback, a NaN or a norm of 0 for a nonzero grid
    doc = passes_or_names_the_error(argv.split(), capsys, tmp_path / "out.json") or {}
    assert all(term["certificate"]["C_q_size"] > 0 for term in doc.get("terms", []))


def test_flags_a_subcommand_does_not_read_are_usage_errors(space_file, capsys):
    # build reads no --p, --q or gammas and certify no gammas: argparse
    # rejects them rather than letting them pass unread
    for argv in (["build", "--space", space_file, "--p", "0.5"], ["certify", "--gamma1", "3"]):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def _line_doc(rng, n):
    pts = np.cumsum(np.r_[0.0, 10.0 ** rng.uniform(-2, 1, n - 1)])
    return {"matrix": np.abs(pts[:, None] - pts[None, :]).tolist(),
            "weights": (10.0 ** rng.uniform(-2, 2, n)).tolist()}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_decompose_one_point_factor_is_verified(n, tmp_path):
    # a one-point factor has no wavelets, so every doubly mean-zero function
    # on the grid is zero: double_center must give exact zeros, not rounding
    # residue that atomic_decompose rejects as a mixed channel
    rng = np.random.default_rng([1, n])
    out = tmp_path / "dec.json"
    for trial in range(12):
        docs = [_line_doc(rng, 1), _line_doc(rng, n)][::1 - 2 * (trial % 2)]
        paths = []
        for k, doc in enumerate(docs):
            paths.append(tmp_path / f"factor{k}.json")
            paths[-1].write_text(json.dumps(doc))
        for seed in range(3):
            assert run(["decompose", "--space", str(paths[0]), "--space2", str(paths[1]),
                        "--seed", str(seed), "--out", str(out)]) == 0, (trial, seed)
            doc = json.loads(out.read_text())
            assert doc["all_certificates_pass"] and doc["terms"] == []
            assert doc["residual"] == 0.0


@pytest.mark.parametrize("second", [None, {"matrix": [[0.0, 1.0], [1.0, 0.0]],
                                           "weights": [1.0, 3.0]}],
                         ids=["one-point-squared", "one-point-by-two-point"])
def test_certify_one_point_factor_passes(second, tmp_path):
    # every doubly mean-zero function on such a grid is zero: it adds nothing
    # to the relative errors or the Lp/Hp ratios, as decompose gives no terms
    one = tmp_path / "one.json"
    one.write_text(json.dumps({"matrix": [[0.0]], "weights": [2.0]}))
    argv = ["certify", "--space", str(one), "--corpus", "3", "--delta", "0.5"]
    if second is not None:
        two = tmp_path / "two.json"
        two.write_text(json.dumps(second))
        argv += ["--space2", str(two)]
    out = tmp_path / "cert.json"
    assert run([*argv, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["all_exact_pass"]
    assert doc["checks"]["basis"]["reconstruction_error"] == 0.0
    assert doc["checks"]["lp_le_hp"]["C_p"] == {"0.8": 0.0, "1.0": 0.0}


FACTORS = st.one_of(spaces(min_points=1), decade_spaces())


def _run_on(command, x1, x2, delta, seed, *extra):
    """Exit code, stderr and report of ``command`` on the two factors."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = [command, "--delta", str(delta), "--seed", str(seed),
                "--out", f"{tmp}/out.json", *extra]
        for flag, space in (("--space", x1), ("--space2", x2)):
            path = Path(tmp, f"{flag.strip('-')}.json")
            path.write_text(json.dumps({"matrix": space.dist.tolist(),
                                        "weights": space.weight.tolist()}))
            argv += [flag, str(path)]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run(argv)
        out = Path(tmp, "out.json")
        return code, err.getvalue(), json.loads(out.read_text()) if out.is_file() else None


@settings(CHECK, deadline=timedelta(seconds=10))
@given(FACTORS, FACTORS, st.sampled_from([0.25, 0.5, 0.9]), st.integers(0, 2 ** 16))
def test_decompose_verifies_or_names_the_error(x1, x2, delta, seed):
    # one-point factors, tied or snowflake factors of unequal size and
    # decade-spanning ones: a verified decomposition (exit 0) or a named
    # error (exit 2), never a failed certificate, a traceback or a numeric
    # warning; the deadline bounds each example's time
    code, err, report = _run_on("decompose", x1, x2, delta, seed)
    if code == 2:
        assert err.startswith("error: ")
    else:
        assert code == 0, err
        assert report["all_certificates_pass"]


@settings(CHECK, deadline=timedelta(seconds=10))
@given(FACTORS, FACTORS, st.sampled_from([0.25, 0.5, 0.9]), st.integers(0, 2 ** 16))
def test_certify_passes_or_names_the_error(x1, x2, delta, seed):
    # certify's counterpart on the same factors, with a small corpus
    code, err, report = _run_on("certify", x1, x2, delta, seed, "--corpus", "4")
    if code == 2:
        assert err.startswith("error: ")
    else:
        assert code == 0, err
        assert report["all_exact_pass"]
