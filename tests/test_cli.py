import json

import numpy as np
import pytest

from prodhardy.cli import main


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
    from prodhardy import build_system, export_system
    expected = json.loads(export_system(build_system(line_space(pts), 0.25)))
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


def test_invalid_p_rejected(space_file, capsys):
    assert run(["decompose", "--space", space_file, "--p", "1.5"]) == 2


def test_build_reference_constant_overflow_named(tmp_path, capsys):
    # a0 = 5e39: 36 a0^9 is past the largest float
    path = tmp_path / "far.json"
    path.write_text(json.dumps({"matrix": [[0, 1, 1e40], [1, 0, 1], [1e40, 1, 0]]}))
    assert run(["build", "--delta", "0.5", "--space", str(path)]) == 2
    err = capsys.readouterr().err
    assert "a0 = 5e+39" in err and "overflows" in err


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
