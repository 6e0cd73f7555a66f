"""Every function of ``src/prodhardy`` is reached by a command, is an oracle,
is timed by name in the benchmark, or is named in ``NAMED`` with its reason.

``cli.main`` runs over a fixed list of argv under ``sys.setprofile``, and
``threading.setprofile`` for the a0 scan's helper thread; the process is
shown two usable CPUs, so the helper starts whatever the machine has.  A
function is reached when a frame of its code starts.  Functions are keyed by
(co_filename, co_firstlineno), which every supported Python has.  The
oracles live in ``prodhardy.oracles``, and no module of the package imports
it.
"""

import inspect
import io
import json
import os
import subprocess
import sys
import threading
from contextlib import redirect_stderr
from pathlib import Path

import numpy as np

import prodhardy
from prodhardy import cli

from test_bench_contract import traced_functions

SRC = Path(prodhardy.__file__).parent

# reached by no argv below, each kept for the reason given
NAMED = {
    "dyadic.DyadicSystem.all_cubes": "the Cube records of the oracles and of the "
                                     "bench/tracer.py probe behind dyadic.cubes",
    "wavelet.Wavelet.id": "the key the bench/tracer.py probe of building_blocks counts "
                          "repeated inputs by",
    "space.FiniteSpace.realized_balls": "the balls strong_maximal ranges over; at epsilon_0 "
                                        "enlarge's whole-grid test passes on every CLI input "
                                        "(ROADMAP item 1)",
    "space.realized_ball_masks": "builds FiniteSpace.realized_balls",
    "journe.cmo_p": "the CMO^p duality check of criterion 9 and CI's memory guard; no "
                    "command runs it yet (ROADMAP item 4)",
    "journe._cmo_best": "scores cmo_p's candidates",
    "journe._unions": "lists cmo_p's unions",
    "atoms.generate_atom": "the random atoms of the converse bound (criterion 8)",
    "atoms.ChannelError.__init__": "names a function with mixed or scaling channels; every "
                                   "command centres its functions first",
    "cli._json_default": "writes NumPy values, which no report holds; test_emit checks it "
                         "against json.dumps",
    "cli._entry_rows": "writes entry tables with NaN, infinities or non-floats, which no "
                       "report holds",
    "cli.make_parser": "runs once, when prodhardy.cli is imported",
}


def functions() -> dict[tuple[str, int], str]:
    """Every function of the package, lambdas and comprehensions aside, by
    (file, first line): its module and the names of its enclosing classes
    and functions, dotted."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        todo = [(compile(path.read_text(), str(path), "exec"), path.stem)]
        while todo:
            code, prefix = todo.pop()
            for const in code.co_consts:
                if inspect.iscode(const) and not const.co_name.startswith("<"):
                    name = f"{prefix}.{const.co_name}"
                    todo.append((const, name))
                    if const.co_flags & inspect.CO_OPTIMIZED:      # not a class body
                        found[(const.co_filename, const.co_firstlineno)] = name
    return found


def argv_list(tmp: Path) -> list[list[str]]:
    def doc(name, content):
        (tmp / name).write_text(json.dumps(content))
        return str(tmp / name)

    line = [{"coords": [float(x)]} for x in range(4)]
    cloud = np.random.default_rng(0).uniform(0.0, 1.0, (40, 2))      # two rows of a0 tiles
    ties = [{"coords": [c], "weight": w} for c, w in zip([11, 13, 16, 17], [0.3, 0.7] * 2)]
    return [
        ["build"],
        ["decompose", "--p", "0.5", "--q", "4"],
        ["decompose", "--q", "1.5"],
        ["certify", "--corpus", "5"],
        ["build", "--space", doc("cloud.json", {"points": [{"coords": c} for c in
                                                           cloud.tolist()]})],
        ["build", "--space", doc("chebyshev.json", {"points": line, "metric": "chebyshev"}),
         "--space2", doc("manhattan.json", {"points": line, "metric": "manhattan"})],
        # exit 2: the Haar normalisation leaves the floats
        ["build", "--space", doc("wide.json", {"matrix": [[0, 1, 2], [1, 0, 1], [2, 1, 0]],
                                               "weights": [1e-300, 1, 1e300]})],
        # decimal weights put half tests within their rounding margin
        ["decompose", "--space", doc("ties.json", {"points": ties}), "--seed", "14",
         "--delta", "0.5"],
        # weights 1 and 7000: rectangle atoms whose lines cancel only after
        # their recancelling passes
        ["decompose", "--space", doc("pair.json", {"points": [{"coords": [0]}, {
            "coords": [1], "weight": 7000}]}), "--delta", "0.5"],
        ["decompose", "--function", doc("triples.json", {"triples": [[0, 0, 1.0], [1, 1, 2]]})],
    ]


def reached_by_the_cli(tmp: Path) -> tuple[set, list]:
    """The (file, first line) of every code object that starts while
    ``cli.main`` runs over ``argv_list``, and the exit codes."""
    seen, codes = set(), []

    def profile(frame, event, arg):
        if event == "call":
            seen.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        for argv in argv_list(tmp):
            with redirect_stderr(io.StringIO()):
                codes.append(cli.main([*argv, "--out", str(tmp / "report.json")]))
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    return seen, codes


def test_every_function_is_reached_or_named(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    reached, codes = reached_by_the_cli(tmp_path)
    assert codes == [0] * 6 + [2] + [0] * 3
    found = functions()
    pinned = {(fn.__code__.co_filename, fn.__code__.co_firstlineno)
              for fn in (vars(module)[name] for module, name in traced_functions())}
    unreached = {name for key, name in found.items()
                 if key not in reached | pinned and not name.startswith("oracles.")}
    assert unreached == set(NAMED), (
        f"reached by nothing and not named: {sorted(unreached - set(NAMED))}; "
        f"named but reached or gone: {sorted(set(NAMED) - unreached)}")


def test_the_fast_path_never_loads_the_oracles(tmp_path):
    # in a fresh interpreter: the package's import, and every command with
    # the space constants, nets and cube constants they compute
    script = (
        "import sys\n"
        "import prodhardy\n"
        "assert 'prodhardy.oracles' not in sys.modules\n"
        "from prodhardy.cli import main\n"
        f"out = {str(tmp_path / 'report.json')!r}\n"
        "for argv in (['build'], ['decompose', '--q', '1.5'], ['certify', '--corpus', '2']):\n"
        "    assert main([*argv, '--out', out]) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('prodhardy')))\n")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True)
    assert "prodhardy.oracles" not in run.stdout and "prodhardy.cli" in run.stdout
