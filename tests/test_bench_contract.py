"""The benchmark's tracer reads functions and some of their arguments by
name (``bench/tracer.py`` binds each traced call to its signature); a
renamed function or parameter would break ``bench/run.py --trace 1``
without failing any other test."""

import importlib
import inspect
import json
from pathlib import Path

import numpy as np
import pytest

from prodhardy import OpenSet, dyadic
from prodhardy.cli import emit
from prodhardy.journe import maximal_rectangles
from prodhardy.maximal import ell_enlarge, rectangles_inside
from prodhardy.wavelet import building_blocks


@pytest.mark.parametrize("fn, names", [
    (rectangles_inside, ("pspace", "omega_set")),
    (ell_enlarge, ("pspace", "omega_tilde", "ell1", "ell2", "lam1", "lam2")),
    (maximal_rectangles, ("pspace", "omega", "direction")),
    (building_blocks, ("space", "wavelet", "gamma")),
])
def test_traced_parameter_names(fn, names):
    assert set(names) <= set(inspect.signature(fn).parameters), fn.__name__


def test_emit_is_the_traced_report_writer():
    # cli.emit.self_s times the report writer: the tracer wraps emit, a public
    # function of prodhardy.cli, by name
    assert inspect.isfunction(emit) and emit.__module__ == "prodhardy.cli"
    assert not emit.__name__.startswith("_")
    assert list(inspect.signature(emit).parameters) == ["report", "out"]


def traced_functions() -> list[tuple]:
    """(module, function name) of every per-layer metric of ``BENCHMARK.json``
    that times or counts calls of one function: ``<layer>.<function>.calls``
    and ``<layer>.<function>.self_s``."""
    spec = json.loads((Path(__file__).parents[1] / "BENCHMARK.json").read_text())
    pairs = {tuple(m["name"].split(".")[:2]) for m in spec["per_layer"]
             if m["name"].endswith((".calls", ".self_s"))}
    return [(importlib.import_module(f"prodhardy.{layer}"), name) for layer, name in sorted(pairs)]


@pytest.mark.parametrize("module, name", traced_functions())
def test_build_layers_are_traced_by_name(module, name):
    # the tracer wraps every public module-level function of each layer, and
    # ``bench/run.py --trace 1`` reads each metric's function by name, so a
    # missing one is a KeyError there
    fn = vars(module).get(name)
    assert inspect.isfunction(fn) and fn.__module__ == module.__name__
    assert not name.startswith("_")


def test_build_system_result_feeds_the_dyadic_probe(canon):
    # dyadic.cubes, dyadic.levels and dyadic.distinct_member_frac read these
    system = dyadic.build_system(canon, 0.25)
    cubes = list(system.all_cubes())
    assert len(cubes) == system.n_cubes() == 11 and len(system.levels()) == 4
    for c in cubes:
        assert isinstance(c.members, np.ndarray) and c.members.dtype.kind == "i"


def test_maximal_rectangles_result_feeds_the_journe_probe(pspace8):
    # journe.family_size adds len(result.m_all) of every maximal_rectangles call
    om = OpenSet.from_mask(pspace8, np.random.default_rng(0).random(pspace8.shape) < 0.4)
    fam = maximal_rectangles(pspace8, om, direction="both")
    assert len(fam.m_all) == len(fam.rows) > 0
