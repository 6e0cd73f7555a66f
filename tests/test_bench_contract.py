"""The benchmark's tracer reads some arguments by name (``bench/tracer.py``
binds each traced call to its signature); a renamed parameter would break
``bench/run.py --trace 1`` without failing any other test."""

import inspect

import pytest

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
