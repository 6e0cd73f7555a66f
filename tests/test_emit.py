"""The report writer: ``cli.emit`` writes what

    json.dumps(report, sort_keys=True, indent=1, default=_json_default)

writes, byte for byte, without running the json module's pure-Python
encoder (CPython runs its C encoder only when there is no indent).
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prodhardy import cli
from prodhardy.cli import _encode, _json_default, emit

from test_golden_reports import CASES, report_digest


def dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=1, default=_json_default)


floats = st.one_of(st.floats(allow_subnormal=True),
                   st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324,
                                    2.2250738585072014e-308, 1e300, -1e-300, 0.1]))
strings = st.text(st.sampled_from(list(',[]{}"\\: ab\n\t\x00é☃\U0001f600')),
                  max_size=6)
numbers = st.one_of(floats, st.integers(), st.booleans(), st.none())
rows = st.lists(numbers, max_size=4)
tables = st.one_of(st.lists(rows, max_size=4),                      # ragged, empty rows
                   st.lists(rows.map(tuple), max_size=4),
                   st.lists(st.lists(rows, max_size=3), max_size=3))  # tables of tables
numpy_values = st.one_of(
    floats.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    st.lists(floats, max_size=4).map(np.array),
    st.tuples(st.integers(0, 3), st.integers(0, 3)).map(
        lambda shape: np.arange(shape[0] * shape[1]).reshape(shape) * 0.5),
)
mixed = st.lists(st.one_of(numbers, strings, st.just({})), min_size=2, max_size=4)
leaves = st.one_of(numbers, strings, numpy_values, tables, mixed)
documents = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(strings, children, max_size=4),
        st.dictionaries(st.one_of(st.integers(), floats, st.booleans()), children, max_size=3),
        st.dictionaries(st.none(), children, max_size=1),
    ),
    max_leaves=24)


@settings(max_examples=400, deadline=None)
@given(documents)
def test_writer_is_json_dumps(doc):
    assert _encode(doc, "") == dumps(doc)
    assert _encode({"report": doc}, "") == dumps({"report": doc})


@pytest.mark.parametrize("doc", [
    [[1.0, 2.0], [3.0]],                      # ragged table
    [[1.0], []],                              # an empty row
    [[[1.0]], 2.0],                           # as many brackets as a table has
    [np.arange(3.0), np.arange(2.0)],         # rows that reach the default
    {"a": np.arange(3)},                      # an array as a dict value
    [np.float64(0.5), np.int64(3), np.bool_(False), np.array(1.5)],
    [1, "a,[b]", 2.0],
    [1.0, "a,b"],
    [1, {}, [{}]],
    (1.0, (2.0, 3.0)),
    [{"b": [1, 2], "a": []}, {}],
    {1.5: 0, 2: 1, True: 2, -math.inf: 3},
    {None: [math.nan, -0.0]},
    "é\"\\",
])
def test_writer_is_json_dumps_on_edge_cases(doc):
    assert _encode(doc, "") == dumps(doc)


@pytest.mark.parametrize("doc", [
    {"a": 1, 2: 3},                           # keys that do not sort
    {None: 1, "a": 2},
    {(1, 2): 0},                              # a key of no JSON type
    {"a": object()},
    [1.0, object()],
    [[1.0], [object()]],
    {"a": np.array([object()])},
    np.complex128(1j),
])
def test_writer_raises_type_error_where_json_dumps_does(doc):
    with pytest.raises(TypeError):
        dumps(doc)
    with pytest.raises(TypeError):
        _encode(doc, "")


def test_emit_writes_numpy_bools(tmp_path, capsys):
    path = tmp_path / "r.json"
    emit({"ok": np.bool_(True), "values": np.array([True, False])}, str(path))
    assert path.read_text() == '{\n "ok": true,\n "values": [\n  true,\n  false\n ]\n}\n'
    emit({"ok": np.bool_(False)}, None)
    assert capsys.readouterr().out == '{\n "ok": false\n}\n'


def test_golden_report_never_reaches_the_pure_python_encoder(monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("the pure-Python JSON encoder ran")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    with pytest.raises(AssertionError):
        dumps({"a": [1.0]})
    assert report_digest("decompose-line12", tmp_path) == CASES["decompose-line12"][2]


def test_emit_calls_no_other_public_function_of_the_cli(monkeypatch, tmp_path):
    # the benchmark wraps the public functions of prodhardy.cli by name, so
    # cli.emit's self time is the writer's only while its helpers stay private
    called = []
    for name, fn in vars(cli).items():
        if (callable(fn) and getattr(fn, "__module__", None) == cli.__name__
                and not name.startswith("_") and name != "emit"):
            monkeypatch.setattr(cli, name, lambda *a, _name=name, **k: called.append(_name))
    emit({"terms": [{"atom_values": [[0, 1, 0.5]]}], "seed": 0}, str(tmp_path / "r.json"))
    assert called == []
