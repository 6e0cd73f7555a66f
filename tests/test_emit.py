"""The report writer: ``cli.emit`` writes what

    json.dumps(report, sort_keys=True, indent=1, default=rows)

writes, byte for byte, where ``rows`` turns each entry table into its
[[*index, value], ...] rows.  ``emit`` runs that json.dumps with a
placeholder string for each table and splices the tables, formatted straight
from their arrays, into its text.
"""

import contextlib
import io
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from prodhardy import cli
from prodhardy.cli import _Entries, _nonzero_entries, emit

from test_golden_reports import CASES, report_digest

PLACEHOLDER = json.dumps("\0")      # how json.dumps writes emit's placeholder string


def rows(o) -> list[list]:
    if not isinstance(o, _Entries):
        raise TypeError(f"not serializable: {type(o)}")
    return [[*ix, v] for *ix, v in zip(*(i.tolist() for i in o.index), o.values.tolist())]


def dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=1, default=rows)


def emitted(doc, out=None) -> str:
    """What ``emit`` writes to the file ``out``, or to stdout."""
    if out is not None:
        emit(doc, str(out))
        return out.read_text()
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        emit(doc, None)
    return stdout.getvalue()


floats = st.one_of(st.floats(allow_subnormal=True),
                   st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324,
                                    2.2250738585072014e-308, 1e300, -1e-300, 0.1]))
strings = st.text(st.sampled_from(list(',[]{}"\\: ab\n\t\x00é☃\U0001f600')),
                  max_size=6)
numbers = st.one_of(floats, floats.map(np.float64), st.integers(), st.booleans(), st.none())
entry_arrays = st.one_of(
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=6),
               elements=st.one_of(st.just(0.0), floats)),
    hnp.arrays(np.float32, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=4),
               elements=st.floats(width=32)),
    hnp.arrays(np.int64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=4),
               elements=st.integers(-3, 3)),
    hnp.arrays(np.bool_, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=4)))
tables = entry_arrays.map(_nonzero_entries)
leaves = st.one_of(numbers, strings, tables, st.lists(numbers, max_size=4))
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
    # a string or key that writes as the placeholder's text is refused, so a
    # report string can never be taken for a table
    for wrapped in (doc, {"report": doc}, [doc, {"a": [doc]}]):
        expected = dumps(wrapped)
        if PLACEHOLDER in expected:
            with pytest.raises(ValueError):
                emitted(wrapped)
        else:
            assert emitted(wrapped) == expected + "\n"


@pytest.mark.parametrize("doc", [
    [[1.0, 2.0], [3.0]],                      # ragged table
    [[1.0], []],                              # an empty row
    [[[1.0]], 2.0],                           # as many brackets as a table has
    [_nonzero_entries(np.arange(3.0)), _nonzero_entries(np.zeros(2))],
    {"a": _nonzero_entries(np.arange(4.0).reshape(2, 2))},
    [np.float64(0.5), -0.0, math.nan, -math.inf],
    [1, "a,[b]", 2.0],
    [1.0, "a,b"],
    [1, {}, [{}]],
    (1.0, (2.0, 3.0)),
    [{"b": [1, 2], "a": []}, {}],
    {1.5: 0, 2: 1, True: 2, -math.inf: 3},
    {"n": [math.nan, -0.0], "\0a": "a\0", "t": {"u": [_nonzero_entries(np.array([0.5]))]}},
    "é\"\\",
])
def test_writer_is_json_dumps_on_edge_cases(doc, tmp_path):
    assert emitted(doc, tmp_path / "r.json") == emitted(doc) == dumps(doc) + "\n"


@pytest.mark.parametrize("doc", [
    {"a": 1, 2: 3},                           # keys that do not sort
    {None: 1, "a": 2},
    {(1, 2): 0},                              # a key of no JSON type
    {"a": object()},
    [1.0, object()],
    [[1.0], [object()]],
    {"a": np.array([object()])},
    np.complex128(1j),
    {"ok": np.bool_(True)},                   # NumPy scalars that are no Python number
    {"n": np.int64(3)},
    [np.float32(0.5)],
    {"v": np.arange(3.0)},                    # an array that is no entry table
    {"t": [_nonzero_entries(np.array([1.0])), np.array(1.5)]},
])
def test_writer_raises_type_error_where_json_dumps_does(doc):
    with pytest.raises(TypeError):
        dumps(doc)
    with pytest.raises(TypeError):
        emitted(doc)


@pytest.mark.parametrize("doc", [
    "\0",
    {"a": "\0"},
    {"\0": 1},
    {"\0": _nonzero_entries(np.array([1.0]))},
    [_nonzero_entries(np.array([1.0])), "\0"],
])
def test_a_string_that_reads_as_the_placeholder_is_refused(doc, tmp_path):
    out = tmp_path / "r.json"
    with pytest.raises(ValueError, match="placeholder"):
        emitted(doc, out)
    assert not out.exists()


@settings(max_examples=300, deadline=None)
@given(entry_arrays)
def test_entry_tables_are_json_dumps(a):
    entries = _nonzero_entries(a)
    table = [[*map(int, ix), a[tuple(ix)].item()] for ix in np.argwhere(a != 0)]
    assert emitted(entries) == dumps(table) + "\n"
    assert emitted({"v": entries}) == dumps({"v": table}) + "\n"
    assert emitted({"t": [{"v": entries, "w": 1}]}) == dumps({"t": [{"v": table, "w": 1}]}) + "\n"


@pytest.mark.parametrize("a", [
    np.zeros((3, 4)), np.zeros(0), np.zeros((0, 5)),        # no entries
    np.array([[0.0, -0.0], [0.1, 0.0]]),                    # -0.0 is no entry
    np.array([5e-324, -1e300, 1e300, 2.2250738585072014e-308]),
    np.array([[np.nan, 1.0], [0.0, -np.inf]]),              # NaN and Infinity
    np.array([[0.5, 0.0], [0.0, 0.25]], dtype=np.float32),  # Python floats after tolist
    np.array([0, 3, -2]), np.array([[True, False]]),        # ints and bools
])
def test_entry_tables_on_edge_cases(a, tmp_path):
    doc = {"v": _nonzero_entries(a)}
    assert emitted(doc, tmp_path / "r.json") == emitted(doc) == dumps(doc) + "\n"


def test_golden_tables_never_take_the_list_path(monkeypatch, tmp_path):
    # a table of finite floats is one %-format; only NaN, infinities and
    # non-floats write their values one json.dumps call at a time
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return json.dumps(*args, **kwargs)

    monkeypatch.setattr(cli, "json", SimpleNamespace(dumps=counted, loads=json.loads))
    emitted({"v": _nonzero_entries(np.array([np.nan, 1.0]))})
    assert len(calls) == 3
    for name in ("decompose-line12", "build-cloud150"):
        calls.clear()
        assert report_digest(name, tmp_path) == CASES[name][2]
        assert len(calls) == 1


def test_emit_calls_no_other_public_function_of_the_cli(monkeypatch, tmp_path):
    # the benchmark wraps the public functions of prodhardy.cli by name, so
    # cli.emit's self time is the writer's only while its helpers stay private
    called = []
    for name, fn in vars(cli).items():
        if (callable(fn) and getattr(fn, "__module__", None) == cli.__name__
                and not name.startswith("_") and name != "emit"):
            monkeypatch.setattr(cli, name, lambda *a, _name=name, **k: called.append(_name))
    entries = _nonzero_entries(np.array([[0.0, 0.5], [-0.0, 0.0]]))
    emit({"terms": [{"atom_values": entries}], "seed": 0}, str(tmp_path / "r.json"))
    assert called == []
    assert (tmp_path / "r.json").read_text() == dumps(
        {"terms": [{"atom_values": [[0, 1, 0.5]]}], "seed": 0}) + "\n"
