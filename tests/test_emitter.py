"""The one report emitter and the table writer against the standard library
writers they stand in for, byte for byte."""

import csv
import io as pyio
import json
from unittest import mock

import numpy as np
from hypothesis import given, strategies as st

from jumplab import io

# floats json and repr treat apart: signed zero, subnormals, the largest
# magnitudes, and the non-finite values `jsonable` turns into strings
EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310,
                               2.2250738585072014e-308, 1e308,
                               -1.7976931348623157e308, 1e16, 1e-7,
                               float("inf"), float("-inf"), float("nan")])
FLOATS = st.floats() | EDGE_FLOATS
LEAVES = (st.none() | st.booleans() | st.integers() | FLOATS | st.text()
          | st.sampled_from(["inf", "-inf", "nan"]))
DOCUMENTS = st.recursive(
    LEAVES,
    lambda kids: (st.lists(kids, max_size=12)
                  | st.lists(kids, max_size=6).map(tuple)
                  | st.dictionaries(st.text(), kids, max_size=12)),
    max_leaves=60)
# columns of floats (the heat row's) long enough to span several chunks, with
# a stray value of another kind now and then
FLOAT_RUNS = (st.lists(FLOATS, max_size=40)
              | st.lists(st.floats(allow_nan=False, allow_infinity=False)
                         | LEAVES, max_size=40))


def emitted(obj) -> str:
    buf = pyio.StringIO()
    io._emit(obj, buf.write, "\n")
    return buf.getvalue()


@given(DOCUMENTS, st.sampled_from([1, 3, io.CHUNK]))
def test_emitter_equals_json_dumps(obj, chunk):
    """`_emit` writes json.dumps(obj, sort_keys=True, indent=2), NaN and
    Infinity included, at chunk sizes that split every container."""
    with mock.patch.object(io, "CHUNK", chunk):
        assert emitted(obj) == json.dumps(obj, sort_keys=True, indent=2)


@given(st.dictionaries(st.text(), FLOAT_RUNS, max_size=4), FLOAT_RUNS,
       st.dictionaries(st.text(max_size=4), FLOATS, max_size=40),
       st.sampled_from([1, 4, 7]))
def test_emitter_float_chunks_equal_json_dumps(columns, row, values, chunk):
    """Lists and dicts of floats, written a chunk at a time, and chunks that
    hold a non-finite float or a value of another kind, equal json's text."""
    obj = {"columns": columns, "row": row, "values": values}
    with mock.patch.object(io, "CHUNK", chunk):
        assert emitted(obj) == json.dumps(obj, sort_keys=True, indent=2)


@given(DOCUMENTS)
def test_dump_report_equals_json_dump_of_jsonable(obj):
    """`dump_report` writes what write_bundle and `lab` wrote before it:
    json.dump of `jsonable(obj)` and a newline."""
    buf = pyio.StringIO()
    io.dump_report(obj, buf)
    assert buf.getvalue() == json.dumps(io.jsonable(obj), sort_keys=True,
                                        indent=2) + "\n"


def test_dump_report_of_numpy_values_and_tuple_keys():
    obj = {"row": np.linspace(0.0, 1.0, 9), "n": np.int64(3),
           "x": np.float64(-0.0), (1, 2): (np.inf, -np.inf, np.nan)}
    buf = pyio.StringIO()
    io.dump_report(obj, buf)
    assert buf.getvalue() == json.dumps(io.jsonable(obj), sort_keys=True,
                                        indent=2) + "\n"


def old_table(columns: dict) -> str:
    """The table as write_bundle wrote it before: csv.writer, one `_cell`
    per value."""
    buf = pyio.StringIO(newline="")
    out = csv.writer(buf, lineterminator="\n")
    out.writerow(columns)
    out.writerows(zip(*(map(io._cell, c) for c in columns.values())))
    return buf.getvalue()


# csv before Python 3.11 refuses a NUL in a cell ("need to escape"), so
# table text holds none
TEXT = st.text(st.characters(exclude_characters="\x00"))
CELLS = (FLOATS | st.integers() | st.booleans() | st.none()
         | TEXT | st.sampled_from(["", ",", '"', 'a"b', "x,y", "a\nb",
                                   "a\rb", " "])
         | st.tuples(st.integers(-9, 9), st.integers(-9, 9))
         | st.builds(np.float64, st.floats()))


@st.composite
def tables(draw):
    width = draw(st.integers(1, 4))
    rows = draw(st.integers(0, 12))
    names = draw(st.lists(TEXT, min_size=width, max_size=width,
                          unique=True))
    kinds = [draw(st.sampled_from(["floats", "strings", "cells"]))
             for _ in range(width)]
    pick = {"floats": FLOATS,
            "strings": TEXT | st.sampled_from(["", ",", '"', "1,-2"]),
            "cells": CELLS}
    return {name: draw(st.lists(pick[kind], min_size=rows, max_size=rows))
            for name, kind in zip(names, kinds)}


@given(tables(), st.sampled_from([1, 2, 5, io.CHUNK]))
def test_table_writer_equals_csv_writer(columns, chunk):
    """`_write_table` equals csv.writer(lineterminator="\\n") of one `_cell`
    per value: one-column tables, empty strings, and cells with commas,
    quotes, line breaks, tuples, None and numpy floats included."""
    buf = pyio.StringIO(newline="")
    with mock.patch.object(io, "CHUNK", chunk):
        io._write_table(buf, columns)
    assert buf.getvalue() == old_table(columns)


@given(st.integers(1, 3).flatmap(lambda d: st.lists(
    st.tuples(*[st.integers(-10**6, 10**6)] * d), min_size=1, max_size=20)))
def test_point_cells_equal_cell_of_tuples(vertices):
    """The heat row's cells from an (n, d) point array are `_cell` of each
    vertex tuple: "x" on Z, "x,y" on Z^2."""
    points = np.array(vertices, dtype=np.int64)
    assert io._point_cells(points) == [io._cell(v) for v in vertices]
