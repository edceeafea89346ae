"""The column writer against the per-cell reference writer, byte for byte.

`csvio.write_csv` formats whole blocks of integer and label columns with
numpy; `oracles.write_csv_by_cell` is the plain loop it replaced.  The
tables here mix every column kind the writer tells apart, with the
integer extremes, the float specials and row counts around the block
size.
"""

import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from georoots import csvio
from oracles import write_csv_by_cell, write_json_by_cell

I64_EDGES = [0, -1, 1, 9, 10, -10, 2**63 - 1, -(2**63) + 1, -(2**63)]
FLOAT_EDGES = [float("nan"), float("inf"), -float("inf"), -0.0, 0.0,
               1e-300, 5e-324, 1e300, 0.1, 1 / 3]


def _int_column(dtype):
    info = np.iinfo(dtype)
    values = st.integers(int(info.min), int(info.max))
    edges = [v for v in I64_EDGES + [int(info.max), int(info.min)]
             if info.min <= v <= info.max]
    cell = st.one_of(values, st.sampled_from(edges))
    return lambda n: st.lists(cell, min_size=n, max_size=n).map(
        lambda xs: np.array(xs, dtype=dtype))


def _float_column(n):
    cell = st.one_of(st.floats(), st.sampled_from(FLOAT_EDGES))
    return st.lists(cell, min_size=n, max_size=n).map(np.array)


def _label_column(n):
    # ASCII labels take the byte-copy path, others the per-cell one
    alphabet = st.one_of(st.sampled_from(["O1", "O2", "", "a b", "x" * 9]),
                         st.text(max_size=5))
    return st.lists(alphabet, min_size=n, max_size=n).map(np.array)


def _object_column(n):
    cell = st.one_of(st.integers(-(2**100), 2**100), st.sampled_from(
        [2**63, -(2**63) - 1, 2**64, 0]), st.booleans(), st.text(max_size=3))
    as_array = st.booleans()
    return st.tuples(st.lists(cell, min_size=n, max_size=n), as_array).map(
        lambda t: np.array(t[0], dtype=object) if t[1] else t[0])


COLUMN_KINDS = [_int_column(t) for t in
                (np.int64, np.int32, np.int8, np.uint8, np.uint64)]
COLUMN_KINDS += [_float_column, _label_column, _object_column]


@st.composite
def tables(draw):
    block = draw(st.integers(1, 6))
    n = draw(st.one_of(st.sampled_from([0, block - 1, block, block + 1]),
                       st.integers(0, 4 * block + 1)))
    kinds = draw(st.lists(st.sampled_from(COLUMN_KINDS), min_size=1,
                          max_size=4))
    data = [draw(kind(n)) for kind in kinds]
    header = [f"c{i}" for i in range(len(data))]
    meta = {"command": "test", "x": draw(st.floats()), "n": n}
    return block, meta, header, data


def _both(write, oracle, meta, header, data):
    got, want = io.StringIO(), io.StringIO()
    write(got, meta, header, data)
    oracle(want, meta, header, data)
    return got.getvalue(), want.getvalue()


@given(tables())
def test_csv_matches_per_cell_oracle(table):
    block, meta, header, data = table
    with mock.patch.object(csvio, "BLOCK_ROWS", block):
        got, want = _both(csvio.write_csv, write_csv_by_cell,
                          meta, header, data)
    assert got == want


@given(tables())
def test_json_matches_per_cell_oracle(table):
    block, meta, header, data = table
    with mock.patch.object(csvio, "BLOCK_ROWS", block):
        got, want = _both(csvio.write_json, write_json_by_cell,
                          meta, header, data)
    assert got == want


@pytest.mark.parametrize("delta", [-1, 0, 1])
def test_block_boundaries_at_block_size(delta):
    n = csvio.BLOCK_ROWS + delta
    rng = np.random.default_rng(n)
    ints = rng.integers(-(2**63), 2**63 - 1, n, dtype=np.int64,
                        endpoint=True)
    ints[:len(I64_EDGES)] = I64_EDGES
    small = np.arange(n) * 7 // 3
    labels = np.where(small % 3 == 0, "O1", "O2")
    floats = rng.standard_normal(n)
    data = (small, ints, labels, floats)
    got, want = _both(csvio.write_csv, write_csv_by_cell, {"n": n},
                      ("a", "b", "c", "d"), data)
    assert got == want
    assert got.count("\n") == n + 2
    got, want = _both(csvio.write_json, write_json_by_cell, {"n": n},
                      ("a", "b", "c", "d"), data)
    assert got == want


def test_empty_table_and_ragged_columns():
    got, want = _both(csvio.write_csv, write_csv_by_cell, {},
                      ("a", "b"), (np.zeros(0, np.int64), []))
    assert got == want == "a,b\n"
    got, want = _both(csvio.write_json, write_json_by_cell, {},
                      ("a", "b"), (np.zeros(0, np.int64), []))
    assert got == want == '{"meta": {}, "columns": ["a", "b"], "rows": []}\n'
    for write in (csvio.write_csv, csvio.write_json):
        with pytest.raises(ValueError, match="differ in length"):
            write(io.StringIO(), {}, ("a", "b"),
                  (np.arange(3), np.arange(2)))
