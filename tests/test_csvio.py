"""The column writer against the per-cell reference writer, byte for byte.

`csvio.write_csv` fills whole blocks of integer and label columns into a
byte matrix with numpy, leaving the bytes no cell uses as the pad byte
0xFF and dropping them at the end; `oracles.write_csv_by_cell` is the
plain loop it replaced.  The tables here mix every column kind the
writer tells apart, with the integer extremes, the float specials, text
with interior NULs and row counts around the block size.
"""

import io
import tracemalloc
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


# three cells each; each text column keeps its NULs off the cell ends
EDGE_COLUMNS = {
    "interior_nul": np.array(["\x00a", "a\x00b", "c"]),
    "interior_nul_per_cell": ["\x00a", "a\x00b", "c"],
    "non_ascii_nul": np.array(["é\x00x", "\x00é", "y"]),
    "full_field_labels": np.array(["O1", "O2", "ab"]),
    "all_zero": np.zeros(3, np.int64),
    "int64_extremes": np.array([np.iinfo(np.int64).min,
                                np.iinfo(np.int64).max, 0]),
    "uint64_max": np.array([np.iinfo(np.uint64).max, 0, 1], np.uint64),
    "negative_widths": np.array([-1, -4444, 22], np.int64),
}


def _tile(col, n):
    """`col`'s cells repeated to n rows, keeping its type."""
    if isinstance(col, np.ndarray):
        return col[np.arange(n) % len(col)]
    return [col[i % len(col)] for i in range(n)]


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
    data = (small, ints, labels, floats,
            *(_tile(col, n) for col in EDGE_COLUMNS.values()))
    header = [f"c{i}" for i in range(len(data))]
    got, want = _both(csvio.write_csv, write_csv_by_cell, {"n": n},
                      header, data)
    assert got == want
    assert got.count("\n") == n + 2
    got, want = _both(csvio.write_json, write_json_by_cell, {"n": n},
                      header, data)
    assert got == want


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("name", EDGE_COLUMNS)
def test_edge_columns_match_per_cell_oracle(name, n):
    # alone, and as the first and the last field of a row
    col = _tile(EDGE_COLUMNS[name], n)
    ints = np.arange(n) - 1
    for data in ((col,), (col, ints), (ints, col)):
        header = [f"c{i}" for i in range(len(data))]
        got, want = _both(csvio.write_csv, write_csv_by_cell, {"n": n},
                          header, data)
        assert got == want
        assert got.count("\n") == n + 2


class _Discard:
    def write(self, text):
        return len(text)


def _write_peak(blocks):
    """tracemalloc's peak, in bytes, while write_csv writes `blocks` full
    blocks of ten-digit integers and labels to a stream that keeps
    nothing."""
    n = blocks * csvio.BLOCK_ROWS
    ints = 10**9 + np.arange(n, dtype=np.int64)
    labels = np.where(ints % 3 == 0, "O1", "O2")
    tracemalloc.start()
    try:
        csvio.write_csv(_Discard(), {"n": n}, ("m", "class"), (ints, labels))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_csv_memory_does_not_grow_with_the_table():
    # one block's byte matrix: ten digits, a two-letter label, two separators
    matrix = csvio.BLOCK_ROWS * (10 + 1 + 2 + 1)
    # six more blocks, had they been held, would add six matrices at least
    assert _write_peak(8) - _write_peak(2) < matrix


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
