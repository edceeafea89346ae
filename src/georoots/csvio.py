"""Table emission for the command-line tools.

A table is a header of column names plus its data as a sequence of
columns, one sequence of cells per column, all of one length.  CSV files
open with '#'-prefixed metadata lines (one `# key = value` per line)
followed by the header row and comma-separated data rows; the same table
can be emitted as a JSON document instead.  Floats are printed with 12
significant digits in both formats, so identical inputs produce
identical bytes.

`write_csv` and `write_json` emit the rows in blocks of BLOCK_ROWS, so
their memory does not grow with the table, and write each block with a
single `stream.write`.  `write_json` encodes a block's rows with one
`json.dumps` and writes the document's head and tail around them.

A CSV block is laid out as one byte matrix with a row per table row and
a fixed-width field per column (see `_block`).  The matrix starts out
filled with the pad byte 0xFF, which no UTF-8 text contains; each field
overwrites the bytes its cells use, and dropping every pad byte leaves
the block's CSV text.  How a column's cells get into their field depends
on the column's type:

- numpy integer arrays: digits by numpy arithmetic, right-aligned, one
  column of digits per power of ten, with each leading zero left as pad
  (the magnitude is taken in uint64, so -2^63 needs no special case; the
  powers of ten place the '-' of negative cells);
- numpy str arrays of ASCII text (labels such as 'O1'/'O2'): their
  character codes are copied in, left-aligned, and only the NUL padding
  after a cell's last nonzero code becomes pad;
- anything else (float arrays, lists, object arrays such as integers
  beyond int64, non-ASCII labels): `fmt_cell` per cell, which keeps
  floats on `.12g`, encoded as UTF-8 and copied in like labels.

Cells are written as they are, without quoting.  A cell's text may hold
NUL but may not end in it (numpy's fixed-width strings drop trailing
NULs).
"""

import sys
from contextlib import contextmanager

import numpy as np

BLOCK_ROWS = 1 << 14

_POW10 = 10 ** np.arange(1, 20, dtype=np.uint64)   # 10 .. 10^19
_PAD = np.uint8(0xFF)          # the pad byte: no UTF-8 text holds it


def fmt_float(x: float) -> str:
    return f"{x:.12g}"


def fmt_cell(x) -> str:
    if isinstance(x, float):
        return fmt_float(x)
    return str(x)


def _json_value(x):
    if isinstance(x, float):
        return float(fmt_float(x))
    return x


def _as_list(col) -> list:
    return col.tolist() if isinstance(col, np.ndarray) else list(col)


def write_csv(stream, meta: dict, columns, data):
    for k, v in meta.items():
        stream.write(f"# {k} = {fmt_cell(v)}\n")
    stream.write(",".join(columns) + "\n")
    n = _table_length(data)
    for lo in range(0, n, BLOCK_ROWS):
        cells = [_cells(col[lo:lo + BLOCK_ROWS]) for col in data]
        block = _block(cells, min(n - lo, BLOCK_ROWS))
        stream.write(block.tobytes().decode())


def _table_length(data) -> int:
    n = len(data[0]) if len(data) else 0
    if any(len(col) != n for col in data):
        raise ValueError("table columns differ in length")
    return n


def _block(cells, rows):
    """The bytes of `rows` rows: cells joined by ',', each row ended by '\\n'.

    Every column gets a field of fixed width in one (rows, width) byte
    matrix, plus one separator byte.  The matrix starts out as _PAD and
    each field overwrites only the bytes its cells use, so the bytes that
    are not _PAD, read in row-major order, are the CSV text.
    """
    width = sum(w for w, _ in cells) + len(cells)
    chars = np.full((rows, width), _PAD, np.uint8)
    at = 0
    for w, fill in cells:
        fill(chars[:, at:at + w])
        chars[:, at + w] = ord(",")
        at += w + 1
    chars[:, -1] = ord("\n")
    return chars[chars != _PAD]


def _cells(col):
    """(field width, fill) for one block of one column.

    fill(chars) writes the cells into a (rows, width) byte matrix and
    leaves _PAD in the bytes they do not use.
    """
    if isinstance(col, np.ndarray) and col.dtype.kind in "iu":
        return _int_cells(col)
    if isinstance(col, np.ndarray) and col.dtype.kind == "U":
        codes = np.ascontiguousarray(col).view(np.uint32)
        if codes.max() < 128:
            return _text_cells(codes.reshape(len(col), -1))
    cells = np.array([fmt_cell(x).encode() for x in _as_list(col)], "S")
    return _text_cells(cells.view(np.uint8).reshape(len(cells), -1))


def _int_cells(v):
    """Decimal integers, right-aligned in their field."""
    neg = v < 0
    mag = v.astype(np.uint64)
    np.negative(mag, out=mag, where=neg)   # 2^64 - (2^64 + v) = -v, exactly
    digits = int(np.searchsorted(_POW10, mag.max(), side="right")) + 1
    width = digits + bool(neg.any())

    def fill(chars):
        u = mag
        for k in range(1, digits + 1):
            q = u // np.uint64(10)
            d = (u - q * np.uint64(10)).astype(np.uint8) + np.uint8(ord("0"))
            # u == 0 past the ones digit: a leading zero, left as pad
            chars[:, width - k] = d if k == 1 else d | (u == 0) * _PAD
            u = q
        ndig = np.searchsorted(_POW10, mag[neg], side="right") + 1
        chars[neg, width - 1 - ndig] = ord("-")

    return width, fill


def _text_cells(codes):
    """Text given as a (rows, width) array of byte values, left-aligned
    and padded with zeros; the padding, the zeros after a cell's last
    nonzero byte, becomes _PAD."""
    def fill(chars):
        tail = np.ones(len(codes), bool)
        for j in reversed(range(codes.shape[1])):
            tail &= codes[:, j] == 0
            chars[:, j] = codes[:, j] | tail * _PAD

    return codes.shape[1], fill


def write_json(stream, meta: dict, columns, data):
    import json

    head = json.dumps({"meta": {k: _json_value(v) for k, v in meta.items()},
                       "columns": list(columns)})
    stream.write(head[:-1] + ', "rows": [')
    n = _table_length(data)
    for lo in range(0, n, BLOCK_ROWS):
        cols = [[_json_value(x) for x in _as_list(col[lo:lo + BLOCK_ROWS])]
                for col in data]
        rows = json.dumps(list(zip(*cols)))
        stream.write((", " if lo else "") + rows[1:-1])
    stream.write("]}\n")


def write_table(out, fmt: str, meta: dict, columns, data):
    """Emit one table to a path (or stdout when out is None).

    `columns` names the columns, and `data` holds one sequence of cells
    per column.
    """
    writer = write_json if fmt == "json" else write_csv
    with _open_out(out) as stream:
        writer(stream, meta, columns, data)


@contextmanager
def _open_out(out):
    if out is None:
        yield sys.stdout
    else:
        with open(out, "w", newline="") as fh:
            yield fh
