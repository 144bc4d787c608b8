"""Format-only writers for all run products: one CSV writer, one JSON writer.

A table is a path, a header and columns, written as csv.writer writes them
(cells by repr, no quoting, CRLF row ends): re-running a config reproduces
every output byte for byte.  write_tables writes one table at a time, in
BLOCK_ROWS-row blocks, so memory holds one formatted block of the table it
is writing, whatever the table lengths.  A table has as many rows as its
shortest column.  A column that repeats a short axis (a field map's in-plane
coordinates, the snapshots' site and z, the matrix dumps' row and col) is
built from cells(axis): the axis is formatted once, and the writer writes
those object cells as they are.
"""

from __future__ import annotations

import json

import numpy as np

BLOCK_ROWS = 4096


def cells(values) -> np.ndarray:
    """The writer's text of each value, as an object array to repeat or tile
    into table columns.  A non-finite value raises FloatingPointError: the
    numeric columns are checked before writing, these cells as they are
    made."""
    values = np.asarray(values)
    if not np.isfinite(values).all():
        raise FloatingPointError("non-finite value in a table axis")
    return np.array(list(map(repr, values.tolist())), dtype=object)


def write_tables(tables) -> None:
    """Write each (path, header, columns) table: a header row, then one row
    per index of its columns."""
    for path, header, columns in tables:
        columns = [np.asarray(c) for c in columns]
        n_rows = min(map(len, columns))
        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + "\r\n")
            for lo in range(0, n_rows, BLOCK_ROWS):
                block = [c[lo:lo + BLOCK_ROWS].tolist() for c in columns]
                text = (b if c.dtype == object else map(repr, b)
                        for c, b in zip(columns, block))
                fh.write("\r\n".join(map(",".join, zip(*text))) + "\r\n")


def write_json(path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
