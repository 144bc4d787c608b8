"""Format-only writers for all run products: one CSV writer for all of a
run's tables, one JSON writer.

A table is a path, a header and equal-length numeric columns, written as
csv.writer writes them (cells by repr, no quoting, CRLF row ends):
re-running a config reproduces every output byte for byte.  write_tables
steps through all tables together in BLOCK_ROWS-row blocks.  In each block
it formats every distinct column object once, whichever tables (or places
in one table) hold it, and writes the block's rows to every open file; so
the field maps' shared u/v columns are formatted once per run.  A
formatted block is dropped once the last file that uses it in that block
is written, so memory stays one block of the shared columns plus one of the
table being written, whatever the table lengths.  Tables may differ in
length.  At most MAX_OPEN_FILES files are open at once; a run with more
tables is written in groups of that many.
"""

from __future__ import annotations

import collections
import contextlib
import json

import numpy as np

BLOCK_ROWS = 4096
MAX_OPEN_FILES = 32


def write_tables(tables) -> None:
    """Write each (path, header, columns) table: a header row, then one row
    per index of its columns."""
    # every column stays referenced until the last group is written, so no
    # two distinct columns share an id
    tables = [(path, header, [np.asarray(c) for c in columns])
              for path, header, columns in tables]
    for first in range(0, len(tables), MAX_OPEN_FILES):
        group = tables[first:first + MAX_OPEN_FILES]
        # a table has as many rows as its shortest column, as zip gives csv.writer
        lengths = [min(map(len, cols)) for _, _, cols in group]
        with contextlib.ExitStack() as stack:
            files = [stack.enter_context(open(path, "w", newline="")) for path, _, _ in group]
            for fh, (_, header, _) in zip(files, group):
                fh.write(",".join(header) + "\r\n")
            for lo in range(0, max(lengths), BLOCK_ROWS):
                live = [(fh, cols) for fh, (_, _, cols), n_rows in zip(files, group, lengths)
                        if lo < n_rows]
                # a formatted block is dropped after its last use in this block
                uses = collections.Counter(id(c) for _, cols in live for c in cols)
                cells = {}          # id of a column -> this block of it, formatted
                for fh, cols in live:
                    for c in cols:
                        if id(c) not in cells:
                            cells[id(c)] = list(map(repr, c[lo:lo + BLOCK_ROWS].tolist()))
                    fh.write("\r\n".join(map(",".join, zip(*(cells[id(c)] for c in cols))))
                             + "\r\n")
                    for c in cols:
                        uses[id(c)] -= 1
                        if not uses[id(c)]:
                            del cells[id(c)]


def write_json(path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
