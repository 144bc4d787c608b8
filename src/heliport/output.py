"""Format-only writers for all run products: one CSV table writer, one JSON writer.

A table is a header and equal-length numeric columns, written in 4096-row
blocks as csv.writer writes them (cells by repr, no quoting, CRLF row ends):
re-running a config reproduces every output byte for byte.
"""

from __future__ import annotations

import json

import numpy as np


def write_csv(path, header, columns) -> None:
    """One row per index of the columns, below a header row."""
    cols = [np.asarray(c) for c in columns]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for lo in range(0, len(cols[0]), 4096):
            rows = zip(*(map(repr, c[lo:lo + 4096].tolist()) for c in cols))
            fh.write("".join(",".join(r) + "\r\n" for r in rows))


def write_json(path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
