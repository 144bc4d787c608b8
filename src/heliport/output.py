"""Format-only writers for all run products: one CSV table writer, one JSON writer.

A table is a header and equal-length columns.  Floats are written with repr
(shortest round-trip) and integer columns as integers, so re-running a config
reproduces every output byte for byte.  Undefined helicity is written as nan
to keep the column numeric.
"""

from __future__ import annotations

import csv
import json

import numpy as np


def write_csv(path, header, columns) -> None:
    """One row per index of the columns, below a header row."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(zip(*(np.asarray(c).tolist() for c in columns)))


def write_json(path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
