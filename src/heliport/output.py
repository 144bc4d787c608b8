"""Deterministic CSV/JSON writers for all run products.

Floats are written with repr (shortest round-trip), so re-running a config
reproduces every output byte for byte.  Undefined helicity is written as
nan to keep the column numeric.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .bloch import BandStructure
from .dynamics import ObservableSeries
from .field import FieldMap
from .geometry import EmitterGeometry


def _fmt(x) -> str:
    return repr(float(x))


def write_timeseries_csv(path, series: ObservableSeries) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "trace", "P_up", "P_down", "Sz", "z_com", "eta"])
        for i, t in enumerate(series.times):
            w.writerow([_fmt(t), _fmt(series.trace[i]), _fmt(series.p_up[i]),
                        _fmt(series.p_down[i]), _fmt(series.sz[i]),
                        _fmt(series.z_com[i]), _fmt(series.eta[i])])


def write_snapshot_csv(path, geom: EmitterGeometry, per_site: np.ndarray) -> None:
    """Per-site populations at one time; per_site has shape (N, 2)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["site", "z", "p_up", "p_down"])
        for i in range(geom.n_sites):
            w.writerow([i, _fmt(geom.z[i]), _fmt(per_site[i, 0]), _fmt(per_site[i, 1])])


def write_bands_csv(path, bands: BandStructure) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["k", "band", "energy", "gamma", "sz", "v", "in_light_cone"])
        for i, k in enumerate(bands.k):
            for n in range(bands.n_bands):
                w.writerow([_fmt(k), n, _fmt(bands.energies[i, n]),
                            _fmt(bands.gammas[i, n]), _fmt(bands.sz[i, n]),
                            _fmt(bands.velocities[i, n]),
                            int(bands.in_light_cone[i])])


def write_zak_json(path, records: list[dict]) -> None:
    with open(path, "w") as fh:
        json.dump(records, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_field_csv(path, fmap: FieldMap, spin: str) -> None:
    """One polarization map; spin is "up" or "down"."""
    labels = fmap.plane.axis_labels
    grid = {"up": fmap.i_up, "down": fmap.i_down}[spin]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([labels[0], labels[1], "intensity"])
        for i, u in enumerate(fmap.plane.u):
            for j, v in enumerate(fmap.plane.v):
                w.writerow([_fmt(u), _fmt(v), _fmt(grid[i, j])])


def write_matrix_csv(path, matrix: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["row", "col", "re", "im"])
        for r in range(matrix.shape[0]):
            for c in range(matrix.shape[1]):
                w.writerow([r, c, _fmt(matrix[r, c].real), _fmt(matrix[r, c].imag)])


def write_json(path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_manifest(out_dir, payload: dict) -> Path:
    path = Path(out_dir) / "manifest.json"
    write_json(path, payload)
    return path
