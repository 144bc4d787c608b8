"""Emitter geometries: helices, arbitrary point sets, and rigid symmetry ops.

All lengths are in units of the transition wavelength lambda_0 (= 1
internally).  A helix is parameterized by its radius r0, pitch a (rise per
full 2*pi turn), the number of sites per turn, the number of turns, and a
handedness label xi in {+1, -1}.  Site n sits at

    ( r0*cos(phi_n), -xi*r0*sin(phi_n), n*a/n_per_turn ),   phi_n = 2*pi*n/n_per_turn,

so xi = +1 winds clockwise when viewed from +z while rising: a left-handed
screw.  xi = -1 gives the mirror image (y -> -y), a right-handed screw.
Only the relative handedness matters physically; the label convention is
fixed here once and used consistently everywhere.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

MIN_SEPARATION = 1e-9  # coincidence threshold for emitter pairs, units of lambda_0
SCAN_PAIRS = 1 << 16   # candidate pairs per block of the coincidence sweep


def is_number(x) -> bool:
    """A finite int or float (not a bool), as a JSON number parses."""
    try:
        return not isinstance(x, bool) and math.isfinite(x)
    except (TypeError, OverflowError):   # not a number, or an int beyond float range
        return False


@dataclass(frozen=True)
class HelixParams:
    """Helix description: radius, pitch, sites per turn, turns, handedness."""

    radius: float
    pitch: float
    sites_per_turn: int
    turns: int
    handedness: int = +1

    def validation_errors(self) -> list[str]:
        errs = []
        if not self.radius > 0:
            errs.append("radius must be positive")
        if not self.pitch > 0:
            errs.append("pitch must be positive")
        if not (isinstance(self.sites_per_turn, (int, np.integer)) and self.sites_per_turn >= 1):
            errs.append("sites_per_turn must be an integer >= 1")
        if not (isinstance(self.turns, (int, np.integer)) and self.turns >= 1):
            errs.append("turns must be an integer >= 1")
        if self.handedness not in (+1, -1):
            errs.append("handedness must be +1 or -1")
        return errs

    @property
    def n_sites(self) -> int:
        return self.sites_per_turn * self.turns


@dataclass(frozen=True)
class EmitterGeometry:
    """Ordered emitter positions (N, 3) and a descriptive label."""

    positions: np.ndarray
    label: str = ""

    def __post_init__(self):
        pos = np.ascontiguousarray(np.asarray(self.positions, dtype=float))
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise ValueError(f"positions must have shape (N, 3), got {pos.shape}")
        if pos.shape[0] < 1:
            raise ValueError("geometry needs at least one emitter")
        bad = coincident_pairs(pos)
        if bad:
            raise ValueError(f"coincident emitter pairs (distance < {MIN_SEPARATION}): {bad}")
        pos.flags.writeable = False
        object.__setattr__(self, "positions", pos)

    @property
    def n_sites(self) -> int:
        return self.positions.shape[0]

    @property
    def z(self) -> np.ndarray:
        return self.positions[:, 2]


def coincident_pairs(positions: np.ndarray) -> list[tuple[int, int]]:
    """Return index pairs (i, j), i < j, closer than MIN_SEPARATION, in
    row-major order (empty list if none).  A sort-and-sweep: with the sites
    sorted by z, each is compared only with the later ones inside its z
    window (2 MIN_SEPARATION wide, so rounding of the window edge loses no
    pair), O(N log N) for sites spread in z.  The candidates are taken in
    blocks of about SCAN_PAIRS, so memory stays O(N + SCAN_PAIRS) beside the
    pairs found, however many sites share a z."""
    order = np.argsort(positions[:, 2], kind="stable")
    pos = positions[order]
    n = len(pos)
    ends = np.searchsorted(pos[:, 2], pos[:, 2] + 2 * MIN_SEPARATION, side="right")
    counts = ends - np.arange(n) - 1
    before = np.concatenate([[0], np.cumsum(counts)])     # candidates ahead of each site
    found = [np.empty((2, 0), dtype=np.intp)]
    start = 0
    while start < n:
        stop = max(start + 1, int(np.searchsorted(before, before[start] + SCAN_PAIRS,
                                                  side="right")) - 1)
        rows = np.repeat(np.arange(start, stop), counts[start:stop])
        cols = rows + 1 + np.arange(len(rows)) - np.repeat(before[start:stop] - before[start],
                                                           counts[start:stop])
        close = np.linalg.norm(pos[rows] - pos[cols], axis=-1) < MIN_SEPARATION
        found.append(np.sort(order[[rows[close], cols[close]]], axis=0))
        start = stop
    i, j = np.concatenate(found, axis=1)
    row_major = np.lexsort((j, i))
    return list(zip(i[row_major].tolist(), j[row_major].tolist()))


def helix_positions(params: HelixParams) -> np.ndarray:
    """Helix site positions (n_sites, 3) by increasing z, without
    EmitterGeometry's coincidence scan."""
    errs = params.validation_errors()
    if errs:
        raise ValueError("invalid helix parameters: " + "; ".join(errs))
    n = np.arange(params.n_sites)
    phi = 2 * np.pi * n / params.sites_per_turn
    return np.stack(
        [
            params.radius * np.cos(phi),
            -params.handedness * params.radius * np.sin(phi),
            n * params.pitch / params.sites_per_turn,
        ],
        axis=1,
    )


def build_helix(params: HelixParams) -> EmitterGeometry:
    """Helix geometry from helix_positions."""
    hand = "left" if params.handedness == +1 else "right"
    return EmitterGeometry(helix_positions(params), label=f"{hand}-handed helix")


def mirror_xz(geom: EmitterGeometry) -> EmitterGeometry:
    """Reflect through the x-z plane (y -> -y).

    For a helix this flips the handedness: the reflected point set matches
    build_helix with xi -> -xi coordinate for coordinate.
    """
    pos = geom.positions.copy()
    pos[:, 1] = -pos[:, 1]
    return EmitterGeometry(pos, label=geom.label + " (mirrored)")


def rotate_about_z(geom: EmitterGeometry, delta: float) -> EmitterGeometry:
    """Rigidly rotate all positions by angle delta about the z axis."""
    c, s = np.cos(delta), np.sin(delta)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    return EmitterGeometry(geom.positions @ rot.T, label=geom.label)


def load_geometry_file(path) -> EmitterGeometry:
    """Load an arbitrary point set from JSON: {"positions": [[x,y,z],...], "label": str}."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: geometry file is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError(f"{path}: geometry file must contain a JSON object")
    unknown = set(data) - {"positions", "label"}
    if unknown:
        raise ValueError(f"{path}: unknown geometry keys {sorted(unknown)}")
    if "positions" not in data:
        raise ValueError(f"{path}: missing required key 'positions'")
    pos = data["positions"]
    if not (isinstance(pos, list) and pos
            and all(isinstance(p, list) and len(p) == 3 for p in pos)):
        raise ValueError(f"{path}: positions must be a list of [x, y, z] triples")
    if not all(is_number(x) for p in pos for x in p):
        raise ValueError(f"{path}: positions must be finite numbers, "
                         "not strings, booleans or null")
    label = data.get("label", "")
    if not isinstance(label, str):
        raise ValueError(f"{path}: label must be a string")
    return EmitterGeometry(np.array(pos, dtype=float), label=label)
