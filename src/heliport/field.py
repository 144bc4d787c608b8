"""Polarization-resolved emitted field intensity on spatial grids.

The positive-frequency field radiated by the excited array, projected on
the circular polarization sigma, is

    F_sigma(r) = C * sum_j G(r - r_j) . eps_sigma * a_{j sigma},
    C = sqrt(6 pi^2 Gamma_0 / (lambda_0 eps_0)),  eps_0 = 1 internal units,

and the reported intensity is I_sigma = sum_b p_b ||F_sigma^(b)||^2 over
state branches (relative units; optional normalization for plotting).
Points closer than 1e-3 lambda_0 to an emitter are masked (nan) to keep the
1/r^3 near field out of the maps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import EmitterGeometry
from .greens import EPS_DOWN, EPS_UP, GAMMA0, LAMBDA0, green_tensor

EPS0 = 1.0
FIELD_PREFACTOR = np.sqrt(6.0 * np.pi**2 * GAMMA0 / (LAMBDA0 * EPS0))
NEAR_FIELD_RADIUS = 1e-3 * LAMBDA0
_CHUNK_POINTS = 1024

_AXES = {"x": 0, "y": 1, "z": 2}


@dataclass(frozen=True)
class FieldPlane:
    """Observation plane: fixed normal_axis = offset, grid over the other two."""

    normal_axis: str            # "x", "y" or "z"
    offset: float
    u: np.ndarray               # first in-plane coordinate values
    v: np.ndarray               # second in-plane coordinate values

    def __post_init__(self):
        if self.normal_axis not in _AXES:
            raise ValueError(f"normal_axis must be one of {sorted(_AXES)}")

    @property
    def axis_labels(self) -> tuple[str, str]:
        return tuple(ax for ax in ("x", "y", "z") if ax != self.normal_axis)

    def points(self) -> np.ndarray:
        """Grid points of shape (len(u), len(v), 3)."""
        uu, vv = np.meshgrid(self.u, self.v, indexing="ij")
        pts = np.empty(uu.shape + (3,))
        i_u, i_v = (_AXES[a] for a in self.axis_labels)
        pts[..., _AXES[self.normal_axis]] = self.offset
        pts[..., i_u] = uu
        pts[..., i_v] = vv
        return pts


def default_plane(geom: EmitterGeometry, axis: str = "x",
                  offset: Optional[float] = None, n_u: int = 101, n_v: int = 201,
                  u_span: Optional[float] = None, z_pad: float = 1.2) -> FieldPlane:
    """Viewing plane normal to axis at offset (default 10 r0, with r0 the
    largest distance of an emitter from the z axis).

    The first in-plane coordinate spans u_span (default 6 r0), centred on
    the helix axis.  For the side views axis = "x" (y-z plane) and "y" (x-z
    plane) the second spans z_pad x the z extent of the emitters (at least
    0.1 lambda_0); for the top view axis = "z" (x-y plane) both in-plane
    coordinates are transverse and span u_span.
    """
    radial = np.linalg.norm(geom.positions[:, :2], axis=1).max()
    if radial == 0.0:
        radial = 0.05  # axial chain: fall back to a nominal viewing distance
    if offset is None:
        offset = 10.0 * radial
    if u_span is None:
        u_span = 6.0 * radial
    if axis == "z":
        v = np.linspace(-0.5 * u_span, 0.5 * u_span, n_v)
    else:
        z = geom.z
        z_mid = 0.5 * (z.min() + z.max())
        z_half = 0.5 * max(z_pad * (z.max() - z.min()), 0.1 * LAMBDA0)
        v = np.linspace(z_mid - z_half, z_mid + z_half, n_v)
    return FieldPlane(
        normal_axis=axis,
        offset=float(offset),
        u=np.linspace(-0.5 * u_span, 0.5 * u_span, n_u),
        v=v,
    )


def _dipole_fields(positions: np.ndarray, pts_flat: np.ndarray):
    """Yield (slice, dip_up, dip_down, near_mask) per chunk of grid points.

    dip_* has shape (chunk, N, 3): the Green's tensor applied to the
    polarization vector for every point-emitter pair.
    """
    for lo in range(0, len(pts_flat), _CHUNK_POINTS):
        chunk = pts_flat[lo:lo + _CHUNK_POINTS]
        sep = chunk[:, None, :] - positions[None, :, :]
        dist = np.linalg.norm(sep, axis=-1)
        near = (dist < NEAR_FIELD_RADIUS).any(axis=1)
        safe = sep.copy()
        safe[dist < NEAR_FIELD_RADIUS] = [LAMBDA0, 0.0, 0.0]  # placeholder, masked later
        g = green_tensor(safe)
        dip_up = g @ EPS_UP
        dip_down = g @ EPS_DOWN
        yield slice(lo, lo + len(chunk)), dip_up, dip_down, near


def field_amplitude(amplitudes: np.ndarray, geom: EmitterGeometry, points,
                    spin: int) -> np.ndarray:
    """F_sigma at the given points for one amplitude vector; masked -> nan.

    spin: 0 (up) or 1 (down).  points may be any (..., 3) array; the result
    has shape (..., 3).
    """
    if spin not in (0, 1):
        raise ValueError("spin must be 0 (up) or 1 (down)")
    pts = np.asarray(points, dtype=float)
    shape = pts.shape[:-1]
    pts_flat = pts.reshape(-1, 3)
    a_spin = np.asarray(amplitudes, dtype=complex).reshape(geom.n_sites, 2)[:, spin]
    out = np.empty((len(pts_flat), 3), dtype=complex)
    for sl, dip_up, dip_down, near in _dipole_fields(geom.positions, pts_flat):
        dip = dip_up if spin == 0 else dip_down
        f = FIELD_PREFACTOR * np.einsum("pja,j->pa", dip, a_spin)
        f[near] = np.nan
        out[sl] = f
    return out.reshape(shape + (3,))


@dataclass
class FieldMap:
    plane: FieldPlane
    time: float
    i_up: np.ndarray            # (n_u, n_v), nan at masked points
    i_down: np.ndarray
    norm_max: dict              # pre-normalization maxima {"up": .., "down": ..}
    normalize: str              # "none" | "global" | "per_map"
    n_masked: int


def intensity_map(weights, branch_amplitudes, geom: EmitterGeometry,
                  plane: FieldPlane, time: float = 0.0,
                  normalize: str = "none") -> FieldMap:
    """Branch-weighted intensities I_up, I_down on the plane at one time.

    weights / branch_amplitudes describe the mixed state at this time (one
    amplitude vector of length 2N per branch).  normalize: "none" keeps the
    raw values, "global" scales both polarizations by their common maximum,
    "per_map" scales each polarization by its own maximum.
    """
    if normalize not in ("none", "global", "per_map"):
        raise ValueError(f"unknown normalization mode {normalize!r}")
    pts = plane.points()
    pts_flat = pts.reshape(-1, 3)
    n = geom.n_sites
    amp = [np.asarray(a, dtype=complex).reshape(n, 2) for a in branch_amplitudes]
    i_up = np.zeros(len(pts_flat))
    i_down = np.zeros(len(pts_flat))
    n_masked = 0
    for sl, dip_up, dip_down, near in _dipole_fields(geom.positions, pts_flat):
        for w, a in zip(weights, amp):
            f_up = np.einsum("pja,j->pa", dip_up, a[:, 0])
            f_down = np.einsum("pja,j->pa", dip_down, a[:, 1])
            i_up[sl] += w * np.einsum("pa,pa->p", f_up.conj(), f_up).real
            i_down[sl] += w * np.einsum("pa,pa->p", f_down.conj(), f_down).real
        if near.any():
            i_up[sl][near] = np.nan
            i_down[sl][near] = np.nan
            n_masked += int(near.sum())
    i_up = (FIELD_PREFACTOR**2 * i_up).reshape(pts.shape[:-1])
    i_down = (FIELD_PREFACTOR**2 * i_down).reshape(pts.shape[:-1])
    norm_max = {"up": float(np.nanmax(i_up)), "down": float(np.nanmax(i_down))}
    if normalize == "global":
        scale = max(norm_max["up"], norm_max["down"])
        if scale > 0:
            i_up = i_up / scale
            i_down = i_down / scale
    elif normalize == "per_map":
        for arr, key in ((i_up, "up"), (i_down, "down")):
            if norm_max[key] > 0:
                arr /= norm_max[key]
    return FieldMap(plane=plane, time=time, i_up=i_up, i_down=i_down,
                    norm_max=norm_max, normalize=normalize, n_masked=n_masked)
