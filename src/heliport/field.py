"""Polarization-resolved emitted field intensity on spatial grids.

The positive-frequency field radiated by the excited array, projected on
the circular polarization sigma, is

    F_sigma(r) = C * sum_j G(r - r_j) . eps_sigma * a_{j sigma},
    C = sqrt(6 pi^2 Gamma_0 / (lambda_0 eps_0)),  eps_0 = 1 internal units,

and the reported intensity is I_sigma = sum_b p_b ||F_sigma^(b)||^2 over
state branches (relative units; optional normalization for plotting).
Points closer than 1e-3 lambda_0 to an emitter are masked (nan) to keep the
1/r^3 near field out of the maps.

The kernel K_sigma(p, j) = G(r_p - r_j) . eps_sigma is built in closed form,
pref * [a eps_sigma - b rhat (rhat . eps_sigma)], from the scalar factors of
greens._green_factors, without forming the 3x3 tensor.  It is evaluated once
per chunk of plane points (about _KERNEL_PAIRS point-emitter pairs, so the
chunk shrinks as N grows), and one matrix product per chunk,
K.reshape(2, 3 * chunk, N) @ A with a column of A per (time, branch), gives
the field of every time and branch at once: intensity_maps is a single pass
over the plane whatever the number of times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import EmitterGeometry
from .greens import GAMMA0, LAMBDA0, POLARIZATION, _green_factors

EPS0 = 1.0
FIELD_PREFACTOR = np.sqrt(6.0 * np.pi**2 * GAMMA0 / (LAMBDA0 * EPS0))
NEAR_FIELD_RADIUS = 1e-3 * LAMBDA0
_KERNEL_PAIRS = 1024 * 60   # point-emitter pairs per kernel chunk (~3 MB per spin)

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


def _chunk_points(n_sites: int) -> int:
    """Plane points per kernel chunk: about _KERNEL_PAIRS point-emitter pairs."""
    return max(1, _KERNEL_PAIRS // n_sites)


def _field_kernel(positions: np.ndarray, pts: np.ndarray):
    """(K, near) for one chunk of points.

    K has shape (2, len(pts), 3, N): K[s, p, :, j] = G(pts[p] - r_j) . eps_s
    in closed form, pref * [a eps_s - b rhat (rhat . eps_s)].  near flags the
    points closer than NEAR_FIELD_RADIUS to an emitter; their separations get
    a placeholder and the caller masks them.
    """
    sep = pts[:, None, :] - positions[None, :, :]
    close = np.linalg.norm(sep, axis=-1) < NEAR_FIELD_RADIUS
    sep[close] = [LAMBDA0, 0.0, 0.0]
    pref, a, b, rhat = _green_factors(sep)
    eps = np.array(POLARIZATION)                       # (2, 3)
    pb_proj = (pref * b)[..., None] * (rhat @ eps.T)   # (points, N, 2)
    k = ((pref * a)[None, :, None, :] * eps[:, None, :, None]
         - pb_proj.transpose(2, 0, 1)[:, :, None, :] * rhat.transpose(0, 2, 1)[None])
    return k, close.any(axis=1)


def _kernel_chunks(positions: np.ndarray, pts_flat: np.ndarray):
    """Yield (slice, K, near) of _field_kernel over chunks of the points."""
    step = _chunk_points(len(positions))
    for lo in range(0, len(pts_flat), step):
        k, near = _field_kernel(positions, pts_flat[lo:lo + step])
        yield slice(lo, lo + len(near)), k, near


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
    for sl, k, near in _kernel_chunks(geom.positions, pts_flat):
        f = FIELD_PREFACTOR * (k[spin] @ a_spin)
        f[near] = np.nan
        out[sl] = f
    return out.reshape(shape + (3,))


@dataclass
class FieldMap:
    time: float
    i_up: np.ndarray            # (n_u, n_v), nan at masked points
    i_down: np.ndarray
    norm_max: dict              # pre-normalization maxima {"up": .., "down": ..}
    n_masked: int


def intensity_maps(weights, branch_amplitudes, geom: EmitterGeometry,
                   plane: FieldPlane, times, normalize: str = "none") -> list[FieldMap]:
    """Branch-weighted intensities I_up, I_down on the plane at every time.

    branch_amplitudes[b][t] is the amplitude vector (length 2N) of branch b
    at times[t], e.g. Propagator.propagate(a0_b, times); weights[b] is the
    branch's probability.  The kernel is evaluated once per chunk of plane
    points, and one matrix product per chunk applies it to every (time,
    branch) column of both spins.  normalize: "none" keeps the raw values,
    "global" scales both polarizations of a time by their common maximum,
    "per_map" scales each map by its own maximum.
    """
    if normalize not in ("none", "global", "per_map"):
        raise ValueError(f"unknown normalization mode {normalize!r}")
    pts = plane.points()
    pts_flat = pts.reshape(-1, 3)
    n, n_t = geom.n_sites, len(times)
    w = np.asarray(weights, dtype=float)
    # amps[s, j, t * n_b + b] = a_{j s} of branch b at time t
    amps = np.asarray(branch_amplitudes, dtype=complex).reshape(len(w), n_t, n, 2)
    amps = amps.transpose(3, 2, 1, 0).reshape(2, n, n_t * len(w))
    maps = np.zeros((2, n_t, len(pts_flat)))
    near = np.zeros(len(pts_flat), dtype=bool)
    for sl, k, near_chunk in _kernel_chunks(geom.positions, pts_flat):
        near[sl] = near_chunk
        f = (k.reshape(2, -1, n) @ amps).reshape(2, -1, 3, n_t, len(w))
        maps[:, :, sl] = ((f.real**2 + f.imag**2).sum(axis=2) @ w).transpose(0, 2, 1)
    maps[:, :, near] = np.nan
    maps = (FIELD_PREFACTOR**2 * maps).reshape((2, n_t) + pts.shape[:-1])
    n_masked = int(near.sum())

    out = []
    for t, (i_up, i_down) in zip(times, maps.transpose(1, 0, 2, 3)):
        # np.nanmax without its all-NaN warning; the caller reports NaN maps
        norm_max = {"up": float(np.fmax.reduce(i_up, axis=None)),
                    "down": float(np.fmax.reduce(i_down, axis=None))}
        if normalize == "global":
            scale = max(norm_max["up"], norm_max["down"])
            if scale > 0:
                i_up = i_up / scale
                i_down = i_down / scale
        elif normalize == "per_map":
            if norm_max["up"] > 0:
                i_up = i_up / norm_max["up"]
            if norm_max["down"] > 0:
                i_down = i_down / norm_max["down"]
        out.append(FieldMap(time=float(t), i_up=i_up, i_down=i_down,
                            norm_max=norm_max, n_masked=n_masked))
    return out


def intensity_map(weights, branch_amplitudes, geom: EmitterGeometry,
                  plane: FieldPlane, time: float = 0.0,
                  normalize: str = "none") -> FieldMap:
    """intensity_maps at one time: one amplitude vector of length 2N per branch."""
    return intensity_maps(weights, [[a] for a in branch_amplitudes], geom, plane,
                          [time], normalize)[0]
