"""Polarization-resolved emitted field intensity on spatial grids.

The positive-frequency field radiated by the excited array, projected on
the circular polarization sigma, is

    F_sigma(r) = C * sum_j G(r - r_j) . eps_sigma * a_{j sigma},
    C = sqrt(6 pi^2 Gamma_0 / (lambda_0 eps_0)),  eps_0 = 1 internal units,

and the reported intensity is I_sigma = sum_b p_b ||F_sigma^(b)||^2 over
state branches (relative units; optional normalization for plotting).
Points closer than 1e-3 lambda_0 to an emitter are masked (nan) to keep the
1/r^3 near field out of the maps.

With G(r) = pa * 1 - s * r r^T from greens._green_factors (r the raw
separation, pa and s functions of |r|^2 only) and eps_sigma in the x-y
plane, each Cartesian component c of the field is

    F_c = eps_c * (pa @ A) - Q_cx @ (eps_x A) - Q_cy @ (eps_y A),
    Q_cd = s r_c r_d,

so five Q_cd (xx, xy, yy, zx, zy) and pa are all of G a field map needs;
neither the 3x3 tensor nor K_sigma = G . eps_sigma is formed, and no unit
vector is.  |r|^2 is computed once per point-emitter pair and serves both
the near-field mask and the factors.  The factors are evaluated once per
chunk of plane points (about _KERNEL_PAIRS point-emitter pairs, so the
chunk shrinks as N grows), the Q_cd into one preallocated array, and
applied to the amplitudes of both spins at every (time, branch) side by
side, one column each: intensity_maps is a single pass over the plane
whatever the number of times.
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
_KERNEL_PAIRS = 1024 * 16   # point-emitter pairs per kernel chunk (~3 MB of factors)

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


def _field_kernel(positions: np.ndarray, pts: np.ndarray, q: np.ndarray):
    """(pa, near) for one chunk of points; fills q in place.

    pa[p, j] and q[i, p, j] = s * r_c r_d are the factors of G(r) at
    r = pts[p] - r_j, for (c, d) = xx, xy, yy, zx, zy in that order; q is a
    preallocated complex array of shape (5, len(pts), len(positions)).  near
    flags the points closer than NEAR_FIELD_RADIUS to an emitter; their
    separations get a placeholder and the caller masks them.
    """
    x, y, z = (pts[:, c, None] - positions[:, c] for c in range(3))
    r2 = x * x + y * y + z * z
    close = r2 < NEAR_FIELD_RADIUS**2
    if close.any():
        x[close], y[close], z[close], r2[close] = LAMBDA0, 0.0, 0.0, LAMBDA0**2
    pa, s = _green_factors(r2)
    for out, c, d in zip(q, (x, x, y, z, z), (x, y, y, x, y)):
        np.multiply(c, d, out=out)
    q *= s
    return pa, close.any(axis=1)


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
    at times[t], e.g. Propagator.propagate(a0s, times) for the (B, 2N) stack
    a0s of launch branches; weights[b] is the branch's probability.  The
    factors of G are evaluated once per chunk of plane points and applied
    to every (time, branch) column of both spins (module docstring).
    normalize: "none" keeps the raw values, "global" scales both
    polarizations of a time by their common maximum, "per_map" scales each
    map by its own maximum.
    """
    if normalize not in ("none", "global", "per_map"):
        raise ValueError(f"unknown normalization mode {normalize!r}")
    pts = plane.points()
    pts_flat = pts.reshape(-1, 3)
    w = np.asarray(weights, dtype=float)
    n, n_t, n_b = geom.n_sites, len(times), len(w)
    # a0[j, (s * n_t + t) * n_b + b] = a_{j s} of branch b at time t
    amps = np.asarray(branch_amplitudes, dtype=complex).reshape(n_b, n_t, n, 2)
    a0 = amps.transpose(2, 3, 1, 0).reshape(n, 2 * n_t * n_b)
    # eps_x and eps_y of each column's spin (eps_sigma has no z component)
    ex, ey = np.repeat(np.array(POLARIZATION)[:, :2], n_t * n_b, axis=0).T
    ax, ay = a0 * ex, a0 * ey
    maps = np.zeros((2, n_t, len(pts_flat)))
    near = np.zeros(len(pts_flat), dtype=bool)
    step = _chunk_points(n)
    q_buf = np.empty((5, step, n), dtype=complex)
    for lo in range(0, len(pts_flat), step):
        sl = slice(lo, lo + step)
        q = q_buf[:, :len(pts_flat[sl])]
        pa, near[sl] = _field_kernel(geom.positions, pts_flat[sl], q)
        qxx, qxy, qyy, qzx, qzy = q
        f0 = pa @ a0
        fx = ex * f0 - qxx @ ax - qxy @ ay
        fy = ey * f0 - qxy @ ax - qyy @ ay
        fz = -(qzx @ ax) - qzy @ ay
        power = sum(f.real**2 + f.imag**2 for f in (fx, fy, fz))
        maps[:, :, sl] = (power.reshape(-1, 2, n_t, n_b) @ w).transpose(1, 2, 0)
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
