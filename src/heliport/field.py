"""Polarization-resolved emitted field intensity on spatial grids.

The positive-frequency field radiated by the excited array, projected on
the circular polarization sigma, is

    F_sigma(r) = C * sum_j G(r - r_j) . eps_sigma * a_{j sigma},
    C = sqrt(6 pi^2 Gamma_0 / (lambda_0 eps_0)),  eps_0 = 1 internal units,

and the reported intensity is I_sigma = sum_b p_b ||F_sigma^(b)||^2 over
state branches (relative units; optional normalization for plotting).
Points closer than 1e-3 lambda_0 to an emitter are masked (nan) to keep the
1/r^3 near field out of the maps.

In circular components F_+ = eps_up^dag F, F_- = eps_down^dag F and F_z
(||F||^2 is the sum of their squared moduli), with G(r) = pa * 1 - s r r^T
from greens._green_factors and w = x + i y of the separation, spin up's
amplitudes A radiate

    F_+ = K0 @ A,  F_- = -(s w^2/2) @ A,  F_z = -(s z w/sqrt2) @ A,
    K0 = pa - s |w|^2/2,

and spin down's the same with w -> conj(w) and F_+ <-> F_-.  These five
kernels are all of G a map needs.  One buffer, reused by every chunk of
about _KERNEL_PAIRS point-emitter pairs, holds them in the order s w^2/2,
s z w/sqrt2, K0, s conj(w)^2/2, s z conj(w)/sqrt2, and then one scratch
slot: its first three are spin up's stack and its next three spin down's,
each applied by one product to that spin's amplitudes at every (time,
branch), one column each.  The kernel and greens._green_factors work in the
planes of that buffer, so a chunk allocates no array of its size (with a
fresh one per chunk the allocator hands the pages back and faults them in
again every chunk), and intensity_maps is a single pass over the plane whatever the number of
times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import EmitterGeometry
from .greens import GAMMA0, LAMBDA0, _green_factors

EPS0 = 1.0
FIELD_PREFACTOR = np.sqrt(6.0 * np.pi**2 * GAMMA0 / (LAMBDA0 * EPS0))
NEAR_FIELD_RADIUS = 1e-3 * LAMBDA0
_KERNEL_PAIRS = 1024 * 16   # point-emitter pairs per chunk (a 1.6 MB buffer, 1.7 MB in all)

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


def _field_kernel(positions: np.ndarray, pts: np.ndarray, k: np.ndarray):
    """Fills k[:5] of k (complex, (6, len(pts), len(positions))) with the
    five kernels (module docstring) at r = pts[p] - r_j, k[5] being scratch;
    returns the points closer than NEAR_FIELD_RADIUS to an emitter, whose
    separations get a placeholder for the caller to mask."""
    # the memory of k[1], k[4] and k[0] as pairs of contiguous real planes,
    # free until those kernels are filled
    halves = k.view(float).reshape(len(k), 2, *k.shape[1:])
    (x, y), (z, rho2), r2 = halves[1], halves[4], halves[0, 0]
    for c, out in enumerate((x, y, z)):
        np.subtract(pts[:, c, None], positions[:, c], out=out)
    np.square(x, out=rho2)
    rho2 += np.square(y, out=r2)
    np.square(z, out=r2)
    r2 += rho2
    close = r2 < NEAR_FIELD_RADIUS**2
    near = close.any(axis=1)
    if near.any():
        x[close], y[close], z[close], rho2[close], r2[close] = (LAMBDA0, 0.0, 0.0,
                                                                LAMBDA0**2, LAMBDA0**2)
    w = k[5]                                          # x + i y
    w.real, w.imag = x, y
    _, s = _green_factors(r2, out=k[2:4])             # pa in k[2], s in k[3]
    # complex times real part by part: a mixed-type ufunc allocates a buffer
    rho2 *= 0.5
    np.multiply(s.real, rho2, out=k[1].real)
    np.multiply(s.imag, rho2, out=k[1].imag)
    k[2] -= k[1]                                      # pa - s |w|^2/2
    z *= np.sqrt(0.5)
    np.multiply(s.real, z, out=k[1].real)
    np.multiply(s.imag, z, out=k[1].imag)
    np.conj(w, out=k[4])
    k[4] *= k[1]                                      # s z conj(w)/sqrt2
    k[1] *= w                                         # s z w/sqrt2
    np.square(w, out=w)
    w *= 0.5
    np.multiply(s, w, out=k[0])                       # s w^2/2
    k[3] *= np.conj(w, out=w)                         # s conj(w)^2/2
    return near


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
    five kernels are evaluated once per chunk of plane points and applied
    to every (time, branch) column of their spin (module docstring).
    normalize: "none" keeps the raw values, "global" scales both
    polarizations of a time by their common maximum, "per_map" scales each
    map by its own maximum.
    """
    if normalize not in ("none", "global", "per_map"):
        raise ValueError(f"unknown normalization mode {normalize!r}")
    pts = plane.points()
    pts_flat = pts.reshape(-1, 3)
    p = np.asarray(weights, dtype=float)
    n, n_t, n_b = geom.n_sites, len(times), len(p)
    # a[s][j, t * n_b + b] = sqrt(p_b) a_{j s} of branch b at time t
    amps = np.asarray(branch_amplitudes, dtype=complex).reshape(n_b, n_t, n, 2)
    a = (np.sqrt(p)[:, None, None, None] * amps).transpose(3, 2, 1, 0).reshape(2, n, -1)
    maps = np.zeros((2, n_t, len(pts_flat)))
    near = np.zeros(len(pts_flat), dtype=bool)
    step = _chunk_points(n)
    k_buf = np.empty(6 * step * n, dtype=complex)
    for lo in range(0, len(pts_flat), step):
        sl = slice(lo, lo + step)
        m = len(pts_flat[sl])
        k = k_buf[:6 * m * n].reshape(6, m, n)
        near[sl] = _field_kernel(geom.positions, pts_flat[sl], k)
        # F_-, F_z, F_+ of spin up from k[:3]; F_-, F_+, F_z of spin down from k[2:5]
        for spin, stack in enumerate((k[:3], k[2:5])):
            f = (stack.reshape(3 * m, n) @ a[spin]).view(float)
            power = np.square(f, out=f).reshape(3, m, n_t, 2 * n_b).sum(axis=0)
            maps[spin, :, sl] = power.sum(axis=-1).T
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
