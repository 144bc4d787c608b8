"""Free-space dyadic Green's tensor and circular-polarization couplings.

Units: lambda_0 = 1, Gamma_0 = 1, k0 = 2*pi.  The tensor for a separation
r (|r| > 0) is

    G(r) = e^{i k0 r} / (4 pi r) * [ (1 + i/(k0 r) - 1/(k0 r)^2) * 1
                                     - (1 + 3i/(k0 r) - 3/(k0 r)^2) * rhat rhat ]

with the normalization fixed by Im[G_aa](r -> 0) = k0 / (6 pi), so that the
single-emitter decay rate comes out exactly Gamma_0 under the coupling
prefactor below.

Couplings between circular dipoles eps_up = (x + i y)/sqrt(2) and
eps_down = (x - i y)/sqrt(2):

    J^{ss'}     = -(3/2) lambda_0 Gamma_0 * eps_s^dag . Re[G] . eps_s'
    Gamma^{ss'} =     3  lambda_0 Gamma_0 * eps_s^dag . Im[G] . eps_s'

i.e. the real/imaginary split is applied to the *tensor*, which keeps the
assembled J and Gamma matrices Hermitian while J^{ud} stays genuinely
complex (it carries the azimuthal phase e^{-2i delta} under rigid rotation
about z).

With G = pref (a 1 - b rhat rhat), rhat real and w = rhat_x + i rhat_y
(so eps_up^dag rhat = conj(w)/sqrt(2)), coupling_blocks contracts in closed
form without building the 3x3 tensor:

    J     = -(3/2) lambda_0 Gamma_0 [Re(pref a) 1 - Re(pref b) M]
    Gamma =     3  lambda_0 Gamma_0 [Im(pref a) 1 - Im(pref b) M]
    M     = (1/2) [[|w|^2, conj(w)^2], [w^2, |w|^2]].

pref, a, b and rhat come from one private helper, _green_factors, which
coupling_blocks, green_tensor (the explicit oracle of the self-checks and
tests) and the emitted-field kernel (field.py) all call, so the formula for
G lives in one place.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

LAMBDA0 = 1.0
GAMMA0 = 1.0
K0 = 2.0 * np.pi / LAMBDA0

# circular polarization unit vectors (spin up / down), orthonormal under
# the Hermitian inner product
EPS_UP = np.array([1.0, 1.0j, 0.0]) / np.sqrt(2.0)
EPS_DOWN = np.array([1.0, -1.0j, 0.0]) / np.sqrt(2.0)
POLARIZATION = (EPS_UP, EPS_DOWN)


def _green_factors(r: np.ndarray):
    """(pref, a, b, rhat) with G(r) = pref * (a * 1 - b * rhat rhat).

    r has shape (..., 3); pref, a and b have shape (...) and rhat (..., 3).
    Zero-length separations are rejected (the self term is handled
    analytically by the Hamiltonian assembly).
    """
    d = np.linalg.norm(r, axis=-1)
    if np.any(d == 0.0):
        raise ValueError("green_tensor: zero-length separation (self term excluded)")
    u = K0 * d
    pref = np.exp(1j * u) / (4.0 * np.pi * d)
    a = 1.0 + 1j / u - 1.0 / u**2
    b = 1.0 + 3j / u - 3.0 / u**2
    return pref, a, b, r / d[..., None]


def green_tensor(r) -> np.ndarray:
    """Dyadic Green's tensor for separation(s) r.

    r may be a single 3-vector or an array of shape (..., 3); the result has
    shape (..., 3, 3).  Zero-length separations are rejected.
    """
    r = np.asarray(r, dtype=float)
    single = r.ndim == 1
    if single:
        r = r[None, :]
    pref, a, b, rhat = _green_factors(r)
    outer = rhat[..., :, None] * rhat[..., None, :]
    g = pref[..., None, None] * (
        a[..., None, None] * np.eye(3) - b[..., None, None] * outer
    )
    return g[0] if single else g


class PairCoupling(NamedTuple):
    """2x2 spin blocks (up=0, down=1) of the coherent and dissipative rates."""

    j: np.ndarray
    gamma: np.ndarray


def coupling_blocks(sep) -> tuple[np.ndarray, np.ndarray]:
    """J and Gamma 2x2 spin blocks for separation(s) of shape (..., 3).

    Returns (j, gamma), each of shape (..., 2, 2), in units of Gamma_0;
    closed form in the factors of G (module docstring).
    """
    pref, a, b, rhat = _green_factors(np.asarray(sep, dtype=float))
    w = rhat[..., 0] + 1j * rhat[..., 1]
    m_diag, m_off = 0.5 * (w.real**2 + w.imag**2), 0.5 * np.conj(w) ** 2
    j, gamma = (np.empty(np.shape(w) + (2, 2), dtype=complex) for _ in range(2))
    for out, scale, part in ((j, -1.5, np.real), (gamma, 3.0, np.imag)):
        pa, pb = part(pref * a), part(pref * b)
        out[..., 0, 0] = out[..., 1, 1] = scale * LAMBDA0 * GAMMA0 * (pa - pb * m_diag)
        out[..., 0, 1] = -scale * LAMBDA0 * GAMMA0 * pb * m_off
        out[..., 1, 0] = np.conj(out[..., 0, 1])
    return j, gamma


def pair_coupling(r_i, r_j) -> PairCoupling:
    """Couplings between emitters at r_i and r_j (must not coincide)."""
    sep = np.asarray(r_i, dtype=float) - np.asarray(r_j, dtype=float)
    if np.linalg.norm(sep) == 0.0:
        raise ValueError("pair_coupling: coincident emitter positions")
    j, gamma = coupling_blocks(sep)
    return PairCoupling(j, gamma)
