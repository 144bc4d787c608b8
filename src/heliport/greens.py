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

In terms of the raw separation r (not the unit vector rhat), the tensor is

    G(r) = pa * 1 - s * r r^T,  pa = pref a,  s = pref b / |r|^2,

with pref = e^{i k0 r} / (4 pi r), a and b the two brackets above.  pa and s
depend on |r|^2 alone; _green_factors returns them, and coupling_blocks,
green_tensor (the explicit oracle of the self-checks and tests) and the
emitted-field kernel (field.py) all call it, so the formula for G lives in
one place.  It takes the phase as e^{i k0 r} = (1 + i t)^2 / (1 + t^2),
with t = tan(pi f) and f = r - rint(r) exact (r in units of lambda_0):
real ufuncs with SIMD loops, where complex exp has none.  As b = 3a - 2,
s |r|^2 = 3 pa - 2 pref.  With w = r_x + i r_y (so eps_up^dag r =
conj(w)/sqrt(2)), coupling_blocks contracts in closed form without
building the 3x3 tensor:

    J     = -(3/2) lambda_0 Gamma_0 [Re(pa) 1 - Re(s) M]
    Gamma =     3  lambda_0 Gamma_0 [Im(pa) 1 - Im(s) M]
    M     = (1/2) [[|w|^2, conj(w)^2], [w^2, |w|^2]].
"""

from __future__ import annotations

import numpy as np

LAMBDA0 = 1.0
GAMMA0 = 1.0
K0 = 2.0 * np.pi / LAMBDA0

# circular polarization unit vectors (spin up / down), orthonormal under
# the Hermitian inner product
EPS_UP = np.array([1.0, 1.0j, 0.0]) / np.sqrt(2.0)
EPS_DOWN = np.array([1.0, -1.0j, 0.0]) / np.sqrt(2.0)
POLARIZATION = (EPS_UP, EPS_DOWN)


def _green_factors(r2: np.ndarray, out: np.ndarray | None = None):
    """(pa, s) with G(r) = pa * 1 - s * r r^T, from r2 = |r|^2.

    r2 has any shape, and so do pa and s, which fill out (complex, shape
    (2,) + r2.shape) when it is given; the work is done in the real and
    imaginary planes of that array, with no temporary one.  Zero-length
    separations are rejected (the self term is handled analytically by the
    Hamiltonian assembly).
    """
    if np.any(r2 == 0.0):
        raise ValueError("green_tensor: zero-length separation (self term excluded)")
    f = np.empty((2,) + np.shape(r2), dtype=complex) if out is None else out
    amp, inv_u, d, t = f.real[0, ...], f.imag[0, ...], f.real[1, ...], f.imag[1, ...]
    np.sqrt(r2, out=d)
    np.subtract(d, np.rint(d, out=t), out=t)
    t *= np.pi
    np.tan(t, out=t)                                # the phase (module docstring)
    np.reciprocal(np.multiply(d, K0, out=inv_u), out=inv_u)
    np.square(t, out=amp)
    amp += 1.0
    amp *= d
    amp *= 4.0 * np.pi
    np.reciprocal(amp, out=amp)                     # |pref| / (1 + t^2)
    np.square(t, out=d)                             # pref = amp (1 + i t)^2 in f[1]
    np.subtract(1.0, d, out=d)
    d *= amp
    t *= 2.0
    t *= amp
    np.square(inv_u, out=amp)                       # pa = pref (1 - 1/u^2 + i/u)
    np.subtract(1.0, amp, out=amp)
    f[0] *= f[1]
    f[1] *= -2.0 / 3.0                              # s r2 = 3 pa - 2 pref
    f[1] += f[0]
    f[1] *= 3.0
    d /= r2
    t /= r2
    return f[0], f[1]


def green_tensor(r) -> np.ndarray:
    """Dyadic Green's tensor for separation(s) r.

    r may be a single 3-vector or an array of shape (..., 3); the result has
    shape (..., 3, 3).  Zero-length separations are rejected.
    """
    r = np.asarray(r, dtype=float)
    pa, s = _green_factors(np.einsum("...i,...i->...", r, r))
    return (pa[..., None, None] * np.eye(3)
            - s[..., None, None] * r[..., :, None] * r[..., None, :])


def coupling_blocks(sep) -> tuple[np.ndarray, np.ndarray]:
    """J and Gamma 2x2 spin blocks for separation(s) of shape (..., 3).

    Returns (j, gamma), each of shape (..., 2, 2), in units of Gamma_0;
    closed form in the factors of G (module docstring).
    """
    sep = np.asarray(sep, dtype=float)
    pa, s = _green_factors(np.einsum("...i,...i->...", sep, sep))
    w = sep[..., 0] + 1j * sep[..., 1]
    m_diag, m_off = 0.5 * (w.real**2 + w.imag**2), 0.5 * np.conj(w) ** 2
    j, gamma = (np.empty(np.shape(w) + (2, 2), dtype=complex) for _ in range(2))
    for out, scale, part in ((j, -1.5, np.real), (gamma, 3.0, np.imag)):
        fa, fs = part(pa), part(s)
        out[..., 0, 0] = out[..., 1, 1] = scale * LAMBDA0 * GAMMA0 * (fa - fs * m_diag)
        out[..., 0, 1] = -scale * LAMBDA0 * GAMMA0 * fs * m_off
        out[..., 1, 0] = np.conj(out[..., 0, 1])
    return j, gamma
