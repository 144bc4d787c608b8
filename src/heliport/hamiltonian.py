"""Assembly of the 2N x 2N coupling matrices and the effective Hamiltonian.

Basis ordering is site-major: index = 2*site + spin with spin up = 0,
down = 1.  J is Hermitian with zero diagonal (rotating frame at resonance,
the divergent self Lamb shift is dropped); Gamma is Hermitian positive
semidefinite with diagonal exactly Gamma_0.  The effective Hamiltonian of
the no-jump evolution is H_eff = J - i*Gamma/2, or J alone when the
anti-Hermitian part is switched off.

A uniform helix is a screw: r_{n+1} = R_z(theta) r_n + dz z_hat for one
rotation theta and one rise dz.  Then r_i - r_j = R_z(phi_j - phi_0)(r_d - r_0)
with d = i - j, and a rotation by alpha about z multiplies the circular
polarizations by e^{-+i alpha}.  In the screw gauge U_n = diag(e^{-i phi_n},
e^{+i phi_n}), phi_n the azimuth of site n, every 2x2 block of J and Gamma
depends on d alone:

    H_ij = U_i T(i - j) U_j^dag,   T(d) = U_d^dag H_d0 U_0,   T(-d) = T(d)^dag,

the last separately for J and Gamma (the spin-flip entry of T(d) is the
spin-orbit coupling that the chiral geometry induces; the line groups of
helices, Damnjanovic and Milosevic, Line Groups in Physics, LNP 801, 2010).
`assemble` evaluates the Green's tensor for the N - 1 separations
r_d - r_0 only (_screw_tables) and gathers the Toeplitz table T[i - j]
(_screw_gather); bloch reads the same table as the infinite helix's
hoppings.  An O(N) probe on the positions alone (constant dz, x + iy
advancing by one unit-modulus factor, both within SCREW_TOL of the
coordinate scale) selects this path, so a geometry file holding a helix
takes it too; every other geometry takes the pairwise N(N - 1) evaluation,
the screw table's test oracle.  `screw_effective` hands the gauge and the
table of H_eff (T_J - i T_Gamma / 2), with its circulant spectrum and a box
enclosing its field of values, to the matrix-free propagator;
`screw_matrix` gathers the dense H_eff from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .geometry import EmitterGeometry
from .greens import GAMMA0, coupling_blocks

SCREW_TOL = 1e-12   # screw-probe tolerance, relative to the largest coordinate


@dataclass(frozen=True)
class CouplingTensor:
    """J and Gamma over the site (x) spin basis, index = 2*site + spin."""

    j: np.ndarray
    gamma: np.ndarray

    @property
    def n_sites(self) -> int:
        return self.j.shape[0] // 2

    def validation_issues(self, tol: float = 1e-10) -> list[str]:
        """Check Hermiticity, diagonal values, and positive semidefiniteness."""
        issues = []
        if np.abs(self.j - self.j.conj().T).max() > tol:
            issues.append("J is not Hermitian")
        if np.abs(self.gamma - self.gamma.conj().T).max() > tol:
            issues.append("Gamma is not Hermitian")
        if np.abs(np.diag(self.j)).max() > tol:
            issues.append("J diagonal is not zero")
        if np.abs(np.diag(self.gamma) - GAMMA0).max() > tol:
            issues.append("Gamma diagonal is not Gamma_0")
        gnorm = np.linalg.norm(self.gamma, 2)
        wmin = np.linalg.eigvalsh(0.5 * (self.gamma + self.gamma.conj().T)).min()
        if wmin < -1e-10 * gnorm:
            issues.append(f"Gamma not positive semidefinite (min eigenvalue {wmin:.3e})")
        return issues


@dataclass(frozen=True)
class EffectiveHamiltonian:
    matrix: np.ndarray
    hermitian_only: bool


@dataclass(frozen=True)
class ScrewHamiltonian:
    """H_eff of a screw geometry in the screw gauge: H_ij = U_i T(i - j) U_j^dag
    with gauge diagonals U (N, 2) and the table T (2N - 1, 2, 2), T(d) at
    d + N - 1.

    The table is embedded once in a block circulant C of 5-smooth length
    L >= 2N - 1 (T(d) at d mod L, zeros elsewhere; R. H. Chan and M. K. Ng,
    SIAM Rev. 38, 427 (1996)); spectrum (L, 2, 2) holds its blocks M_l.
    box = (Re lo, Re hi, Im lo, Im hi) holds the field of values W(H): W(C)
    is the hull of the W(M_l), the Toeplitz matrix is a compression of C and
    U is unitary, and W(M_l) lies in the eigenvalue ranges of its Hermitian
    and skew-Hermitian parts (Bendixson, Acta Math. 25, 359 (1902)), closed
    form per 2x2 block.  Gamma is positive semidefinite, so the top is
    clamped to Im = 0 (the circulant's wrap is not semidefinite)."""

    gauge: np.ndarray
    table: np.ndarray
    hermitian_only: bool
    spectrum: np.ndarray = field(init=False, repr=False)
    box: tuple = field(init=False)

    def __post_init__(self):
        n = self.n_sites
        length = smooth_length(2 * n - 1)
        circulant = np.zeros((length, 2, 2), dtype=complex)
        circulant[:n] = self.table[n - 1:]
        circulant[length - n + 1:] = self.table[:n - 1]
        spectrum = np.fft.fft(circulant, axis=0)
        (m00, m01), (m10, m11) = spectrum.transpose(1, 2, 0)
        re_lo, re_hi = _eigen_range(m00.real, m11.real, 0.5 * (m01 + m10.conj()))
        im_lo, im_hi = _eigen_range(m00.imag, m11.imag, 0.5 * (m01 - m10.conj()))
        object.__setattr__(self, "spectrum", spectrum)
        object.__setattr__(self, "box", (re_lo, re_hi, im_lo, min(im_hi, 0.0)))

    @property
    def n_sites(self) -> int:
        return len(self.gauge)


def _eigen_range(a, d, b) -> tuple[float, float]:
    """(least, largest) eigenvalue over the Hermitian 2x2 blocks
    [[a, b], [b*, d]], whose eigenvalues are (a + d)/2 -+ |((a - d)/2, b)|."""
    mid, rad = 0.5 * (a + d), np.hypot(0.5 * (a - d), np.abs(b))
    return float((mid - rad).min()), float((mid + rad).max())


def screw_effective(geom: EmitterGeometry,
                    hermitian_only: bool = False) -> ScrewHamiltonian | None:
    """The screw-gauge table of H_eff = J - i Gamma/2 (J alone for
    hermitian_only), or None if geom is not a screw."""
    phi = _screw_azimuths(geom.positions)
    if phi is None:
        return None
    u, t_j, t_g = _screw_tables(geom.positions, phi)
    return ScrewHamiltonian(u, t_j if hermitian_only else t_j - 0.5j * t_g, hermitian_only)


def assemble(geom: EmitterGeometry) -> CouplingTensor:
    """Build J and Gamma for a finite geometry (free of coincident emitters).

    Screw geometries (uniform helices, straight chains) take the Toeplitz
    screw-gauge path, every other geometry the pairwise evaluation.
    """
    phi = _screw_azimuths(geom.positions)
    if phi is None:
        return _pairwise_assemble(geom)
    u, t_j, t_g = _screw_tables(geom.positions, phi)
    return CouplingTensor(j=_screw_gather(t_j, u, 0.0), gamma=_screw_gather(t_g, u, GAMMA0))


def screw_matrix(screw: ScrewHamiltonian) -> EffectiveHamiltonian:
    """The dense H_eff gathered from screw's table, its diagonal exact."""
    diagonal = 0.0 if screw.hermitian_only else -0.5j * GAMMA0
    return EffectiveHamiltonian(_screw_gather(screw.table, screw.gauge, diagonal),
                                screw.hermitian_only)


def _screw_azimuths(pos: np.ndarray) -> np.ndarray | None:
    """Site azimuths if the positions form a screw about the z axis, else None.

    A screw has a constant rise z_{n+1} - z_n and x + iy advancing by one
    unit-modulus factor, both to within SCREW_TOL times the largest
    coordinate.  Sites on the axis get azimuth 0.
    """
    tol = SCREW_TOL * np.abs(pos).max()
    rise = np.diff(pos[:, 2])
    if np.abs(rise - rise[:1]).max(initial=0.0) > tol:
        return None
    w = pos[:, 0] + 1j * pos[:, 1]
    turn = np.vdot(w[:-1], w[1:])
    step = turn / abs(turn) if turn != 0 else 1.0
    if np.abs(w[1:] - step * w[:-1]).max(initial=0.0) > tol:
        return None
    return np.angle(w)


def _screw_tables(pos: np.ndarray,
                  phi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gauge diagonals U (N, 2) and the screw tables T_J, T_Gamma, each
    (2N - 1, 2, 2) with T(d) at d + N - 1, from one kernel call on r_d - r_0."""
    n, u = len(pos), np.exp(1j * np.outer(phi, [-1.0, 1.0]))
    jb, gb = coupling_blocks(pos[1:] - pos[0])            # H_d0, d = 1..N-1
    gauge = u[1:, :, None].conj() * u[0, None, :]         # T(d) = U_d^dag H_d0 U_0
    t_j, t_g = (np.empty((2 * n - 1, 2, 2), dtype=complex) for _ in range(2))
    for t, h, t0 in ((t_j, jb, 0.0), (t_g, gb, GAMMA0)):   # T(-d) = T(d)^dag
        t[n - 1] = t0 * np.eye(2)
        np.conjugate(np.multiply(gauge, h, out=t[n:])[::-1].transpose(0, 2, 1), out=t[:n - 1])
    return u, t_j, t_g


def _screw_gather(table: np.ndarray, u: np.ndarray, diagonal) -> np.ndarray:
    """The 2N x 2N matrix of blocks U_i table[i - j + N - 1] U_j^dag for
    gauge diagonals u (N, 2), its diagonal set to diagonal."""
    n = len(u)
    # index[i, j] = i - j + n - 1, a strided view rather than an N x N array
    index = sliding_window_view(np.arange(2 * n - 1)[::-1], n)[::-1]
    m = np.empty((n, 2, n, 2), dtype=complex)
    for s, s2 in np.ndindex(2, 2):
        m[:, s, :, s2] = table[:, s, s2][index]
    m *= u[:, :, None, None]
    m *= u.conj()[None, None]
    m = m.reshape(2 * n, 2 * n)
    np.fill_diagonal(m, diagonal)
    return m


def _pairwise_assemble(geom: EmitterGeometry) -> CouplingTensor:
    """J and Gamma from all N(N - 1) pair separations; the general path.
    Filled one site row at a time, so the work arrays are O(N) beside the
    two 2N x 2N outputs."""
    n, pos = geom.n_sites, geom.positions
    j, gamma = np.empty((2, n, 2, n, 2), dtype=complex)
    others = np.ones(n, dtype=bool)
    for i in range(n):
        others[i - 1], others[i] = True, False
        jb, gb = coupling_blocks(pos[i] - pos[others])
        # row i as (site_j, s, s'): (2*i + s, 2*site_j + s')
        for out, blocks, self_term in ((j, jb, 0.0), (gamma, gb, GAMMA0)):
            row = out[i].transpose(1, 0, 2)
            row[others] = blocks
            row[i] = self_term * np.eye(2)
    return CouplingTensor(j=j.reshape(2 * n, 2 * n), gamma=gamma.reshape(2 * n, 2 * n))


def effective(coupling: CouplingTensor, hermitian_only: bool = False) -> EffectiveHamiltonian:
    """H_eff = J - i*Gamma/2, or the coherent part J alone."""
    if hermitian_only:
        return EffectiveHamiltonian(coupling.j.copy(), True)
    return EffectiveHamiltonian(coupling.j - 0.5j * coupling.gamma, False)


def smooth_length(n: int) -> int:
    """The least 5-smooth integer 2^i 3^j 5^k >= n: an FFT length numpy
    transforms without a large prime factor."""
    m = max(1, n)
    while True:
        k = m
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        if k == 1:
            return m
        m += 1


def spin_z_diagonal(n_sites: int) -> np.ndarray:
    """Diagonal of S_z = 1_N (x) sigma_z in the site-major basis (+1 up, -1 down)."""
    return np.tile([1.0, -1.0], n_sites)
