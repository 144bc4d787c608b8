"""Assembly of the 2N x 2N coupling matrices and the effective Hamiltonian.

Basis ordering is site-major: index = 2*site + spin with spin up = 0,
down = 1.  J is Hermitian with zero diagonal (rotating frame at resonance,
the divergent self Lamb shift is dropped); Gamma is Hermitian positive
semidefinite with diagonal exactly Gamma_0.  The effective Hamiltonian of
the no-jump evolution is H_eff = J - i*Gamma/2, or J alone when the
anti-Hermitian part is switched off.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import EmitterGeometry
from .greens import GAMMA0, coupling_blocks


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


def assemble(geom: EmitterGeometry) -> CouplingTensor:
    """Build J and Gamma for a finite geometry (free of coincident emitters)."""
    n = geom.n_sites
    sep = geom.positions[:, None, :] - geom.positions[None, :, :]
    off = ~np.eye(n, dtype=bool)
    j_blocks = np.zeros((n, n, 2, 2), dtype=complex)
    g_blocks = np.zeros((n, n, 2, 2), dtype=complex)
    jb, gb = coupling_blocks(sep[off])
    j_blocks[off] = jb
    g_blocks[off] = gb
    for i in range(n):
        g_blocks[i, i] = GAMMA0 * np.eye(2)
    # (site_i, site_j, s, s') -> (2*site_i + s, 2*site_j + s')
    j = j_blocks.transpose(0, 2, 1, 3).reshape(2 * n, 2 * n)
    gamma = g_blocks.transpose(0, 2, 1, 3).reshape(2 * n, 2 * n)
    return CouplingTensor(j=j, gamma=gamma)


def effective(coupling: CouplingTensor, hermitian_only: bool = False) -> EffectiveHamiltonian:
    """H_eff = J - i*Gamma/2, or the coherent part J alone."""
    if hermitian_only:
        return EffectiveHamiltonian(coupling.j.copy(), True)
    return EffectiveHamiltonian(coupling.j - 0.5j * coupling.gamma, False)


def spin_z_diagonal(n_sites: int) -> np.ndarray:
    """Diagonal of S_z = 1_N (x) sigma_z in the site-major basis (+1 up, -1 down)."""
    return np.tile([1.0, -1.0], n_sites)
