"""Momentum-space Hamiltonian of the infinite helix and band structures.

The unit cell is one full 2*pi turn: n_per_turn sublattice sites, lattice
period a along z.  With c(m) the 2N_t x 2N_t coupling block (N_t sites per
turn) between cell 0 and cell m, the Bloch Hamiltonian in the cell-index
Fourier convention is

    H(k) = sum_{m=-M_cut}^{+M_cut} e^{-i k m a} c(m),

which is exactly periodic, H(k + 2*pi/a) = H(k), so Brillouin-zone loops
close with the identity.  Site mu of cell 0 and site nu of cell m are sites
mu and nu + m N_t of one screw, so c(m) gathers the finite helix's
screw-gauge table (hamiltonian) over N_t (m_cut + 1) sites, from
N_t (m_cut + 1) - 1 kernel evaluations.  The lattice sum is truncated
symmetrically; the 1/r-oscillatory tail makes modes near the light cone
|k| = k0 converge slowest (error roughly ~ 1/M_cut there), and a Cauchy
convergence estimate (max-norm difference between the M_cut and M_cut/2
sums) is always reported.  _fourier_sum makes one pass over the cells: it
sums the inner cells |m| <= M_cut/2, then the outer wings; H(k) is the sum
of the two, and the estimate is max|wings| = ||H_M - H_{M/2}||_max.

eigen_sweep is the one path from c(m) to eigenpairs: one lattice sum and
one batched diagonalization per grid.  band_structure continues its bands by
overlap; topology.zak_phases runs Wilson loops on its frames.

Band quantities per mode: energy = Re(eigenvalue), decay Gamma = -2 Im
(eigenvalue), spin texture <S_z> from right eigenvectors, group velocity by
finite differences, and a light-cone flag |k| < k0.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .geometry import HelixParams, helix_positions
from .greens import GAMMA0, K0
from .hamiltonian import _screw_gather, _screw_tables, spin_z_diagonal

_CHUNK_CELLS = 4000        # cells per chunk of the Fourier sum
_OVERLAP_AMBIGUOUS = 0.5   # squared-overlap floor below which continuation is ambiguous


@dataclass(frozen=True)
class BlochHamiltonian:
    k: float
    matrix: np.ndarray
    m_cut: int
    hermitian_only: bool
    convergence: float          # max |outer-wing sum| = ||H_M - H_{M/2}||_max


@dataclass(frozen=True)
class BlochSweep:
    k: np.ndarray                     # (n_k,)
    evals: np.ndarray                 # (n_k, 2*N_t), ordered by Re E at each k
    vecs: np.ndarray                  # (n_k, 2*N_t, 2*N_t), column n = eigenvector n
    m_cut: int
    hermitian_only: bool
    convergence: float                # max |outer-wing sum| = ||H_M - H_{M/2}||_max

    @property
    def energies(self) -> np.ndarray:
        return self.evals.real


@dataclass
class BandStructure:
    k: np.ndarray                     # (n_k,)
    energies: np.ndarray              # (n_k, 2*N_t), continuation-ordered
    gammas: np.ndarray                # (n_k, 2*N_t)
    sz: np.ndarray                    # (n_k, 2*N_t)
    velocities: np.ndarray            # (n_k, 2*N_t), d(energy)/dk
    in_light_cone: np.ndarray         # (n_k,) bool, |k| <= k0 (edge is radiative)
    vectors: np.ndarray               # (n_k, 2*N_t, 2*N_t), column n = band n
    continuation_ambiguous: np.ndarray  # (n_k,) bool
    m_cut: int
    hermitian_only: bool
    convergence: float

    @property
    def n_bands(self) -> int:
        return self.energies.shape[1]


def cell_couplings(params: HelixParams, m_cut: int,
                   hermitian_only: bool = False) -> np.ndarray:
    """Coupling blocks c(m) for m = -m_cut..m_cut, shape (2*m_cut+1, 2N_t, 2N_t).

    c(m) couples sublattice site mu in cell 0 to site nu in cell m; the
    single self term (mu = nu, m = 0) contributes 0 to J and Gamma_0 to the
    dissipative diagonal.  c(m) gathers the screw table at d = mu - nu - m N_t,
    with the gauge U_{nu + m N_t} = U_nu.
    """
    if m_cut < 1:
        raise ValueError("m_cut must be >= 1")
    nt = params.sites_per_turn
    pos = helix_positions(replace(params, turns=m_cut + 1))
    u, t_j, t_g = _screw_tables(pos, np.angle(pos[:, 0] + 1j * pos[:, 1]))
    sites = np.arange(nt)
    index = (np.subtract.outer(sites, sites) + len(pos) - 1
             - nt * np.arange(-m_cut, m_cut + 1)[:, None, None])
    c = _screw_gather(t_j if hermitian_only else t_j - 0.5j * t_g, index, u[:nt], u[:nt])
    np.fill_diagonal(c[m_cut], 0.0 if hermitian_only else -0.5j * GAMMA0)
    return c


def _phase_sum(c: np.ndarray, ms: np.ndarray, k_grid: np.ndarray,
               pitch: float) -> np.ndarray:
    """sum of e^{-i k m a} c(m) over the cells ms, in chunks; phases exponentiated in place."""
    h = np.zeros((len(k_grid),) + c.shape[1:], dtype=complex)
    for lo in range(0, len(ms), _CHUNK_CELLS):
        phases = np.outer(k_grid, ms[lo:lo + _CHUNK_CELLS] * (-1j * pitch))
        h += np.tensordot(np.exp(phases, out=phases), c[lo:lo + _CHUNK_CELLS], axes=(1, 0))
    return h


def _fourier_sum(c: np.ndarray, k_grid: np.ndarray,
                 pitch: float) -> tuple[np.ndarray, float]:
    """(H(k) over k_grid, convergence) from one pass: the inner cells
    |m| <= m_cut // 2, then the outer wings, whose max|sum| is the estimate
    ||H_M - H_{M/2}||_max (inf when there is no half window)."""
    m_cut = (len(c) - 1) // 2
    ms = np.arange(-m_cut, m_cut + 1)
    inner = np.abs(ms) <= m_cut // 2
    h, wings = (_phase_sum(c[cells], ms[cells], k_grid, pitch) for cells in (inner, ~inner))
    return h + wings, float(np.abs(wings).max()) if m_cut >= 2 else np.inf


def bloch_hamiltonian(params: HelixParams, k: float, m_cut: int,
                      hermitian_only: bool = False) -> BlochHamiltonian:
    """H(k) at a single quasimomentum, with its convergence estimate."""
    c = cell_couplings(params, m_cut, hermitian_only)
    h, conv = _fourier_sum(c, np.array([k], dtype=float), params.pitch)
    return BlochHamiltonian(float(k), h[0], m_cut, hermitian_only, conv)


def brillouin_grid(pitch: float, n_k: int = 401, include_edges: bool = True) -> np.ndarray:
    """Symmetric BZ grid.  include_edges=False gives a half-step-offset grid
    that avoids the exactly degenerate zone-edge/zone-center points."""
    edge = np.pi / pitch
    if include_edges:
        return np.linspace(-edge, edge, n_k)
    step = 2 * edge / n_k
    return -edge + (np.arange(n_k) + 0.5) * step


def eigen_sweep(params: HelixParams, k_grid, m_cut: int = 2000,
                hermitian_only: bool = False) -> BlochSweep:
    """Eigenpairs of H(k) over the grid from one lattice sum (eigh, or eig
    with the pairs at each k ordered by Re E)."""
    k_grid = np.asarray(k_grid, dtype=float)
    c = cell_couplings(params, m_cut, hermitian_only)
    h_all, conv = _fourier_sum(c, k_grid, params.pitch)
    if hermitian_only:
        evals, vecs = np.linalg.eigh(h_all)
    else:
        evals, vecs = np.linalg.eig(h_all)
        order = np.argsort(evals.real, axis=1)
        evals = np.take_along_axis(evals, order, axis=1)
        vecs = np.take_along_axis(vecs, order[:, None, :], axis=2)
    return BlochSweep(k_grid, evals, vecs, m_cut, hermitian_only, conv)


def _phase_fix(vectors: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude component of each column real positive."""
    idx = np.argmax(np.abs(vectors), axis=0)
    piv = vectors[idx, np.arange(vectors.shape[1])]
    phase = piv / np.where(np.abs(piv) > 0, np.abs(piv), 1.0)
    return vectors / phase[None, :]


def band_structure(params: HelixParams, k_grid, m_cut: int = 2000,
                   hermitian_only: bool = False) -> BandStructure:
    """Diagonalize H(k) over the grid and connect bands by maximal overlap.

    Bands are energy-ordered at each k, then reordered along the grid by
    maximal eigenvector overlap with the previous point; k points where the
    best overlap is ambiguous (squared overlap < 0.5, e.g. at exact
    degeneracies) keep the energy ordering and are flagged.
    """
    from scipy.optimize import linear_sum_assignment

    sweep = eigen_sweep(params, k_grid, m_cut, hermitian_only)
    n_k, dim = sweep.evals.shape
    evals = np.empty_like(sweep.evals)
    vecs = np.empty((n_k, dim, dim), dtype=complex)
    flags = np.zeros(n_k, dtype=bool)
    for i, (w, v) in enumerate(zip(sweep.evals, sweep.vecs)):
        if i > 0:
            overlap = np.abs(vecs[i - 1].conj().T @ v) ** 2
            rows, cols = linear_sum_assignment(-overlap)
            if overlap[rows, cols].min() < _OVERLAP_AMBIGUOUS:
                flags[i] = True  # keep energy ordering
            else:
                w, v = w[cols], v[:, cols]
        evals[i] = w
        vecs[i] = _phase_fix(v)

    sz_diag = spin_z_diagonal(dim // 2)
    weight = np.abs(vecs) ** 2
    sz = np.einsum("kan,a->kn", weight, sz_diag) / weight.sum(axis=1)
    energies = evals.real
    gammas = np.zeros_like(energies) if hermitian_only else -2.0 * evals.imag
    velocities = (np.gradient(energies, sweep.k, axis=0) if n_k > 1
                  else np.zeros_like(energies))
    return BandStructure(
        k=sweep.k,
        energies=energies,
        gammas=gammas,
        sz=sz,
        velocities=velocities,
        in_light_cone=np.abs(sweep.k) <= K0,
        vectors=vecs,
        continuation_ambiguous=flags,
        m_cut=m_cut,
        hermitian_only=hermitian_only,
        convergence=sweep.convergence,
    )
