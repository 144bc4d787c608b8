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
sums) is always reported.  _fourier_sum sums the inner cells |m| <= M_cut/2
and the outer wings as two parts.  On the grids the runs build (wilson_grid,
the closed brillouin_grid, the half-step grid) k_j = k_0 + j 2*pi/(L a), so
each part is folded modulo L, folded[r] = sum_{m = r mod L} e^{-i k_0 m a}
c(m), and H(k_j) = fft(folded)[j mod L]: O(M d^2 + L log L d^2) with d = 2 N_t
instead of O(n_k M d^2).  Other grids (a single k, hand-made grids) take
the direct phase sum.

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

_OVERLAP_AMBIGUOUS = 0.5   # squared-overlap floor below which continuation is ambiguous


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
    """Direct sum of e^{-i k m a} c(m) over the cells ms: one (n_k, cells) phase product."""
    phases = np.outer(k_grid, ms * (-1j * pitch))
    return np.tensordot(np.exp(phases, out=phases), c, axes=(1, 0))


def _zone_period(k_grid: np.ndarray, pitch: float) -> int:
    """L when k_grid is k_0 + j 2 pi/(L a) to round-off with n >= L points, else 0."""
    n = len(k_grid)
    zones = (k_grid[-1] - k_grid[0]) * pitch / (2 * np.pi) if n > 1 else 0.0  # (n - 1)/L
    if n < 2 or not zones >= (n - 1) / (n + 0.5):   # L <= n; a NaN span fails too
        return 0
    period = max(1, round((n - 1) / zones))
    ideal = k_grid[0] + np.arange(n) * (2 * np.pi / (period * pitch))
    tol = 64 * np.finfo(float).eps * max(np.pi / pitch, np.abs(k_grid).max())
    return period if np.abs(k_grid - ideal).max() <= tol else 0


def _fourier_sum(c: np.ndarray, k_grid: np.ndarray,
                 pitch: float) -> tuple[np.ndarray, float]:
    """(H(k) over k_grid, convergence): H = inner (|m| <= m_cut // 2) + wings
    and the estimate max|wings| = ||H_M - H_{M/2}||_max (inf without a half window)."""
    m_cut = (len(c) - 1) // 2
    ms = np.arange(-m_cut, m_cut + 1)
    wing = np.abs(ms) > m_cut // 2
    period = _zone_period(k_grid, pitch)
    if period:
        folded = np.zeros((2, period) + c.shape[1:], dtype=complex)
        np.add.at(folded, (wing.astype(np.intp), ms % period),
                  np.exp(ms * (-1j * pitch * k_grid[0]))[:, None, None] * c)
        h, wings = np.fft.fft(folded, axis=1)[:, np.arange(len(k_grid)) % period]
    else:
        h, wings = (_phase_sum(c[cells], ms[cells], k_grid, pitch) for cells in (~wing, wing))
    return h + wings, float(np.abs(wings).max()) if m_cut >= 2 else np.inf


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


def _continuation(overlap: np.ndarray):
    """The eigenvector each band continues into, from the squared overlaps
    overlap[band, eigenvector], or None when that is ambiguous.

    Row maxima that form a permutation are a maximum-weight assignment,
    since the sum of row maxima bounds every permutation's sum.
    """
    bands = np.arange(len(overlap))
    cols = overlap.argmax(axis=1)
    if (np.array_equal(np.sort(cols), bands)
            and overlap[bands, cols].min() >= _OVERLAP_AMBIGUOUS):
        return cols
    return None


def band_structure(params: HelixParams, k_grid, m_cut: int = 2000,
                   hermitian_only: bool = False) -> BandStructure:
    """Diagonalize H(k) over the grid and connect bands by maximal overlap.

    Bands are energy-ordered at each k, then reordered along the grid by
    maximal eigenvector overlap with the previous point: each band takes the
    eigenvector it overlaps most.  k points where that is ambiguous (two
    bands pick the same eigenvector, or a squared overlap < 0.5, e.g. at
    exact degeneracies) keep the energy ordering and are flagged.
    """
    sweep = eigen_sweep(params, k_grid, m_cut, hermitian_only)
    n_k, dim = sweep.evals.shape
    evals = np.empty_like(sweep.evals)
    vecs = np.empty((n_k, dim, dim), dtype=complex)
    flags = np.zeros(n_k, dtype=bool)
    for i, (w, v) in enumerate(zip(sweep.evals, sweep.vecs)):
        if i > 0:
            cols = _continuation(np.abs(vecs[i - 1].conj().T @ v) ** 2)
            if cols is None:
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
