"""Momentum-space Hamiltonian of the infinite helix and band structures.

In the screw gauge (hamiltonian) the helix is a chain of spacing b = a/N_t
with 2x2 hoppings T(d), whose spin-flip entry is the spin-orbit coupling the
chiral geometry induces.  chain_table reads T(d), |d| <= D = N_t m_cut
(m_cut turns each side), off the finite helix's screw table in one kernel
call.  With h(q) = sum_d e^{-i q b d} T(d), the one-turn cell's Bloch
Hamiltonian (H(k + 2 pi/a) = H(k)) splits into folds q_j = -k + 2 pi j/a:

    H(k) = sum_{j < N_t} V_j h(q_j) V_j^dag,   (V_j)_mu = U_mu e^{i q_j b mu} / sqrt(N_t),

so each k costs N_t 2x2 eigenproblems, and band 2j + branch has the cell
eigenvector V_j chi(q_j).  Bands keep this label along k; the two branches
of a fold, ordered by Re E, swap labels where their spinors say they cross.
The sum converges slowest at the light cone |k| = k0 (error ~ 1/m_cut);
_fourier_sum sums |d| <= D/2 and the wings as two parts, and the Cauchy
estimate ||h_D - h_{D/2}||_max = max|wings| is always reported.  Lattice
sums need a uniform k grid of period L (every grid the runs build); its
folded momenta are one uniform grid of period L N_t, summed by one FFT.
Any other grid raises ValueError.

C2 rule.  The pi rotation about a radial axis gives h(-q) = sigma_x h(q)
sigma_x.  At k = 0 and +-pi/a (k a/pi = n, an integer) fold j is therefore
degenerate with fold j' = (n - j) mod N_t, and its cell vector is written
as (x_j(chi) +- x_j'(sigma_x chi)) / sqrt(2), + for j < j', with x_j(chi) =
V_j chi; a self-paired fold (j' = j) takes the sigma_x eigenbasis.  Cross-fold
S_z terms vanish, so <S_z> = 0 there, as the k -> -k symmetry demands.

band_structure is the one sweep: it keeps the labels and adds Gamma =
-2 Im E, <S_z>, finite-difference velocities and the light-cone flag
|k| <= k0.  The consumers that need energy order (the gap and the Wilson
loops of topology.zak_phases) rank the bands at each k themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .geometry import HelixParams, helix_positions
from .greens import K0
from .hamiltonian import _screw_tables, spin_z_diagonal


@dataclass
class BandStructure:
    k: np.ndarray                     # (n_k,)
    energies: np.ndarray              # (n_k, 2*N_t), band 2j + branch of fold j
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


def chain_table(params: HelixParams, m_cut: int,
                hermitian_only: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Gauge diagonals U_mu of one cell (N_t, 2) and the chain hoppings T(d),
    d = -D..D with D = N_t m_cut, shape (2D + 1, 2, 2); T(0) is the self term."""
    if m_cut < 1:
        raise ValueError("m_cut must be >= 1")
    nt = params.sites_per_turn
    pos = helix_positions(replace(params, turns=m_cut + 1))[:nt * m_cut + 1]
    u, t_j, t_g = _screw_tables(pos, np.angle(pos[:, 0] + 1j * pos[:, 1]))
    return u[:nt], t_j if hermitian_only else t_j - 0.5j * t_g


def _zone_period(k_grid: np.ndarray, pitch: float) -> int:
    """L for a grid k_0 + j 2 pi/(L a), j < n, to round-off with 2 <= n and L <= n."""
    n = len(k_grid)
    zones = (k_grid[-1] - k_grid[0]) * pitch / (2 * np.pi) if n > 1 else 0.0  # (n - 1)/L
    if n >= 2 and zones >= (n - 1) / (n + 0.5):   # L <= n; a NaN span fails too
        period = max(1, round((n - 1) / zones))
        ideal = k_grid[0] + np.arange(n) * (2 * np.pi / (period * pitch))
        tol = 64 * np.finfo(float).eps * max(np.pi / pitch, np.abs(k_grid).max())
        if np.abs(k_grid - ideal).max() <= tol:
            return period
    raise ValueError("lattice sums need a uniform k grid: k_0 + j 2 pi/(L a), "
                     "j < n, to round-off with 2 <= n and L <= n")


def _fourier_sum(c: np.ndarray, k_grid: np.ndarray,
                 pitch: float) -> tuple[np.ndarray, float]:
    """(sum_m e^{-i k m a} c(m) over the uniform k_grid, convergence), m = -M..M:
    inner (|m| <= M // 2) + wings and the estimate max|wings| (inf without a
    half window).  Both parts fold onto the grid's period L and take one FFT."""
    m_cut = (len(c) - 1) // 2
    ms = np.arange(-m_cut, m_cut + 1)
    wing = np.abs(ms) > m_cut // 2
    period = _zone_period(k_grid, pitch)
    folded = np.zeros((2, period) + c.shape[1:], dtype=complex)
    np.add.at(folded, (wing.astype(np.intp), ms % period),
              np.exp(ms * (-1j * pitch * k_grid[0]))[:, None, None] * c)
    h, wings = np.fft.fft(folded, axis=1)[:, np.arange(len(k_grid)) % period]
    return h + wings, float(np.abs(wings).max()) if m_cut >= 2 else np.inf


def brillouin_grid(pitch: float, n_k: int = 401) -> np.ndarray:
    """Closed symmetric BZ grid [-pi/a, pi/a] of n_k points."""
    edge = np.pi / pitch
    return np.linspace(-edge, edge, n_k)


def _folds(params: HelixParams, k_grid: np.ndarray, m_cut: int, hermitian_only: bool):
    """(q, evals, spinors, u, convergence): q_ij = -k_i + 2 pi j/a, the eigenpairs
    of h(q) (n_k, N_t, 2) ordered by Re E, spinor columns per branch, u the
    cell gauge.  The k grid is uniform of period L, so the momenta k - 2 pi j/a
    of all folds are one uniform grid of period L N_t from N_t - 1 zones below k_0."""
    nt, a = params.sites_per_turn, params.pitch
    n, period = len(k_grid), _zone_period(k_grid, a)
    u, table = chain_table(params, m_cut, hermitian_only)
    shift = (nt - 1) * period
    p = k_grid[0] + (2 * np.pi / (period * a)) * np.arange(-shift, n)
    index = np.arange(n)[:, None] + shift - period * np.arange(nt)
    h, conv = _fourier_sum(table[::-1], p, a / nt)   # h(-p) sums T(-d) at p
    if hermitian_only:
        evals, chi = np.linalg.eigh(h[index])
    else:
        evals, chi = np.linalg.eig(h[index])
        order = np.argsort(evals.real, axis=-1)
        evals = np.take_along_axis(evals, order, axis=-1)
        chi = np.take_along_axis(chi, order[..., None, :], axis=-1)
    return -p[index], evals, chi, u, conv


def _cell_vectors(params: HelixParams, k_grid: np.ndarray, q, chi, u):
    """Cell eigenvectors (n_k, 2N_t, 2N_t), column 2j + branch, with the C2
    rule at the invariant points, and the mask of those points."""
    nt = params.sites_per_turn
    # x[i, j, mu, s] = U_mu[s] e^{i q_ij b mu} / sqrt(N_t): fold j's cell frame
    x = u * np.exp(1j * (params.pitch / nt) * q[..., None, None]
                   * np.arange(nt)[:, None]) / np.sqrt(nt)
    vecs = np.einsum("ijms,ijsb->imsjb", x, chi)
    plus_minus = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    turns = k_grid * params.pitch / np.pi
    invariant = np.abs(turns - np.rint(turns)) < 1e-12
    for i in np.flatnonzero(invariant):
        for j in range(nt):
            partner = (int(np.rint(turns[i])) - j) % nt
            if partner == j:   # h commutes with sigma_x: its eigenbasis
                odd = np.vdot(chi[i, j, :, 0], chi[i, j, ::-1, 0]).real < 0
                vecs[i, :, :, j] = x[i, j][..., None] * (plus_minus[:, ::-1] if odd
                                                         else plus_minus)
            else:              # (x_j(chi) +- x_j'(sigma_x chi)) / sqrt(2), + for j < j'
                mirrored = np.sign(partner - j) * x[i, partner][..., None] * chi[i, j, ::-1]
                vecs[i, :, :, j] = (vecs[i, :, :, j] + mirrored) / np.sqrt(2.0)
    return vecs.reshape(len(k_grid), 2 * nt, 2 * nt), invariant


def band_structure(params: HelixParams, k_grid, m_cut: int = 2000,
                   hermitian_only: bool = False) -> BandStructure:
    """Bands over the grid, band 2j + branch following fold j along k.

    The two branches of a fold swap labels between neighbouring k where their
    spinors overlap crosswise more than straight.  The k after a swap and the
    invariant points (where the C2 rule mixes folds) are flagged, except a
    swap between branches degenerate (|E_0 - E_1| <= 1e-12 max|E|) at both k,
    where round-off alone orders them.
    """
    k_grid, nt = np.asarray(k_grid, dtype=float), params.sites_per_turn
    q, evals, chi, u, conv = _folds(params, k_grid, m_cut, hermitian_only)
    overlap = np.abs(np.einsum("ijsa,ijsb->ijab", chi[:-1].conj(), chi[1:])) ** 2
    swap = np.trace(overlap[..., ::-1], axis1=2, axis2=3) > np.trace(overlap, axis1=2, axis2=3)
    degenerate = np.abs(evals[..., 1] - evals[..., 0]) <= 1e-12 * np.abs(evals).max()
    flip = np.cumsum(np.concatenate([np.zeros_like(swap[:1]), swap]), axis=0) % 2
    branch = np.arange(2) ^ flip[..., None]
    evals = np.take_along_axis(evals, branch, axis=-1).reshape(len(k_grid), -1)
    vecs, invariant = _cell_vectors(params, k_grid, q,
                                    np.take_along_axis(chi, branch[..., None, :], axis=-1), u)
    unsure = swap & ~(degenerate[:-1] & degenerate[1:])
    flags = np.concatenate([[False], invariant[1:] | unsure.any(axis=1)])
    weight = np.abs(vecs) ** 2
    sz = np.einsum("kan,a->kn", weight, spin_z_diagonal(nt)) / weight.sum(axis=1)
    energies = evals.real
    gammas = np.zeros_like(energies) if hermitian_only else -2.0 * evals.imag
    return BandStructure(k=k_grid, energies=energies, gammas=gammas, sz=sz,
                         velocities=np.gradient(energies, k_grid, axis=0),
                         in_light_cone=np.abs(k_grid) <= K0,
                         vectors=vecs, continuation_ambiguous=flags, m_cut=m_cut,
                         hermitian_only=hermitian_only, convergence=conv)
