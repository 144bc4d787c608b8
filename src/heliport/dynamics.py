"""No-jump time evolution of single-excitation states and transport observables.

A mixed initial state is stored as weighted pure-state branches; each branch
amplitude vector a (length 2N) evolves as a(t) = exp(-i H_eff t) a(0), which
is equivalent to the no-jump master equation
rho_dot = -i (H_eff rho - rho H_eff^dag).  The Propagator, built once per
run, takes one of two paths: a spectral decomposition of H_eff (exact in t,
O(N^3) to build), or, for a long helix, Taylor steps of a matrix-free
product with H_eff (O(N log N) per product).

Matrix-free path.  A screw geometry is block Toeplitz in the screw gauge,
H_ij = U_i T(i - j) U_j^dag (hamiltonian.ScrewHamiltonian), so the path
evolves b = U^dag a under the Toeplitz matrix of the blocks T(d).  The
table is embedded once in a circulant of 5-smooth length L >= 2N - 1
(T(d) at d mod L, zeros elsewhere; R. H. Chan and M. K. Ng, SIAM Rev. 38,
427 (1996)) and Fourier transformed, so a product is one FFT of b zero-padded
to L, four 2x2 products in frequency space and one inverse FFT, truncated to
N sites.  b is held spin-major, (spin, branch, site) with the FFT on the last
axis, and every launch branch is a column of the one block that is stepped.
U is applied once per output time, never inside a product.  The sorted output times are stepped with the
Taylor kernel _expm_apply: each interval dt takes s steps with
||dt H / s||_1 <= 4, where ||H||_1 comes from the table in O(N)
(ScrewHamiltonian.norm1).  ||H||_1 >= max|E| also sets the phase guard: a
time with t ||H||_1 eps >= 1 raises FloatingPointError before any step count
is formed.  prefer_matrix_free picks the path from a cost estimate, N^3 for
the eigendecomposition against estimated products times L log L (constants
measured once, 1 BLAS thread); below the crossover (near N = 400 for the
packaged helix geometry) the spectral path is cheaper.

A finite helix maps onto itself under the pi rotation about the radial axis
through its midpoint (azimuth phi_c).  It sends site n to site N-1-n and
R eps_up = e^{2i phi_c} eps_down, so in the site-major basis the operator C
maps basis index i to 2N-1-i with phase c = e^{2i phi_c} on spin-up and
conj(c) on spin-down components; C^2 = 1 and C commutes with J and Gamma.
The phase is read off H (H_pu = c^2 H_up, with u the spin-up indices 2j and
p their partners 2N-1-2j) and C is used only if the O(N^2) probe
||C H C^dag - H||_max <= C2_TOL max|H| passes; this needs no knowledge of how
the geometry was made.  C's eigenvectors q_j^+- = (e_u_j +- c e_p_j)/sqrt(2)
split H into two N x N blocks,

    B_+- = (H_uu +- c H_up +- conj(c) H_pu + H_pp) / 2,

gathered in O(N^2), and each block is diagonalized on its own (two N x N
eig calls instead of one 2N x 2N).  The line-group origin of the symmetry:
Damnjanovic and Milosevic, Line Groups in Physics, LNP 801 (2010).

The left eigenvectors of a non-Hermitian matrix come from a symmetry rather
than from inverting the eigenvector matrix V: if M^T = P M P for a
permutation P, then P v_i is a right eigenvector of M^T and the rows of V^-1
are (P v_i)^T / (v_i^T P v_i) (the c-product of complex-symmetric problems;
Moiseyev, Non-Hermitian Quantum Mechanics, CUP 2011).  For the full H_eff,
P = S swaps the two spins of every site (H_eff^T = S H_eff S); inside a C2
block, B^T = P B P with P the reversal of the block index j.  This costs
O(n^2) instead of O(n^3).  It fails under exact degeneracy
(v_i^T P v_i = 0 within a degenerate pair), so an O(n^2) probe
||V^-1 (V x) - x|| >= 1e-6 ||x|| with a fixed-seed x falls back to
np.linalg.inv for that block; a NaN probe counts as failed.  Under C2 the
spin degeneracy of a single emitter or a straight chain is split across the
two blocks, so they need no inv.  Expansion coefficients get one refinement
step c += V^-1 (a0 - V c).

If the eigenvector matrix is too ill conditioned, propagation steps
a <- exp(-i (t_i - t_{i-1}) H_eff) a over the sorted times instead, with the
same Taylor kernel on the dense matrix (_expm_dense), which the
master-equation oracle also uses.  The criterion is
sqrt(sum_b ||V_b||_F^2 * sum_b ||V_b^-1||_F^2) > COND_LIMIT, the Frobenius
product ||V||_F ||V^-1||_F of the full-basis eigenvector matrix
V = Q blockdiag(V_b) (Q, the C2 basis change, is unitary); it bounds
the 2-norm condition number from above, so it trips at least as early as an
SVD-based test would, and costs no SVD.

Observables follow the transport picture: per-spin populations P_up/P_down,
per-site populations, <S_z> = P_up - P_down, the surviving-excitation center
of mass <z> (normalized by the instantaneous norm), and the helicity
eta = sign(<S_z> * v) with v the discrete d<z>/dt.  populations() is the one
loop over branches: evolve and the CLI's snapshot writer both call it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import EmitterGeometry
from .hamiltonian import CouplingTensor, EffectiveHamiltonian, ScrewHamiltonian, effective

COND_LIMIT = 1e8       # eigenvector-matrix condition number triggering the fallback
C2_TOL = 1e-10         # relative residual ||C H C^dag - H|| below which C2 blocks are used
HELICITY_DEADBAND = 1e-6
# path-choice cost model, seconds: EIG_S_PER_N3 * N^3 for the spectral build
# against, per estimated product, MATVEC_S + MATVEC_S_PER_LLOGL * L log2 L
EIG_S_PER_N3 = 1.2e-8
MATVEC_S = 5.3e-5
MATVEC_S_PER_LLOGL = 6.9e-9


@dataclass(frozen=True)
class ExcitationState:
    """Weighted pure-state branches (w_b, a_b) with sum_b w_b ||a_b||^2 = 1 at t=0."""

    weights: tuple[float, ...]
    amplitudes: tuple[np.ndarray, ...]

    @property
    def n_sites(self) -> int:
        return len(self.amplitudes[0]) // 2

    def norm(self) -> float:
        return float(sum(w * np.vdot(a, a).real for w, a in zip(self.weights, self.amplitudes)))


def initial_state(n_sites: int, site: int, p_up: float) -> ExcitationState:
    """Statistical mixture of |up_site> and |down_site> with weights p_up, 1-p_up.

    Zero-weight branches are dropped, so p_up = 1 (or 0) gives a single pure
    branch.
    """
    if not 0 <= site < n_sites:
        raise ValueError(f"site index {site} out of range for {n_sites} emitters")
    if not 0.0 <= p_up <= 1.0:
        raise ValueError(f"p_up must lie in [0, 1], got {p_up}")
    weights, amps = [], []
    for spin, w in ((0, p_up), (1, 1.0 - p_up)):
        if w > 0.0:
            a = np.zeros(2 * n_sites, dtype=complex)
            a[2 * site + spin] = 1.0
            weights.append(float(w))
            amps.append(a)
    return ExcitationState(tuple(weights), tuple(amps))


def _c_product_inverse(vecs: np.ndarray, perm: np.ndarray):
    """V^-1 from M^T = P M P: rows (P v_i)^T / (v_i^T P v_i), or None.

    perm is the index permutation of P.  None means the probe
    ||V^-1 (V x) - x|| < 1e-6 ||x|| failed (or gave NaN), as it does under
    exact degeneracy.
    """
    swapped = vecs[perm]
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = swapped.T / np.sum(vecs * swapped, axis=0)[:, None]
        x = np.random.default_rng(0).standard_normal(len(vecs)).astype(complex)
        err = np.linalg.norm(inv @ (vecs @ x) - x)
    return inv if err < 1e-6 * np.linalg.norm(x) else None


def _c2_quadrants(h: np.ndarray):
    """Views (H_uu, H_up, H_pu, H_pp); u = spin-up indices 2j, p = partners 2N-1-2j."""
    return h[0::2, 0::2], h[0::2, ::-2], h[::-2, 0::2], h[::-2, ::-2]


def _c2_symmetry(h: np.ndarray) -> tuple[complex, float]:
    """Phase c of the C2 operator read off h, and the relative probe residual.

    Returns (c, ||C h C^dag - h||_max / max|h|); a zero matrix has residual 0.
    """
    h_uu, h_up, h_pu, h_pp = _c2_quadrants(h)
    overlap = np.vdot(h_up, h_pu)                     # ~ c^2 ||H_up||^2
    c = np.sqrt(overlap / abs(overlap)) if overlap != 0 else 1.0 + 0j
    scale = np.abs(h).max()
    if not scale > 0:
        return c, 0.0 if scale == 0 else float("nan")
    resid = max(np.abs(h_uu - h_pp).max(), np.abs(h_pu - c * c * h_up).max())
    return c, float(resid / scale)


class Propagator:
    """a(t) = exp(-i H t) a(0), built once per run on one of two paths.

    From an EffectiveHamiltonian (path "spectral"): exact in time via
    diagonalization.  H is split into the two C2 blocks when the probe
    passes (module docstring) and diagonalized whole otherwise.  Attributes
    of this path: blocks, a list of (evals, vecs, vecs_inv) per block, with
    vecs_inv None when V_b is singular; c2_phase and c2_residual, the C2
    phase and probe residual; use_stepper (dense Taylor fallback taken) and
    condition, the full-basis bound
    sqrt(sum_b ||V_b||_F^2 * sum_b ||V_b^-1||_F^2) on the eigenvector
    condition number compared against COND_LIMIT (exactly 1 for the
    Hermitian branch, whose eigenvectors are unitary).  The non-Hermitian
    V_b^-1 comes from the c-product with P = S for the whole H and P = the
    index reversal inside a C2 block, with a probe that falls back to
    np.linalg.inv.

    From a ScrewHamiltonian (path "matrix_free"): Taylor steps of the
    circulant-embedded FFT product (module docstring); norm1 is ||H||_1 and
    use_stepper is False.  On both paths matvecs counts the products with H
    that the Taylor stepper made.
    """

    def __init__(self, h_eff: EffectiveHamiltonian | ScrewHamiltonian):
        self.hermitian = h_eff.hermitian_only
        self.use_stepper = False
        self.matvecs = 0
        if isinstance(h_eff, ScrewHamiltonian):
            self.path = "matrix_free"
            self._init_matrix_free(h_eff)
            return
        self.path = "spectral"
        self.h = h_eff.matrix
        self.c2_phase, self.c2_residual = _c2_symmetry(self.h)
        dim = len(self.h)
        if self.c2_residual <= C2_TOL:
            c = self.c2_phase
            h_uu, h_up, h_pu, h_pp = _c2_quadrants(self.h)
            mean, mix = h_uu + h_pp, c * h_up + np.conj(c) * h_pu
            matrices = [0.5 * (mean + mix), 0.5 * (mean - mix)]
            perm = np.arange(dim // 2)[::-1]         # B^T = P B P, P reverses j
        else:
            matrices = [self.h]
            perm = np.arange(dim) ^ 1                # H^T = S H S, S swaps spins
        self.blocks = [self._diagonalize(m, perm) for m in matrices]
        self._phase_scale = max(np.abs(e).max() for e, _, _ in self.blocks)
        if self.hermitian:
            self.condition = 1.0
            return
        if any(vi is None for _, _, vi in self.blocks):
            self.condition = np.inf
        else:
            with np.errstate(over="ignore"):   # defective spectrum: ||V^-1|| overflows
                self.condition = float(np.sqrt(
                    sum(np.linalg.norm(v) ** 2 for _, v, _ in self.blocks)
                    * sum(np.linalg.norm(vi) ** 2 for _, _, vi in self.blocks)))
        # near-defective spectrum: spectral reconstruction unreliable
        self.use_stepper = not self.condition <= COND_LIMIT

    def _init_matrix_free(self, screw: ScrewHamiltonian):
        n = self.n_sites = screw.n_sites
        self._gauge = screw.gauge.T                  # (spin, site)
        self._length = smooth_length(2 * n - 1)
        circulant = np.zeros((self._length, 2, 2), dtype=complex)
        circulant[:n] = screw.table[n - 1:]          # T(d) at d mod L
        circulant[self._length - n + 1:] = screw.table[:n - 1]
        # (spin, spin', 1, L): broadcasts over the (branch, L) spectra
        self._spectrum = np.fft.fft(circulant, axis=0).transpose(1, 2, 0)[:, :, None, :]
        self.norm1 = self._phase_scale = screw.norm1()

    def _diagonalize(self, m: np.ndarray, perm: np.ndarray):
        if self.hermitian:
            evals, vecs = np.linalg.eigh(m)
            return evals, vecs, vecs.conj().T
        evals, vecs = np.linalg.eig(m)
        vecs_inv = _c_product_inverse(vecs, perm)
        if vecs_inv is None:
            try:
                vecs_inv = np.linalg.inv(vecs)
            except np.linalg.LinAlgError:
                pass
        return evals, vecs, vecs_inv

    def _checked_times(self, times) -> np.ndarray:
        """times as floats; a time with t * scale * eps >= 1 raises, as no
        phase E t would keep a correct digit (scale: max|E|, or ||H||_1 >=
        max|E| on the matrix-free path)."""
        times = np.asarray(times, dtype=float)
        t_max = np.abs(times).max(initial=0.0)
        if t_max * self._phase_scale * np.finfo(float).eps >= 1:
            raise FloatingPointError(f"time {t_max:.6g}: no phase E*t keeps a digit")
        return times

    def propagate(self, a0: np.ndarray, times) -> np.ndarray:
        """Amplitudes at the requested times: shape (len(times), 2N) for one
        a0 of length 2N, (B, len(times), 2N) for a stack of B, which the
        matrix-free path steps as one block."""
        times = self._checked_times(times)
        a0 = np.asarray(a0)
        if self.path == "spectral":
            if a0.ndim == 1:
                return self._propagate_spectral(a0, times)
            return np.array([self._propagate_spectral(a, times) for a in a0])
        a0s = np.atleast_2d(a0)
        out = np.empty((len(a0s), len(times), self.n_sites, 2), dtype=complex)
        for idx, b in self._step_screw(a0s, times):
            out[:, idx] = (b * self._gauge[:, None, :]).transpose(1, 2, 0)
        out = out.reshape(len(a0s), len(times), -1)
        return out if a0.ndim == 2 else out[0]

    def _propagate_spectral(self, a0: np.ndarray, times: np.ndarray) -> np.ndarray:
        if self.use_stepper:
            return self._propagate_expm(a0, times)
        if len(self.blocks) == 1:
            return self._propagate_block(self.blocks[0], a0, times)
        # a0 in the C2 eigenbasis q_j^+- = (e_u_j +- c e_p_j) / sqrt(2)
        c = self.c2_phase
        up, partner = a0[0::2], np.conj(c) * a0[::-2]
        plus, minus = [self._propagate_block(block, y / np.sqrt(2.0), times)
                       for block, y in zip(self.blocks, (up + partner, up - partner))]
        out = np.empty((len(times), len(a0)), dtype=complex)
        out[:, 0::2] = (plus + minus) / np.sqrt(2.0)
        out[:, ::-2] = c * (plus - minus) / np.sqrt(2.0)
        return out

    def _propagate_block(self, block, a0: np.ndarray, times: np.ndarray) -> np.ndarray:
        evals, vecs, vecs_inv = block
        coef = vecs_inv @ a0
        if not self.hermitian:
            coef += vecs_inv @ (a0 - vecs @ coef)
        phases = np.exp(-1j * np.outer(times, evals))
        return phases * coef @ vecs.T

    def _propagate_expm(self, a0: np.ndarray, times: np.ndarray) -> np.ndarray:
        out = np.empty((len(times), len(a0)), dtype=complex)
        a, t_cur = a0, 0.0
        for idx in np.argsort(times):
            a, products = _expm_dense(-1j * (times[idx] - t_cur) * self.h, a)
            out[idx] = a
            self.matvecs += products
            t_cur = times[idx]
        return out

    def _apply_screw(self, b: np.ndarray) -> np.ndarray:
        """H in the screw gauge on b (spin, branch, site): one FFT, four 2x2
        products in frequency space, one inverse FFT."""
        f = np.fft.fft(b, n=self._length, axis=-1)
        (c00, c01), (c10, c11) = self._spectrum
        hf = np.empty_like(f)
        np.multiply(c00, f[0], out=hf[0])
        hf[0] += c01 * f[1]
        np.multiply(c10, f[0], out=hf[1])
        hf[1] += c11 * f[1]
        return np.fft.ifft(hf, axis=-1)[..., :self.n_sites]

    def _step_screw(self, a0s: np.ndarray, times: np.ndarray):
        """Yield (index into times, b = U^dag a(t) as (spin, branch, site)),
        stepping the sorted times with all branches as columns."""
        b = np.ascontiguousarray(
            (a0s.reshape(len(a0s), self.n_sites, 2) * self._gauge.T.conj()).transpose(2, 0, 1))
        t_cur = 0.0
        for idx in np.argsort(times):
            dt = times[idx] - t_cur
            steps = _taylor_steps(abs(dt) * self.norm1)
            scale = -1j * dt / steps
            b, products = _expm_apply(lambda x, scale=scale: scale * self._apply_screw(x),
                                      b, steps, axis=(0, 2))
            self.matvecs += products
            t_cur = times[idx]
            yield idx, b


@dataclass
class ObservableSeries:
    """Transport observables on the output time grid."""

    times: np.ndarray
    trace: np.ndarray            # total surviving population Tr rho(t)
    p_up: np.ndarray
    p_down: np.ndarray
    sz: np.ndarray               # P_up - P_down
    z_com: np.ndarray            # norm-conditioned center of mass
    eta: np.ndarray              # helicity in {+1, -1, nan (undefined)}
    per_site: np.ndarray         # (T, N, 2) site- and spin-resolved populations


def helicity(sz: np.ndarray, z_com: np.ndarray, times: np.ndarray,
             deadband: float = HELICITY_DEADBAND) -> np.ndarray:
    """eta(t) = sign(<S_z> * v); undefined (nan) inside the dead-band."""
    if len(times) < 2:
        raise ValueError("helicity needs at least two time points")
    with np.errstate(over="ignore", invalid="ignore"):  # dx1*dx2 overflows on huge steps
        v = np.gradient(z_com, times)
    prod = sz * v
    eta = np.where(prod > 0, 1.0, -1.0)
    eta[~(np.abs(prod) > deadband)] = np.nan  # also catches nan z_com
    return eta


def populations(prop: Propagator, state: ExcitationState, times) -> np.ndarray:
    """Branch-weighted site and spin populations sum_b w_b |a_b(t)|^2 at the
    given times, shape (len(times), N, 2)."""
    per_site = np.zeros((len(times), state.n_sites, 2))
    amps = prop.propagate(np.array(state.amplitudes), times)
    for w, a in zip(state.weights, amps):
        per_site += w * np.abs(a.reshape(per_site.shape)) ** 2
    return per_site


def evolve(prop: Propagator, state: ExcitationState, geom: EmitterGeometry, times,
           deadband: float = HELICITY_DEADBAND) -> ObservableSeries:
    """Propagate all branches with prop, the run's built Propagator, and
    assemble the observable series."""
    times = np.asarray(times, dtype=float)
    if np.any(times < 0) or np.any(np.diff(times) < 0):
        raise ValueError("output times must be sorted and non-negative")
    per_site = populations(prop, state, times)
    p_spin = per_site.sum(axis=1)
    trace = p_spin.sum(axis=1)
    p_site = per_site.sum(axis=2)
    with np.errstate(invalid="ignore", divide="ignore"):
        z_com = (p_site @ geom.z) / trace
    eta = helicity(p_spin[:, 0] - p_spin[:, 1], z_com, times, deadband)
    return ObservableSeries(
        times=times,
        trace=trace,
        p_up=p_spin[:, 0],
        p_down=p_spin[:, 1],
        sz=p_spin[:, 0] - p_spin[:, 1],
        z_com=z_com,
        eta=eta,
        per_site=per_site,
    )


def arrival_time(series: ObservableSeries, geom: EmitterGeometry):
    """First local maximum of the far-end site population (diagnostic).

    The far end is the site with the largest |z - z_launch| deduced from the
    series' t=0 center of mass.  Returns None if the population is still
    rising at the end of the series.
    """
    far = int(np.argmax(np.abs(geom.z - series.z_com[0])))
    p = series.per_site[:, far, :].sum(axis=1)
    rising = False
    for i in range(1, len(p)):
        if p[i] > p[i - 1]:
            rising = True
        elif rising and p[i] < p[i - 1]:
            return float(series.times[i - 1])
    return None


def _taylor_steps(norm: float) -> int:
    """The fewest Taylor steps s with norm / s <= 4."""
    return max(1, int(np.ceil(norm / 4.0)))


def _expm_apply(apply, v: np.ndarray, steps: int, axis=0) -> tuple[np.ndarray, int]:
    """(exp(A) @ v, products made) from `steps` Taylor steps, apply(x) being
    (A / steps) x with ||A / steps||_1 <= 4: numpy only, no
    eigendecomposition and no squaring.  Each step's series stops once a term
    falls below round-off of the sum in the 1-norm of every column (the sum
    over `axis`); the remaining terms then add at most e^4 times that
    (Al-Mohy and Higham, SIAM J. Sci. Comput. 33, 488 (2011))."""
    out, products = v.astype(complex), 0
    for _ in range(steps):
        term = out
        for n in range(1, 60):
            term = apply(term) / n
            out += term
            products += 1
            if (np.abs(term).sum(axis=axis).max()
                    <= np.finfo(float).eps * np.abs(out).sum(axis=axis).max()):
                break
    return out, products


def _expm_dense(a: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, int]:
    """_expm_apply for a dense matrix a, prescaled by its step count.  v is a
    vector (Propagator fallback) or the identity (the master-equation oracle,
    which checks the spectral path)."""
    steps = _taylor_steps(np.abs(a).sum(axis=0).max())
    a = a / steps
    return _expm_apply(lambda x: a @ x, v, steps)


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


def estimated_matvecs(norm1: float, times) -> float:
    """Products with H that Taylor stepping from t = 0 over the sorted times
    needs, for ||H||_1 = norm1: per step of theta = |dt| norm1 / s <= 4, the
    terms until the bound theta^n / n! falls to round-off.  A float, so a
    huge time gives a huge (or infinite) count rather than an integer loop."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        x = np.abs(np.diff(np.sort(np.asarray(times, dtype=float)), prepend=0.0)) * norm1
        steps = np.maximum(1.0, np.ceil(x / 4.0))
        n = np.arange(1, 60)
        log_bound = n * np.log(x / steps)[:, None] - np.cumsum(np.log(n))
        terms = 1 + np.count_nonzero(log_bound > np.log(np.finfo(float).eps), axis=1)
        return float(np.sum(steps * terms)) if np.all(np.isfinite(x)) else np.inf


def prefer_matrix_free(screw: ScrewHamiltonian, time_sets) -> bool:
    """True when Taylor stepping the FFT product over each of time_sets (each
    stepped from t = 0) is expected to cost less than diagonalizing H; the
    constants are timings on one BLAS thread."""
    n = screw.n_sites
    length = smooth_length(2 * n - 1)
    matvecs = sum(estimated_matvecs(screw.norm1(), times) for times in time_sets)
    per_product = MATVEC_S + MATVEC_S_PER_LLOGL * length * np.log2(length)
    return matvecs * per_product < EIG_S_PER_N3 * n ** 3


def master_equation_check(state: ExcitationState, coupling: CouplingTensor,
                          t_final: float, hermitian_only: bool = False,
                          n_eval: int = 50) -> float:
    """Max observable deviation between branch propagation and the density
    matrix of rho_dot = -i (H_eff rho - rho H_eff^dag), stepped as
    rho <- P rho P^dag with P = exp(-i H_eff dt) over the n_eval equal steps.

    Dense density-matrix evolution scales as (2N)^2, so this oracle is
    restricted to N <= 8.
    """
    n = state.n_sites
    if n > 8:
        raise ValueError("master_equation_check is limited to N <= 8 emitters")
    h_eff = effective(coupling, hermitian_only)
    dim = 2 * n
    rho = np.zeros((dim, dim), dtype=complex)
    for w, a in zip(state.weights, state.amplitudes):
        rho += w * np.outer(a, a.conj())

    times = np.linspace(0.0, t_final, n_eval + 1)
    step, _ = _expm_dense(-1j * (times[1] - times[0]) * h_eff.matrix, np.eye(dim))

    # geometry is only needed for z_com; a placeholder z = site index works
    # for the comparison since both sides use the same values
    z = np.arange(n, dtype=float)
    fake_geom = EmitterGeometry(np.column_stack([np.zeros(n), np.zeros(n), z]),
                                label="index line")
    series = evolve(Propagator(h_eff), state, fake_geom, times)

    dev = 0.0
    for i in range(len(times)):
        if i:
            rho = step @ rho @ step.conj().T
        pops = np.diag(rho).real.reshape(n, 2)
        tr = pops.sum()
        dev = max(dev, np.abs(pops - series.per_site[i]).max())
        dev = max(dev, abs(tr - series.trace[i]))
        dev = max(dev, abs(pops[:, 0].sum() - series.p_up[i]))
        dev = max(dev, abs(pops[:, 1].sum() - series.p_down[i]))
        z_com = pops.sum(axis=1) @ z / tr
        dev = max(dev, abs(z_com - series.z_com[i]))
    return float(dev)
