"""No-jump time evolution of single-excitation states and transport observables.

A mixed initial state is stored as weighted pure-state branches; each branch
amplitude vector a (length 2N) evolves as a(t) = exp(-i H_eff t) a(0), which
is equivalent to the no-jump master equation
rho_dot = -i (H_eff rho - rho H_eff^dag).  The propagator uses a spectral
decomposition of H_eff (exact in t), built once per run.

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

If the eigenvector matrix is too ill conditioned, propagation falls back to
a <- expm_multiply(-i (t_i - t_{i-1}) H_eff, a) over the sorted times.  The
criterion is sqrt(sum_b ||V_b||_F^2 * sum_b ||V_b^-1||_F^2) > COND_LIMIT,
the Frobenius product ||V||_F ||V^-1||_F of the full-basis eigenvector
matrix V = Q blockdiag(V_b) (Q, the C2 basis change, is unitary); it bounds
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
from .hamiltonian import CouplingTensor, EffectiveHamiltonian, effective

COND_LIMIT = 1e8       # eigenvector-matrix condition number triggering the fallback
C2_TOL = 1e-10         # relative residual ||C H C^dag - H|| below which C2 blocks are used
HELICITY_DEADBAND = 1e-6


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
    """Exact-in-time propagation a(t) = exp(-i H t) a(0) via diagonalization.

    H is split into the two C2 blocks when the probe passes (module
    docstring) and diagonalized whole otherwise.  Attributes set at
    construction: blocks, a list of (evals, vecs, vecs_inv) per block, with
    vecs_inv None when V_b is singular; c2_phase and c2_residual, the C2
    phase and probe residual; use_stepper (expm_multiply fallback taken) and
    condition, the full-basis bound
    sqrt(sum_b ||V_b||_F^2 * sum_b ||V_b^-1||_F^2) on the eigenvector
    condition number compared against COND_LIMIT (exactly 1 for the
    Hermitian branch, whose eigenvectors are unitary).  The non-Hermitian
    V_b^-1 comes from the c-product with P = S for the whole H and P = the
    index reversal inside a C2 block, with a probe that falls back to
    np.linalg.inv.
    """

    def __init__(self, h_eff: EffectiveHamiltonian):
        self.h = h_eff.matrix
        self.hermitian = h_eff.hermitian_only
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
        self.use_stepper = False
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

    def propagate(self, a0: np.ndarray, times) -> np.ndarray:
        """Amplitudes at the requested times, shape (len(times), 2N)."""
        times = np.asarray(times, dtype=float)
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
        from scipy.sparse.linalg import expm_multiply   # slow import, fallback only

        out = np.empty((len(times), len(a0)), dtype=complex)
        a = a0.astype(complex)
        t_cur = 0.0
        for idx in np.argsort(times):
            a = expm_multiply(-1j * (times[idx] - t_cur) * self.h, a)
            t_cur = times[idx]
            out[idx] = a
        return out


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
    v = np.gradient(z_com, times)
    prod = sz * v
    eta = np.where(prod > 0, 1.0, -1.0)
    eta[~(np.abs(prod) > deadband)] = np.nan  # also catches nan z_com
    return eta


def populations(prop: Propagator, state: ExcitationState, times) -> np.ndarray:
    """Branch-weighted site and spin populations sum_b w_b |a_b(t)|^2 at the
    given times, shape (len(times), N, 2)."""
    per_site = np.zeros((len(times), state.n_sites, 2))
    for w, a0 in zip(state.weights, state.amplitudes):
        per_site += w * np.abs(prop.propagate(a0, times).reshape(per_site.shape)) ** 2
    return per_site


def evolve(state: ExcitationState, h_eff: EffectiveHamiltonian,
           geom: EmitterGeometry, times,
           deadband: float = HELICITY_DEADBAND,
           propagator: Propagator | None = None) -> ObservableSeries:
    """Propagate all branches and assemble the observable series.

    propagator: an already-built Propagator of h_eff to reuse; by default
    one is built here.
    """
    times = np.asarray(times, dtype=float)
    if np.any(times < 0) or np.any(np.diff(times) < 0):
        raise ValueError("output times must be sorted and non-negative")
    if propagator is None:
        prop = Propagator(h_eff)
    elif propagator.h is h_eff.matrix:
        prop = propagator
    else:
        raise ValueError("propagator was built from a different Hamiltonian")
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


def master_equation_check(state: ExcitationState, coupling: CouplingTensor,
                          t_final: float, hermitian_only: bool = False,
                          n_eval: int = 50) -> float:
    """Max observable deviation between branch propagation and direct
    integration of rho_dot = -i (H_eff rho - rho H_eff^dag).

    Dense density-matrix integration scales as (2N)^2, so this oracle is
    restricted to N <= 8.
    """
    from scipy.integrate import solve_ivp

    n = state.n_sites
    if n > 8:
        raise ValueError("master_equation_check is limited to N <= 8 emitters")
    h_eff = effective(coupling, hermitian_only)
    h = h_eff.matrix
    dim = 2 * n
    rho0 = np.zeros((dim, dim), dtype=complex)
    for w, a in zip(state.weights, state.amplitudes):
        rho0 += w * np.outer(a, a.conj())

    def rhs(_t, y):
        rho = y.reshape(dim, dim)
        drho = -1j * (h @ rho - rho @ h.conj().T)
        return drho.ravel()

    times = np.linspace(0.0, t_final, n_eval + 1)
    sol = solve_ivp(rhs, (0.0, t_final), rho0.ravel(), t_eval=times,
                    method="RK45", rtol=1e-10, atol=1e-12)
    if not sol.success:
        raise RuntimeError(f"density-matrix integration failed: {sol.message}")

    # geometry is only needed for z_com; a placeholder z = site index works
    # for the comparison since both sides use the same values
    z = np.arange(n, dtype=float)
    fake_geom = EmitterGeometry(np.column_stack([np.zeros(n), np.zeros(n), z]),
                                label="index line")
    series = evolve(state, h_eff, fake_geom, times)

    dev = 0.0
    for i, _t in enumerate(times):
        rho = sol.y[:, i].reshape(dim, dim)
        pops = np.diag(rho).real.reshape(n, 2)
        tr = pops.sum()
        dev = max(dev, np.abs(pops - series.per_site[i]).max())
        dev = max(dev, abs(tr - series.trace[i]))
        dev = max(dev, abs(pops[:, 0].sum() - series.p_up[i]))
        dev = max(dev, abs(pops[:, 1].sum() - series.p_down[i]))
        z_com = pops.sum(axis=1) @ z / tr
        dev = max(dev, abs(z_com - series.z_com[i]))
    return float(dev)
