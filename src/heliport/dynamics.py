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
ScrewHamiltonian embeds the table once in a block circulant of 5-smooth
length L >= 2N - 1 and holds its block spectrum, so a product is one FFT of
b zero-padded to L (one padded buffer per propagation), four 2x2 products
in frequency space and one inverse FFT, truncated to N sites.  b is held
spin-major, (spin, branch, site) with the FFT on the last axis, and every
launch branch is a column of the one block that is stepped.  U is applied
once per output time, never inside a product.

The stepper (Propagator._step, which the dense fallback below shares) takes
s = ceil(t_max ||H|| / 6) uniform steps of dt = t_max / s from 0 to the
largest output time, whatever the grid, so ||dt H|| <= 6 in the step norm:
||H||_1 on the dense fallback, and on the matrix-free path the circulant's
exact 2-norm, max_l ||M_l||_2 over its 2x2 spectral blocks, which bounds
||H||_2 (ScrewHamiltonian.norm_bound; 12.4 against ||H||_1 = 29.2 at
N = 600).  Each step is one series of the Taylor kernel _expm_apply, with
-i dt folded into the operator once per propagation, and a time
t = k dt + tau dt inside step k sums tau^n times the n-th term as the terms
are made, the evaluation of exp(tA)B on a grid of times from shared steps
(Al-Mohy and Higham, SIAM J. Sci. Comput. 33, 488 (2011), sec. 5).
Amplitudes are yielded time by time (Propagator.stream) and populations()
squares each as it arrives, so a run holds the amplitudes of the times
inside one step, never all T of them.  The step norm is >= max|E|, so it
also sets the phase guard: a time with t ||H|| eps >= 1 raises
FloatingPointError, and a negative time ValueError, before any step count
is formed.  launch builds a run's Propagator on the path modelled_seconds
prefers, N^3 for the spectral build (assemble, eig and inv) against
estimated products times L log L (constants measured once, 1 BLAS thread);
below the crossover (near N = 117 for the packaged helix geometry) the
spectral path is cheaper.

The spectral path makes one eig (eigh for hermitian_only) of the whole
2N x 2N H_eff.  For a non-Hermitian H_eff, V^-1 is np.linalg.inv of the
eigenvector matrix V, and expansion coefficients get one refinement step
c += V^-1 (a0 - V c).

If the eigenvector matrix is too ill conditioned, propagation steps
a <- exp(-i dt H_eff) a instead, with the same Taylor stepper as the
matrix-free path on the dense matrix.  The
criterion is ||V||_F ||V^-1||_F > COND_LIMIT; the Frobenius product bounds
the 2-norm condition number from above, so it trips at least as early as an
SVD-based test would, and costs no SVD.

Observables follow the transport picture: per-spin populations P_up/P_down,
per-site populations, <S_z> = P_up - P_down, the surviving-excitation center
of mass <z> (normalized by the instantaneous norm), and the helicity
eta = sign(<S_z> * v) with v the discrete d<z>/dt.  populations() gives the
branch-weighted site populations on any time grid and observables() the
series on a sorted one; evolve composes the two.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import hamiltonian
from .geometry import EmitterGeometry
from .hamiltonian import CouplingTensor, EffectiveHamiltonian, ScrewHamiltonian, effective

COND_LIMIT = 1e8       # eigenvector-matrix condition number triggering the fallback
HELICITY_DEADBAND = 1e-6
# path-choice cost model, seconds: EIG_S_PER_N3 * N^3 for the spectral build
# (assemble, eig and inv) against, per estimated product, MATVEC_S +
# MATVEC_S_PER_LLOGL * L log2 L
EIG_S_PER_N3 = 4.3e-8
MATVEC_S = 5.3e-5
MATVEC_S_PER_LLOGL = 6.9e-9
TAYLOR_THETA = 6.0     # the step norm ||dt H|| each Taylor series may span


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


class Propagator:
    """a(t) = exp(-i H t) a(0), built once per run on one of two paths.

    From an EffectiveHamiltonian (path "spectral"): exact in time via one
    diagonalization of the whole H (module docstring).  Attributes of this
    path: evals, vecs and vecs_inv (np.linalg.inv of V; None when V is
    singular); use_stepper (dense Taylor fallback taken) and condition, the
    bound ||V||_F ||V^-1||_F on the eigenvector condition number compared
    against COND_LIMIT (exactly 1 for the Hermitian branch, whose
    eigenvectors are unitary).

    From a ScrewHamiltonian (path "matrix_free"): Taylor steps of the
    circulant-embedded FFT product (module docstring); use_stepper is False.
    step_norm is the norm that sizes the Taylor steps (||H||_1 on the
    spectral path and its fallback, the circulant's 2-norm bound on the
    matrix-free path) and matvecs counts the products with H that the
    Taylor stepper made.  stream yields the amplitudes time by time;
    propagate collects them into one array.  A Propagator built by launch
    also holds modelled_s, the path-choice model's seconds of each path.
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
        self.step_norm = np.abs(self.h).sum(axis=0).max()
        if self.hermitian:
            self.evals, self.vecs = np.linalg.eigh(self.h)
            self.vecs_inv = self.vecs.conj().T
            self.condition = 1.0
        else:
            self.evals, self.vecs = np.linalg.eig(self.h)
            try:
                self.vecs_inv = np.linalg.inv(self.vecs)
            except np.linalg.LinAlgError:
                self.vecs_inv, self.condition = None, np.inf
            else:
                with np.errstate(over="ignore"):   # defective spectrum: ||V^-1|| overflows
                    self.condition = float(np.linalg.norm(self.vecs)
                                           * np.linalg.norm(self.vecs_inv))
            # near-defective spectrum: spectral reconstruction unreliable
            self.use_stepper = not self.condition <= COND_LIMIT
        self._phase_scale = np.abs(self.evals).max()

    def _init_matrix_free(self, screw: ScrewHamiltonian):
        self.n_sites = screw.n_sites
        self._gauge = screw.gauge.T                  # (spin, site)
        self._length = len(screw.spectrum)
        # (spin, spin', 1, L): broadcasts over the (branch, L) spectra
        self._spectrum = screw.spectrum.transpose(1, 2, 0)[:, :, None, :]
        self.step_norm = self._phase_scale = screw.norm_bound

    def _checked_times(self, times) -> np.ndarray:
        """times as floats.  A negative (or nan) time raises ValueError, as
        the stepper marches forward from 0; a time with t * scale * eps >= 1
        raises FloatingPointError, as no phase E t would keep a correct digit
        (scale: max|E|, or the step norm >= max|E| on the matrix-free path)."""
        times = np.asarray(times, dtype=float)
        if not np.all(times >= 0):
            raise ValueError("output times must be non-negative")
        t_max = times.max(initial=0.0)
        if t_max * self._phase_scale * np.finfo(float).eps >= 1:
            raise FloatingPointError(f"time {t_max:.6g}: no phase E*t keeps a digit")
        return times

    def stream(self, a0s: np.ndarray, times):
        """Yield (index into times, amplitudes of shape (B, 2N)) once per
        time for the stack a0s of B branches, shape (B, 2N), which every path
        propagates as one block: the stepping paths in order of time, holding
        no more than the times of one step, the spectral path in order of
        index from its one matrix product."""
        times = self._checked_times(times)
        n_b, dim = a0s.shape
        if self.path == "matrix_free":
            b0 = (a0s.reshape(n_b, -1, 2) * self._gauge.T.conj()).transpose(2, 0, 1)
            padded = np.zeros((2, n_b, self._length), dtype=complex)

            def scaled(c):
                spectrum = c * self._spectrum
                return lambda b: self._apply_screw(b, padded, spectrum)

            for idx, b in self._step(scaled, np.ascontiguousarray(b0), times, axis=(0, 2)):
                yield idx, (b * self._gauge[:, None, :]).transpose(1, 2, 0).reshape(n_b, dim)
        elif self.use_stepper:
            for idx, x in self._step(lambda c: (c * self.h).dot, a0s.T, times, axis=0):
                yield idx, x.T
        else:
            coef = self.vecs_inv @ a0s.T                 # (2N, B)
            if not self.hermitian:
                coef += self.vecs_inv @ (a0s.T - self.vecs @ coef)
            phases = np.exp(-1j * np.outer(times, self.evals))
            out = np.empty((n_b, len(times), dim), dtype=complex)
            np.matmul((phases * coef.T[:, None, :]).reshape(-1, dim), self.vecs.T,
                      out=out.reshape(-1, dim))
            for idx in range(len(times)):
                yield idx, out[:, idx]

    def propagate(self, a0: np.ndarray, times) -> np.ndarray:
        """Amplitudes at the requested times: shape (B, len(times), 2N) for a
        stack of B branches a0 of shape (B, 2N), or (len(times), 2N) for one
        a0 of length 2N."""
        a0 = np.asarray(a0)
        a0s = np.atleast_2d(a0)
        out = np.empty((len(a0s), len(times), a0s.shape[1]), dtype=complex)
        for idx, a in self.stream(a0s, times):
            out[:, idx] = a
        return out if a0.ndim == 2 else out[0]

    def _apply_screw(self, b: np.ndarray, padded: np.ndarray,
                     spectrum: np.ndarray) -> np.ndarray:
        """c H in the screw gauge on b (spin, branch, site), for spectrum =
        c * self._spectrum: one FFT, four 2x2 products in frequency space,
        one inverse FFT, truncated to N sites.  padded is a zero
        (spin, branch, L) buffer, reused across one propagation, whose first
        N sites take b."""
        padded[..., :self.n_sites] = b
        f = np.fft.fft(padded, axis=-1)
        (c00, c01), (c10, c11) = spectrum
        hf = np.empty_like(f)
        np.multiply(c00, f[0], out=hf[0])
        hf[0] += c01 * f[1]
        np.multiply(c10, f[0], out=hf[1])
        hf[1] += c11 * f[1]
        return np.fft.ifft(hf, axis=-1)[..., :self.n_sites]

    def _step(self, scaled, x: np.ndarray, times: np.ndarray, axis):
        """Yield (index into times, x(t)) from x(0) = x in order of time;
        scaled(c) is the function x -> c H x, and `axis` holds the axes of x
        that one column's 1-norm sums over.  The s = ceil(t_max step_norm / 6)
        uniform steps of dt = t_max / s run from 0 to the largest time, and a
        time t = k dt + tau dt in step k is summed from that step's Taylor
        terms (_expm_apply with the step's fractions tau)."""
        order = np.argsort(times, kind="stable")
        ordered = times[order]
        t_max = times.max(initial=0.0)
        steps = _taylor_steps(t_max * self.step_norm)
        dt = t_max / max(steps, 1)
        apply = scaled(-1j * dt)
        first = 0
        for k in range(steps):
            # the times in [k dt, (k + 1) dt), and every time left in the last step
            last = (len(ordered) if k == steps - 1
                    else int(np.searchsorted(ordered, (k + 1) * dt)))
            x, partials, products = _expm_apply(apply, x, (ordered[first:last] - k * dt) / dt,
                                                axis)
            self.matvecs += products
            yield from zip(order[first:last], partials)
            del partials                                 # before the next step's series
            first = last
        for idx in order[first:]:                        # no step: t_max step_norm = 0
            yield idx, x


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
    given times, shape (len(times), N, 2), added up as each time is reached:
    no amplitudes beyond one step's times are held."""
    per_site = np.zeros((len(times), state.n_sites, 2))
    for idx, amps in prop.stream(np.array(state.amplitudes), times):
        for w, a in zip(state.weights, amps):
            per_site[idx] += w * np.abs(a.reshape(per_site.shape[1:])) ** 2
    return per_site


def observables(per_site: np.ndarray, geom: EmitterGeometry, times,
                deadband: float = HELICITY_DEADBAND) -> ObservableSeries:
    """The observable series from the site populations per_site, shape
    (len(times), N, 2), at the sorted, non-negative times."""
    times = np.asarray(times, dtype=float)
    if np.any(times < 0) or np.any(np.diff(times) < 0):
        raise ValueError("output times must be sorted and non-negative")
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


def evolve(prop: Propagator, state: ExcitationState, geom: EmitterGeometry, times,
           deadband: float = HELICITY_DEADBAND) -> ObservableSeries:
    """Propagate all branches with prop, the run's built Propagator, and
    assemble the observable series."""
    return observables(populations(prop, state, times), geom, times, deadband)


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
    """The fewest Taylor steps s with norm / s <= TAYLOR_THETA (none for a
    zero norm)."""
    return int(np.ceil(norm / TAYLOR_THETA))


def _expm_apply(apply, v: np.ndarray, fractions=(), axis=0):
    """(exp(A) @ v, [exp(tau A) @ v for tau in fractions], products made)
    from one Taylor series, apply(x) being A x with ||A|| <= TAYLOR_THETA = 6
    in a consistent norm: numpy only, no eigendecomposition and no
    squaring.  The series stops once a term falls below round-off of the sum
    in the 1-norm of every column (the sum over `axis`); the remaining
    terms then add at most e^6 times that, as one step's terms sum in norm
    to at most e^||A|| <= e^6 (Al-Mohy and Higham, SIAM J. Sci. Comput. 33,
    488 (2011)).  Each fraction 0 <= tau <= 1 sums tau^n times the n-th
    term as it is made, so its remainder is at most the full step's."""
    out, products = v.astype(complex), 0
    partials = [out.copy() for _ in fractions]
    term = out
    for n in range(1, 60):
        term = apply(term)
        term /= n
        out += term
        for part, tau in zip(partials, fractions):
            part += tau ** n * term
        products += 1
        if (np.abs(term).sum(axis=axis).max()
                <= np.finfo(float).eps * np.abs(out).sum(axis=axis).max()):
            break
    return out, partials, products


def _expm_dense(a: np.ndarray) -> np.ndarray:
    """exp(a) for a dense matrix a: _expm_apply on the identity, once per
    step of a prescaled by the step count.  Only the master-equation oracle
    uses it, for the step matrix that checks the Propagator."""
    steps = _taylor_steps(np.abs(a).sum(axis=0).max())
    a = a / max(steps, 1)
    out = np.eye(len(a), dtype=complex)
    for _ in range(steps):
        out = _expm_apply(lambda x: a @ x, out)[0]
    return out


def estimated_matvecs(norm: float, times) -> float:
    """Products with H that Taylor stepping from t = 0 to the largest time
    needs, for the step norm `norm`: s = ceil(t_max norm / 6) steps of
    theta = t_max norm / s <= 6, each taking the terms until the bound
    theta^n / n! falls to round-off.  A float, so a huge time gives a huge
    (or infinite) count rather than an integer loop."""
    with np.errstate(over="ignore", invalid="ignore"):
        x = np.max(np.asarray(times, dtype=float), initial=0.0) * norm
    if not np.isfinite(x):
        return np.inf
    steps = np.ceil(x / TAYLOR_THETA)
    if steps == 0:
        return 0.0
    n = np.arange(1, 60)
    log_bound = n * np.log(x / steps) - np.cumsum(np.log(n))
    return float(steps * (1 + np.count_nonzero(log_bound > np.log(np.finfo(float).eps))))


def modelled_seconds(n_sites: int, screw: ScrewHamiltonian | None, times) -> dict:
    """The path-choice model's seconds for an n_sites run over times:
    "spectral" for building the spectral propagator (assemble, eig and inv)
    and "matrix_free" for Taylor stepping the FFT product of screw to the
    largest time (inf when screw is None: there is no such path).  The
    constants are timings on one BLAS thread."""
    spectral = EIG_S_PER_N3 * n_sites ** 3
    if screw is None:
        return {"spectral": spectral, "matrix_free": np.inf}
    length = len(screw.spectrum)
    per_product = MATVEC_S + MATVEC_S_PER_LLOGL * length * np.log2(length)
    return {"spectral": spectral,
            "matrix_free": estimated_matvecs(screw.norm_bound, times) * per_product}


def launch(geom: EmitterGeometry, hermitian_only: bool, times) -> Propagator:
    """The Propagator of a run that propagates once, from t = 0 over times,
    on the path modelled_seconds prefers: matrix-free for a screw geometry
    when Taylor stepping is modelled cheaper than the spectral build (J and
    Gamma are then never assembled), spectral otherwise.  Its modelled_s
    holds the model's seconds of each path."""
    screw = hamiltonian.screw_effective(geom, hermitian_only)
    modelled = modelled_seconds(geom.n_sites, screw, times)
    if modelled["matrix_free"] < modelled["spectral"]:
        prop = Propagator(screw)
    else:
        prop = Propagator(effective(hamiltonian.assemble(geom), hermitian_only))
    prop.modelled_s = modelled
    return prop


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
    step = _expm_dense(-1j * (times[1] - times[0]) * h_eff.matrix)

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
