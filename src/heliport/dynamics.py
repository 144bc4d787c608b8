"""No-jump time evolution of single-excitation states and transport observables.

A mixed initial state is stored as weighted pure-state branches; each branch
amplitude vector a (length 2N) evolves as a(t) = exp(-i H_eff t) a(0), which
is equivalent to the no-jump master equation
rho_dot = -i (H_eff rho - rho H_eff^dag).  launch picks a run's one
Propagator: the series below of a ScrewProduct when modelled_seconds prefers
it (crossover near N = 84 for the packaged helix), otherwise
dense_propagator, the one decision for a dense H: a SpectralPropagator (one
eig of H_eff), or the series of a DenseProduct when ||V||_F ||V^-1||_F
(>= the 2-norm condition number) exceeds COND_LIMIT.

The series (SeriesPropagator) works on a box holding the field of values W(H)
(ScrewHamiltonian.box, or the O(N^2) Gershgorin box of a dense H).  With c
its center, rho its half-width (at least its half-height h) and
X = (H - c)/rho, exp(-i tau dt H) = exp(-i tau dt c) sum_n (2 - delta_n0)
(-i)^n J_n(tau rho dt) T_n(X) (Tal-Ezer and Kosloff, J. Chem. Phys. 81, 3967
(1984); Huisinga et al., J. Chem. Phys. 110, 5538 (1999)).  series_plan
takes s = ceil(t_max rho / SERIES_WIDTH) steps of dt = t_max / s and fixes
the degree m before the first product, the least m with
(1 + sqrt 2) |exp(-i dt c)| sum_{n>m} 2 |J_n(rho dt)| r^n below round-off,
r the Bernstein ellipse through 1 + i h/rho (Crouzeix and Palencia, SIAM
J. Matrix Anal. Appl. 38, 649 (2017)); a run makes exactly s m products.
Every Propagator refuses a time whose phase keeps no digit (max|E|, or the
box's largest corner modulus), before any product.

Observables follow the transport picture: per-spin populations P_up/P_down,
per-site populations, <S_z> = P_up - P_down, the surviving-excitation center
of mass <z> (normalized by the instantaneous norm), and the helicity
eta = sign(<S_z> * v) with v the discrete d<z>/dt, all reduced from the
site populations as each time arrives (site_populations, evolve).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import hamiltonian
from .geometry import EmitterGeometry
from .hamiltonian import CouplingTensor, EffectiveHamiltonian, ScrewHamiltonian, effective

COND_LIMIT = 1e8       # eigenvector-matrix condition number triggering the fallback
HELICITY_DEADBAND = 1e-6
# path-choice cost model, seconds: EIG_S_PER_N3 * N^3 for the spectral build
# (assemble, eig and inv) against, per series product, MATVEC_S +
# MATVEC_S_PER_LLOGL * L log2 L
EIG_S_PER_N3 = 4.9e-8
MATVEC_S = 4.7e-5
MATVEC_S_PER_LLOGL = 9.3e-9
SERIES_WIDTH = 20.0    # the largest rho dt one series step spans
SERIES_BLOCK = 4       # terms or output times one matrix product combines


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
    """a(t) = exp(-i H t) a(0) by one method: a SpectralPropagator or a
    SeriesPropagator.  path names it ("spectral", "matrix_free" or
    "dense_series"), matvecs counts the products with H made and condition
    is ||V||_F ||V^-1||_F of the spectral build (None when none ran).
    stream yields the amplitudes time by time, propagate collects them."""

    matvecs = 0

    def _checked_times(self, times) -> np.ndarray:
        """times as floats, refusing a negative (or nan) time (ValueError)
        and one whose phase E t keeps no digit (FloatingPointError)."""
        times = np.asarray(times, dtype=float)
        if not np.all(times >= 0):
            raise ValueError("output times must be non-negative")
        t_max = times.max(initial=0.0)
        if t_max * self._phase_scale * np.finfo(float).eps >= 1:
            raise FloatingPointError(f"time {t_max:.6g}: no phase E*t keeps a digit")
        return times

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


class SpectralPropagator(Propagator):
    """One diagonalization of the whole dense H: evals, vecs, vecs_inv (None
    when V is singular) and condition (1 for the Hermitian branch), which
    dense_propagator compares against COND_LIMIT."""

    path = "spectral"

    def __init__(self, h_eff: EffectiveHamiltonian):
        self.hermitian = h_eff.hermitian_only
        if self.hermitian:
            self.evals, self.vecs = np.linalg.eigh(h_eff.matrix)
            self.vecs_inv, self.condition = self.vecs.conj().T, 1.0
        else:
            self.evals, self.vecs = np.linalg.eig(h_eff.matrix)
            try:
                self.vecs_inv = np.linalg.inv(self.vecs)
            except np.linalg.LinAlgError:
                self.vecs_inv, self.condition = None, np.inf
            else:
                with np.errstate(over="ignore"):   # defective spectrum: ||V^-1|| overflows
                    self.condition = float(np.linalg.norm(self.vecs)
                                           * np.linalg.norm(self.vecs_inv))
        self._phase_scale = np.abs(self.evals).max()

    def stream(self, a0s: np.ndarray, times):
        """Yield (index into times, amplitudes (B, 2N)) in order of index for
        the stack a0s (B, 2N), all from one matrix product."""
        times = self._checked_times(times)
        n_b, dim = a0s.shape
        coef = self.vecs_inv @ a0s.T                     # (2N, B)
        if not self.hermitian:
            coef += self.vecs_inv @ (a0s.T - self.vecs @ coef)
        phases = np.exp(-1j * np.outer(times, self.evals))
        out = np.empty((n_b, len(times), dim), dtype=complex)
        np.matmul((phases * coef.T[:, None, :]).reshape(-1, dim), self.vecs.T,
                  out=out.reshape(-1, dim))
        for idx in range(len(times)):
            yield idx, out[:, idx]


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
    far_end: np.ndarray          # population of the site far_site names
    snapshots: np.ndarray        # (S, N, 2) site populations at the snapshot times


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


def _weighted_populations(weights: np.ndarray, amps: np.ndarray) -> np.ndarray:
    """sum_b w_b |a_b|^2 over the branches amps (B, 2N), as (N, 2) site and
    spin populations: the one place amplitudes are squared."""
    return (weights[:, None] * np.abs(amps) ** 2).sum(axis=0).reshape(-1, 2)


def site_populations(prop: Propagator, state: ExcitationState, times):
    """Yield (index into times, (N, 2) branch-weighted site and spin
    populations) once per time, as prop.stream reaches it; a yielded row
    is the caller's to keep."""
    weights = np.array(state.weights)
    for idx, amps in prop.stream(np.array(state.amplitudes), times):
        yield idx, _weighted_populations(weights, amps)


def populations(prop: Propagator, state: ExcitationState, times) -> np.ndarray:
    """The rows of site_populations stacked, shape (len(times), N, 2)."""
    per_site = np.zeros((len(times), state.n_sites, 2))
    for idx, row in site_populations(prop, state, times):
        per_site[idx] = row
    return per_site


def far_site(state: ExcitationState, geom: EmitterGeometry) -> int:
    """The site with the largest |z - <z>| from the launch state's center
    of mass <z>."""
    p = _weighted_populations(np.array(state.weights), np.array(state.amplitudes)).sum(axis=1)
    return int(np.argmax(np.abs(geom.z - (p @ geom.z) / p.sum())))


def evolve(prop: Propagator, state: ExcitationState, geom: EmitterGeometry, times,
           deadband: float = HELICITY_DEADBAND, snapshot_times=()) -> ObservableSeries:
    """The observable series at the sorted, non-negative times and the site
    populations at the snapshot times, from one stream of prop, the run's
    built Propagator, over both.  Each series time's populations are reduced
    as they arrive to P_up, P_down, sum z p and the far_site population, so
    the run holds O(T + S N) numbers, never the (T, N, 2) populations."""
    times = np.asarray(times, dtype=float)
    if np.any(times < 0) or np.any(np.diff(times) < 0):
        raise ValueError("output times must be sorted and non-negative")
    n_t, far = len(times), far_site(state, geom)
    p_up, p_down, z_sum, far_end = np.zeros((4, n_t))
    snapshots = np.zeros((len(snapshot_times), state.n_sites, 2))
    grid = np.concatenate([times, snapshot_times])
    for idx, row in site_populations(prop, state, grid):
        if idx >= n_t:
            snapshots[idx - n_t] = row
            continue
        p_up[idx], p_down[idx] = row.sum(axis=0)
        z_sum[idx] = row.sum(axis=1) @ geom.z
        far_end[idx] = row[far].sum()
    trace = p_up + p_down
    with np.errstate(invalid="ignore", divide="ignore"):
        z_com = z_sum / trace
    sz = p_up - p_down
    return ObservableSeries(times=times, trace=trace, p_up=p_up, p_down=p_down, sz=sz,
                            z_com=z_com, eta=helicity(sz, z_com, times, deadband),
                            far_end=far_end, snapshots=snapshots)


def arrival_time(series: ObservableSeries):
    """First local maximum of the far-end site population (diagnostic).

    The far end is far_site of the launch state, fixed before propagation.
    Returns None if the population is still rising at the end of the series.
    """
    p = series.far_end
    rising = False
    for i in range(1, len(p)):
        if p[i] > p[i - 1]:
            rising = True
        elif rising and p[i] < p[i - 1]:
            return float(series.times[i - 1])
    return None


def _bessel(x, degree: int) -> np.ndarray:
    """J_0(x) .. J_degree(x) for each x >= 0, shape (len(x), degree + 1):
    Miller's backward recurrence from order max(degree, x) + 32, rescaled
    per x before it overflows and normalized by J_0 + 2 sum_k J_2k = 1, so
    each value is accurate relative to itself, far into the tail.  Below
    x = 1e-8 the leading terms 1 and x/2 are exact to round-off."""
    x = np.asarray(x, dtype=float)
    tiny = x < 1e-8
    safe = np.where(tiny, 1.0, x)
    out = np.zeros((len(x), degree + 1))
    later, now, even = np.zeros(len(x)), np.ones(len(x)), np.zeros(len(x))
    for n in range(max(degree, int(np.ceil(safe.max(initial=0.0)))) + 32, -1, -1):
        if n <= degree:
            out[:, n] = now
        if n % 2 == 0:
            even += now
        if n:
            later, now = now, (2 * n / safe) * now - later
            if n % 4 == 0:                               # 4 orders grow by < 1e43
                big = np.abs(now) > 1e100
                if big.any():
                    for part in (later, now, even, out):
                        part[big] *= 1e-100
    out /= (2 * even - now)[:, None]                     # J_0 + 2 sum_k J_2k
    out[tiny] = 0.0
    out[tiny, :2] = np.column_stack([np.ones_like(x), x / 2])[tiny, :degree + 1]
    return out


@lru_cache
def series_plan(box, t_max: float) -> tuple[float, int, complex, float]:
    """(steps s, degree m, center c, half-width rho) of the series to t_max
    over a box (Re lo, Re hi, Im lo, Im hi), module docstring; rho is at
    least the half-height h, so the ellipse parameter r stays below 2.9.  s is
    a float, inf when t_max rho overflows and 0 for a point box or t_max 0.
    Memoized: a run's path choice and stream share one plan."""
    re_lo, re_hi, im_lo, im_hi = box
    center, height = complex(re_lo + re_hi, im_lo + im_hi) / 2, (im_hi - im_lo) / 2
    rho = max((re_hi - re_lo) / 2, height)
    with np.errstate(over="ignore"):
        steps = float(np.ceil(np.float64(t_max) * rho / SERIES_WIDTH))
    if not 0 < steps < np.inf:
        return steps, 0, center, rho
    dt, w = t_max / steps, 1 + 1j * height / rho
    r = abs(w + np.sqrt(w * w - 1))
    n = np.arange(int(2 * r * rho * dt) + 41)          # far past the decay of J_n r^n
    tail = np.cumsum((np.abs(_bessel([rho * dt], n[-1])[0]) * r ** n)[::-1])[::-1]
    bound = 2 * (1 + np.sqrt(2)) * np.exp(dt * center.imag) * tail[1:]   # n > m
    return steps, int(np.argmax(bound <= np.finfo(float).eps)), center, rho


def estimated_matvecs(box, times) -> float:
    """The products the series makes to the largest time, exactly, before
    the first: a float, so a huge time gives a huge or infinite count."""
    steps, degree, _, _ = series_plan(box, np.max(np.asarray(times, dtype=float), initial=0.0))
    return steps * degree if steps < np.inf else np.inf


class SeriesPropagator(Propagator):
    """The series (module docstring) of a product with H, a ScrewProduct or a
    DenseProduct (then holding the condition of the spectral build it
    replaces), over a box holding W(H), whose largest corner guards the phase."""

    def __init__(self, product, box: tuple, condition: float | None = None):
        self.product, self.box, self.path = product, box, product.path
        self.condition, self.matvecs = condition, 0
        re_lo, re_hi, im_lo, im_hi = box
        self._phase_scale = np.hypot(max(-re_lo, re_hi), max(-im_lo, im_hi))

    def stream(self, a0s: np.ndarray, times):
        """Yield (index into times, amplitudes (B, 2N)) in order of time for
        the stack a0s (B, 2N), propagated as one block in the product's
        layout x; the product's fold(c, rho) gives x -> 2 (H - c) x / rho.
        A step forms T_0..T_m by the three-term recurrence and each output
        time in it from one row of Bessel coefficients, holding the m + 1
        terms or one partial sum per output time, whichever is fewer."""
        times = self._checked_times(times)
        order = np.argsort(times, kind="stable")
        x = self.product.enter(a0s)
        ordered, shape, leave = times[order], x.shape, self.product.leave
        t_max = ordered[-1] if len(ordered) else 0.0
        steps, degree, center, rho = series_plan(self.box, t_max)
        x = np.array(x, dtype=complex, order="C").ravel()
        if not steps:                                    # H = c 1, or t_max = 0
            for idx in order:
                yield idx, leave(np.exp(-1j * center * times[idx]) * x.reshape(shape))
            return
        steps, dt, block = int(steps), t_max / steps, SERIES_BLOCK
        apply = self.product.fold(center, rho)
        n = np.arange(degree + 1)
        weights = np.where(n, 2, 1) * np.array([1, -1j, -1, 1j])[n % 4]

        def coefficients(taus):
            """(len(taus), m + 1) coefficients of exp(-i tau dt H) on T_0..T_m."""
            coef = _bessel(taus * rho * dt, degree).astype(complex)
            coef *= weights
            coef *= np.exp(-1j * dt * center * taus)[:, None]
            return coef

        def recur(rows, k):
            """T_k = 2 X T_{k-1} - T_{k-2} (X T_0 for k = 1) into rows[k % len]."""
            self.matvecs += 1
            y = apply(rows[(k - 1) % len(rows)].reshape(shape))   # 2 X T_{k-1}
            dst = rows[k % len(rows)].reshape(shape)
            if k == 1:
                np.multiply(y, 0.5, out=dst)
            else:
                np.subtract(y, rows[(k - 2) % len(rows)].reshape(shape), out=dst)

        def combined(taus, terms):
            """Rows sum_n c_n(tau) T_n into out, block by block, with one
            _bessel call per 4 blocks."""
            for i in range(0, len(taus), 4 * block):
                coef = coefficients(taus[i:i + 4 * block])
                for j in range(0, len(coef), block):
                    yield np.matmul(coef[j:j + block], terms, out=out[:len(coef[j:j + block])])

        # step k takes the times in [k dt, (k + 1) dt), the last one those up to t_max
        bounds = np.concatenate([[0], np.searchsorted(ordered, dt * np.arange(1, steps)),
                                 [len(ordered)]])
        n_rows = np.diff(bounds) + (np.arange(steps) < steps - 1)   # and each step's end
        held = min(degree + 1, n_rows.max() + block)
        buf = np.empty((held + block, x.size), dtype=complex)
        out = buf[held:]                                 # one block of combined rows
        for k in range(steps):
            first, n_out = bounds[k], bounds[k + 1] - bounds[k]
            taus = ordered[first:first + n_out] / dt - k
            if k < steps - 1:
                taus = np.append(taus, 1.0)              # the step's end
            if degree + 1 <= len(taus) + block:          # hold the m + 1 terms
                terms = buf[:degree + 1]
                terms[0] = x
                for j in range(1, degree + 1):
                    recur(terms, j)
                blocks = combined(taus, terms)
            else:                                        # hold a partial sum per row
                ring, part = buf[:block], buf[block:block + len(taus)]
                ring[0], part[:] = x, 0.0
                coef = coefficients(taus)
                for j in range(degree + 1):
                    if j:
                        recur(ring, j)
                    if j % block == block - 1 or j == degree:
                        lo = j - j % block
                        for i in range(0, len(taus), block):
                            rows = part[i:i + block]
                            rows += np.matmul(coef[i:i + block, lo:j + 1], ring[:j - lo + 1],
                                              out=out[:len(rows)])
                blocks = (part[i:i + block] for i in range(0, len(taus), block))
            row = 0
            for rows in blocks:
                for value in rows[:n_out - row]:
                    yield order[first + row], leave(value.reshape(shape))
                    row += 1
            x = rows[-1]                                 # the step's end


class ScrewProduct:
    """H of a ScrewHamiltonian on b = U^dag a, held (spin, branch, site):
    one FFT of b zero-padded to the circulant length L, four 2x2 products
    with the circulant's block spectrum and one inverse FFT, truncated to N
    sites.  enter and leave apply U once per output time."""

    path = "matrix_free"

    def __init__(self, screw: ScrewHamiltonian):
        self._gauge, self._length = screw.gauge, len(screw.spectrum)   # (site, spin), L
        # (spin, spin', 1, L): broadcasts over the (branch, L) spectra
        self._spectrum = screw.spectrum.transpose(1, 2, 0)[:, :, None, :]

    def enter(self, a0s: np.ndarray) -> np.ndarray:
        return (a0s.reshape(len(a0s), -1, 2) * self._gauge.conj()).transpose(2, 0, 1)

    def leave(self, b: np.ndarray) -> np.ndarray:
        return np.multiply(b.transpose(1, 2, 0), self._gauge, order="C").reshape(b.shape[1], -1)

    def fold(self, c, rho):
        """b -> 2 (H - c) b / rho, c and 2/rho folded into the spectrum once."""
        spectrum = (self._spectrum - c * np.eye(2)[:, :, None, None]) * (2 / rho)
        return lambda b: self._apply(b, spectrum)

    def _apply(self, b: np.ndarray, spectrum: np.ndarray) -> np.ndarray:
        """The circulant of spectrum (spin, spin', 1, L) on b."""
        f = np.fft.fft(b, n=self._length, axis=-1)
        (c00, c01), (c10, c11) = spectrum
        f0 = c10 * f[0]                                  # in place: two rows of scratch
        f[0] *= c00
        f[0] += c01 * f[1]
        f[1] *= c11
        f[1] += f0
        return np.fft.ifft(f, axis=-1)[..., :len(self._gauge)]


class DenseProduct:
    """H of a dense matrix h on the stack y (2N, B)."""

    path = "dense_series"

    def __init__(self, h: np.ndarray):
        self.h = h

    def enter(self, a0s: np.ndarray) -> np.ndarray:
        return a0s.T

    def leave(self, x: np.ndarray) -> np.ndarray:
        return x.T.copy()

    def fold(self, c, rho):
        x = (self.h - c * np.eye(len(self.h))) * (2 / rho)
        return lambda y: x @ y


def _gershgorin_box(h: np.ndarray) -> tuple:
    """(Re lo, Re hi, Im lo, Im hi) holding W(h) for any dense h, O(N^2):
    Gershgorin intervals of (h + h^dag)/2 and (h - h^dag)/2i, whose
    eigenvalue ranges are Re W(h) and Im W(h)."""
    box = []
    for part in (0.5 * (h + h.conj().T), -0.5j * (h - h.conj().T)):
        diag = part.diagonal().real
        radius = np.abs(part).sum(axis=1) - np.abs(diag)
        box += [float((diag - radius).min()), float((diag + radius).max())]
    return tuple(box)


def _expm_dense(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i t h) for a dense h, the dense series on the identity: the
    master-equation oracle's step matrix."""
    series = SeriesPropagator(DenseProduct(h), _gershgorin_box(h))
    return series.propagate(np.eye(len(h), dtype=complex), [t])[:, 0].T


def dense_propagator(h_eff: EffectiveHamiltonian) -> Propagator:
    """The SpectralPropagator of a dense H_eff or, when its condition is not
    within COND_LIMIT (a near-defective spectrum, whose spectral
    reconstruction is unreliable), the dense series holding that condition."""
    spectral = SpectralPropagator(h_eff)
    if spectral.condition <= COND_LIMIT:
        return spectral
    return SeriesPropagator(DenseProduct(h_eff.matrix), _gershgorin_box(h_eff.matrix),
                            spectral.condition)


def modelled_seconds(n_sites: int, screw: ScrewHamiltonian | None, times) -> dict:
    """The path-choice model's seconds of an n_sites run over times:
    "spectral" (assemble, eig and inv) and "matrix_free" (the series of the
    FFT product of screw; inf when screw is None)."""
    spectral = EIG_S_PER_N3 * n_sites ** 3
    if screw is None:
        return {"spectral": spectral, "matrix_free": np.inf}
    length = len(screw.spectrum)
    per_product = MATVEC_S + MATVEC_S_PER_LLOGL * length * np.log2(length)
    return {"spectral": spectral,
            "matrix_free": estimated_matvecs(screw.box, times) * per_product}


def launch(geom: EmitterGeometry, hermitian_only: bool, times) -> tuple[Propagator, dict]:
    """The Propagator of a run that propagates once, from t = 0 over times,
    and the modelled_seconds of each path it chose between: the matrix-free
    series for a screw geometry when it is modelled cheaper than the
    spectral build, dense_propagator otherwise.  A screw geometry's one
    table serves either path (J and Gamma are never assembled)."""
    screw = hamiltonian.screw_effective(geom, hermitian_only)
    modelled = modelled_seconds(geom.n_sites, screw, times)
    if modelled["matrix_free"] < modelled["spectral"]:
        return SeriesPropagator(ScrewProduct(screw), screw.box), modelled
    h_eff = (effective(hamiltonian.assemble(geom), hermitian_only) if screw is None
             else hamiltonian.screw_matrix(screw))
    return dense_propagator(h_eff), modelled


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
    step = _expm_dense(h_eff.matrix, times[1] - times[0])

    # z_com only needs the same z on both sides: a placeholder z = site index
    z = np.arange(n, dtype=float)
    fake_geom = EmitterGeometry(np.column_stack([0 * z, 0 * z, z]), label="index line")
    prop = dense_propagator(h_eff)
    series, per_site = evolve(prop, state, fake_geom, times), populations(prop, state, times)

    dev = 0.0
    for i in range(len(times)):
        if i:
            rho = step @ rho @ step.conj().T
        pops = np.diag(rho).real.reshape(n, 2)
        tr = pops.sum()
        dev = max(dev, np.abs(pops - per_site[i]).max())
        dev = max(dev, abs(tr - series.trace[i]))
        dev = max(dev, abs(pops[:, 0].sum() - series.p_up[i]))
        dev = max(dev, abs(pops[:, 1].sum() - series.p_down[i]))
        z_com = pops.sum(axis=1) @ z / tr
        dev = max(dev, abs(z_com - series.z_com[i]))
    return float(dev)
