"""Invariant self-check battery for `check` mode.

Runs a battery of exact and statistical identities of the kernels on the
configured geometry: Green's-tensor structure, coupling symmetries, norm
behavior and propagator cross-validation, momentum-space symmetries, Wilson
loop gauge invariance, and field-map sanity (which includes the field
kernel's factors against an explicit Green's-tensor sum; the master-equation
cross-check also holds the matrix-free series to the spectral propagator on
the configured helix).  Randomized checks
use a fixed seed; the battery is deterministic.  The lattice checks make two
bloch.band_structure sweeps: a full one for the k -> -k symmetries, and a
coherent Wilson-grid one for the frame orthonormality and the all-band loop.
"""

from __future__ import annotations

import numpy as np

from . import bloch, dynamics, field, geometry, greens, hamiltonian, topology
from .config import RunConfig

_SEED = 7


class CheckFailure(AssertionError):
    pass


def _require(ok: bool, detail: str):
    if not ok:
        raise CheckFailure(detail)
    return detail


def _random_separations(rng, n):
    sep = rng.uniform(-2.0, 2.0, size=(n, 3))
    sep[np.linalg.norm(sep, axis=1) < 0.05] += 0.3
    return sep


def check_polarization_basis(_cfg, _rng):
    e_up, e_dn = greens.EPS_UP, greens.EPS_DOWN
    err = max(abs(np.vdot(e_up, e_up) - 1), abs(np.vdot(e_dn, e_dn) - 1),
              abs(np.vdot(e_up, e_dn)))
    return _require(err < 1e-15, f"orthonormality error {err:.1e}")


def check_green_evenness(_cfg, rng):
    sep = _random_separations(rng, 20)
    err = np.abs(greens.green_tensor(sep) - greens.green_tensor(-sep)).max()
    return _require(err < 1e-14, f"max |G(r) - G(-r)| = {err:.1e}")


def check_green_far_field(_cfg, _rng):
    r = np.array([0.0, 0.0, 1e3 / greens.K0])
    g = greens.green_tensor(r)
    d = np.linalg.norm(r)
    asym = (np.exp(1j * greens.K0 * d) / (4 * np.pi * d)) * np.diag([1.0, 1.0, 0.0])
    err = np.abs(g - asym).max() / np.abs(asym).max()
    return _require(err < 1e-2, f"far-field relative deviation {err:.1e}")


def check_self_decay_normalization(_cfg, _rng):
    # small-separation series of the co-polarized dissipative coupling:
    # Gamma(u)/Gamma_0 = 1 - u^2/5 + 3u^4/280 + ...  (u = k0 r, r along z).
    # u ~ 1e-3 keeps both the series truncation and the 1/u^2 cancellation
    # roundoff of the direct formula well below the tolerance.
    err = 0.0
    for u in (5e-4, 1e-3, 2e-3):
        _, gam = greens.coupling_blocks(np.array([0.0, 0.0, u / greens.K0]))
        series = greens.GAMMA0 * (1.0 - u**2 / 5.0 + 3.0 * u**4 / 280.0)
        err = max(err, abs(gam[0, 0].real - series))
    return _require(err < 1e-8, f"self-decay prefactor deviation {err:.1e}")


def check_pair_symmetries(_cfg, rng):
    sep = _random_separations(rng, 50)
    j, gam = greens.coupling_blocks(sep)
    err = 0.0
    for blk in (j, gam):
        err = max(err, np.abs(blk - blk.conj().transpose(0, 2, 1)).max())  # Hermitian
        err = max(err, np.abs(blk[:, 0, 0] - blk[:, 1, 1]).max())          # co-polar equal
    # reciprocity: swapping the pair transposes the spin block
    j2, gam2 = greens.coupling_blocks(-sep)
    err = max(err, np.abs(j2 - j.conj().transpose(0, 2, 1)).max())
    err = max(err, np.abs(gam2 - gam.conj().transpose(0, 2, 1)).max())
    return _require(err < 1e-12, f"pair symmetry error {err:.1e}")


def check_rotation_covariance(_cfg, rng):
    err = 0.0
    for _ in range(50):
        base = geometry.EmitterGeometry(_random_separations(rng, 2), label="pair")
        delta = rng.uniform(0, 2 * np.pi)
        rot = geometry.rotate_about_z(base, delta)
        j0, g0 = greens.coupling_blocks(base.positions[0] - base.positions[1])
        j1, g1 = greens.coupling_blocks(rot.positions[0] - rot.positions[1])
        err = max(err, abs(j1[0, 0] - j0[0, 0]), abs(g1[0, 0] - g0[0, 0]))
        err = max(err, abs(j1[0, 1] - j0[0, 1] * np.exp(-2j * delta)))
    return _require(err < 1e-10, f"rotation covariance error {err:.1e}")


def check_axial_decoupling(_cfg, rng):
    z = rng.uniform(0.05, 3.0, size=20)
    sep = np.column_stack([np.zeros_like(z), np.zeros_like(z), z])
    j, gam = greens.coupling_blocks(sep)
    err = max(np.abs(j[:, 0, 1]).max(), np.abs(gam[:, 0, 1]).max())
    return _require(err < 1e-12, f"max axial cross coupling {err:.1e}")


def check_assembled_couplings(cfg, _rng):
    geom = cfg.build_geometry()
    coup = hamiltonian.assemble(geom)
    issues = coup.validation_issues()
    _require(not issues, "; ".join(issues) or "ok")
    h = hamiltonian.effective(coup)
    tr = np.linalg.eigvals(h.matrix).imag.sum()
    err = abs(tr + geom.n_sites * greens.GAMMA0)
    return _require(err < 1e-8, f"decay trace identity error {err:.1e}")


def check_mirror_spectrum(cfg, _rng):
    geom = cfg.build_geometry()
    mirrored = geometry.mirror_xz(geom)
    w1 = np.sort_complex(np.linalg.eigvals(
        hamiltonian.effective(hamiltonian.assemble(geom)).matrix))
    w2 = np.sort_complex(np.linalg.eigvals(
        hamiltonian.effective(hamiltonian.assemble(mirrored)).matrix))
    err = np.abs(w1 - w2).max()
    return _require(err < 1e-10, f"mirror spectrum deviation {err:.1e}")


def check_norm_behavior(cfg, _rng):
    geom = cfg.build_geometry()
    coup = hamiltonian.assemble(geom)
    state = dynamics.initial_state(geom.n_sites, 0, 0.5)
    times = np.linspace(0.0, 5.0, 120)
    ser = dynamics.evolve(dynamics.dense_propagator(hamiltonian.effective(coup)), state, geom,
                          times)
    rise = np.diff(ser.trace).max()
    _require(rise <= 1e-10, f"norm increases by {rise:.1e}")
    split = np.abs(ser.p_up + ser.p_down - ser.trace).max()
    _require(split < 1e-10, f"P_up + P_down vs trace deviation {split:.1e}")
    times_h = np.linspace(0.0, 20.0, 80)
    ser_h = dynamics.evolve(dynamics.dense_propagator(hamiltonian.effective(coup, True)),
                            state, geom, times_h)
    drift = np.abs(ser_h.trace - 1.0).max()
    return _require(drift < 1e-8, f"hermitian norm drift {drift:.1e}")


def check_mirror_transport(cfg, _rng):
    geom = cfg.build_geometry()
    mirrored = geometry.mirror_xz(geom)
    state = dynamics.initial_state(geom.n_sites, 0, 0.5)
    times = np.linspace(0.0, 5.0, 60)
    a, b = (dynamics.evolve(
        dynamics.dense_propagator(hamiltonian.effective(hamiltonian.assemble(g))), state, g, times)
        for g in (geom, mirrored))
    err = max(np.abs(a.p_up - b.p_down).max(), np.abs(a.p_down - b.p_up).max())
    return _require(err < 1e-10, f"mirror transport deviation {err:.1e}")


def check_master_equation(cfg, _rng):
    src = cfg.helix
    if src is None:
        return "skipped (needs a helix geometry)"
    # about six sites, at most the eight that master_equation_check accepts
    turns = max(1, int(np.ceil(6 / src.sites_per_turn)))
    small = geometry.EmitterGeometry(geometry.helix_positions(geometry.HelixParams(
        src.radius, src.pitch, src.sites_per_turn, turns, src.handedness))[:8])
    state = dynamics.initial_state(small.n_sites, 0, 0.5)
    coup = hamiltonian.assemble(small)
    dev = dynamics.master_equation_check(state, coup, 5.0)
    detail = _require(dev < 1e-6, f"propagator vs density-matrix deviation {dev:.1e}")
    # the matrix-free series against the spectral propagator on the helix,
    # full and coherent, launched in both spins at both ends
    geom, free = cfg.build_geometry(), 0.0
    coup, n = hamiltonian.assemble(geom), geom.n_sites
    a0s, times = np.eye(2 * n)[[0, 1, 2 * n - 2, 2 * n - 1]], [0.0, 0.5, 2.0, 5.0]
    for hermitian_only in (False, True):
        screw = hamiltonian.screw_effective(geom, hermitian_only)
        x, y = (prop.propagate(a0s, times) for prop in (
            dynamics.SeriesPropagator(dynamics.ScrewProduct(screw), screw.box),
            dynamics.dense_propagator(hamiltonian.effective(coup, hermitian_only))))
        free = max(free, np.abs(x - y).max() / np.abs(y).max())
    return f"{detail}; " + _require(free < 1e-12, f"matrix-free series vs spectral {free:.1e}")


def check_bloch_symmetries(cfg, _rng):
    if cfg.helix is None:
        return "skipped (needs a helix geometry)"
    m_cut = min(cfg.bloch_m_cut, 1000)
    n_k = min(cfg.bloch_n_k, 81)
    if n_k % 2 == 0:
        n_k += 1  # keep k = 0 on the grid
    grid = bloch.brillouin_grid(cfg.helix.pitch, n_k)
    bands = bloch.band_structure(cfg.helix, grid, m_cut=m_cut)
    e = np.sort(bands.energies, axis=1)
    g = np.sort(bands.gammas, axis=1)
    s = np.sort(bands.sz, axis=1)
    err = max(np.abs(e - e[::-1]).max(), np.abs(g - g[::-1]).max(),
              np.abs(s + s[::-1, ::-1]).max())
    _require(err < 1e-6, f"k -> -k symmetry deviation {err:.1e}")
    inv = np.abs(bands.sz[np.abs(bands.k) < 1e-12]).max()
    mid = np.abs(bands.sz[[0, -1]]).max()
    return _require(max(inv, mid) < 1e-6,
                    f"spin at invariant points {max(inv, mid):.1e}")


def check_zak_gauge_invariance(cfg, rng):
    if cfg.helix is None:
        return "skipped (needs a helix geometry)"
    m_cut = min(cfg.bloch_m_cut, 1000)
    dim = 2 * cfg.helix.sites_per_turn
    bands = bloch.band_structure(cfg.helix, topology.wilson_grid(cfg.helix.pitch, 100),
                                 m_cut=m_cut, hermitian_only=True)
    herm = np.abs(bands.vectors[0].conj().T @ bands.vectors[0] - np.eye(dim)).max()
    _require(herm < 1e-10, f"coherent eigenframe orthonormality {herm:.1e}")
    res = topology.zak_phases(bands, [range(dim)])[0]
    _require(abs(res.phase) < 1e-8, f"all-band loop phase {res.phase:.1e}")
    # rephasing invariance on synthetic frames
    frames = [np.linalg.qr(rng.normal(size=(6, 6))
                           + 1j * rng.normal(size=(6, 6)))[0][:, :3] for _ in range(40)]
    p0, _ = topology.wilson_loop(frames)
    rephased = [f * np.exp(1j * rng.uniform(0, 2 * np.pi, size=3)) for f in frames]
    p1, _ = topology.wilson_loop(rephased)
    err = abs(np.angle(np.exp(1j * (p0 - p1))))
    return _require(err < 1e-10, f"gauge sensitivity {err:.1e}")


def green_sum_intensities(geom, pts, weights, amps):
    """(I_up, I_down) of one time at points pts (..., 3) from the explicit sum
    sum_j green_tensor(r_p - r_j) @ eps_sigma a_{j sigma}, branch-weighted;
    amps[b] is the amplitude vector (length 2N) of branch b."""
    g = greens.green_tensor(pts[..., None, :] - geom.positions)   # (..., N, 3, 3)
    out = []
    for spin in range(2):
        want = np.zeros(pts.shape[:-1])
        for w, a in zip(weights, amps):
            f = field.FIELD_PREFACTOR * np.einsum(
                "...jab,b,j->...a", g, greens.POLARIZATION[spin], a.reshape(-1, 2)[:, spin])
            want += w * np.sum(np.abs(f) ** 2, axis=-1)
        out.append(want)
    return out


def check_field_factors(cfg, rng):
    # intensity_maps' five circular kernels against the explicit
    # green_tensor sum, two random branches at two times, on a small z plane
    # through emitter 0 whose grid holds that emitter (a masked point)
    geom = cfg.build_geometry()
    x0, y0, z0 = geom.positions[0]
    plane = field.FieldPlane("z", z0, np.sort(np.append(x0 + rng.uniform(-0.5, 0.5, 4), x0)),
                             np.sort(np.append(y0 + rng.uniform(-0.5, 0.5, 3), y0)))
    weights, shape = [0.6, 0.4], (2, 2, 2 * geom.n_sites)    # branch, time, amplitude
    amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    maps = field.intensity_maps(weights, amps, geom, plane, [0.0, 1.0])
    pts = plane.points()
    dist = np.linalg.norm(pts[..., None, :] - geom.positions, axis=-1)
    keep = dist.min(axis=-1) >= field.NEAR_FIELD_RADIUS
    _require(not keep.all(), "the emitter's grid point is not masked")
    err = 0.0
    for t_idx, fmap in enumerate(maps):
        want = green_sum_intensities(geom, pts[keep], weights, amps[:, t_idx])
        for got, want_spin in zip((fmap.i_up, fmap.i_down), want):
            _require(np.array_equal(np.isnan(got), ~keep), "near-field mask mismatch")
            err = max(err, np.abs(got[keep] - want_spin).max() / want_spin.max())
    return _require(err < 1e-12, f"deviation {err:.1e} of the map maximum")


def check_field_sanity(cfg, rng):
    geom = cfg.build_geometry()
    a = np.zeros(2 * geom.n_sites, dtype=complex)
    a[0] = 1.0  # pure spin-up excitation on site 0
    plane = field.default_plane(geom, n_u=21, n_v=31)
    fmap = field.intensity_map([1.0], [a], geom, plane)
    _require(np.nanmax(fmap.i_down) == 0.0,
             f"down intensity {np.nanmax(fmap.i_down):.1e} for pure up state")
    # radiated intensity falls off as 1/r^2, here at x = 40 and 80 lambda_0
    single = geometry.EmitterGeometry(np.zeros((1, 3)), label="single")
    probe = field.FieldPlane("y", 0.0, u=np.array([40.0, 80.0]), v=np.array([0.0]))
    i_up = field.intensity_map([1.0], [np.array([1.0, 0.0], dtype=complex)],
                               single, probe).i_up
    ratio = i_up[0, 0] / i_up[1, 0]
    _require(abs(ratio - 4.0) < 4.0 * 1e-2, f"1/r^2 ratio {ratio:.4f}")
    # mixture linearity, with a pure spin-down excitation on the last site
    b = np.zeros_like(a)
    b[-1] = 1.0
    half = field.intensity_map([0.5, 0.5], [a, b], geom, plane)
    ia = field.intensity_map([1.0], [a], geom, plane)
    ib = field.intensity_map([1.0], [b], geom, plane)
    err = np.nanmax(np.abs(half.i_up - 0.5 * (ia.i_up + ib.i_up)))
    linear = _require(err < 1e-12 * max(1.0, np.nanmax(ia.i_up)),
                      f"mixture linearity deviation {err:.1e}")
    return f"{linear}; green sum {check_field_factors(cfg, rng)}"


CHECKS = [
    ("polarization basis orthonormal", check_polarization_basis),
    ("green tensor even in r", check_green_evenness),
    ("green tensor far-field asymptote", check_green_far_field),
    ("self-decay normalization", check_self_decay_normalization),
    ("pair coupling symmetries", check_pair_symmetries),
    ("rotation covariance of couplings", check_rotation_covariance),
    ("axial spin decoupling", check_axial_decoupling),
    ("assembled coupling invariants", check_assembled_couplings),
    ("mirror spectrum identity", check_mirror_spectrum),
    ("norm behavior", check_norm_behavior),
    ("mirror transport identity", check_mirror_transport),
    ("master equation cross-check", check_master_equation),
    ("momentum-space symmetries", check_bloch_symmetries),
    ("wilson loop gauge invariance", check_zak_gauge_invariance),
    ("field map sanity", check_field_sanity),
]


def run_checks(cfg: RunConfig, log=print) -> tuple[int, list[dict]]:
    """Run the battery; returns (number of failures, per-check report)."""
    rng = np.random.default_rng(_SEED)
    report = []
    n_fail = 0
    for name, fn in CHECKS:
        try:
            detail = fn(cfg, rng)
            ok = True
        except CheckFailure as exc:
            detail, ok = str(exc), False
        except Exception as exc:  # noqa: BLE001 - report, do not crash the battery
            detail, ok = f"{type(exc).__name__}: {exc}", False
        if not ok:
            n_fail += 1
        log(f"{'ok  ' if ok else 'FAIL'}  {name}: {detail}")
        report.append({"name": name, "passed": ok, "detail": detail})
    return n_fail, report
