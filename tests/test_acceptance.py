"""Acceptance gate: one test per release criterion, at pinned tolerances.

Each test prints a single `criterion NN (<name>): PASS/FAIL` line (visible
with `pytest -s`); the assertions carry the same tolerances as the line.
Expected values are never taken from the implementation under test: they
come from closed-form limits, independently integrated references, or exact
symmetry arguments.
"""

import contextlib

import numpy as np
from scipy.integrate import solve_ivp

from heliport.bloch import band_structure, brillouin_grid, eigen_sweep
from heliport.dynamics import (Propagator, evolve, initial_state,
                               master_equation_check)
from heliport.field import default_plane, intensity_map
from heliport.geometry import HelixParams, build_helix, mirror_xz
from heliport.greens import GAMMA0, K0, coupling_blocks, pair_coupling
from heliport.hamiltonian import assemble, effective
from heliport.topology import detect_gap, wilson_grid, wilson_loop, zak_phases

TAU = 7.9
PITCH = 0.175
RADIUS = 0.05


@contextlib.contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"criterion {num:02d} ({name}): FAIL")
        raise
    print(f"criterion {num:02d} ({name}): PASS")


def reference(handedness=1, turns=20):
    return build_helix(HelixParams(RADIUS, PITCH, 3, turns, handedness))


def transport_series(handedness, site, hermitian_only=False):
    geom = reference(handedness)
    h = effective(assemble(geom), hermitian_only)
    state = initial_state(geom.n_sites, site, 0.5)
    times = np.linspace(0.0, 2 * TAU, 200)
    return evolve(state, h, geom, times)


def populations_at(geom, site, t, hermitian_only=False):
    h = effective(assemble(geom), hermitian_only)
    state = initial_state(geom.n_sites, site, 0.5)
    ser = evolve(state, h, geom, np.array([0.0, t]))
    return ser.p_up[1], ser.p_down[1]


def test_self_coupling_normalization():
    """On-site decay enters as -i Gamma_0/2 and matches the r -> 0 series."""
    with criterion(1, "self-coupling normalization"):
        geom = reference(turns=2)
        h = effective(assemble(geom)).matrix
        assert np.abs(np.diag(h) + 0.5j * GAMMA0).max() < 1e-12

        # independent small-separation oracle: the co-polarized decay
        # coupling between in-plane circular dipoles separated by r = u/k0
        # along z has Taylor series Gamma_0 (1 - u^2/5 + 3u^4/280 + O(u^6))
        for u in (5e-4, 1e-3, 2e-3):
            _, gam = coupling_blocks(np.array([0.0, 0.0, u / K0]))
            series = GAMMA0 * (1.0 - u**2 / 5.0 + 3.0 * u**4 / 280.0)
            assert abs(gam[0, 0].real - series) < 1e-8


def test_axial_spin_decoupling():
    """Emitters stacked on the z axis exchange no angular momentum."""
    with criterion(2, "axial spin decoupling"):
        rng = np.random.default_rng(11)
        z = rng.uniform(0.02, 5.0, size=100)
        sep = np.column_stack([np.zeros_like(z), np.zeros_like(z), z])
        j, gam = coupling_blocks(sep)
        assert np.abs(j[:, 0, 1]).max() < 1e-12
        assert np.abs(j[:, 1, 0]).max() < 1e-12
        assert np.abs(gam[:, 0, 1]).max() < 1e-12
        assert np.abs(gam[:, 1, 0]).max() < 1e-12


def test_rotation_covariance():
    """Rigid rotation by delta multiplies the cross coupling by e^{-2i delta}."""
    with criterion(3, "rotation covariance of couplings"):
        rng = np.random.default_rng(12)
        for _ in range(100):
            r_i = rng.uniform(-1.0, 1.0, size=3)
            r_j = r_i + rng.uniform(0.1, 1.5, size=3)
            delta = rng.uniform(0.0, 2 * np.pi)
            c, s = np.cos(delta), np.sin(delta)
            rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
            a = pair_coupling(r_i, r_j)
            b = pair_coupling(rot @ r_i, rot @ r_j)
            phase = np.exp(-2j * delta)
            for orig, rotd in ((a.j, b.j), (a.gamma, b.gamma)):
                assert abs(rotd[0, 0] - orig[0, 0]) < 1e-10
                assert abs(rotd[1, 1] - orig[1, 1]) < 1e-10
                assert abs(rotd[0, 1] - orig[0, 1] * phase) < 1e-10
                assert abs(rotd[1, 0] - orig[1, 0] * np.conj(phase)) < 1e-10


def test_density_matrix_oracle():
    """Amplitude propagation agrees with an independently integrated
    no-quantum-jump master equation on six emitters."""
    with criterion(4, "density-matrix oracle"):
        geom = reference(turns=2)
        state = initial_state(geom.n_sites, 0, 0.5)
        coup = assemble(geom)
        dev = master_equation_check(state, coup, 5.0)
        assert dev < 1e-6

        # cross-check the checker itself on one emitter: exact e^{-t} decay
        h = -0.5j * GAMMA0 * np.eye(2, dtype=complex)
        rho0 = np.diag([0.5, 0.5]).astype(complex)
        sol = solve_ivp(
            lambda _t, y: (-1j * (h @ y.reshape(2, 2)
                                  - y.reshape(2, 2) @ h.conj().T)).ravel(),
            (0.0, 5.0), rho0.ravel(), rtol=1e-10, atol=1e-12)
        assert abs(np.trace(sol.y[:, -1].reshape(2, 2)).real
                   - np.exp(-5.0)) < 1e-8


def test_norm_monotonicity_and_conservation():
    """Dissipative norm never increases; coherent-only norm is conserved."""
    with criterion(5, "norm monotonicity and conservation"):
        geom = reference()
        state = initial_state(geom.n_sites, 0, 0.5)
        times = np.linspace(0.0, 20.0, 200)
        ser = evolve(state, effective(assemble(geom)), geom, times)
        assert np.diff(ser.trace).max() <= 1e-10
        ser_h = evolve(state, effective(assemble(geom), True), geom, times)
        assert np.abs(ser_h.trace - 1.0).max() < 1e-8


def test_chiral_population_transport():
    """Launching at the bottom of the left-handed helix favors spin-down at
    the transit time; the right-handed helix swaps the spins exactly."""
    with criterion(6, "chirality-locked population transport"):
        left, right = reference(1), reference(-1)
        pu_l, pd_l = populations_at(left, 0, TAU)
        assert pd_l > pu_l
        pu_r, pd_r = populations_at(right, 0, TAU)
        assert pu_r > pd_r

        state = initial_state(left.n_sites, 0, 0.5)
        times = np.linspace(0.0, 2 * TAU, 200)
        ser_l = evolve(state, effective(assemble(left)), left, times)
        ser_r = evolve(state, effective(assemble(right)), right, times)
        assert np.abs(ser_l.p_up - ser_r.p_down).max() < 1e-10
        assert np.abs(ser_l.p_down - ser_r.p_up).max() < 1e-10


def test_helicity_handedness_product():
    """The product of screw handedness and transport helicity is -1 for both
    handednesses and both launch ends."""
    with criterion(7, "helicity-handedness product"):
        for handedness in (1, -1):
            for site in (0, 59):
                ser = transport_series(handedness, site)
                idx = np.argmin(np.abs(ser.times - TAU))
                eta = ser.eta[idx]
                assert not np.isnan(eta)
                assert handedness * eta == -1.0


def test_coherent_only_transport_ordering():
    """The spin ordering at the transit time survives dropping dissipation."""
    with criterion(8, "coherent-only transport ordering"):
        pu_l, pd_l = populations_at(reference(1), 0, TAU, hermitian_only=True)
        assert pd_l > pu_l
        pu_r, pd_r = populations_at(reference(-1), 0, TAU, hermitian_only=True)
        assert pu_r > pd_r


def test_band_symmetries():
    """Energies and decay rates are even and the spin texture is odd in k;
    the spin texture vanishes at k = 0 and at the zone edge."""
    with criterion(9, "band symmetries in k"):
        params = HelixParams(RADIUS, PITCH, 3, 20, 1)
        grid = brillouin_grid(PITCH, 401)
        bands = band_structure(params, grid, m_cut=2000)
        e = np.sort(bands.energies, axis=1)
        g = np.sort(bands.gammas, axis=1)
        s = np.sort(bands.sz, axis=1)
        assert np.abs(e - e[::-1]).max() < 1e-6
        assert np.abs(g - g[::-1]).max() < 1e-6
        assert np.abs(s + s[::-1, ::-1]).max() < 1e-6
        invariant = [0, 200, 400]  # -pi/a, 0, +pi/a on the inclusive grid
        assert np.abs(bands.sz[invariant]).max() < 1e-6


def test_light_cone_decay_separation():
    """Modes outside the light cone are subradiant (< 0.05 Gamma_0); at
    least one mode inside is superradiant (> Gamma_0)."""
    with criterion(10, "light-cone decay separation"):
        params = HelixParams(RADIUS, PITCH, 3, 20, 1)
        grid = brillouin_grid(PITCH, 401)
        bands = band_structure(params, grid, m_cut=20000)
        outside = ~bands.in_light_cone
        assert outside.any() and (~outside).any()
        assert bands.gammas[outside].max() < 0.05 * GAMMA0
        assert bands.gammas[~outside].max() > GAMMA0


def test_spin_textures_vs_cell_size():
    """One site per turn: exactly spin-degenerate doublets.  Two: vanishing
    spin texture.  Three: strongly spin-textured dispersive bands."""
    with criterion(11, "spin texture vs sites per turn"):
        one = band_structure(HelixParams(RADIUS, PITCH, 1, 1, 1),
                             brillouin_grid(PITCH, 401), m_cut=2000)
        lam = one.energies - 0.5j * one.gammas
        assert np.abs(lam[:, 0] - lam[:, 1]).max() < 1e-8
        assert np.abs(one.sz.mean(axis=1)).max() < 1e-6

        two = band_structure(HelixParams(RADIUS, PITCH, 2, 1, 1),
                             brillouin_grid(PITCH, 400, include_edges=False),
                             m_cut=2000, hermitian_only=True)
        assert np.abs(two.sz).max() < 1e-6

        three = band_structure(HelixParams(RADIUS, PITCH, 3, 1, 1),
                               brillouin_grid(PITCH, 401), m_cut=2000,
                               hermitian_only=True)
        dispersive = np.abs(three.velocities) > 0.01 * np.abs(three.velocities).max()
        assert np.abs(three.sz[dispersive]).max() > 0.1


def test_zak_phase_quantization():
    """Zak phases are 0 for gapless one- and two-site cells and pi on both
    sides of the gap for three- to six-site cells; the all-band loop is
    trivial and the loop is gauge invariant."""
    with criterion(12, "Zak phase quantization"):
        for nt in range(1, 7):
            params = HelixParams(RADIUS, PITCH, nt, 1, 1)
            bands = band_structure(params, brillouin_grid(PITCH, 401),
                                   m_cut=2000, hermitian_only=True)
            gap = detect_gap(bands)
            if nt <= 2:
                assert gap.width == 0.0
                groups, target = [gap.lower_bands], 0.0
            else:
                assert gap.width > 0.0
                groups, target = [gap.lower_bands, gap.upper_bands], np.pi
            sweep = eigen_sweep(params, wilson_grid(PITCH, 400), m_cut=2000,
                                hermitian_only=True)
            for res in zak_phases(sweep, groups):
                assert not res.ill_defined
                assert res.residual < 1e-2
                assert abs(abs(res.phase) - target) < 1e-2
            [full] = zak_phases(sweep, [range(2 * nt)])
            assert abs(full.phase) < 1e-8

        # gauge invariance: random rephasing leaves the loop phase unchanged
        rng = np.random.default_rng(13)
        open_grid = brillouin_grid(PITCH, 80, include_edges=False)
        frames = band_structure(HelixParams(RADIUS, PITCH, 3, 1, 1), open_grid,
                                m_cut=300, hermitian_only=True).vectors
        frames = [f[:, :3] for f in frames]
        p0, _ = wilson_loop(frames)
        rephased = [f * np.exp(1j * rng.uniform(0, 2 * np.pi, size=3))
                    for f in frames]
        p1, _ = wilson_loop(rephased)
        assert abs(np.angle(np.exp(1j * (p0 - p1)))) < 1e-10


def test_emitted_field_maps():
    """Early on, the side-view map is brighter in the up polarization; at
    the transit time the intensity centroid has passed the helix midpoint;
    mirroring geometry swaps the polarization maps exactly."""
    with criterion(13, "polarization-resolved field maps"):
        geom = reference(1)
        h = effective(assemble(geom))
        state = initial_state(geom.n_sites, 0, 0.5)
        prop = Propagator(h)
        plane = default_plane(geom, offset=0.5, n_u=101, n_v=201,
                              u_span=0.3, z_pad=1.2)

        def field_map(propagator, geometry, t):
            amps = [propagator.propagate(a0, np.array([t]))[0]
                    for a0 in state.amplitudes]
            return intensity_map(state.weights, amps, geometry, plane,
                                 time=t, normalize="global")

        early = field_map(prop, geom, 1.0)
        assert np.nanmax(early.i_up) > np.nanmax(early.i_down)

        late = field_map(prop, geom, TAU)
        total = np.nan_to_num(late.i_up) + np.nan_to_num(late.i_down)
        z_centroid = (total * plane.v[None, :]).sum() / total.sum()
        z_mid = 0.5 * (geom.z.min() + geom.z.max())
        assert z_centroid > z_mid

        mirrored = mirror_xz(geom)
        flipped = field_map(Propagator(effective(assemble(mirrored))),
                            mirrored, 1.0)
        assert np.nanmax(np.abs(flipped.i_up[::-1, :] - early.i_down)) < 1e-10
        assert np.nanmax(np.abs(flipped.i_down[::-1, :] - early.i_up)) < 1e-10
