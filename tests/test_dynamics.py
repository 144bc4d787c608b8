import itertools
import json
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from heliport import cli, dynamics, hamiltonian

from heliport.dynamics import (DenseProduct, ScrewProduct, SeriesPropagator,
                               SpectralPropagator, arrival_time, dense_propagator, evolve,
                               helicity, initial_state, master_equation_check, populations)
from heliport.geometry import (EmitterGeometry, HelixParams, build_helix,
                               mirror_xz)
from heliport.greens import GAMMA0
from heliport.hamiltonian import EffectiveHamiltonian, assemble, effective


def test_initial_state_branches():
    st = initial_state(4, 1, 0.5)
    assert st.weights == (0.5, 0.5)
    assert np.argmax(np.abs(st.amplitudes[0])) == 2  # site 1, spin up
    assert np.argmax(np.abs(st.amplitudes[1])) == 3  # site 1, spin down
    assert abs(st.norm() - 1.0) < 1e-15

    pure = initial_state(4, 0, 1.0)
    assert pure.weights == (1.0,)

    with pytest.raises(ValueError):
        initial_state(4, 4, 0.5)
    with pytest.raises(ValueError):
        initial_state(4, 0, 1.5)


def test_single_emitter_decays_exponentially():
    geom = EmitterGeometry(np.zeros((1, 3)))
    h = effective(assemble(geom))
    times = np.linspace(0.0, 8.0, 60)
    ser = evolve(dense_propagator(h), initial_state(1, 0, 0.5), geom, times)
    assert np.abs(ser.trace - np.exp(-GAMMA0 * times)).max() < 1e-12


def test_norm_monotone_and_split(small_helix):
    h = effective(assemble(small_helix))
    times = np.linspace(0.0, 20.0, 150)
    prop, state = dense_propagator(h), initial_state(small_helix.n_sites, 0, 0.5)
    ser = evolve(prop, state, small_helix, times)
    assert np.diff(ser.trace).max() <= 1e-10
    assert np.abs(ser.p_up + ser.p_down - ser.trace).max() < 1e-12
    per_site = populations(prop, state, times)
    assert np.abs(per_site.sum(axis=(1, 2)) - ser.trace).max() < 1e-12


def test_hermitian_norm_conserved(small_helix):
    h = effective(assemble(small_helix), hermitian_only=True)
    times = np.linspace(0.0, 20.0, 80)
    ser = evolve(dense_propagator(h), initial_state(small_helix.n_sites, 0, 0.5), small_helix,
                 times)
    assert np.abs(ser.trace - 1.0).max() < 1e-8


def test_mirror_swaps_populations(small_helix):
    mirrored = mirror_xz(small_helix)
    times = np.linspace(0.0, 6.0, 50)
    st = initial_state(small_helix.n_sites, 0, 0.5)
    props = [dense_propagator(effective(assemble(g))) for g in (small_helix, mirrored)]
    a, b = (evolve(prop, st, g, times) for prop, g in zip(props, (small_helix, mirrored)))
    assert np.abs(a.p_up - b.p_down).max() < 1e-13
    assert np.abs(a.p_down - b.p_up).max() < 1e-13
    assert np.abs(a.trace - b.trace).max() < 1e-13
    per_a, per_b = (populations(prop, st, times) for prop in props)
    assert np.abs(per_a - per_b[:, :, ::-1]).max() < 1e-13


def test_branch_mixture_is_linear(small_helix):
    h = effective(assemble(small_helix))
    times = np.linspace(0.0, 4.0, 30)
    n = small_helix.n_sites
    prop = dense_propagator(h)
    mix, up, dn = (populations(prop, initial_state(n, 0, p_up), times)
                   for p_up in (0.3, 1.0, 0.0))
    assert np.abs(mix - 0.3 * up - 0.7 * dn).max() < 1e-14


def test_helicity_signs_and_deadband():
    times = np.linspace(0.0, 1.0, 5)
    z_com = np.linspace(0.0, 1.0, 5)          # moving up
    sz = np.array([-0.2, -0.2, 0.2, 1e-9, np.nan])
    eta = helicity(sz, z_com, times, deadband=1e-6)
    assert eta[0] == -1.0 and eta[1] == -1.0  # S_z < 0 while moving up
    assert eta[2] == 1.0
    assert np.isnan(eta[3])                   # inside the dead-band
    assert np.isnan(eta[4])                   # undefined input stays undefined


def test_evolve_rejects_unsorted_times(small_helix):
    prop = dense_propagator(effective(assemble(small_helix)))
    with pytest.raises(ValueError):
        evolve(prop, initial_state(small_helix.n_sites, 0, 0.5), small_helix,
               np.array([1.0, 0.5]))
    with pytest.raises(ValueError):
        evolve(prop, initial_state(small_helix.n_sites, 0, 0.5), small_helix,
               np.array([-1.0, 0.5]))


def test_expm_fallback_matches_spectral(small_helix, monkeypatch):
    h = effective(assemble(small_helix))
    spectral = dense_propagator(h)
    assert isinstance(spectral, SpectralPropagator)
    monkeypatch.setattr(dynamics, "COND_LIMIT", 0.0)   # force the series fallback
    stepped = dense_propagator(h)
    assert isinstance(stepped, SeriesPropagator) and stepped.path == "dense_series"
    times = np.array([0.0, 0.7, 1.9])
    branches = np.array(initial_state(small_helix.n_sites, 0, 0.5).amplitudes)
    for a0 in (branches[0], branches):                 # one vector, the two-branch stack
        assert np.abs(spectral.propagate(a0, times)
                      - stepped.propagate(a0, times)).max() < 1e-8


@pytest.mark.parametrize("hermitian_only", [False, True], ids=["full", "coherent"])
def test_series_fallback_matches_expm(small_helix, hermitian_only):
    h = effective(assemble(small_helix), hermitian_only)
    # the dense series itself: the Hermitian branch never falls back to it
    prop = SeriesPropagator(DenseProduct(h.matrix), dynamics._gershgorin_box(h.matrix))
    times = np.array([0.0, 0.3, 7.9])
    for a0 in initial_state(small_helix.n_sites, 0, 0.5).amplitudes:
        assert np.abs(prop.propagate(a0, times)
                      - _expm_reference(h, a0, times)).max() < 1e-12


def test_arrival_time_of_transport_pulse():
    geom = build_helix(HelixParams(0.05, 0.175, 3, 10, 1))
    h = effective(assemble(geom))
    times = np.linspace(0.0, 8.0, 160)
    ser = evolve(dense_propagator(h), initial_state(geom.n_sites, 0, 0.5), geom, times)
    t_arr = arrival_time(ser)
    assert t_arr is not None
    assert 0.5 < t_arr < 8.0


def test_master_equation_agreement(small_helix):
    st = initial_state(small_helix.n_sites, 0, 0.5)
    coup = assemble(small_helix)
    assert master_equation_check(st, coup, 5.0) < 1e-6
    assert master_equation_check(st, coup, 3.0, hermitian_only=True) < 1e-6


def test_master_equation_single_emitter():
    geom = EmitterGeometry(np.zeros((1, 3)))
    st = initial_state(1, 0, 1.0)
    assert master_equation_check(st, assemble(geom), 4.0) < 1e-8


def test_master_equation_size_guard(reference_helix):
    st = initial_state(reference_helix.n_sites, 0, 0.5)
    with pytest.raises(ValueError):
        master_equation_check(st, assemble(reference_helix), 1.0)


# ------------------------------------------------- propagator construction

def _expm_reference(h, a0, times):
    return np.array([expm(-1j * h.matrix * t) @ a0 for t in times])


def _count_calls(monkeypatch, name="inv"):
    calls = []
    func = getattr(np.linalg, name)

    def counting(a):
        calls.append(1)
        return func(a)

    monkeypatch.setattr(np.linalg, name, counting)
    return calls


def test_spin_swap_left_eigenvectors_match_expm(monkeypatch):
    geom = build_helix(HelixParams(0.05, 0.175, 3, 10, 1))   # N = 30
    h = effective(assemble(geom))
    inv_calls = _count_calls(monkeypatch)
    prop = dense_propagator(h)
    assert len(inv_calls) == 1 and isinstance(prop, SpectralPropagator)
    assert 1.0 <= prop.condition < 1e4
    a0 = initial_state(geom.n_sites, 4, 1.0).amplitudes[0]
    times = np.array([0.0, 0.3, 2.5, 7.9])
    assert np.abs(prop.propagate(a0, times)
                  - _expm_reference(h, a0, times)).max() < 1e-12


def _axial(z):
    z = np.asarray(z, dtype=float)
    return np.column_stack([np.zeros_like(z), np.zeros_like(z), z])


# spin-degenerate spectra: a single emitter, axial separations (a straight
# chain, evenly or unevenly spaced) and a chain shifted off the axis
@pytest.mark.parametrize("geom", [
    EmitterGeometry(_axial([0.0, 0.1, 0.25, 0.45, 0.7]), label="uneven axial chain"),
    EmitterGeometry(_axial([0.0, 0.1, 0.25, 0.45, 0.7]) + [0.05, 0.0, 0.0],
                    label="uneven off-axis chain"),
    EmitterGeometry(np.zeros((1, 3)), label="single emitter"),
    build_helix(HelixParams(0.05, 0.175, 1, 12, 1)),          # straight chain
], ids=["uneven_axial_chain", "uneven_offaxis_chain", "single_emitter", "straight_chain"])
def test_spin_degenerate_spectra_fall_back_to_inv(geom, monkeypatch):
    h = effective(assemble(geom))
    inv_calls = _count_calls(monkeypatch)
    a0 = initial_state(geom.n_sites, 0, 0.5).amplitudes[0]
    times = np.array([0.0, 0.8, 3.1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        prop = dense_propagator(h)
        amps = prop.propagate(a0, times)
    assert len(inv_calls) == 1 and isinstance(prop, SpectralPropagator)
    assert np.abs(amps - _expm_reference(h, a0, times)).max() < 1e-12


def test_cli_dynamics_builds_one_propagator(tmp_path, monkeypatch):
    built, grids = [], []

    class Counting(SpectralPropagator):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

        def stream(self, a0s, times):
            grids.append(len(times))
            return super().stream(a0s, times)

    monkeypatch.setattr(dynamics, "SpectralPropagator", Counting)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "mode": "dynamics",
        "geometry": {"helix": {"radius": 0.05, "pitch": 0.175,
                               "sites_per_turn": 3, "turns": 2,
                               "handedness": 1}},
        "initial_state": {"site": 0, "p_up": 0.5},
        "times": {"t_max": 2.0, "n_times": 20},
        "snapshot_times": [0.5, 1.0],
    }))
    out = tmp_path / "out"
    assert cli.main(["dynamics", "--config", str(cfg), "--out", str(out)]) == 0
    assert len(built) == 1
    # one propagation over the 20 series times and the 2 snapshot times
    assert grids == [20 + 2]
    diag = json.loads((out / "manifest.json").read_text())["diagnostics"]
    assert diag["propagator_path"] == "spectral"
    assert 1.0 <= diag["propagator_condition"] < dynamics.COND_LIMIT


def test_cli_ill_conditioned_run_takes_the_dense_series(tmp_path, monkeypatch):
    raw = {"mode": "dynamics",
           "geometry": {"helix": {"radius": 0.05, "pitch": 0.175, "sites_per_turn": 3,
                                  "turns": 2, "handedness": 1}},
           "initial_state": {"site": 0, "p_up": 0.5},
           "times": {"t_max": 2.0, "n_times": 20},
           "snapshot_times": [0.5, 1.0]}
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(raw))

    def run(out):
        assert cli.main(["dynamics", "--config", str(cfg), "--out", str(out)]) == 0
        diag = json.loads((out / "manifest.json").read_text())["diagnostics"]
        return diag, np.loadtxt(out / "timeseries.csv", delimiter=",", skiprows=1)

    spectral_diag, spectral = run(tmp_path / "spectral")
    assert spectral_diag["propagator_path"] == "spectral"
    monkeypatch.setattr(dynamics, "COND_LIMIT", 0.0)   # every V is ill conditioned
    diag, series = run(tmp_path / "dense")
    assert diag["propagator_path"] == "dense_series"
    geom = build_helix(HelixParams(0.05, 0.175, 3, 2, 1))
    box = dynamics._gershgorin_box(effective(assemble(geom)).matrix)
    grid = np.append(np.linspace(0.0, 2.0, 20), [0.5, 1.0])
    assert diag["propagator_matvecs"] == dynamics.estimated_matvecs(box, grid) > 0
    assert 1.0 <= diag["propagator_condition"] < np.inf
    assert series.shape == spectral.shape
    for x, y in zip(series.T, spectral.T):
        assert np.array_equal(np.isnan(x), np.isnan(y))
        assert np.nanmax(np.abs(x - y)) <= 1e-13 * np.nanmax(np.abs(y))


def test_defective_spectrum_takes_expm_fallback_without_warnings():
    h = EffectiveHamiltonian(np.array([[0.0, 1.0], [0.0, 0.0]], complex),
                             False)                       # 2x2 Jordan block
    a0 = np.array([1.0, 1.0], complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        prop = dense_propagator(h)
        amps = prop.propagate(a0, np.array([0.0, 1.0]))
    assert isinstance(prop, SeriesPropagator) and prop.path == "dense_series"
    assert np.abs(amps - _expm_reference(h, a0, [0.0, 1.0])).max() < 1e-10


# ------------------------------------------- spectral propagator on helices

# a finite helix is C2-symmetric (the pi rotation about its midpoint's radial
# axis maps the first site onto the last): both launch ends are covered
@pytest.mark.parametrize("hermitian_only", [False, True], ids=["full", "coherent"])
@pytest.mark.parametrize("launch", ["first", "last"])
@pytest.mark.parametrize("handedness", [1, -1])
@pytest.mark.parametrize("n_t", range(1, 7))
def test_c2_propagator_matches_expm(n_t, handedness, launch, hermitian_only, monkeypatch):
    geom = build_helix(HelixParams(0.05, 0.175, n_t, 30 // n_t, handedness))
    h = effective(assemble(geom), hermitian_only)
    eig_calls = _count_calls(monkeypatch, "eigh" if hermitian_only else "eig")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        prop = dense_propagator(h)
    assert len(eig_calls) == 1 and isinstance(prop, SpectralPropagator)   # one eig of H
    site = 0 if launch == "first" else geom.n_sites - 1
    times = np.array([0.0, 0.4, 2.5, 7.9])
    for a0 in initial_state(geom.n_sites, site, 0.5).amplitudes:
        assert np.abs(prop.propagate(a0, times)
                      - _expm_reference(h, a0, times)).max() < 1e-12


@pytest.mark.parametrize("kind", ["random", "helix"])
def test_condition_is_the_full_basis_bound(kind, rng):
    geom = (EmitterGeometry(rng.uniform(-0.3, 0.3, size=(12, 3)), label="random")
            if kind == "random" else build_helix(HelixParams(0.05, 0.175, 3, 10, -1)))
    h = effective(assemble(geom))
    prop = dense_propagator(h)
    vecs = np.linalg.eig(h.matrix)[1]
    full = np.linalg.norm(vecs) * np.linalg.norm(np.linalg.inv(vecs))
    assert abs(prop.condition - full) < 1e-9 * full
    a0 = initial_state(geom.n_sites, 3, 1.0).amplitudes[0]
    times = np.array([0.0, 1.3])
    assert np.abs(prop.propagate(a0, times)
                  - _expm_reference(h, a0, times)).max() < 1e-12


# no propagator_blocks key is written: the spectral path reports exactly these
@pytest.mark.parametrize("mode", ["dynamics", "field"])
def test_cli_manifest_reports_propagator_blocks(tmp_path, mode):
    raw = {
        "mode": mode,
        "geometry": {"helix": {"radius": 0.05, "pitch": 0.175,
                               "sites_per_turn": 3, "turns": 2,
                               "handedness": 1}},
        "initial_state": {"site": 0, "p_up": 0.5},
        "times": {"t_max": 2.0, "n_times": 20},
    }
    if mode == "field":
        raw["field"] = {"times": [0.5], "n_u": 4, "n_v": 5}
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert cli.main([mode, "--config", str(cfg), "--out", str(out)]) == 0
    diag = json.loads((out / "manifest.json").read_text())["diagnostics"]
    keys = {k for k in diag if k.startswith("propagator_")}
    assert keys == {"propagator_path", "propagator_matvecs", "propagator_modelled_s",
                    "propagator_condition"}
    assert diag["propagator_path"] == "spectral"
    modelled = diag["propagator_modelled_s"]
    assert set(modelled) == {"spectral", "matrix_free"}
    assert modelled["spectral"] < modelled["matrix_free"]


# ------------------------------------------------- matrix-free propagator

# N -> (sites per turn, turns)
_MF_HELICES = {1: (1, 1), 2: (2, 1), 3: (3, 1), 7: (7, 1), 60: (3, 20),
               150: (6, 25), 300: (3, 100)}


def _free(screw):
    """The matrix-free series of a ScrewHamiltonian, as launch builds it."""
    return SeriesPropagator(ScrewProduct(screw), screw.box)


def _screw_and_dense(n, handedness, hermitian_only):
    geom = build_helix(HelixParams(0.05, 0.175, *_MF_HELICES[n], handedness))
    screw = hamiltonian.screw_effective(geom, hermitian_only)
    return geom, screw, effective(assemble(geom), hermitian_only)


@pytest.mark.parametrize("hermitian_only", [False, True], ids=["full", "coherent"])
@pytest.mark.parametrize("handedness", [1, -1])
@pytest.mark.parametrize("n", sorted(_MF_HELICES))
def test_matrix_free_matches_spectral(n, handedness, hermitian_only):
    geom, screw, h = _screw_and_dense(n, handedness, hermitian_only)
    free, spectral = _free(screw), dense_propagator(h)
    assert (free.path, spectral.path) == ("matrix_free", "spectral")
    times = np.linspace(0.0, 2.5, 11)
    columns = ("trace", "p_up", "p_down", "sz", "z_com", "far_end", "per_site")
    for site in (0, n - 1):
        for p_up in (0.0, 0.5, 1.0):
            state = initial_state(n, site, p_up)
            a, b = (evolve(prop, state, geom, times) for prop in (free, spectral))
            a.per_site, b.per_site = (populations(prop, state, times)
                                      for prop in (free, spectral))
            for col in columns:
                x, y = getattr(a, col), getattr(b, col)
                # a column that vanishes by symmetry (S_z of an even mixture)
                # or stays tiny (the far end on a short grid) is held to the
                # population scale, 1 at t = 0
                scale = (max(np.abs(y).max(), 1.0) if col in ("sz", "far_end")
                         else np.abs(y).max())
                assert np.abs(x - y).max() <= 1e-12 * scale, (site, p_up, col)
        for a0 in initial_state(n, site, 0.5).amplitudes:    # field runs' amplitudes
            x, y = (prop.propagate(a0, [0.0, 0.5, 2.0]) for prop in (free, spectral))
            assert np.abs(x - y).max() <= 1e-12 * np.abs(y).max()
    # a point box (one emitter: H = -i Gamma_0/2, or 0 coherent) needs no product
    assert isinstance(free.product, ScrewProduct)
    assert (free.matvecs > 0) == (dynamics.series_plan(free.box, 1.0)[3] > 0)


def test_screw_product_and_norm_match_the_dense_matrix(rng):
    for n, hermitian_only in itertools.product((1, 7, 60), (False, True)):
        _, screw, h = _screw_and_dense(n, -1, hermitian_only)
        prop = _free(screw)
        dense = np.abs(h.matrix).sum(axis=0).max()
        # the box holds the field of values (the eigenvalue ranges of the
        # Hermitian and skew-Hermitian parts) and so every eigenvalue, and
        # its largest corner modulus, the phase guard's scale, bounds |E|
        assert prop.box == screw.box
        re_lo, re_hi, im_lo, im_hi = prop.box
        tol = 1e-13 * dense
        for (lo, hi), part in (((re_lo, re_hi), 0.5 * (h.matrix + h.matrix.conj().T)),
                               ((im_lo, im_hi), -0.5j * (h.matrix - h.matrix.conj().T))):
            w = np.linalg.eigvalsh(part)
            assert lo - tol <= w[0] and w[-1] <= hi + tol
        evals = np.linalg.eigvals(h.matrix)
        assert np.all((re_lo - tol <= evals.real) & (evals.real <= re_hi + tol))
        assert np.all((im_lo - tol <= evals.imag) & (evals.imag <= im_hi + tol))
        assert np.abs(evals).max() <= prop._phase_scale
        x = rng.standard_normal((3, 2 * n)) + 1j * rng.standard_normal((3, 2 * n))
        b = (x.reshape(3, n, 2) * screw.gauge.conj()).transpose(2, 0, 1)   # U^dag x
        hx = (prop.product._apply(b, prop.product._spectrum)
              * screw.gauge.T[:, None, :]).transpose(1, 2, 0)
        assert np.abs(hx.reshape(3, -1) - x @ h.matrix.T).max() <= 1e-14 * dense * np.abs(x).max()


def test_smooth_length():
    assert [hamiltonian.smooth_length(n) for n in (0, 1, 7, 11, 13, 599, 803, 1199)] == [
        1, 1, 8, 12, 15, 600, 810, 1200]

    def smooth(m):
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        return m == 1

    for n in range(1, 2000):
        m = hamiltonian.smooth_length(n)
        assert m >= n and smooth(m) and not any(smooth(k) for k in range(n, m))


def _n600_times(t_max):
    """The dynamics run's one grid: 200 series times and the tau snapshot."""
    return np.append(np.linspace(0.0, t_max, 200), t_max / 2)


def _steps_matrix_free(geom, times):
    """True when the path-choice model prefers the matrix-free series for geom."""
    modelled = dynamics.modelled_seconds(geom.n_sites, hamiltonian.screw_effective(geom),
                                         times)
    return modelled["matrix_free"] < modelled["spectral"]


def test_path_choice_follows_the_cost_estimate():
    n600 = build_helix(HelixParams(0.05, 0.175, 3, 200, 1))
    assert _steps_matrix_free(n600, _n600_times(15.8))
    # the spectral cost does not grow with t; ~1e7 products would
    for t_max in (1e5, 1e300):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not _steps_matrix_free(n600, _n600_times(t_max))
    # the crossover sits near N = 117; launch builds the preferred path
    n300 = build_helix(HelixParams(0.05, 0.175, 3, 100, 1))
    small = build_helix(HelixParams(0.05, 0.175, 3, 20, 1))
    for geom, path in ((n300, "matrix_free"), (small, "spectral")):
        assert _steps_matrix_free(geom, _n600_times(15.8)) == (path == "matrix_free")
        prop, modelled = dynamics.launch(geom, False, _n600_times(15.8))
        assert prop.path == path
        assert modelled == dynamics.modelled_seconds(
            geom.n_sites, hamiltonian.screw_effective(geom), _n600_times(15.8))
    screw = hamiltonian.screw_effective(n600)
    assert dynamics.estimated_matvecs(screw.box, [0.0, 0.0]) == 0.0


@pytest.mark.parametrize("mode", ["dynamics", "field"])
def test_cli_run_evaluates_the_cost_model_once(tmp_path, monkeypatch, mode):
    calls = []
    modelled_seconds = dynamics.modelled_seconds

    def counted(*args):
        calls.append(args[0])
        return modelled_seconds(*args)

    monkeypatch.setattr(dynamics, "modelled_seconds", counted)
    over = ({"mode": "field", "field": {"times": [1.0], "n_u": 4, "n_v": 5}}
            if mode == "field" else {})
    cfg = _n600_config(tmp_path, geometry={"helix": {
        "radius": 0.05, "pitch": 0.175, "sites_per_turn": 3, "turns": 4, "handedness": 1}},
        **over)
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert calls == [12]


@pytest.mark.parametrize("sites_per_turn", [3, 1])
@pytest.mark.parametrize("n", [60, 180, 300])
def test_matrix_free_products_stay_within_the_estimate(n, sites_per_turn):
    geom = build_helix(HelixParams(0.05, 0.175, sites_per_turn, n // sites_per_turn, 1))
    prop = _free(hamiltonian.screw_effective(geom))
    times = _n600_times(15.8)
    dynamics.populations(prop, initial_state(n, 0, 0.5), times)
    # the series' degree is fixed before the first product: the count is exact
    assert 0 < prop.matvecs == dynamics.estimated_matvecs(prop.box, times)


def test_matrix_free_huge_time_raises_before_stepping(monkeypatch):
    _, screw, _ = _screw_and_dense(60, 1, False)
    prop = _free(screw)

    def no_product(self, *_args):
        raise AssertionError("stepped")

    monkeypatch.setattr(ScrewProduct, "_apply", no_product)
    state = initial_state(60, 0, 0.5)
    with pytest.raises(FloatingPointError):
        prop.propagate(state.amplitudes[0], [1e300])
    with pytest.raises(FloatingPointError):
        dynamics.populations(prop, state, [0.0, 1e300])
    assert prop.matvecs == 0


def _stepping_propagators(monkeypatch):
    """(spectral, matrix-free, dense-fallback) Propagators of a 60-site helix."""
    _, screw, h = _screw_and_dense(60, 1, False)
    spectral, free = dense_propagator(h), _free(screw)
    monkeypatch.setattr(dynamics, "COND_LIMIT", 0.0)   # force the series fallback
    dense = dense_propagator(h)
    assert isinstance(dense.product, DenseProduct) and free.path == "matrix_free"
    return spectral, free, dense


@pytest.mark.parametrize("grid", ["unsorted", "duplicates", "zero", "boundary", "late"])
def test_stepper_matches_spectral_on_awkward_grids(grid, monkeypatch):
    spectral, free, dense = _stepping_propagators(monkeypatch)
    state = initial_state(60, 0, 0.5)
    branches = np.array(state.amplitudes)
    for stepped in (free, dense):
        dt = 2.5 / dynamics.series_plan(stepped.box, 2.5)[0]   # the step to t_max = 2.5
        times = {"unsorted": [2.1, 0.0, 0.4, 1.3],
                 "duplicates": [0.7, 0.0, 0.7, 2.0, 0.7],
                 "zero": [0.0],
                 "boundary": [0.2, 3 * dt, 2.5],
                 "late": [7.9]}[grid]
        # amplitudes to the other matrix-free tests' 1e-12, populations to
        # the README's 1e-13 of the maximum (the spectral side's error
        # dominates: it grows with t and the eigenvector conditioning)
        for x, y, tol in ((stepped.propagate(branches, times),
                           spectral.propagate(branches, times), 1e-12),
                          (dynamics.populations(stepped, state, times),
                           dynamics.populations(spectral, state, times), 1e-13)):
            assert x.shape == y.shape
            assert np.abs(x - y).max() <= tol * np.abs(y).max(), (stepped.path, grid)
        if grid == "zero":
            assert stepped.matvecs == 0


def test_negative_time_raises_before_stepping(monkeypatch):
    spectral, free, dense = _stepping_propagators(monkeypatch)
    state = initial_state(60, 0, 0.5)

    def no_product(*_args):
        raise AssertionError("stepped")

    monkeypatch.setattr(ScrewProduct, "_apply", no_product)
    for prop in (spectral, free, dense):
        with pytest.raises(ValueError):
            prop.propagate(state.amplitudes[0], [0.5, -0.1])
        with pytest.raises(ValueError):
            dynamics.populations(prop, state, [-1e-3])
        assert prop.matvecs == 0


def test_matrix_free_populations_hold_no_amplitude_history():
    _, screw, _ = _screw_and_dense(60, 1, False)
    prop = _free(screw)
    state = initial_state(60, 0, 0.5)
    times = np.linspace(0.0, 15.8, 2000)
    n_b, length = len(state.weights), prop.product._length
    tracemalloc.start()
    try:
        per_site = dynamics.populations(prop, state, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the (T, N, 2) result plus a fixed number of (spin, branch, L) buffers;
    # the (B, T, 2N) amplitudes alone would be 4x the result
    assert peak < per_site.nbytes + 64 * 2 * n_b * length * 16


def test_matrix_free_evolve_holds_no_population_history():
    geom = build_helix(HelixParams(0.05, 0.175, 3, 200, 1))
    prop = _free(hamiltonian.screw_effective(geom))
    state = initial_state(600, 0, 0.5)
    times = np.linspace(0.0, 15.8, 2000)
    tracemalloc.start()
    try:
        series = evolve(prop, state, geom, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # each time's populations are reduced as they arrive: the (T, N, 2)
    # stack would be 19.2 MB, the series' own rows are about 2.8 MB
    assert peak < len(times) * geom.n_sites * 2 * 8 / 4
    assert series.snapshots.shape == (0, 600, 2)


@pytest.mark.parametrize("matrix_free", [False, True], ids=["spectral", "matrix_free"])
def test_evolve_reduces_each_row_of_the_stacked_populations(matrix_free):
    geom, screw, h = _screw_and_dense(60, 1, False)
    prop = _free(screw) if matrix_free else dense_propagator(h)
    state = initial_state(60, 5, 0.3)
    times, snapshot_times = np.linspace(0.0, 6.0, 41), [3.95, 0.0, 7.9]
    series = evolve(prop, state, geom, times, snapshot_times=snapshot_times)
    # the stack over the one grid evolve streams: the series' steps run to its end
    stacked = populations(prop, state, np.concatenate([times, snapshot_times]))
    per_site = stacked[:len(times)]
    p_spin = per_site.sum(axis=1)
    for col, want in (("p_up", p_spin[:, 0]), ("p_down", p_spin[:, 1]),
                      ("trace", p_spin.sum(axis=1)), ("sz", p_spin[:, 0] - p_spin[:, 1])):
        assert np.array_equal(getattr(series, col), want), col
    # one dot per time against one (T, N) @ z product: equal to round-off
    z_com = (per_site.sum(axis=2) @ geom.z) / p_spin.sum(axis=1)
    assert np.abs(series.z_com - z_com).max() <= 2e-15 * np.abs(z_com).max()
    # the far end, fixed from the launch state, is the t = 0 center of mass's
    far = int(np.argmax(np.abs(geom.z - z_com[0])))
    assert dynamics.far_site(state, geom) == far
    assert np.array_equal(series.far_end, per_site[:, far].sum(axis=1))
    assert np.array_equal(series.snapshots, stacked[len(times):])


@pytest.mark.parametrize("mode", ["dynamics", "field"])
def test_cli_matrix_free_run_plans_the_series_once(tmp_path, mode):
    over = ({"mode": "field", "field": {"times": [1.0, 7.9], "n_u": 4, "n_v": 5}}
            if mode == "field" else {})
    cfg = _n600_config(tmp_path, geometry={"helix": {
        "radius": 0.05, "pitch": 0.175, "sites_per_turn": 3, "turns": 100, "handedness": 1}},
        **over)
    dynamics.series_plan.cache_clear()
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    diag = json.loads((tmp_path / "out" / "manifest.json").read_text())["diagnostics"]
    assert diag["propagator_path"] == "matrix_free"
    # the path choice, the stream and the manifest key share one plan
    assert dynamics.series_plan.cache_info().misses == 1


def _n600_config(tmp_path, **over):
    raw = {"mode": "dynamics",
           "geometry": {"helix": {"radius": 0.05, "pitch": 0.175, "sites_per_turn": 3,
                                  "turns": 200, "handedness": 1}},
           "initial_state": {"site": 0, "p_up": 0.5},
           "tau": 7.9,
           "times": {"t_max": 15.8, "n_times": 200},
           "snapshot_times": [7.9]}
    raw.update(over)
    cfg = tmp_path / "n600.json"
    cfg.write_text(json.dumps(raw))
    return cfg


def test_cli_dynamics_n600_runs_matrix_free_without_eig(tmp_path, monkeypatch):
    def blocked(*_args, **_kwargs):
        raise AssertionError("dense path taken")

    monkeypatch.setattr(np.linalg, "eig", blocked)
    monkeypatch.setattr(hamiltonian, "assemble", blocked)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(_n600_config(tmp_path)), "--out", str(out)]) == 0
    diag = json.loads((out / "manifest.json").read_text())["diagnostics"]
    assert diag["propagator_path"] == "matrix_free"
    assert diag["propagator_matvecs"] > 0
    assert "propagator_condition" not in diag
    assert 0.0 < diag["final_trace"] < 1.0


def test_cli_huge_t_max_takes_the_spectral_path(tmp_path, monkeypatch):
    built = []

    def record(h_eff):
        built.append(type(h_eff))
        raise FloatingPointError("recorded")

    # a stand-in H keeps the 600-site eig out of the test
    monkeypatch.setattr(hamiltonian, "assemble", lambda geom: hamiltonian.CouplingTensor(
        np.zeros((2, 2), complex), np.eye(2, dtype=complex)))
    monkeypatch.setattr(dynamics, "dense_propagator", record)
    cfg = _n600_config(tmp_path, times={"t_max": 1e5, "n_times": 200}, snapshot_times=[])
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert built == [EffectiveHamiltonian]


def test_packaged_fig2_config_stays_spectral(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["run", "--config", "fig2_left_bottom", "--out", str(out)]) == 0
    diag = json.loads((out / "manifest.json").read_text())["diagnostics"]
    assert diag["propagator_path"] == "spectral"
    assert diag["propagator_matvecs"] == 0


# ------------------------------------------------- Chebyshev series

@pytest.mark.parametrize("hermitian_only", [False, True], ids=["full", "coherent"])
def test_one_site_helix_is_a_point_box_and_makes_no_product(hermitian_only):
    geom = build_helix(HelixParams(0.05, 0.175, 1, 1, 1))
    screw = hamiltonian.screw_effective(geom, hermitian_only)
    energy = 0.0 if hermitian_only else -0.5j * GAMMA0       # H = energy * 1
    assert screw.box == (0.0, 0.0, energy.imag, energy.imag)
    prop = _free(screw)
    times = np.linspace(0.0, 8.0, 9)
    amps = prop.propagate(np.eye(2, dtype=complex), times)   # both spins
    assert prop.matvecs == 0 == dynamics.estimated_matvecs(prop.box, times)
    want = np.exp(-1j * energy * times)[None, :, None] * np.eye(2)[:, None, :]
    assert np.abs(amps - want).max() <= 1e-15
    if not hermitian_only:
        assert np.abs(np.abs(amps[0, :, 0]) - np.exp(-GAMMA0 * times / 2)).max() <= 1e-15


def test_bessel_rows_match_scipy():
    from scipy.special import jv

    degree = 120
    x = np.array([0.0, 1e-10, 0.3, 5.0, 40.0, 80.0])
    rows = dynamics._bessel(x, degree)
    want = jv(np.arange(degree + 1), x[:, None])
    assert rows.shape == (len(x), degree + 1)
    assert np.abs(rows - want).max() <= 4e-15
    # relative accuracy in the tail n > x, where the degree rule reads them
    tail = (np.arange(degree + 1) > x[:, None] + 1) & (np.abs(want) > 1e-290) & (x[:, None] > 1e-8)
    assert (np.abs(rows - want)[tail] <= 1e-12 * np.abs(want)[tail]).all()


def test_dense_box_encloses_the_field_of_values(rng):
    _, _, h = _screw_and_dense(60, 1, False)
    a = rng.standard_normal((30, 30)) + 1j * rng.standard_normal((30, 30))
    for m in (h.matrix, a, np.triu(a)):
        re_lo, re_hi, im_lo, im_hi = dynamics._gershgorin_box(m)
        for (lo, hi), part in (((re_lo, re_hi), 0.5 * (m + m.conj().T)),
                               ((im_lo, im_hi), -0.5j * (m - m.conj().T))):
            w = np.linalg.eigvalsh(part)
            assert lo <= w[0] and w[-1] <= hi


def test_dense_fallback_products_equal_the_estimate(monkeypatch):
    _, free, dense = _stepping_propagators(monkeypatch)
    times = _n600_times(15.8)
    for prop in (free, dense):
        dynamics.populations(prop, initial_state(60, 0, 0.5), times)
        assert 0 < prop.matvecs == dynamics.estimated_matvecs(prop.box, times)


def _packaged_grid(cfg):
    """The one time grid a packaged dynamics or field run propagates over."""
    if cfg.mode == "field":
        return np.array(cfg.field.times)
    return np.append(np.linspace(0.0, cfg.t_max, cfg.n_times), cfg.snapshot_times)


@pytest.mark.parametrize("name", ["fig2_left_bottom", "fig2_left_top", "fig2_right_bottom",
                                  "fig2_right_top", "figS1_polarized", "figS2_hermitian",
                                  "fig3b_field_t1", "fig3b_field_ttau"])
def test_packaged_configs_keep_their_path(name):
    from heliport.config import load_config

    cfg, errs = load_config(cli._resolve_config_path(name))
    assert errs == []
    geom = cfg.build_geometry()
    modelled = dynamics.modelled_seconds(
        geom.n_sites, hamiltonian.screw_effective(geom, cfg.hermitian_only), _packaged_grid(cfg))
    # only the short field run steps matrix-free; every other 60-site run is spectral
    assert (modelled["matrix_free"] < modelled["spectral"]) == (name == "fig3b_field_t1")
