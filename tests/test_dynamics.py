import json
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from heliport import cli, dynamics

from heliport.dynamics import (Propagator, arrival_time, evolve, helicity,
                               initial_state, master_equation_check)
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
    ser = evolve(initial_state(1, 0, 0.5), h, geom, times)
    assert np.abs(ser.trace - np.exp(-GAMMA0 * times)).max() < 1e-12


def test_norm_monotone_and_split(small_helix):
    h = effective(assemble(small_helix))
    times = np.linspace(0.0, 20.0, 150)
    ser = evolve(initial_state(small_helix.n_sites, 0, 0.5), h, small_helix, times)
    assert np.diff(ser.trace).max() <= 1e-10
    assert np.abs(ser.p_up + ser.p_down - ser.trace).max() < 1e-12
    assert np.abs(ser.per_site.sum(axis=(1, 2)) - ser.trace).max() < 1e-12


def test_hermitian_norm_conserved(small_helix):
    h = effective(assemble(small_helix), hermitian_only=True)
    times = np.linspace(0.0, 20.0, 80)
    ser = evolve(initial_state(small_helix.n_sites, 0, 0.5), h, small_helix, times)
    assert np.abs(ser.trace - 1.0).max() < 1e-8


def test_mirror_swaps_populations(small_helix):
    mirrored = mirror_xz(small_helix)
    times = np.linspace(0.0, 6.0, 50)
    st = initial_state(small_helix.n_sites, 0, 0.5)
    a = evolve(st, effective(assemble(small_helix)), small_helix, times)
    b = evolve(st, effective(assemble(mirrored)), mirrored, times)
    assert np.abs(a.p_up - b.p_down).max() < 1e-13
    assert np.abs(a.p_down - b.p_up).max() < 1e-13
    assert np.abs(a.trace - b.trace).max() < 1e-13
    assert np.abs(a.per_site - b.per_site[:, :, ::-1]).max() < 1e-13


def test_branch_mixture_is_linear(small_helix):
    h = effective(assemble(small_helix))
    times = np.linspace(0.0, 4.0, 30)
    n = small_helix.n_sites
    mix = evolve(initial_state(n, 0, 0.3), h, small_helix, times)
    up = evolve(initial_state(n, 0, 1.0), h, small_helix, times)
    dn = evolve(initial_state(n, 0, 0.0), h, small_helix, times)
    assert np.abs(mix.per_site - 0.3 * up.per_site - 0.7 * dn.per_site).max() < 1e-14


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
    h = effective(assemble(small_helix))
    with pytest.raises(ValueError):
        evolve(initial_state(small_helix.n_sites, 0, 0.5), h, small_helix,
               np.array([1.0, 0.5]))
    with pytest.raises(ValueError):
        evolve(initial_state(small_helix.n_sites, 0, 0.5), h, small_helix,
               np.array([-1.0, 0.5]))


def test_expm_fallback_matches_spectral(small_helix, monkeypatch):
    h = effective(assemble(small_helix))
    spectral = Propagator(h)
    assert not spectral.use_stepper
    monkeypatch.setattr(dynamics, "COND_LIMIT", 0.0)   # force the expm_multiply fallback
    stepped = Propagator(h)
    assert stepped.use_stepper
    a0 = initial_state(small_helix.n_sites, 0, 1.0).amplitudes[0]
    times = np.array([0.0, 0.7, 1.9])
    assert np.abs(spectral.propagate(a0, times)
                  - stepped.propagate(a0, times)).max() < 1e-8


def test_arrival_time_of_transport_pulse():
    geom = build_helix(HelixParams(0.05, 0.175, 3, 10, 1))
    h = effective(assemble(geom))
    times = np.linspace(0.0, 8.0, 160)
    ser = evolve(initial_state(geom.n_sites, 0, 0.5), h, geom, times)
    t_arr = arrival_time(ser, geom)
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


def _count_inv(monkeypatch):
    calls = []
    inv = np.linalg.inv

    def counting(a):
        calls.append(1)
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", counting)
    return calls


def test_spin_swap_left_eigenvectors_match_expm(monkeypatch):
    geom = build_helix(HelixParams(0.05, 0.175, 3, 10, 1))   # N = 30
    h = effective(assemble(geom))
    inv_calls = _count_inv(monkeypatch)
    prop = Propagator(h)
    assert not inv_calls and not prop.use_stepper
    assert 1.0 <= prop.condition < 1e4
    a0 = initial_state(geom.n_sites, 4, 1.0).amplitudes[0]
    times = np.array([0.0, 0.3, 2.5, 7.9])
    assert np.abs(prop.propagate(a0, times)
                  - _expm_reference(h, a0, times)).max() < 1e-12


def _axial(z):
    z = np.asarray(z, dtype=float)
    return np.column_stack([np.zeros_like(z), np.zeros_like(z), z])


@pytest.mark.parametrize("geom", [
    EmitterGeometry(np.zeros((1, 3)), label="single emitter"),
    build_helix(HelixParams(0.05, 0.175, 1, 12, 1)),          # straight chain
], ids=["single_emitter", "straight_chain"])
def test_c2_blocks_split_spin_degeneracy(geom, monkeypatch):
    h = effective(assemble(geom))
    inv_calls = _count_inv(monkeypatch)
    a0 = initial_state(geom.n_sites, 0, 0.5).amplitudes[0]
    times = np.array([0.0, 0.8, 3.1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        prop = Propagator(h)
        amps = prop.propagate(a0, times)
    assert len(prop.blocks) == 2
    assert not inv_calls and not prop.use_stepper
    assert np.abs(amps - _expm_reference(h, a0, times)).max() < 1e-12


# spin-degenerate (axial separations) and neither a screw nor C2-symmetric
@pytest.mark.parametrize("geom", [
    EmitterGeometry(_axial([0.0, 0.1, 0.25, 0.45, 0.7]), label="uneven axial chain"),
    EmitterGeometry(_axial([0.0, 0.1, 0.25, 0.45, 0.7]) + [0.05, 0.0, 0.0],
                    label="uneven off-axis chain"),
], ids=["uneven_axial_chain", "uneven_offaxis_chain"])
def test_spin_degenerate_spectra_fall_back_to_inv(geom, monkeypatch):
    h = effective(assemble(geom))
    inv_calls = _count_inv(monkeypatch)
    a0 = initial_state(geom.n_sites, 0, 0.5).amplitudes[0]
    times = np.array([0.0, 0.8, 3.1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        prop = Propagator(h)
        amps = prop.propagate(a0, times)
    assert len(inv_calls) == 1 and not prop.use_stepper
    assert np.abs(amps - _expm_reference(h, a0, times)).max() < 1e-12


def test_cli_dynamics_builds_one_propagator(tmp_path, monkeypatch):
    built = []

    class Counting(Propagator):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(dynamics, "Propagator", Counting)
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
    diag = json.loads((out / "manifest.json").read_text())["diagnostics"]
    assert diag["propagator_fallback"] is False
    assert 1.0 <= diag["propagator_condition"] < dynamics.COND_LIMIT


def test_evolve_rejects_foreign_propagator(small_helix):
    h = effective(assemble(small_helix))
    other = Propagator(effective(assemble(small_helix), hermitian_only=True))
    with pytest.raises(ValueError):
        evolve(initial_state(small_helix.n_sites, 0, 0.5), h, small_helix,
               np.linspace(0.0, 1.0, 5), propagator=other)


def test_defective_spectrum_takes_expm_fallback_without_warnings():
    h = EffectiveHamiltonian(np.array([[0.0, 1.0], [0.0, 0.0]], complex),
                             False)                       # 2x2 Jordan block
    a0 = np.array([1.0, 1.0], complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        prop = Propagator(h)
        amps = prop.propagate(a0, np.array([0.0, 1.0]))
    assert prop.use_stepper
    assert np.abs(amps - _expm_reference(h, a0, [0.0, 1.0])).max() < 1e-10


# ------------------------------------------------------- C2 block propagator

@pytest.mark.parametrize("hermitian_only", [False, True], ids=["full", "coherent"])
@pytest.mark.parametrize("launch", ["first", "last"])
@pytest.mark.parametrize("handedness", [1, -1])
@pytest.mark.parametrize("n_t", range(1, 7))
def test_c2_propagator_matches_expm(n_t, handedness, launch, hermitian_only):
    geom = build_helix(HelixParams(0.05, 0.175, n_t, 30 // n_t, handedness))
    h = effective(assemble(geom), hermitian_only)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        prop = Propagator(h)
    assert len(prop.blocks) == 2 and not prop.use_stepper
    assert prop.c2_residual < dynamics.C2_TOL
    site = 0 if launch == "first" else geom.n_sites - 1
    times = np.array([0.0, 0.4, 2.5, 7.9])
    for a0 in initial_state(geom.n_sites, site, 0.5).amplitudes:
        assert np.abs(prop.propagate(a0, times)
                      - _expm_reference(h, a0, times)).max() < 1e-12


def test_asymmetric_geometry_takes_one_block(rng):
    geom = EmitterGeometry(rng.uniform(-0.3, 0.3, size=(12, 3)), label="random")
    h = effective(assemble(geom))
    prop = Propagator(h)
    assert len(prop.blocks) == 1 and prop.c2_residual > dynamics.C2_TOL
    vecs = np.linalg.eig(h.matrix)[1]
    full = np.linalg.norm(vecs) * np.linalg.norm(np.linalg.inv(vecs))
    assert abs(prop.condition - full) < 1e-9 * full
    a0 = initial_state(geom.n_sites, 3, 1.0).amplitudes[0]
    times = np.array([0.0, 1.3])
    assert np.abs(prop.propagate(a0, times)
                  - _expm_reference(h, a0, times)).max() < 1e-12


def test_c2_condition_is_the_full_basis_bound():
    geom = build_helix(HelixParams(0.05, 0.175, 3, 10, -1))
    h = effective(assemble(geom))
    prop = Propagator(h)
    assert len(prop.blocks) == 2
    vecs = np.linalg.eig(h.matrix)[1]
    full = np.linalg.norm(vecs) * np.linalg.norm(np.linalg.inv(vecs))
    assert abs(prop.condition - full) < 1e-9 * full


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
    assert diag["propagator_blocks"] == 2
    assert 0.0 <= diag["c2_residual"] < dynamics.C2_TOL
