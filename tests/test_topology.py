import json
from types import SimpleNamespace

import numpy as np
import pytest

from heliport import cli
from heliport.bloch import band_structure, brillouin_grid
from heliport.geometry import HelixParams
from heliport.topology import detect_gap, wilson_grid, wilson_loop, zak_phases

PITCH = 0.175


def helix(n_sites_per_turn):
    return HelixParams(0.05, PITCH, n_sites_per_turn, 1, 1)


def zak(params, subset, n_k, m_cut, biorthogonal=False):
    """Zak phase of one band group on its own sweep over the Wilson grid."""
    bands = band_structure(params, wilson_grid(params.pitch, n_k), m_cut,
                           hermitian_only=not biorthogonal)
    return zak_phases(bands, [subset], biorthogonal)[0]


def hermitian_bands(n_sites_per_turn, n_k=81, m_cut=300):
    grid = brillouin_grid(PITCH, n_k)
    return band_structure(helix(n_sites_per_turn), grid, m_cut=m_cut,
                          hermitian_only=True)


def test_wilson_loop_of_constant_frame_is_trivial(rng):
    frame = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0][:, :2]
    phase, min_det = wilson_loop([frame] * 30)
    assert abs(phase) < 1e-12
    assert abs(min_det - 1.0) < 1e-12


def test_wilson_loop_detects_half_winding():
    # a real unit vector rotating by pi across the loop picks up phase pi
    n = 60
    theta = np.pi * np.arange(n) / n
    frames = [np.array([[np.cos(t)], [np.sin(t)]]) for t in theta]
    phase, min_det = wilson_loop(frames)
    assert abs(abs(phase) - np.pi) < 1e-12
    assert min_det > 0.9


def test_wilson_loop_flags_orthogonal_jump():
    frames = [np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]])]
    _, min_det = wilson_loop(frames)
    assert min_det < 1e-12


def per_k_wilson_loop(rights, lefts):
    """The loop as a Python product over k: the reference for the batched one."""
    det, min_det = 1.0 + 0.0j, np.inf
    for i in range(len(rights)):
        d = np.linalg.det(lefts[i].conj().T @ rights[(i + 1) % len(rights)])
        det, min_det = det * d, min(min_det, abs(d))
    return float(-np.angle(det)), float(min_det)


@pytest.mark.parametrize("n_subset", [1, 3, 6])
def test_wilson_loop_is_one_batched_product(rng, monkeypatch, n_subset):
    shape = (50, 6, 6)
    frames = np.linalg.qr(rng.normal(size=shape) + 1j * rng.normal(size=shape))[0]
    frames = frames[:, :, :n_subset]
    duals = frames + 0.01 * rng.normal(size=frames.shape)
    for lefts in (frames, duals):
        expected = per_k_wilson_loop(frames, lefts)
        calls = []
        det = np.linalg.det
        monkeypatch.setattr(np.linalg, "det", lambda a: calls.append(a.shape) or det(a))
        phase, min_det = wilson_loop(frames, lefts)
        monkeypatch.undo()
        assert calls == [(50, n_subset, n_subset)]
        assert abs(np.angle(np.exp(1j * (phase - expected[0])))) < 1e-13
        assert abs(min_det - expected[1]) < 1e-13


def test_gap_detection_by_cell_size():
    assert not detect_gap(hermitian_bands(1)).gapped
    assert detect_gap(hermitian_bands(1)).width == 0.0
    assert not detect_gap(hermitian_bands(2)).gapped

    gap3 = detect_gap(hermitian_bands(3))
    assert gap3.gapped
    assert gap3.width > 1.0
    assert gap3.lower_bands == (0, 1, 2)
    assert gap3.upper_bands == (3, 4, 5)
    assert gap3.e_hi - gap3.e_lo == pytest.approx(gap3.width)


def loop_gap(energies, threshold):
    """(width, split) of the widest indirect gap, the first on ties, by
    scanning every split; (0.0, None) when none is wider than 0 and threshold."""
    e_sorted = np.sort(energies, axis=1)
    best = (0.0, None)
    for split in range(1, e_sorted.shape[1]):
        width = e_sorted[:, split:].min() - e_sorted[:, :split].max()
        if width > best[0]:
            best = (width, split)
    return best if best[0] >= threshold else (0.0, None)


def test_gap_matches_a_scan_over_every_split():
    # ties and touching bands: levels on a coarse lattice, with and without noise
    rng = np.random.default_rng(7)
    for _ in range(200):
        n_b, n_k = rng.integers(2, 9), rng.integers(1, 12)
        levels = rng.integers(0, 4, n_b) * rng.choice([1e-4, 1.0])
        energies = levels + rng.choice([0.0, 1e-4, 0.3]) * rng.normal(size=(n_k, n_b))
        threshold = rng.choice([0.0, 1e-3, 0.5])
        gap = detect_gap(SimpleNamespace(energies=energies), threshold)
        width, split = loop_gap(energies, threshold)
        assert gap.width == width
        assert gap.lower_bands == tuple(range(split or n_b))


def test_gapless_descriptor_covers_all_bands():
    gap = detect_gap(hermitian_bands(2))
    assert gap.lower_bands == (0, 1, 2, 3)
    assert gap.upper_bands is None


def test_zak_phase_trivial_single_site_cell():
    res = zak(helix(1), [0, 1], n_k=120, m_cut=300)
    assert abs(res.phase) < 1e-8
    assert res.residual < 1e-8
    assert not res.ill_defined


def test_zak_phase_quantized_three_site_cell():
    lower = zak(helix(3), [0, 1, 2], n_k=120, m_cut=300)
    upper = zak(helix(3), [3, 4, 5], n_k=120, m_cut=300)
    for res in (lower, upper):
        assert np.pi - abs(res.phase) < 1e-6
        assert res.residual < 1e-6
        assert not res.ill_defined
        assert res.min_overlap_det > 0.5


def test_zak_phase_of_a_pi_group_lies_in_the_documented_interval():
    # the upper group of the packaged N_t = 4 run: its loop determinant is
    # -1 to round-off, and -angle(det) can come out as exactly -pi
    res = zak(helix(4), [4, 5, 6, 7], n_k=400, m_cut=2000)
    assert -np.pi < res.phase <= np.pi
    assert np.pi - abs(res.phase) < 1e-6


def test_zak_phase_all_bands_trivial():
    res = zak(helix(3), range(6), n_k=120, m_cut=300)
    assert abs(res.phase) < 1e-8


def test_zak_phase_converged_in_grid():
    a = zak(helix(3), [0, 1, 2], n_k=100, m_cut=300).phase
    b = zak(helix(3), [0, 1, 2], n_k=200, m_cut=300).phase
    # circular distance (phases live on (-pi, pi])
    assert abs(np.angle(np.exp(1j * (a - b)))) < 1e-3


def test_zak_phase_mirror_pair_agrees_mod_2pi():
    left = zak(helix(3), [0, 1, 2], n_k=100, m_cut=300).phase
    mirrored = HelixParams(0.05, PITCH, 3, 1, -1)
    right = zak(mirrored, [0, 1, 2], n_k=100, m_cut=300).phase
    assert abs(np.angle(np.exp(1j * (left + right)))) < 1e-8  # phi -> -phi


def test_zak_phase_input_validation():
    with pytest.raises(ValueError):
        zak(helix(2), [0], n_k=10, m_cut=100)
    with pytest.raises(ValueError):
        zak(helix(2), [7], n_k=100, m_cut=100)


def test_biorthogonal_variant_runs():
    res = zak(helix(3), [0, 1, 2], n_k=80, m_cut=200, biorthogonal=True)
    assert res.biorthogonal and not res.hermitian_only
    assert np.isfinite(res.phase)
    assert -np.pi < res.phase <= np.pi + 1e-12


def test_wilson_loop_with_right_frames_as_left_frames_is_unchanged(rng):
    frames = [np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))[0][:, :3]
              for _ in range(25)]
    assert wilson_loop(frames, frames) == wilson_loop(frames)


@pytest.mark.parametrize("biorthogonal", [False, True])
def test_zak_phases_matches_one_zak_phase_per_group(biorthogonal):
    lower, upper = (0, 1, 2), (3, 4, 5)
    bands = band_structure(helix(3), wilson_grid(PITCH, 80), m_cut=200,
                           hermitian_only=not biorthogonal)
    both = zak_phases(bands, [lower, upper], biorthogonal=biorthogonal)
    singles = [zak(helix(3), subset, n_k=80, m_cut=200,
                         biorthogonal=biorthogonal) for subset in (lower, upper)]
    assert both == singles


def test_zak_phases_refuses_biorthogonal_frames_of_a_hermitian_sweep():
    bands = band_structure(helix(3), wilson_grid(PITCH, 60), m_cut=100,
                           hermitian_only=True)
    with pytest.raises(ValueError, match="non-Hermitian"):
        zak_phases(bands, [(0, 1, 2)], biorthogonal=True)


def test_wilson_grid_is_open_and_uniform():
    edge = np.pi / PITCH
    for n_k in (80, 400, 2000):
        grid = wilson_grid(PITCH, n_k)
        assert np.array_equal(grid, -edge + np.arange(n_k) * (2 * edge / n_k))


def test_packaged_pi_groups_report_exactly_pi(tmp_path):
    # a pi group must not read +pi on one run and -pi + 1e-15 on the next
    for n_t in range(1, 7):
        out = tmp_path / f"N{n_t}"
        assert cli.main(["run", "--config", f"fig4_N{n_t}", "--out", str(out)]) == 0
        for record in json.loads((out / "zak.json").read_text()):
            phase = record["zak_phase"]
            assert np.pi - abs(phase) > 1e-12 or phase == np.pi
