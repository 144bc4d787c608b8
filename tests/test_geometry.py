import json
import tracemalloc

import numpy as np
import pytest

from heliport.geometry import (MIN_SEPARATION, SCAN_PAIRS, EmitterGeometry, HelixParams,
                               build_helix, coincident_pairs, load_geometry_file, mirror_xz,
                               rotate_about_z)


def test_helix_params_validation():
    assert HelixParams(0.05, 0.175, 3, 20).validation_errors() == []
    bad = HelixParams(-1.0, 0.0, 0, 0, handedness=2)
    errs = bad.validation_errors()
    assert len(errs) == 5
    assert any("radius" in e for e in errs)
    assert any("handedness" in e for e in errs)


def test_helix_site_count():
    assert HelixParams(0.05, 0.175, 3, 20).n_sites == 60
    assert build_helix(HelixParams(0.05, 0.175, 4, 5)).n_sites == 20


def test_helix_positions_on_cylinder():
    params = HelixParams(0.1, 0.3, 5, 3)
    geom = build_helix(params)
    rho = np.linalg.norm(geom.positions[:, :2], axis=1)
    assert np.allclose(rho, params.radius, atol=1e-14)
    # one pitch per turn, evenly divided among the sites
    dz = np.diff(geom.positions[:, 2])
    assert np.allclose(dz, params.pitch / params.sites_per_turn, atol=1e-14)
    assert np.allclose(geom.positions[0], [params.radius, 0.0, 0.0], atol=1e-15)


def test_helix_handedness_sets_winding_sense():
    # left-handed (+1): azimuthal angle decreases as z increases
    left = build_helix(HelixParams(0.05, 0.175, 4, 1, handedness=1))
    assert left.positions[1, 1] < 0
    right = build_helix(HelixParams(0.05, 0.175, 4, 1, handedness=-1))
    assert right.positions[1, 1] > 0
    # the two are exact xz-mirror images
    assert np.array_equal(mirror_xz(left).positions, right.positions)


def test_mirror_is_involution(reference_helix):
    twice = mirror_xz(mirror_xz(reference_helix))
    assert np.array_equal(twice.positions, reference_helix.positions)


def test_rotation_preserves_z_and_radius(reference_helix, rng):
    delta = rng.uniform(0, 2 * np.pi)
    rot = rotate_about_z(reference_helix, delta)
    assert np.allclose(rot.positions[:, 2], reference_helix.positions[:, 2])
    assert np.allclose(np.linalg.norm(rot.positions[:, :2], axis=1),
                       np.linalg.norm(reference_helix.positions[:, :2], axis=1))
    ang = np.arctan2(rot.positions[0, 1], rot.positions[0, 0])
    assert abs((ang - delta + np.pi) % (2 * np.pi) - np.pi) < 1e-12


def test_positions_are_read_only(reference_helix):
    with pytest.raises(ValueError):
        reference_helix.positions[0, 0] = 1.0


def test_coincident_positions_rejected():
    pos = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    assert coincident_pairs(pos) == [(0, 1)]
    with pytest.raises(ValueError, match="coincident"):
        EmitterGeometry(pos)


def _all_pairs(positions):
    """The all-pairs coincidence scan, kept as the oracle of the sweep."""
    diff = positions[:, None, :] - positions[None, :, :]
    dist = np.linalg.norm(diff, axis=-1)
    iu = np.triu_indices(len(positions), k=1)
    close = dist[iu] < MIN_SEPARATION
    return list(zip(iu[0][close].tolist(), iu[1][close].tolist()))


def test_coincident_scan_matches_all_pairs(rng):
    offsets = (0.0, 0.6, 0.99, 1.5)              # in MIN_SEPARATION; the last is apart
    helix = build_helix(HelixParams(0.05, 0.175, 3, 1000, 1)).positions   # N = 3000
    planar = rng.uniform(-1.0, 1.0, size=(600, 3))
    planar[:, 2] = 0.25                          # one z: every pair is a candidate
    for pos in [rng.uniform(-1.0, 1.0, size=(n, 3)) for n in (1, 2, 65, 300)] + [
            planar, helix.copy()]:
        n = len(pos)
        sites = rng.permutation(n)[:2 * min(n // 2, len(offsets))]
        for (i, j), offset in zip(sites.reshape(-1, 2), offsets):
            pos[j] = pos[i] + offset * MIN_SEPARATION * np.array([0.6, 0.0, 0.8])
        found = coincident_pairs(pos)
        assert found == _all_pairs(pos)
        assert len(found) == min(n // 2, 3)
    # the planar geometry's 179 700 candidates span several blocks
    assert len(planar) * (len(planar) - 1) // 2 > 2 * SCAN_PAIRS
    pos = np.zeros((70, 3))                       # every pair coincides
    assert coincident_pairs(pos) == _all_pairs(pos) == [
        (i, j) for i in range(70) for j in range(i + 1, 70)]


def test_coincident_scan_memory_is_linear():
    pos = build_helix(HelixParams(0.05, 0.175, 3, 1000, 1)).positions   # N = 3000
    tracemalloc.start()
    try:
        assert coincident_pairs(pos) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the all-pairs scan holds (N, N, 3) separations: 216 MB here
    assert peak < 16 * 2**20


def test_geometry_shape_validation():
    with pytest.raises(ValueError):
        EmitterGeometry(np.zeros((3, 2)))
    with pytest.raises(ValueError):
        EmitterGeometry(np.zeros(3))


def test_geometry_file_roundtrip(tmp_path):
    pos = [[0.0, 0.0, 0.0], [0.1, 0.0, 0.05], [0.0, 0.1, 0.1]]
    path = tmp_path / "sites.json"
    path.write_text(json.dumps({"positions": pos, "label": "test chain"}))
    geom = load_geometry_file(path)
    assert geom.n_sites == 3
    assert geom.label == "test chain"
    assert np.allclose(geom.positions, pos)


def test_geometry_file_rejects_unknown_keys(tmp_path):
    path = tmp_path / "sites.json"
    path.write_text(json.dumps({"positions": [[0, 0, 0]], "labl": "typo"}))
    with pytest.raises(ValueError, match="unknown"):
        load_geometry_file(path)
