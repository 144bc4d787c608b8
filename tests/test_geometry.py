import json

import numpy as np
import pytest

from heliport.geometry import (EmitterGeometry, HelixParams, build_helix,
                               coincident_pairs, load_geometry_file, mirror_xz,
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
