import numpy as np
import pytest

from heliport.dynamics import dense_propagator, initial_state
from heliport.field import (FIELD_PREFACTOR, NEAR_FIELD_RADIUS, FieldPlane,
                            _chunk_points, _field_kernel, default_plane,
                            intensity_map, intensity_maps)
from heliport.geometry import EmitterGeometry, build_helix, mirror_xz
from heliport.greens import POLARIZATION, green_tensor
from heliport.hamiltonian import assemble, effective
from heliport.selfcheck import green_sum_intensities


def single_emitter():
    return EmitterGeometry(np.zeros((1, 3)))


def up_amplitude(geom):
    a = np.zeros(2 * geom.n_sites, dtype=complex)
    a[0] = 1.0
    return a


def test_prefactor_value():
    assert FIELD_PREFACTOR == pytest.approx(np.sqrt(6.0) * np.pi)


def test_plane_axis_labels_and_points():
    plane = FieldPlane("x", 0.5, np.array([-1.0, 1.0]), np.array([0.0, 2.0, 4.0]))
    assert plane.axis_labels == ("y", "z")
    pts = plane.points()
    assert pts.shape == (2, 3, 3)
    assert np.all(pts[..., 0] == 0.5)
    assert np.array_equal(pts[:, 0, 1], [-1.0, 1.0])
    with pytest.raises(ValueError):
        FieldPlane("q", 0.0, np.zeros(2), np.zeros(2))


def test_default_plane_scales_with_geometry(reference_helix):
    plane = default_plane(reference_helix)
    assert plane.normal_axis == "x"
    assert plane.offset == pytest.approx(0.5)       # 10 x radius
    assert plane.u[-1] - plane.u[0] == pytest.approx(0.3)  # 6 x radius
    assert len(plane.u) == 101 and len(plane.v) == 201
    z_lo, z_hi = reference_helix.z.min(), reference_helix.z.max()
    assert plane.v[0] < z_lo and plane.v[-1] > z_hi  # padded z window


def test_pure_up_state_emits_no_down_field(small_helix):
    a = up_amplitude(small_helix)
    plane = default_plane(small_helix, n_u=11, n_v=21)
    fmap = intensity_map([1.0], [a], small_helix, plane)
    assert np.nanmax(fmap.i_down) == 0.0
    assert np.nanmax(fmap.i_up) > 0.0


def test_far_field_inverse_square():
    geom = single_emitter()
    plane = FieldPlane("y", 0.0, np.array([50.0, 100.0]), np.array([0.0]))
    i_up = intensity_map([1.0], [up_amplitude(geom)], geom, plane).i_up
    ratio = i_up[0, 0] / i_up[1, 0]         # the ratio of |F_up|^2 at x = 50, 100
    assert ratio == pytest.approx(4.0, rel=1e-2)


def test_circular_dipole_field_axially_symmetric(rng):
    geom = single_emitter()
    d = 3.0
    angles = rng.uniform(0, 2 * np.pi, size=8)
    pts = np.column_stack([d * np.cos(angles), d * np.sin(angles),
                           np.full(8, 0.7)])
    k = np.empty((6, len(pts), geom.n_sites), dtype=complex)
    near = _field_kernel(geom.positions, pts, k)
    assert not near.any()
    # a circular dipole's circular field components vary with the azimuth
    # only in their phase
    moduli = np.abs(k[:5, :, 0])
    assert np.ptp(moduli, axis=1).max() < 1e-12 * moduli.max()
    # spin up's stack k[:3] holds the three components of G . eps_up
    f = green_tensor(pts - geom.positions[0]) @ POLARIZATION[0]
    assert np.sum(moduli[:3] ** 2, axis=0) == pytest.approx(
        np.sum(np.abs(f) ** 2, axis=1), rel=1e-12)


def test_kernel_allocates_no_array_of_a_kernel_plane_size(rng):
    # a fresh plane-sized array per chunk makes the allocator hand heap pages
    # back and fault them in again, chunk after chunk; the chunk is 4 times
    # the usual one, so that numpy's fixed iteration buffers (8192 elements)
    # stay under the bound
    import tracemalloc

    positions = rng.uniform(-1.0, 1.0, size=(60, 3))
    pts = rng.uniform(-1.0, 1.0, size=(4 * _chunk_points(60), 3))
    k = np.empty((6, len(pts), len(positions)), dtype=complex)
    tracemalloc.start()
    try:
        _field_kernel(positions, pts, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < k[0].nbytes / 4          # boolean masks, row flags, numpy's buffers


def test_near_field_points_masked(small_helix):
    # place one grid point directly on an emitter
    u = np.array([small_helix.positions[0, 1], 1.0])
    v = np.array([small_helix.positions[0, 2], 2.0])
    plane = FieldPlane("x", small_helix.positions[0, 0], u, v)
    fmap = intensity_map([1.0], [up_amplitude(small_helix)], small_helix, plane)
    assert np.isnan(fmap.i_up[0, 0])
    assert fmap.n_masked == 1
    assert np.isfinite(fmap.i_up[1, 1])


def test_normalization_modes(small_helix):
    st = initial_state(small_helix.n_sites, 0, 0.5)
    h = effective(assemble(small_helix))
    amps = [dense_propagator(h).propagate(a0, np.array([1.0]))[0] for a0 in st.amplitudes]
    plane = default_plane(small_helix, n_u=15, n_v=25)

    raw = intensity_map(st.weights, amps, small_helix, plane, normalize="none")
    glob = intensity_map(st.weights, amps, small_helix, plane, normalize="global")
    per = intensity_map(st.weights, amps, small_helix, plane, normalize="per_map")

    peak = max(np.nanmax(raw.i_up), np.nanmax(raw.i_down))
    assert max(np.nanmax(glob.i_up), np.nanmax(glob.i_down)) == pytest.approx(1.0)
    assert np.nanmax(per.i_up) == pytest.approx(1.0)
    assert np.nanmax(per.i_down) == pytest.approx(1.0)
    # pre-normalization peaks are recorded either way
    assert glob.norm_max["up"] == pytest.approx(np.nanmax(raw.i_up))
    assert glob.norm_max["down"] == pytest.approx(np.nanmax(raw.i_down))
    assert np.nanmax(glob.i_up) * peak == pytest.approx(np.nanmax(raw.i_up))


def test_mirror_swaps_polarization_maps(small_helix):
    mirrored = mirror_xz(small_helix)
    st = initial_state(small_helix.n_sites, 0, 0.5)
    t = np.array([0.8])
    amps = [dense_propagator(effective(assemble(small_helix))).propagate(a, t)[0]
            for a in st.amplitudes]
    amps_m = [dense_propagator(effective(assemble(mirrored))).propagate(a, t)[0]
              for a in st.amplitudes]
    plane = default_plane(small_helix, n_u=21, n_v=31)
    fo = intensity_map(st.weights, amps, small_helix, plane)
    fm = intensity_map(st.weights, amps_m, mirrored, plane)
    # mirroring the geometry swaps polarizations after reflecting y -> -y
    assert np.nanmax(np.abs(fm.i_up[::-1, :] - fo.i_down)) < 1e-12
    assert np.nanmax(np.abs(fm.i_down[::-1, :] - fo.i_up)) < 1e-12


def test_multi_time_maps_match_green_tensor_oracle(small_helix, rng):
    geom = small_helix
    n, times, weights = geom.n_sites, [0.0, 0.7, 2.5], [0.3, 0.7]
    # random points on a random plane, none inside the near-field radius
    plane = FieldPlane("y", 0.2 * rng.uniform(-1.0, 1.0), rng.uniform(-0.4, 0.4, 5),
                       rng.uniform(-0.2, 0.6, 6))
    pts = plane.points()
    sep = pts[..., None, :] - geom.positions
    assert np.linalg.norm(sep, axis=-1).min() > NEAR_FIELD_RADIUS
    amps = rng.normal(size=(2, 3, 2 * n)) + 1j * rng.normal(size=(2, 3, 2 * n))
    maps = intensity_maps(weights, amps, geom, plane, times)

    for t_idx, fmap in enumerate(maps):
        assert fmap.time == times[t_idx] and fmap.n_masked == 0
        want = green_sum_intensities(geom, pts, weights, amps[:, t_idx])
        for got, want_spin in zip((fmap.i_up, fmap.i_down), want):
            np.testing.assert_allclose(got, want_spin, rtol=1e-12, atol=0.0)


def test_chunked_maps_match_green_sum_with_a_masked_point(rng):
    # random emitters; a z plane through emitter 0 with one grid point on it
    geom = EmitterGeometry(rng.uniform(-0.3, 0.3, size=(120, 3)))
    x0, y0, z0 = geom.positions[0]
    plane = FieldPlane("z", z0, np.sort(np.append(rng.uniform(-0.5, 0.5, 29), x0)),
                       np.sort(np.append(rng.uniform(-0.5, 0.5, 39), y0)))
    assert plane.u.size * plane.v.size > 2 * _chunk_points(geom.n_sites)
    times, weights = [0.0, 1.3, 4.0], [0.6, 0.4]
    amps = rng.normal(size=(2, 3, 240)) + 1j * rng.normal(size=(2, 3, 240))
    maps = intensity_maps(weights, amps, geom, plane, times)

    pts = plane.points()
    on_emitter = (pts[..., 0] == x0) & (pts[..., 1] == y0)
    assert on_emitter.sum() == 1
    keep = ~on_emitter
    dist = np.linalg.norm(pts[keep][:, None, :] - geom.positions, axis=-1)
    assert dist.min() > NEAR_FIELD_RADIUS
    for t_idx, fmap in enumerate(maps):
        assert fmap.n_masked == 1
        want = green_sum_intensities(geom, pts[keep], weights, amps[:, t_idx])
        for got, want_spin in zip((fmap.i_up, fmap.i_down), want):
            assert np.isnan(got[on_emitter]).all()
            np.testing.assert_allclose(got[keep], want_spin, rtol=1e-12, atol=0.0)
