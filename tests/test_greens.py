import numpy as np
import pytest

from heliport.greens import (EPS_DOWN, EPS_UP, GAMMA0, K0, coupling_blocks,
                             green_tensor, pair_coupling)


def co_polar_decay_series(u):
    """Small-separation series of the co-polarized decay coupling.

    For circularly polarized in-plane dipoles separated along z by r = u/k0,
    Gamma(u)/Gamma_0 = (3/2) [sin u/u + cos u/u^2 - sin u/u^3], whose Taylor
    series is 1 - u^2/5 + 3u^4/280 + O(u^6).  The closed form suffers
    catastrophic 1/u^2 cancellation for small u; the series does not.
    """
    return GAMMA0 * (1.0 - u**2 / 5.0 + 3.0 * u**4 / 280.0)


def test_polarization_vectors():
    assert np.allclose(EPS_UP, np.array([1.0, 1.0j, 0.0]) / np.sqrt(2))
    assert np.allclose(EPS_DOWN, EPS_UP.conj())
    assert abs(np.vdot(EPS_UP, EPS_DOWN)) < 1e-15


def test_green_tensor_zero_separation_rejected():
    with pytest.raises(ValueError):
        green_tensor(np.zeros(3))


def test_green_tensor_shapes():
    single = green_tensor(np.array([0.3, 0.1, -0.2]))
    assert single.shape == (3, 3)
    batch = green_tensor(np.full((4, 5, 3), 0.25))
    assert batch.shape == (4, 5, 3, 3)
    assert np.allclose(batch[0, 0], green_tensor(np.full(3, 0.25)))


def test_green_tensor_symmetric_and_even(rng):
    sep = rng.uniform(-1.5, 1.5, size=(30, 3)) + 0.1
    g = green_tensor(sep)
    assert np.abs(g - g.transpose(0, 2, 1)).max() < 1e-14
    assert np.abs(g - green_tensor(-sep)).max() < 1e-14


def test_green_tensor_far_field():
    # large axial distance: transverse 1/r spherical wave, no longitudinal part
    d = 250.0
    g = green_tensor(np.array([0.0, 0.0, d]))
    lead = np.exp(1j * K0 * d) / (4 * np.pi * d)
    assert np.abs(g - lead * np.diag([1.0, 1.0, 0.0])).max() < 1e-2 * abs(lead)


def test_decay_coupling_small_separation_series():
    for u in (5e-4, 1e-3, 2e-3):
        _, gam = coupling_blocks(np.array([0.0, 0.0, u / K0]))
        assert abs(gam[0, 0].real - co_polar_decay_series(u)) < 1e-8


def test_coupling_blocks_structure(rng):
    sep = rng.uniform(-2.0, 2.0, size=(40, 3)) + 0.2
    j, gam = coupling_blocks(sep)
    assert j.shape == gam.shape == (40, 2, 2)
    for blk in (j, gam):
        assert np.abs(blk - blk.conj().transpose(0, 2, 1)).max() < 1e-12
        assert np.abs(blk[:, 0, 0] - blk[:, 1, 1]).max() < 1e-12
        assert np.abs(blk.imag[:, 0, 0]).max() < 1e-12  # co-polar entries real
    # swapping the pair gives the adjoint block (= the block, which is Hermitian)
    j2, gam2 = coupling_blocks(-sep)
    assert np.abs(j2 - j.conj().transpose(0, 2, 1)).max() < 1e-12
    assert np.abs(gam2 - gam.conj().transpose(0, 2, 1)).max() < 1e-12


def test_axial_separation_conserves_spin(rng):
    z = rng.uniform(0.05, 4.0, size=25)
    sep = np.column_stack([np.zeros_like(z), np.zeros_like(z), z])
    j, gam = coupling_blocks(sep)
    assert np.abs(j[:, 0, 1]).max() < 1e-15
    assert np.abs(j[:, 1, 0]).max() < 1e-15
    assert np.abs(gam[:, 0, 1]).max() < 1e-15
    assert np.abs(gam[:, 1, 0]).max() < 1e-15


def test_rotation_covariance_of_cross_coupling(rng):
    for _ in range(30):
        r_i = rng.uniform(-1.0, 1.0, size=3)
        r_j = r_i + rng.uniform(0.1, 1.0, size=3)
        delta = rng.uniform(0.0, 2 * np.pi)
        c, s = np.cos(delta), np.sin(delta)
        rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        a = pair_coupling(r_i, r_j)
        b = pair_coupling(rot @ r_i, rot @ r_j)
        phase = np.exp(-2j * delta)
        for orig, rotd in ((a.j, b.j), (a.gamma, b.gamma)):
            assert abs(rotd[0, 0] - orig[0, 0]) < 1e-12       # co-polar invariant
            assert abs(rotd[0, 1] - orig[0, 1] * phase) < 1e-12
            assert abs(rotd[1, 0] - orig[1, 0] * phase.conjugate()) < 1e-12


def test_pair_coupling_matches_blocks(rng):
    r_i = rng.uniform(-1, 1, size=3)
    r_j = r_i + np.array([0.3, -0.2, 0.4])
    pc = pair_coupling(r_i, r_j)
    j, gam = coupling_blocks(r_i - r_j)
    assert np.allclose(pc.j, j)
    assert np.allclose(pc.gamma, gam)


def _contracted_blocks(sep):
    """eps_s^dag . Re/Im G . eps_t from the explicit 3x3 tensor."""
    g = green_tensor(sep)
    eps = np.array([EPS_UP, EPS_DOWN])
    j = -1.5 * np.einsum("sa,...ab,tb->...st", eps.conj(), g.real, eps)
    gam = 3.0 * np.einsum("sa,...ab,tb->...st", eps.conj(), g.imag, eps)
    return j, gam


@pytest.mark.parametrize("kind", ["random", "axial", "in-plane"])
def test_closed_form_blocks_match_tensor_contraction(rng, kind):
    sep = rng.normal(size=(200, 3))
    if kind == "axial":
        sep[:, :2] = 0.0
    elif kind == "in-plane":
        sep[:, 2] = 0.0
    sep *= rng.uniform(0.05, 3.0, size=(200, 1)) / np.linalg.norm(sep, axis=1, keepdims=True)
    for closed, ref in zip(coupling_blocks(sep), _contracted_blocks(sep)):
        assert np.abs(closed - ref).max() <= 1e-13 * np.abs(ref).max()
