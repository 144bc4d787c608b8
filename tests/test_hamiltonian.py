import numpy as np
import pytest

from heliport import hamiltonian
from heliport.geometry import (EmitterGeometry, HelixParams, build_helix,
                               mirror_xz, rotate_about_z)
from heliport.greens import GAMMA0
from heliport.hamiltonian import (CouplingTensor, _pairwise_assemble,
                                  _screw_azimuths, assemble, effective,
                                  spin_z_diagonal)


def test_single_emitter():
    geom = EmitterGeometry(np.zeros((1, 3)))
    coup = assemble(geom)
    assert np.array_equal(coup.j, np.zeros((2, 2)))
    assert np.allclose(coup.gamma, GAMMA0 * np.eye(2))
    h = effective(coup)
    assert np.allclose(h.matrix, -0.5j * GAMMA0 * np.eye(2))


def test_spin_z_diagonal():
    assert np.array_equal(spin_z_diagonal(3), [1, -1, 1, -1, 1, -1])


def test_axial_chain_conserves_spin():
    z = np.arange(5) * 0.21
    geom = EmitterGeometry(np.column_stack([np.zeros_like(z), np.zeros_like(z), z]))
    h = effective(assemble(geom)).matrix
    assert np.abs(h[0::2, 1::2]).max() == 0.0
    assert np.abs(h[1::2, 0::2]).max() == 0.0
    # the two spin sectors are identical copies
    assert np.allclose(h[0::2, 0::2], h[1::2, 1::2])


def test_assembled_invariants(reference_helix):
    coup = assemble(reference_helix)
    assert coup.n_sites == 60
    assert coup.validation_issues() == []
    # total decay rate is conserved: sum of Im eigenvalues = -N Gamma_0 / 2 * 2
    h = effective(coup)
    assert abs(np.linalg.eigvals(h.matrix).imag.sum()
               + reference_helix.n_sites * GAMMA0) < 1e-8
    assert np.allclose(np.diag(h.matrix), -0.5j * GAMMA0)


def test_gamma_positive_semidefinite(reference_helix):
    coup = assemble(reference_helix)
    w = np.linalg.eigvalsh(coup.gamma)
    assert w.min() > -1e-10 * np.linalg.norm(coup.gamma, 2)


def test_validation_flags_defects(small_helix):
    coup = assemble(small_helix)
    n = 2 * coup.n_sites
    broken = CouplingTensor(coup.j + np.diag(np.ones(n)),
                            coup.gamma - 2.0 * np.eye(n))
    issues = broken.validation_issues()
    assert any("diagonal" in s for s in issues)


def test_hermitian_only_is_real_spectrum(small_helix):
    h = effective(assemble(small_helix), hermitian_only=True)
    assert h.hermitian_only
    assert np.abs(h.matrix - h.matrix.conj().T).max() < 1e-14
    assert np.abs(np.linalg.eigvals(h.matrix).imag).max() < 1e-10


def test_mirror_swaps_spin_blocks(small_helix):
    h = effective(assemble(small_helix)).matrix
    hm = effective(assemble(mirror_xz(small_helix))).matrix
    swap = np.kron(np.eye(small_helix.n_sites), np.array([[0, 1], [1, 0]]))
    assert np.abs(hm - swap @ h @ swap).max() < 1e-13


def test_rotation_leaves_spectrum(small_helix, rng):
    h = effective(assemble(small_helix)).matrix
    rot = rotate_about_z(small_helix, rng.uniform(0, 2 * np.pi))
    hr = effective(assemble(rot)).matrix
    w = np.sort_complex(np.linalg.eigvals(h))
    wr = np.sort_complex(np.linalg.eigvals(hr))
    assert np.abs(w - wr).max() < 1e-10


# ------------------------------------------------------ screw-gauge assembly

def _relative_gap(a, b):
    return max(np.abs(a.j - b.j).max() / np.abs(b.j).max(),
               np.abs(a.gamma - b.gamma).max() / np.abs(b.gamma).max())


@pytest.mark.parametrize("copy", ["built", "rotated", "mirrored"])
@pytest.mark.parametrize("handedness", [1, -1])
@pytest.mark.parametrize("n_t", range(1, 7))
def test_screw_assemble_matches_pairwise_oracle(n_t, handedness, copy):
    geom = build_helix(HelixParams(0.05, 0.175, n_t, 8, handedness))
    geom = {"built": geom, "rotated": rotate_about_z(geom, 0.9),
            "mirrored": mirror_xz(geom)}[copy]
    assert _screw_azimuths(geom.positions) is not None
    coup = assemble(geom)
    assert _relative_gap(coup, _pairwise_assemble(geom)) < 1e-12
    assert np.all(np.diag(coup.j) == 0.0)
    assert np.all(np.diag(coup.gamma) == GAMMA0)


def test_screw_assemble_evaluates_one_kernel_per_distance(monkeypatch):
    seen = []
    kernel = hamiltonian.coupling_blocks

    def counting(sep):
        seen.append(len(sep))
        return kernel(sep)

    monkeypatch.setattr(hamiltonian, "coupling_blocks", counting)
    assemble(build_helix(HelixParams(0.05, 0.175, 3, 20, 1)))
    assert seen == [59]


@pytest.mark.parametrize("hermitian_only", [False, True])
def test_screw_matrix_matches_effective_of_assemble(hermitian_only):
    geom = build_helix(HelixParams(0.05, 0.175, 3, 8, -1))
    h = hamiltonian.screw_matrix(hamiltonian.screw_effective(geom, hermitian_only))
    oracle = effective(_pairwise_assemble(geom), hermitian_only)
    assert h.hermitian_only == hermitian_only
    assert np.abs(h.matrix - oracle.matrix).max() < 1e-12 * np.abs(oracle.matrix).max()
    assert np.all(np.diag(h.matrix) == (0.0 if hermitian_only else -0.5j * GAMMA0))


def test_spectral_launch_evaluates_one_kernel_per_distance(monkeypatch):
    from heliport import dynamics

    seen = []
    kernel = hamiltonian.coupling_blocks

    def counting(sep):
        seen.append(len(sep))
        return kernel(sep)

    monkeypatch.setattr(hamiltonian, "coupling_blocks", counting)
    geom = build_helix(HelixParams(0.05, 0.175, 3, 20, 1))
    prop, _ = dynamics.launch(geom, False, np.linspace(0.0, 7.9, 50))
    assert prop.path == "spectral"
    assert seen == [59]


@pytest.mark.parametrize("kind", ["random", "shifted_helix", "uneven_chain"])
def test_non_screw_geometries_take_the_pairwise_path(kind, rng):
    if kind == "random":
        pos = rng.uniform(-0.4, 0.4, size=(10, 3))
    elif kind == "shifted_helix":
        pos = build_helix(HelixParams(0.05, 0.175, 3, 4, 1)).positions + [0.3, 0.0, 0.0]
    else:
        z = np.array([0.0, 0.1, 0.25, 0.45, 0.7])
        pos = np.column_stack([np.zeros_like(z), np.zeros_like(z), z])
    geom = EmitterGeometry(pos)
    assert _screw_azimuths(geom.positions) is None
    coup, oracle = assemble(geom), _pairwise_assemble(geom)
    assert np.array_equal(coup.j, oracle.j)
    assert np.array_equal(coup.gamma, oracle.gamma)


def _all_pairs_at_once(geom):
    """J and Gamma from (N, N, 2, 2) block arrays of every separation at
    once: the unchunked pairwise assembly, the oracle of the row-by-row one."""
    n = geom.n_sites
    sep = geom.positions[:, None, :] - geom.positions[None, :, :]
    off = ~np.eye(n, dtype=bool)
    j_blocks, g_blocks = np.zeros((2, n, n, 2, 2), dtype=complex)
    j_blocks[off], g_blocks[off] = hamiltonian.coupling_blocks(sep[off])
    g_blocks[~off] = GAMMA0 * np.eye(2)
    return (j_blocks.transpose(0, 2, 1, 3).reshape(2 * n, 2 * n),
            g_blocks.transpose(0, 2, 1, 3).reshape(2 * n, 2 * n))


def test_pairwise_assemble_fills_rows_in_place(rng):
    import tracemalloc

    helix = build_helix(HelixParams(0.05, 0.175, 3, 100, 1))
    geom = EmitterGeometry(helix.positions + 1e-3 * rng.standard_normal((300, 3)))
    assert _screw_azimuths(geom.positions) is None
    tracemalloc.start()
    try:
        coup = _pairwise_assemble(geom)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    j, gamma = _all_pairs_at_once(geom)
    assert np.array_equal(coup.j, j) and np.array_equal(coup.gamma, gamma)
    # the two outputs and O(N) work arrays; all pairs at once peak at 3.2x
    assert peak < 1.3 * (coup.j.nbytes + coup.gamma.nbytes)
