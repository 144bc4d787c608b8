import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from heliport import bloch, cli, hamiltonian
from heliport.bloch import (_fourier_sum, band_structure, brillouin_grid,
                            cell_couplings, eigen_sweep)
from heliport.geometry import HelixParams, build_helix
from heliport.greens import GAMMA0, K0
from heliport.hamiltonian import _pairwise_assemble
from heliport.topology import wilson_grid

PITCH = 0.175


def small(n_sites_per_turn, handedness=1):
    return HelixParams(0.05, PITCH, n_sites_per_turn, 1, handedness)


def h_at(params, k, m_cut, hermitian_only=False):
    """(H(k), convergence estimate) at a single quasimomentum."""
    h, conv = _fourier_sum(cell_couplings(params, m_cut, hermitian_only),
                           np.array([k]), params.pitch)
    return h[0], conv


def test_brillouin_grid_edges():
    edge = np.pi / PITCH
    grid = brillouin_grid(PITCH, 401)
    assert len(grid) == 401
    assert grid[0] == -edge and grid[-1] == edge
    assert abs(grid[200]) < 1e-14

    mid = brillouin_grid(PITCH, 400, include_edges=False)
    assert len(mid) == 400
    assert np.abs(mid).max() < edge          # strictly interior
    assert np.abs(mid + mid[::-1]).max() < 1e-12  # symmetric about 0
    step = np.diff(mid)
    assert np.allclose(step, 2 * edge / 400)


def test_cell_couplings_shape_and_self_term():
    c = cell_couplings(small(3), m_cut=40)
    assert c.shape == (81, 6, 6)
    # the m = 0 entry carries the on-site decay -i Gamma_0 / 2 on its diagonal
    assert np.allclose(np.diag(c[40]), -0.5j * GAMMA0)
    h, conv = h_at(small(3), 0.0, m_cut=40)
    assert h.shape == (6, 6)
    assert np.isfinite(conv)


def test_bloch_hamiltonian_periodicity():
    params = small(3)
    k = 1.234
    h1, _ = h_at(params, k, m_cut=200)
    h2, _ = h_at(params, k + 2 * np.pi / PITCH, m_cut=200)
    assert np.abs(h1 - h2).max() < 1e-10


def test_hermitian_variant_is_hermitian():
    h, _ = h_at(small(4), 0.7, m_cut=200, hermitian_only=True)
    assert np.abs(h - h.conj().T).max() < 1e-12


def test_single_site_cell_is_spin_degenerate():
    # all separations are axial, so the two spins are exact copies
    grid = brillouin_grid(PITCH, 41)
    bands = band_structure(small(1), grid, m_cut=300)
    assert bands.n_bands == 2
    lam = bands.energies - 0.5j * bands.gammas
    assert np.abs(lam[:, 0] - lam[:, 1]).max() < 1e-10
    assert np.abs(bands.sz.mean(axis=1)).max() < 1e-10


def test_band_symmetries_under_k_reversal():
    grid = brillouin_grid(PITCH, 41)
    bands = band_structure(small(3), grid, m_cut=300)
    e = np.sort(bands.energies, axis=1)
    g = np.sort(bands.gammas, axis=1)
    s = np.sort(bands.sz, axis=1)
    assert np.abs(e - e[::-1]).max() < 1e-9
    assert np.abs(g - g[::-1]).max() < 1e-9
    assert np.abs(s + s[::-1, ::-1]).max() < 1e-7


def test_mirror_image_swaps_spin_texture():
    grid = brillouin_grid(PITCH, 21)
    left = band_structure(small(3, 1), grid, m_cut=300, hermitian_only=True)
    right = band_structure(small(3, -1), grid, m_cut=300, hermitian_only=True)
    assert np.abs(np.sort(left.energies, 1) - np.sort(right.energies, 1)).max() < 1e-10
    assert np.abs(np.sort(left.sz, 1) - np.sort(-right.sz, 1)).max() < 1e-7


def test_light_cone_flags():
    grid = np.array([-K0 - 1.0, -K0, 0.0, K0, K0 + 1.0])
    bands = band_structure(small(1), grid, m_cut=100)
    assert bands.in_light_cone.tolist() == [False, True, True, True, False]


def test_velocities_match_finite_differences():
    grid = brillouin_grid(PITCH, 41)
    bands = band_structure(small(2), grid, m_cut=300, hermitian_only=True)
    ref = np.gradient(bands.energies, grid, axis=0)
    assert np.allclose(bands.velocities, ref)


def test_convergence_estimate_shrinks_with_window():
    grid = brillouin_grid(PITCH, 21)
    conv200 = band_structure(small(3), grid, m_cut=200).convergence
    conv1600 = band_structure(small(3), grid, m_cut=1600).convergence
    assert 0 < conv1600 < conv200


def test_truncated_decay_rates_lower_bound():
    # finite window truncation leaves O(1/m_cut) negative excursions outside
    # the light cone; document the realistic bound at the default window
    grid = brillouin_grid(PITCH, 101)
    bands = band_structure(small(3), grid, m_cut=2000)
    assert bands.gammas.min() > -2e-4


def test_continuation_flags_dtype():
    grid = brillouin_grid(PITCH, 21)
    bands = band_structure(small(2), grid, m_cut=100)
    assert bands.continuation_ambiguous.dtype == bool
    assert bands.continuation_ambiguous.shape == (21,)
    assert not bands.continuation_ambiguous[0]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(dim=st.integers(1, 8), seed=st.integers(0, 2**32 - 1), spread=st.floats(0.0, 3.0))
def test_continuation_matches_the_assignment_solver_on_orthonormal_frames(dim, seed, spread):
    # the next frame is the previous one mixed by exp(i spread H) and permuted:
    # near a permutation for small spread, fully mixed for large
    from scipy.optimize import linear_sum_assignment

    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    prev = np.linalg.qr(a)[0]
    w, v = np.linalg.eigh(a + a.conj().T)
    mix = (v * np.exp(1j * spread * w)) @ v.conj().T
    overlap = np.abs(prev.conj().T @ (prev @ mix[:, rng.permutation(dim)])) ** 2
    rows, oracle = linear_sum_assignment(-overlap)
    best = overlap[rows, oracle].min()
    assume(abs(best - bloch._OVERLAP_AMBIGUOUS) > 1e-9)   # exact ties may go either way
    cols = bloch._continuation(overlap)
    if best < bloch._OVERLAP_AMBIGUOUS:
        assert cols is None
    else:
        assert np.array_equal(cols, oracle)


@pytest.mark.parametrize("m_cut", [5, 101, 400])
def test_fourier_sum_is_one_pass_over_inner_cells_and_wings(m_cut):
    params = small(3)
    c = cell_couplings(params, m_cut)
    grid = brillouin_grid(PITCH, 13)
    ms = np.arange(-m_cut, m_cut + 1)

    def direct(window):
        keep = np.abs(ms) <= window
        phases = np.exp(-1j * np.outer(grid, ms[keep] * PITCH))
        return np.einsum("km,mab->kab", phases, c[keep])

    h, conv = _fourier_sum(c, grid, PITCH)
    full = direct(m_cut)
    assert np.abs(h - full).max() <= 1e-12 * np.abs(full).max()
    cauchy = np.abs(full - direct(m_cut // 2)).max()
    assert abs(conv - cauchy) <= 1e-12 * cauchy


def test_fourier_sum_without_half_window_has_no_estimate():
    h, conv = _fourier_sum(cell_couplings(small(2), 1), brillouin_grid(PITCH, 5), PITCH)
    assert h.shape == (5, 4, 4) and conv == np.inf


def direct_sum(c, grid, window):
    """Explicit sum of e^{-i k m a} c(m) over |m| <= window."""
    m_cut = (len(c) - 1) // 2
    ms = np.arange(-m_cut, m_cut + 1)
    keep = np.abs(ms) <= window
    return np.einsum("km,mab->kab", np.exp(-1j * np.outer(grid, ms[keep] * PITCH)), c[keep])


def refuse_direct_sum(*_args):
    raise AssertionError("direct phase sum on a uniform grid")


GRIDS = {
    "wilson": lambda n: wilson_grid(PITCH, n),
    "closed": lambda n: brillouin_grid(PITCH, n + 1),
    "half_step": lambda n: brillouin_grid(PITCH, n, include_edges=False),
    "uneven": lambda n: np.sort(np.random.default_rng(n).uniform(-20.0, 20.0, n)),
}


@pytest.mark.parametrize("hermitian_only", [True, False])
@pytest.mark.parametrize("n_sites_per_turn", [1, 3, 6])
@pytest.mark.parametrize("kind", GRIDS)
def test_fourier_sum_matches_direct_sum_on_every_grid_kind(kind, n_sites_per_turn,
                                                           hermitian_only, monkeypatch):
    if kind != "uneven":   # uniform grids take the folded FFT
        monkeypatch.setattr(bloch, "_phase_sum", refuse_direct_sum)
    grid = GRIDS[kind](40)
    for m_cut in (3, 64, 257):   # fewer cells than the period, several wraps
        c = cell_couplings(small(n_sites_per_turn), m_cut, hermitian_only)
        h, conv = _fourier_sum(c, grid, PITCH)
        full = direct_sum(c, grid, m_cut)
        assert np.abs(h - full).max() <= 1e-12 * np.abs(full).max()
        cauchy = np.abs(full - direct_sum(c, grid, m_cut // 2)).max()
        assert abs(conv - cauchy) <= 1e-12 * cauchy
        if kind == "closed":
            assert np.array_equal(h[-1], h[0])


@pytest.mark.parametrize("config", ["fig3a_bands", "fig4_N6"])
def test_cli_lattice_runs_never_take_the_direct_sum(config, tmp_path, monkeypatch):
    monkeypatch.setattr(bloch, "_phase_sum", refuse_direct_sum)
    assert cli.main(["run", "--config", config, "--out", str(tmp_path / "out")]) == 0


def test_eigen_sweep_memory_stays_bounded():
    # an (n_k, cells) phase matrix of the direct sum alone takes 61 MiB here
    tracemalloc.start()
    try:
        eigen_sweep(small(6), wilson_grid(PITCH, 2000), m_cut=2000, hermitian_only=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2**20


@pytest.mark.parametrize("hermitian_only", [True, False])
@pytest.mark.parametrize("n_sites_per_turn", [1, 3, 6])
def test_eigen_sweep_equals_per_k_diagonalization(n_sites_per_turn, hermitian_only):
    params = small(n_sites_per_turn)
    grid = brillouin_grid(PITCH, 31)
    sweep = eigen_sweep(params, grid, m_cut=100, hermitian_only=hermitian_only)
    c = cell_couplings(params, 100, hermitian_only)
    for i, h in enumerate(_fourier_sum(c, grid, PITCH)[0]):
        if hermitian_only:
            w, v = np.linalg.eigh(h)
        else:
            w, v = np.linalg.eig(h)
            order = np.argsort(w.real)
            w, v = w[order], v[:, order]
        assert np.array_equal(sweep.evals[i], w)
        assert np.array_equal(sweep.vecs[i], v)
    assert np.array_equal(sweep.energies, sweep.evals.real)


# ------------------------------------------------- c(m) from the screw table

@settings(max_examples=25, deadline=None)
@given(n_t=st.integers(1, 8), handedness=st.sampled_from([1, -1]),
       radius=st.floats(0.02, 0.2), pitch=st.floats(0.1, 0.5),
       m_cut=st.integers(1, 20), hermitian_only=st.booleans())
def test_cell_couplings_match_pairwise_blocks_of_a_long_helix(
        n_t, handedness, radius, pitch, m_cut, hermitian_only):
    params = HelixParams(radius, pitch, n_t, 1, handedness)
    c = cell_couplings(params, m_cut, hermitian_only)
    long = build_helix(HelixParams(radius, pitch, n_t, 2 * m_cut + 1, handedness))
    oracle = _pairwise_assemble(long)
    h = oracle.j if hermitian_only else oracle.j - 0.5j * oracle.gamma
    dim = 2 * n_t
    centre = slice(m_cut * dim, (m_cut + 1) * dim)
    # c(m) couples the centre cell to cell m_cut + m of the long helix
    ref = np.stack([h[centre, (m_cut + m) * dim:(m_cut + m + 1) * dim]
                    for m in range(-m_cut, m_cut + 1)])
    assert np.abs(c - ref).max() <= 1e-12 * np.abs(ref).max()


def test_cell_couplings_make_one_kernel_call(monkeypatch):
    seen = []
    kernel = hamiltonian.coupling_blocks

    def counting(sep):
        seen.append(len(sep))
        return kernel(sep)

    monkeypatch.setattr(hamiltonian, "coupling_blocks", counting)
    cell_couplings(small(6), m_cut=2000)
    assert seen == [6 * 2001 - 1]


def test_cell_couplings_memory_stays_bounded():
    # 12 006 sites built as an EmitterGeometry would scan ~3.5 GB of pair
    # separations, and a separation tensor over 4000 cells takes ~94 MiB
    tracemalloc.start()
    try:
        cell_couplings(small(6), m_cut=2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
