import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heliport import bloch, cli, hamiltonian
from heliport.bloch import _fourier_sum, band_structure, brillouin_grid, chain_table
from heliport.geometry import HelixParams, build_helix
from heliport.greens import GAMMA0, K0
from heliport.hamiltonian import _pairwise_assemble
from heliport.topology import detect_gap, wilson_grid, wilson_loop, zak_phases

PITCH = 0.175


def half_step_grid(n_k):
    """Uniform BZ grid offset by half a step from wilson_grid: no k = 0, +-pi/a."""
    return wilson_grid(PITCH, n_k) + np.pi / (PITCH * n_k)


def small(n_sites_per_turn, handedness=1):
    return HelixParams(0.05, PITCH, n_sites_per_turn, 1, handedness)


def h_at(params, q, m_cut, hermitian_only=False):
    """(h(q), convergence estimate): the chain's 2x2 Bloch Hamiltonian at one q,
    summed on the two-point uniform grid [q, q + 2 pi/b] of period 1."""
    spacing = params.pitch / params.sites_per_turn
    h, conv = _fourier_sum(chain_table(params, m_cut, hermitian_only)[1],
                           q + np.array([0.0, 2 * np.pi / spacing]), spacing)
    return h[0], conv


def long_helix_hamiltonian(params, m_cut, hermitian_only):
    """H of a helix of 2 m_cut + 3 turns from all pair separations, and the
    index of the first site of its centre turn."""
    turns = 2 * m_cut + 3
    oracle = _pairwise_assemble(build_helix(HelixParams(
        params.radius, params.pitch, params.sites_per_turn, turns, params.handedness)))
    h = oracle.j if hermitian_only else oracle.j - 0.5j * oracle.gamma
    return h, (m_cut + 1) * params.sites_per_turn


def windowed_cell_hamiltonian(params, k_grid, m_cut, hermitian_only):
    """Cell H(k) = sum_m e^{-i k m a} H[mu, nu + m N_t] over the blocks of a
    long helix whose sites are at most D = N_t m_cut apart: the window the
    chain sums."""
    nt = params.sites_per_turn
    h, centre = long_helix_hamiltonian(params, m_cut, hermitian_only)
    cell = np.zeros((len(k_grid), 2 * nt, 2 * nt), dtype=complex)
    for mu in range(nt):
        i = centre + mu
        for n in range(max(0, i - nt * m_cut), i + nt * m_cut + 1):
            m, nu = divmod(n - centre, nt)
            cell[:, 2 * mu:2 * mu + 2, 2 * nu:2 * nu + 2] += (
                np.exp(-1j * k_grid * m * params.pitch)[:, None, None]
                * h[2 * i:2 * i + 2, 2 * n:2 * n + 2])
    return cell


def test_brillouin_grid_edges():
    edge = np.pi / PITCH
    grid = brillouin_grid(PITCH, 401)
    assert len(grid) == 401
    assert grid[0] == -edge and grid[-1] == edge
    assert abs(grid[200]) < 1e-14

    mid = half_step_grid(400)
    assert len(mid) == 400
    assert np.abs(mid).max() < edge          # strictly interior
    assert np.abs(mid + mid[::-1]).max() < 1e-12  # symmetric about 0
    step = np.diff(mid)
    assert np.allclose(step, 2 * edge / 400)


def test_chain_table_shape_and_self_term():
    u, t = chain_table(small(3), m_cut=40)
    assert u.shape == (3, 2) and t.shape == (241, 2, 2)
    # T(0) carries the on-site decay -i Gamma_0 / 2 and no spin flip
    assert np.array_equal(t[120], -0.5j * GAMMA0 * np.eye(2))
    assert np.array_equal(chain_table(small(3), 40, hermitian_only=True)[1][120],
                          np.zeros((2, 2)))
    h, conv = h_at(small(3), 0.0, m_cut=40)
    assert h.shape == (2, 2)
    assert np.isfinite(conv)


def test_bloch_hamiltonian_periodicity():
    # h(q) has the chain's period 2 pi/b; H(k) the cell's 2 pi/a, which
    # relabels the folds
    params = small(3)
    h1, _ = h_at(params, 1.234, m_cut=200)
    h2, _ = h_at(params, 1.234 + 2 * np.pi / (PITCH / 3), m_cut=200)
    assert np.abs(h1 - h2).max() < 1e-10
    bands = band_structure(params, [1.234, 1.234 + 2 * np.pi / PITCH], m_cut=200)
    lam = np.take_along_axis(bands.energies - 0.5j * bands.gammas,
                             np.argsort(bands.energies, axis=1), axis=1)
    assert np.abs(lam[0] - lam[1]).max() < 1e-10


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
    grid = brillouin_grid(PITCH, 401)   # k0 is 70 steps from k = 0, so +-k0 are on it
    assert grid[130] == -K0 and grid[270] == K0
    bands = band_structure(small(1), grid, m_cut=100)
    assert bands.in_light_cone.tolist() == [130 <= i <= 270 for i in range(401)]


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


@pytest.mark.parametrize("hermitian_only", [True, False])
@pytest.mark.parametrize("handedness", [1, -1])
@pytest.mark.parametrize("n_sites_per_turn", range(1, 7))
def test_spin_vanishes_at_the_invariant_points(n_sites_per_turn, handedness, hermitian_only):
    # k = -pi/a, 0, +pi/a: degenerate folds are mixed by the C2 rule
    bands = band_structure(small(n_sites_per_turn, handedness), brillouin_grid(PITCH, 81),
                           m_cut=1000, hermitian_only=hermitian_only)
    assert np.abs(bands.sz[[0, 40, 80]]).max() < 1e-6
    assert bands.continuation_ambiguous[[40, 80]].all()


@pytest.mark.parametrize("hermitian_only", [True, False])
def test_bands_follow_their_fold(hermitian_only):
    # band 2j + branch holds the eigenvalues of h(-k + 2 pi j/a) at every k
    params = small(3)
    grid = half_step_grid(41)
    bands = band_structure(params, grid, m_cut=300, hermitian_only=hermitian_only)
    lam = bands.energies - 0.5j * bands.gammas
    for j in range(3):
        h = np.stack([h_at(params, -k + 2 * np.pi * j / PITCH, 300, hermitian_only)[0]
                      for k in grid])
        ref = np.sort_complex(np.linalg.eigvals(h))
        assert np.abs(np.sort_complex(lam[:, 2 * j:2 * j + 2]) - ref).max() < 1e-10


def test_branches_swap_labels_where_they_cross(monkeypatch):
    # a chain with h(q) = cos(q a) sigma_z: its branches cross at q a = +-pi/2,
    # and each band keeps its spin through the crossing
    table = np.zeros((3, 2, 2))
    table[[0, 2]] = 0.5 * np.diag([1.0, -1.0])
    monkeypatch.setattr(bloch, "chain_table", lambda *_args: (np.ones((1, 2)), table))
    grid = half_step_grid(40)
    bands = band_structure(small(1), grid, m_cut=1, hermitian_only=True)
    assert np.allclose(bands.sz, np.tile([1.0, -1.0], (40, 1)))
    assert np.abs(bands.energies[:, 0] - np.cos(grid * PITCH)).max() < 1e-12
    assert bands.continuation_ambiguous.sum() == 2


@pytest.mark.parametrize("hermitian_only", [True, False])
def test_degenerate_branches_swap_without_a_flag(hermitian_only):
    # one site per turn: the two spins of the only fold are degenerate to
    # round-off at every k, so eigh's order is arbitrary; only the invariant
    # points k = 0, pi/a are flagged
    bands = band_structure(small(1), brillouin_grid(PITCH, 81), m_cut=1000,
                           hermitian_only=hermitian_only)
    assert np.flatnonzero(bands.continuation_ambiguous).tolist() == [40, 80]


@pytest.mark.parametrize("m_cut", [5, 101, 400])
def test_fourier_sum_is_one_pass_over_inner_cells_and_wings(m_cut):
    c = chain_table(small(3), m_cut)[1]
    grid = brillouin_grid(PITCH, 13)
    ms = np.arange(-(len(c) // 2), len(c) // 2 + 1)

    def direct(window):
        keep = np.abs(ms) <= window
        phases = np.exp(-1j * np.outer(grid, ms[keep] * PITCH))
        return np.einsum("km,mab->kab", phases, c[keep])

    h, conv = _fourier_sum(c, grid, PITCH)
    full = direct(len(c) // 2)
    assert np.abs(h - full).max() <= 1e-12 * np.abs(full).max()
    cauchy = np.abs(full - direct(len(c) // 4)).max()
    assert abs(conv - cauchy) <= 1e-12 * cauchy


def test_fourier_sum_without_half_window_has_no_estimate():
    h, conv = _fourier_sum(chain_table(small(1), 1)[1], brillouin_grid(PITCH, 5), PITCH)
    assert h.shape == (5, 2, 2) and conv == np.inf


def direct_sum(c, grid, window):
    """Explicit sum of e^{-i k m a} c(m) over |m| <= window."""
    m_cut = (len(c) - 1) // 2
    ms = np.arange(-m_cut, m_cut + 1)
    keep = np.abs(ms) <= window
    return np.einsum("km,mab->kab", np.exp(-1j * np.outer(grid, ms[keep] * PITCH)), c[keep])


GRIDS = {
    "wilson": lambda n: wilson_grid(PITCH, n),
    "closed": lambda n: brillouin_grid(PITCH, n + 1),
    "half_step": half_step_grid,
    # not k_0 + j 2 pi/(L a) with 2 <= n, L <= n: lattice sums refuse them
    "uneven": lambda n: np.sort(np.random.default_rng(n).uniform(-20.0, 20.0, n)),
    "one_point": lambda n: np.array([0.3]),
    "part_zone": lambda n: wilson_grid(PITCH, 2 * n)[:n],
}


@pytest.mark.parametrize("hermitian_only", [True, False])
@pytest.mark.parametrize("n_sites_per_turn", [1, 3, 6])
@pytest.mark.parametrize("kind", GRIDS)
def test_fourier_sum_matches_direct_sum_on_every_grid_kind(kind, n_sites_per_turn,
                                                           hermitian_only):
    grid = GRIDS[kind](40)
    if kind in ("uneven", "one_point", "part_zone"):
        c = chain_table(small(n_sites_per_turn), 3, hermitian_only)[1]
        with pytest.raises(ValueError, match="uniform k grid"):
            _fourier_sum(c, grid, PITCH)
        with pytest.raises(ValueError, match="uniform k grid"):
            band_structure(small(n_sites_per_turn), grid, 3, hermitian_only)
        return
    for m_cut in (3, 64, 257):   # fewer terms than the period, several wraps
        c = chain_table(small(n_sites_per_turn), m_cut, hermitian_only)[1]
        h, conv = _fourier_sum(c, grid, PITCH)
        full = direct_sum(c, grid, len(c) // 2)
        assert np.abs(h - full).max() <= 1e-12 * np.abs(full).max()
        cauchy = np.abs(full - direct_sum(c, grid, len(c) // 4)).max()
        assert abs(conv - cauchy) <= 1e-12 * cauchy
        if kind == "closed":
            assert np.array_equal(h[-1], h[0])


@pytest.mark.parametrize("config", ["fig3a_bands", "fig4_N6"])
def test_cli_lattice_runs_diagonalize_only_2x2_matrices(config, tmp_path, monkeypatch):
    # the fold blocks are 2x2 and solved in closed form (bloch._eig2): no
    # LAPACK eigensolver runs at all
    calls = []
    for name in ("eig", "eigh", "eigvals", "eigvalsh"):
        def recorded(a, *args, _name=name, _inner=getattr(np.linalg, name), **kwargs):
            calls.append((_name, np.shape(a)))
            return _inner(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, recorded)
    assert cli.main(["run", "--config", config, "--out", str(tmp_path / "out")]) == 0
    assert calls == []


def test_band_structure_memory_stays_bounded():
    # the folded FFT holds O(N_t (n_k + m_cut)) 2x2 blocks; a direct phase sum
    # over the folds would build an (N_t n_k, N_t m_cut) matrix, 2.1 GiB here.
    # The frames (4.4 MiB) are the only frame-sized array: an einsum over a
    # full x_j frame array and |vectors|^2 weights at every k peak at 13.9 MiB
    tracemalloc.start()
    try:
        band_structure(small(6), wilson_grid(PITCH, 2000), m_cut=2000, hermitian_only=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9 * 2**20


def test_zak_phases_copy_no_frames():
    # each Wilson loop sums its (n_k, 6, 6) overlaps (1.1 MiB) one frame row at
    # a time; a gathered, conjugated or rolled copy of a group's frames is 2.2 MiB
    bands = band_structure(small(6), wilson_grid(PITCH, 2000), m_cut=2000, hermitian_only=True)
    gap = detect_gap(bands)
    tracemalloc.start()
    try:
        results = zak_phases(bands, [gap.lower_bands, gap.upper_bands])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [len(res.band_subset) for res in results] == [6, 6]
    assert peak < 3 * 2**20


EPS = np.finfo(float).eps


def eig2_stack(hermitian, rng):
    """2x2 matrices for bloch._eig2: random ones (also scaled by 1e+-150) and
    planted hard cases, with the mask of those whose hv = lambda v has a 2-D
    solution space to round-off (scalars and one-site-per-turn doublets)."""
    h = rng.normal(size=(3, 400, 2, 2)) + 1j * rng.normal(size=(3, 400, 2, 2))
    h = (h * np.array([1.0, 1e150, 1e-150])[:, None, None, None]).reshape(-1, 2, 2)
    tiny = np.array([[0.0, 1e-300j], [-2e-300, 0.0]])   # delta = 0, |b| ~ 1e-300
    planted = [(2.5 * np.eye(2), True), ((0.3 - 0.2j) * np.eye(2), True),
               (0.7 * np.eye(2) + tiny, True), (tiny, False),
               ([[1.0, 1e-9], [2e-9j, -1.0]], False),   # one candidate column cancels
               ([[-1.0, 1e-9j], [2e-9, 1.0]], False)]
    planted += [(h_at(small(1), q, 300, hermitian)[0], True) for q in np.linspace(-17, 17, 5)]
    if not hermitian:   # the exceptional point has one eigenvector
        planted.append(([[0.3 - 0.2j, 1.0], [0.0, 0.3 - 0.2j]], False))
    matrices, two_d = zip(*planted)
    h = np.concatenate([h, np.array(matrices, dtype=complex)])
    if hermitian:
        h = 0.5 * (h + h.conj().transpose(0, 2, 1))
    return h, np.concatenate([np.zeros(len(h) - len(two_d), dtype=bool), two_d])


@pytest.mark.parametrize("hermitian", [True, False])
def test_eig2_matches_lapack_on_random_and_planted_stacks(hermitian):
    h, two_d = eig2_stack(hermitian, np.random.default_rng(11))
    evals, vecs = bloch._eig2(h, hermitian)
    norm = np.linalg.norm(h, 2, axis=(1, 2))

    def distance(ref):   # per matrix, under the better pairing of the two roots
        return np.minimum(np.abs(evals - ref).max(axis=1),
                          np.abs(evals - ref[:, ::-1]).max(axis=1)) / norm

    # LAPACK's own error reaches ~6 eps ||h|| on random stacks, so the 4 eps
    # bound is to the roots m -+ sqrt(delta^2 + bc) in extended precision
    long = h.astype(np.clongdouble)
    m, delta = (long[:, 0, 0] + long[:, 1, 1]) / 2, (long[:, 0, 0] - long[:, 1, 1]) / 2
    root = np.sqrt(delta * delta + long[:, 0, 1] * long[:, 1, 0])
    assert distance(np.stack([m - root, m + root], axis=1)).max() <= 4 * EPS
    assert distance(np.linalg.eigvals(h)).max() <= 8 * EPS
    assert (np.diff(evals.real, axis=1) >= 0).all()
    residual = np.linalg.norm((h @ vecs - vecs * evals[:, None, :]) / norm[:, None, None],
                              axis=1)
    assert residual.max() <= 8 * EPS
    assert np.abs(np.linalg.norm(vecs, axis=1) - 1).max() <= 4 * EPS
    assert (np.abs(np.linalg.det(vecs[two_d])) > 0.5).all()
    if hermitian:
        gram = vecs.conj().transpose(0, 2, 1) @ vecs
        assert np.abs(gram - np.eye(2)).max() <= 4 * EPS


@pytest.mark.parametrize("hermitian_only", [True, False])
@pytest.mark.parametrize("n_sites_per_turn", [1, 3, 6])
def test_eigen_sweep_equals_per_k_diagonalization(n_sites_per_turn, hermitian_only):
    # the oracle diagonalizes the cell H(k) of a long helix's pair blocks,
    # summed over the same window |d| <= N_t m_cut as the chain
    params = small(n_sites_per_turn)
    grid = brillouin_grid(PITCH, 31)
    bands = band_structure(params, grid, m_cut=20, hermitian_only=hermitian_only)
    order = np.argsort(bands.energies, axis=1, kind="stable")
    evals = np.take_along_axis(bands.energies - 0.5j * bands.gammas, order, axis=1)
    vecs = np.take_along_axis(bands.vectors, order[:, None, :], axis=2)
    cell = windowed_cell_hamiltonian(params, grid, 20, hermitian_only)
    scale = np.abs(cell).max()
    residual = cell @ vecs - vecs * evals[:, None, :]
    assert np.abs(residual).max() <= 1e-10 * scale
    assert np.abs(np.linalg.norm(vecs, axis=1) - 1).max() < 1e-12
    if hermitian_only:
        ref = np.linalg.eigvalsh(cell)
    else:
        ref = np.linalg.eigvals(cell)
        ref = np.take_along_axis(ref, np.argsort(ref.real, axis=1), axis=1)
    assert np.abs(evals - ref).max() <= 1e-10 * scale


@pytest.mark.parametrize("n_sites_per_turn", [3, 4, 6])
def test_zak_phases_rank_bands_per_k(n_sites_per_turn):
    # band_structure keeps fold labels, which differ from energy order at
    # every k here; zak_phases must rank them, as eigh orders the oracle
    params = small(n_sites_per_turn)
    grid = wilson_grid(PITCH, 60)
    bands = band_structure(params, grid, m_cut=20, hermitian_only=True)
    fold_order = np.arange(bands.n_bands)
    assert (np.argsort(bands.energies, axis=1, kind="stable") != fold_order).any(axis=1).all()
    gap = detect_gap(bands)
    assert gap.gapped
    frames = np.linalg.eigh(windowed_cell_hamiltonian(params, grid, 20, True))[1]
    for res, subset in zip(zak_phases(bands, [gap.lower_bands, gap.upper_bands]),
                           (gap.lower_bands, gap.upper_bands)):
        ref, _ = wilson_loop(frames[:, :, list(subset)])
        assert abs(np.exp(1j * res.phase) - np.exp(1j * ref)) < 1e-10


# ------------------------------------------------- T(d) from the screw table

@settings(max_examples=25, deadline=None)
@given(n_t=st.integers(1, 8), handedness=st.sampled_from([1, -1]),
       radius=st.floats(0.02, 0.2), pitch=st.floats(0.1, 0.5),
       m_cut=st.integers(1, 8), hermitian_only=st.booleans())
def test_chain_table_matches_pairwise_blocks_of_a_long_helix(
        n_t, handedness, radius, pitch, m_cut, hermitian_only):
    params = HelixParams(radius, pitch, n_t, 1, handedness)
    u, t = chain_table(params, m_cut, hermitian_only)
    h, centre = long_helix_hamiltonian(params, m_cut, hermitian_only)
    pos = build_helix(HelixParams(radius, pitch, n_t, 2 * m_cut + 3, handedness)).positions
    gauge = np.exp(1j * np.outer(np.angle(pos[:, 0] + 1j * pos[:, 1]), [-1.0, 1.0]))
    assert np.abs(u - gauge[:n_t]).max() < 1e-12
    # T(d) = U_i^dag H[i, i - d] U_{i - d} for the centre site i
    d_max = n_t * m_cut
    ref = np.stack([gauge[centre, :, None].conj()
                    * h[2 * centre:2 * centre + 2, 2 * (centre - d):2 * (centre - d) + 2]
                    * gauge[centre - d][None, :] for d in range(-d_max, d_max + 1)])
    assert np.abs(t - ref).max() <= 1e-12 * np.abs(ref).max()


def test_chain_table_makes_one_kernel_call(monkeypatch):
    seen = []
    kernel = hamiltonian.coupling_blocks

    def counting(sep):
        seen.append(len(sep))
        return kernel(sep)

    monkeypatch.setattr(hamiltonian, "coupling_blocks", counting)
    chain_table(small(6), m_cut=2000)
    assert seen == [6 * 2000]


def test_chain_table_memory_stays_bounded():
    # 12 001 sites built as an EmitterGeometry would scan ~3.5 GB of pair
    # separations; the table itself holds 24 001 2x2 blocks (1.5 MB)
    tracemalloc.start()
    try:
        chain_table(small(6), m_cut=2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
