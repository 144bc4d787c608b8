"""Wilson-loop Zak phases over band groups and spectral-gap detection.

The Zak phase of a band subset is computed from the discrete Wilson loop

    phi = -Im log det [ M^(0) M^(1) ... M^(n_k-1) ],
    M^(i)_{mn} = <u_m(k_i) | u_n(k_{i+1})>,

with k_i traversing the Brillouin zone once on an open uniform grid and the
loop closed back to k_0 (the cell-index Fourier convention makes H exactly
periodic, so the boundary operator is the identity).  The determinant makes
the result invariant under any per-k rephasing or unitary remixing inside
the subset; |det M| < 1e-6 at some k flags a subset that is not isolated.
The biorthogonal variant takes M^(i) = L_i^dag R_{i+1}, the columns of the
left frame L the conjugated rows of V^-1.  wilson_loop sums the overlaps one
frame row at a time, copying no frame, and takes one batched det; zak_phases
runs it for every band group on one bloch.band_structure over wilson_grid,
the bands ranked by energy at each k, and detect_gap finds the groups: below
and above the widest window free of states across the grid, or, gapless,
the full band space (whose loop is trivially 0).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bloch import BandStructure, brillouin_grid

GAP_THRESHOLD = 1e-3        # minimum indirect gap width (units Gamma_0)
DET_ILL_DEFINED = 1e-6      # |det M| below this marks a non-isolated subset
PI_SNAP = 1e-12             # a loop phase this close to +-pi is reported as pi


@dataclass(frozen=True)
class GapInfo:
    width: float
    e_lo: float
    e_hi: float
    lower_bands: tuple[int, ...]
    upper_bands: Optional[tuple[int, ...]]

    @property
    def gapped(self) -> bool:
        return self.upper_bands is not None


@dataclass(frozen=True)
class ZakResult:
    band_subset: tuple[int, ...]
    n_k: int
    phase: float                # in (-pi, pi]; exactly pi within PI_SNAP of +-pi
    residual: float             # distance of the raw loop phase to the nearest of {0, pi}
    min_overlap_det: float
    ill_defined: bool
    hermitian_only: bool
    biorthogonal: bool


def detect_gap(bands: BandStructure, threshold: float = GAP_THRESHOLD) -> GapInfo:
    """Widest indirect gap in bands.energies (n_k, n_bands), or a gapless
    descriptor.  Band indices count energy order at each k, as zak_phases
    ranks them."""
    e_sorted = np.sort(bands.energies, axis=1)
    n_bands = e_sorted.shape[1]
    # rows are sorted, so the gap above band s - 1 is min E_s - max E_{s-1}
    lo, hi = e_sorted[:, :-1].max(axis=0), e_sorted[:, 1:].min(axis=0)
    split = int(np.argmax(hi - lo)) + 1   # the first widest
    width = hi[split - 1] - lo[split - 1]
    if not width > 0.0 or width < threshold:
        return GapInfo(0.0, np.nan, np.nan, tuple(range(n_bands)), None)
    return GapInfo(float(width), float(lo[split - 1]), float(hi[split - 1]),
                   tuple(range(split)), tuple(range(split, n_bands)))


def wilson_loop(rights, lefts=None, columns=None) -> tuple[float, float]:
    """Phase in [-pi, pi] and minimum |det| of the overlap-product loop over frames:
    rights (n_k, dim, n) eigenvector column blocks, or a sequence of them, on an
    open k grid, the loop closing from the last frame back to the first; lefts
    (default: rights) the dual frames, M^(i) = lefts_i^dag rights_{i+1};
    columns (n_k, s), default all n, each k's subset."""
    rights, lefts = np.asarray(rights), np.asarray(rights if lefts is None else lefts)
    n_k, dim, n = rights.shape
    ks, after = np.arange(n_k), np.roll(np.arange(n_k), -1)
    cols = (np.broadcast_to(np.arange(n), (n_k, n)) if columns is None else columns).T
    overlaps = np.zeros((len(cols), len(cols), n_k), dtype=complex)   # [m, n, k]
    for a in range(dim):   # M^(i)_mn = sum_a conj(L_i[a, m]) R_{i+1}[a, n]
        right = rights[after, a, cols[:, after]]
        for m, left in enumerate(lefts[ks, a, cols].conj()):
            overlaps[m] += left * right
    dets = np.linalg.det(overlaps.transpose(2, 0, 1))
    return float(-np.angle(np.prod(dets))), float(np.abs(dets).min())


def wilson_grid(pitch: float, n_k: int) -> np.ndarray:
    """Open uniform BZ grid [-pi/a, pi/a); the loop closes by periodicity."""
    return brillouin_grid(pitch, n_k + 1)[:-1]


def zak_phases(bands: BandStructure, band_subsets,
               biorthogonal: bool = False) -> list[ZakResult]:
    """Zak phases of several band subsets on the frames of one band_structure
    over an open grid (wilson_grid).  Band b of a subset is the b-th lowest in
    energy at each k (stable ranking).  A Hermitian sweep gives orthonormal
    frames; the biorthogonal variant needs a non-Hermitian sweep and carries
    no quantization claim."""
    n_k, dim = bands.energies.shape
    if n_k < 50:
        raise ValueError("n_k must be >= 50 for a usable Wilson loop")
    if biorthogonal and bands.hermitian_only:
        raise ValueError("biorthogonal Zak phases need a non-Hermitian sweep")
    subsets = [tuple(int(b) for b in subset) for subset in band_subsets]
    for subset in subsets:
        if any(b < 0 or b >= dim for b in subset):
            raise ValueError(f"band subset {subset} out of range for {dim} bands")
    rank = np.argsort(bands.energies, axis=1, kind="stable")
    # rows of V^-1 are the dual (left) frame: <l_m | r_n> = delta
    lefts = np.linalg.inv(bands.vectors).conj().transpose(0, 2, 1) if biorthogonal else None
    results = []
    for subset in subsets:
        raw, min_det = wilson_loop(bands.vectors, lefts, rank[:, list(subset)])
        results.append(ZakResult(
            band_subset=subset, n_k=n_k, phase=np.pi if np.pi - abs(raw) <= PI_SNAP else raw,
            residual=float(min(abs(raw), np.pi - abs(raw))), min_overlap_det=min_det,
            ill_defined=bool(min_det < DET_ILL_DEFINED), hermitian_only=bands.hermitian_only,
            biorthogonal=biorthogonal))
    return results
