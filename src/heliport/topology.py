"""Wilson-loop Zak phases over band groups and spectral-gap detection.

The Zak phase of a band subset is computed from the discrete Wilson loop

    phi = -Im log det [ M^(0) M^(1) ... M^(n_k-1) ],
    M^(i)_{mn} = <u_m(k_i) | u_n(k_{i+1})>,

with k_i traversing the Brillouin zone once on an open uniform grid and the
loop closed back to k_0 (the cell-index Fourier convention makes H exactly
periodic, so the boundary operator is the identity).  The determinant makes
the result invariant under any per-k rephasing or unitary remixing inside
the subset.  A nearly singular overlap (|det M| < 1e-6) signals that the
subset is not isolated at some k and the result is flagged ill-defined.
The biorthogonal variant runs the same loop with M^(i) = L_i^dag R_{i+1},
where the columns of the left frame L are the conjugated rows of V^-1.
The loop is one batched product: det(L^dag roll(R, -1)) over the k stack.

zak_phases runs every band group's loop on the frames of one
bloch.band_structure over the open grid wilson_grid, with the bands ranked
by energy at each k.

Gap detection scans all energy-ordered band splits for the widest window
free of states across the whole grid; groups below/above that window are
the natural Wilson-loop subsets.  When no split exceeds the threshold the
spectrum is reported gapless and the only isolated subset is the full band
space (whose loop is trivially 0).
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


def wilson_loop(rights, lefts=None) -> tuple[float, float]:
    """Phase in [-pi, pi] and minimum |det| of the overlap-product loop over frames.

    rights: (n_k, dim, n_subset) eigenvector column blocks, or a sequence of
    them, on an open k grid; the loop closes from the last frame back to the
    first.  lefts (default: rights) are the dual frames, M^(i) = lefts_i^dag
    rights_{i+1}.
    """
    rights = np.asarray(rights)
    lefts = rights if lefts is None else np.asarray(lefts)
    dets = np.linalg.det(lefts.conj().transpose(0, 2, 1) @ np.roll(rights, -1, axis=0))
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
        cols = rank[:, None, list(subset)]
        duals = np.take_along_axis(lefts, cols, axis=2) if biorthogonal else None
        raw, min_det = wilson_loop(np.take_along_axis(bands.vectors, cols, axis=2), duals)
        results.append(ZakResult(
            band_subset=subset,
            n_k=n_k,
            phase=np.pi if np.pi - abs(raw) <= PI_SNAP else raw,
            residual=float(min(abs(raw), np.pi - abs(raw))),
            min_overlap_det=min_det,
            ill_defined=bool(min_det < DET_ILL_DEFINED),
            hermitian_only=bands.hermitian_only,
            biorthogonal=biorthogonal,
        ))
    return results
