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

zak_phases runs every band group's loop on the frames of one
bloch.eigen_sweep over the open grid wilson_grid.

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

from .bloch import BlochSweep, brillouin_grid

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


def detect_gap(bands, threshold: float = GAP_THRESHOLD) -> GapInfo:
    """Widest indirect gap in bands.energies (n_k, n_bands), as held by a
    BandStructure or a BlochSweep, or a gapless descriptor."""
    e_sorted = np.sort(bands.energies, axis=1)
    n_bands = e_sorted.shape[1]
    best = (0.0, None)
    for split in range(1, n_bands):
        lo = e_sorted[:, :split].max()
        hi = e_sorted[:, split:].min()
        if hi - lo > best[0]:
            best = (hi - lo, split)
    width, split = best
    if split is None or width < threshold:
        return GapInfo(0.0, np.nan, np.nan, tuple(range(n_bands)), None)
    return GapInfo(float(width),
                   float(e_sorted[:, :split].max()),
                   float(e_sorted[:, split:].min()),
                   tuple(range(split)),
                   tuple(range(split, n_bands)))


def wilson_loop(rights, lefts=None) -> tuple[float, float]:
    """Phase in [-pi, pi] and minimum |det| of the overlap-product loop over frames.

    rights: sequence of (dim, n_subset) eigenvector column blocks on an open
    k grid; the loop closes from the last frame back to the first.  lefts
    (default: rights) are the dual frames, M^(i) = lefts_i^dag rights_{i+1}.
    """
    if lefts is None:
        lefts = rights
    n = len(rights)
    det = 1.0 + 0.0j
    min_det = np.inf
    for i in range(n):
        m = lefts[i].conj().T @ rights[(i + 1) % n]
        d = np.linalg.det(m)
        min_det = min(min_det, abs(d))
        det *= d
    return float(-np.angle(det)), float(min_det)


def wilson_grid(pitch: float, n_k: int) -> np.ndarray:
    """Open uniform BZ grid [-pi/a, pi/a); the loop closes by periodicity."""
    return brillouin_grid(pitch, n_k + 1)[:-1]


def zak_phases(sweep: BlochSweep, band_subsets, biorthogonal: bool = False) -> list[ZakResult]:
    """Zak phases of several band subsets on the frames of one eigen_sweep
    over an open grid (wilson_grid).  A Hermitian sweep gives orthonormal
    frames; the biorthogonal variant needs a non-Hermitian sweep and carries
    no quantization claim."""
    n_k, dim = sweep.evals.shape
    if n_k < 50:
        raise ValueError("n_k must be >= 50 for a usable Wilson loop")
    if biorthogonal and sweep.hermitian_only:
        raise ValueError("biorthogonal Zak phases need a non-Hermitian sweep")
    subsets = [tuple(int(b) for b in subset) for subset in band_subsets]
    for subset in subsets:
        if any(b < 0 or b >= dim for b in subset):
            raise ValueError(f"band subset {subset} out of range for {dim} bands")
    rights = sweep.vecs
    # rows of V^-1 are the dual (left) frame: <l_m | r_n> = delta
    lefts = np.linalg.inv(rights).conj().transpose(0, 2, 1) if biorthogonal else None

    results = []
    for subset in subsets:
        duals = lefts[:, :, subset] if biorthogonal else None
        raw, min_det = wilson_loop(rights[:, :, subset], duals)
        results.append(ZakResult(
            band_subset=subset,
            n_k=n_k,
            phase=np.pi if np.pi - abs(raw) <= PI_SNAP else raw,
            residual=float(min(abs(raw), np.pi - abs(raw))),
            min_overlap_det=min_det,
            ill_defined=bool(min_det < DET_ILL_DEFINED),
            hermitian_only=sweep.hermitian_only,
            biorthogonal=biorthogonal,
        ))
    return results
