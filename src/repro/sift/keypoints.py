"""SIFT keypoint detection: DoG scale-space extrema with refinement.

Candidates are local extrema of the Difference-of-Gaussians pyramid over a
3x3x3 neighbourhood (space x scale).  Each candidate is refined by fitting
a quadratic to the DoG (one Newton step on the 3-D gradient/Hessian) and
pruned by contrast and by the Harris-style edge-response ratio, following
Lowe's criteria.  All candidates of one DoG level are refined and pruned
together, as arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core.profiler import KernelProfiler, ensure_profiler
from ..imgproc.pyramid import ScaleSpace, scale_space
from ..linalg.matrix import solve_stack


@dataclass(frozen=True)
class Keypoint:
    """A refined scale-space feature in input-image coordinates."""

    row: float
    col: float
    octave: int
    scale_index: int
    sigma: float
    response: float
    orientation: float = 0.0


def _across3(layer: np.ndarray, op) -> np.ndarray:
    """``op`` over each pixel's horizontal run of 3 (interior columns)."""
    out = op(layer[:, :-2], layer[:, 1:-1])
    return op(out, layer[:, 2:], out=out)


def _neighbour_extreme(below: np.ndarray, here: np.ndarray,
                       above: np.ndarray, op) -> np.ndarray:
    """``op`` over the 26 neighbours of each interior pixel of ``here``:
    runs of 3 along rows, then across rows, accumulated in place."""
    runs = _across3(here, op)
    out = op(runs[:-2], runs[2:])
    op(out, here[1:-1, :-2], out=out)
    op(out, here[1:-1, 2:], out=out)
    for layer in (below, above):
        runs = _across3(layer, op)
        for shift in range(3):
            op(out, runs[shift : shift + out.shape[0]], out=out)
    return out


def local_extrema_mask(below: np.ndarray, here: np.ndarray,
                       above: np.ndarray, threshold: float) -> np.ndarray:
    """Pixels of ``here`` that are 3x3x3 extrema above ``threshold``.

    Border pixels are excluded.  The max/min over the 26 neighbours is
    taken separably and in place; both are exact, so the order of the
    comparisons cannot change the mask.
    """
    if not (below.shape == here.shape == above.shape):
        raise ValueError("scale slices must share a shape")
    rows, cols = here.shape
    if rows < 3 or cols < 3:
        return np.zeros_like(here, dtype=bool)
    center = here[1:-1, 1:-1]
    neighbour_max = _neighbour_extreme(below, here, above, np.maximum)
    is_max = center > neighbour_max
    is_max &= center > threshold
    del neighbour_max
    neighbour_min = _neighbour_extreme(below, here, above, np.minimum)
    is_min = center < neighbour_min
    is_min &= center < -threshold
    mask = np.zeros_like(here, dtype=bool)
    np.logical_or(is_max, is_min, out=mask[1:-1, 1:-1])
    return mask


def refine_candidates(
    dogs: Sequence[np.ndarray],
    scale: int,
    rows: np.ndarray,
    cols: np.ndarray,
    edge_ratio: float = 10.0,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One Newton step in (row, col, scale) for every candidate of a level.

    ``rows``/``cols`` are interior pixels of ``dogs[scale]``.  The finite
    differences of all candidates are gathered at once and their 3x3
    systems solved in one :func:`~repro.linalg.matrix.solve_stack` call.
    Returns ``(offsets, values, ok)``: the ``(K, 3)`` offsets
    ``[dr, dc, ds]``, the DoG value interpolated at each offset, and a
    mask that is false where the Hessian is singular or where Lowe's edge
    test (high curvature ratio: a ridge) rejects the candidate.  The
    caller prunes offsets beyond 1.5 and low-contrast values.
    """
    below, here, above = dogs[scale - 1], dogs[scale], dogs[scale + 1]
    r = np.asarray(rows, dtype=np.intp)
    c = np.asarray(cols, dtype=np.intp)
    centre = here[r, c]
    grad = np.stack(
        [
            (here[r + 1, c] - here[r - 1, c]) / 2.0,
            (here[r, c + 1] - here[r, c - 1]) / 2.0,
            (above[r, c] - below[r, c]) / 2.0,
        ],
        axis=1,
    )
    drr = here[r + 1, c] - 2 * centre + here[r - 1, c]
    dcc = here[r, c + 1] - 2 * centre + here[r, c - 1]
    dss = above[r, c] - 2 * centre + below[r, c]
    drc = (
        here[r + 1, c + 1] - here[r + 1, c - 1] - here[r - 1, c + 1]
        + here[r - 1, c - 1]
    ) / 4.0
    drs = (
        above[r + 1, c] - above[r - 1, c] - below[r + 1, c]
        + below[r - 1, c]
    ) / 4.0
    dcs = (
        above[r, c + 1] - above[r, c - 1] - below[r, c + 1]
        + below[r, c - 1]
    ) / 4.0
    hessian = np.stack(
        [drr, drc, drs, drc, dcc, dcs, drs, dcs, dss], axis=1
    ).reshape(-1, 3, 3)
    x, singular = solve_stack(hessian, grad)
    offsets = -x
    # Stacked matmul runs the same BLAS dot per candidate as ``offset @
    # grad``; an explicit sum of products would round differently.
    step = np.matmul(offsets[:, None, :], grad[:, :, None])[:, 0, 0]
    values = centre + 0.5 * step
    trace = drr + dcc
    det = drr * dcc - drc * drc
    with np.errstate(divide="ignore", invalid="ignore"):
        edge_ok = trace * trace / det < (edge_ratio + 1.0) ** 2 / edge_ratio
    ok = ~singular & (det > 0.0) & edge_ok
    return offsets, values, ok


def detect_keypoints(
    octaves: Sequence[ScaleSpace],
    contrast_threshold: float = 0.015,
    edge_ratio: float = 10.0,
    upsampled: bool = True,
    profiler: Optional[KernelProfiler] = None,
) -> List[Keypoint]:
    """Find refined, pruned keypoints across all octaves.

    Candidates of one DoG level are refined and pruned together by
    :func:`refine_candidates`; keypoints keep the level's row-major
    candidate order.  Coordinates are reported in the original
    (pre-upsampling) image frame when ``upsampled`` is true, matching the
    pipeline in :func:`repro.sift.sift.extract_features`.
    """
    profiler = ensure_profiler(profiler)
    keypoints: List[Keypoint] = []
    base = 0.5 if upsampled else 1.0
    with profiler.kernel("SIFT"):
        for space in octaves:
            pixel_scale = base * (2.0**space.octave)
            dogs = space.dogs
            for s in range(1, len(dogs) - 1):
                mask = local_extrema_mask(
                    dogs[s - 1], dogs[s], dogs[s + 1], contrast_threshold
                )
                rows, cols = np.nonzero(mask)
                offsets, values, ok = refine_candidates(
                    dogs, s, rows, cols, edge_ratio
                )
                keep = ok & ~(np.abs(offsets).max(axis=1) > 1.5)
                keep &= ~(np.abs(values) < contrast_threshold)
                sigma = space.sigmas[s] * pixel_scale
                kept_rows = (rows[keep] + offsets[keep, 0]) * pixel_scale
                kept_cols = (cols[keep] + offsets[keep, 1]) * pixel_scale
                for row, col, value in zip(kept_rows.tolist(),
                                           kept_cols.tolist(),
                                           values[keep].tolist()):
                    keypoints.append(
                        Keypoint(row=row, col=col, octave=space.octave,
                                 scale_index=s, sigma=sigma, response=value)
                    )
    return keypoints


def build_scale_space(image: np.ndarray, n_octaves: int = 3,
                      scales_per_octave: int = 3,
                      profiler: Optional[KernelProfiler] = None) -> List[ScaleSpace]:
    """Profiled wrapper around the Gaussian/DoG pyramid construction."""
    profiler = ensure_profiler(profiler)
    with profiler.kernel("SIFT"):
        return scale_space(image, n_octaves, scales_per_octave)
