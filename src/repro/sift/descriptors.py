"""SIFT orientation assignment and 128-D descriptor computation.

Orientation: a 36-bin histogram of gradient angles around the keypoint,
Gaussian-weighted by distance; the dominant bin (parabola-refined) becomes
the keypoint orientation, and secondary peaks above 80% spawn duplicate
keypoints (as in Lowe's paper).

Descriptor: gradients in a 16x16 window, rotated into the keypoint frame,
binned into a 4x4 spatial grid of 8-bin orientation histograms, then
normalized / clipped at 0.2 / renormalized.

Both stages handle all keypoints of an image as arrays, in blocks of
:data:`BLOCK`; histogram bins accumulate with ``np.bincount`` over a flat
(keypoint, bin) index, which adds each bin's terms in window order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core.backend import register_kernel
from ..core.metrics import FLOAT_BYTES, WorkEstimate
from ..core.profiler import KernelProfiler, ensure_profiler
from ..imgproc.gradient import gradient
from .keypoints import Keypoint

N_ORIENTATION_BINS = 36
DESCRIPTOR_GRID = 4
DESCRIPTOR_BINS = 8
DESCRIPTOR_CLIP = 0.2

#: Keypoints handled per block of array operations: bounds the memory of
#: one block to a few MB at the largest orientation window.
BLOCK = 256

_HALF = DESCRIPTOR_GRID * 2  # 8 samples per side half-window
_SY, _SX = np.mgrid[-_HALF:_HALF, -_HALF:_HALF].astype(np.float64)
#: The 16x16 sample offsets (before scaling), Gaussian weights and the
#: histogram cell of each sample, row-major.
_OFFSET_Y = (_SY + 0.5).ravel()
_OFFSET_X = (_SX + 0.5).ravel()
_SAMPLE_WEIGHT = np.exp(
    -(_SY * _SY + _SX * _SX) / (2.0 * (_HALF * 0.6) ** 2)
).ravel()
_CELL_Y = ((_SY + _HALF).astype(np.int64) * DESCRIPTOR_GRID) // (2 * _HALF)
_CELL_X = ((_SX + _HALF).astype(np.int64) * DESCRIPTOR_GRID) // (2 * _HALF)
_CELL_BASE = ((_CELL_Y * DESCRIPTOR_GRID + _CELL_X) * DESCRIPTOR_BINS).ravel()


def _work_descriptors_at(
    magnitude: np.ndarray,
    angle: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    orientations: np.ndarray,
    scales: np.ndarray,
) -> WorkEstimate:
    """Per descriptor, a fixed-size window: ~20 flops per 16x16 sample
    (rotate, Gaussian weight, binning) plus the normalize/clip/
    renormalize tail over the 128 histogram bins; traffic is two field
    reads per sample plus the histogram passes."""
    count = float(np.size(rows))
    samples = float((4 * DESCRIPTOR_GRID) ** 2)  # 16x16 window
    bins = float(DESCRIPTOR_GRID * DESCRIPTOR_GRID * DESCRIPTOR_BINS)
    return WorkEstimate(
        flops=count * (20.0 * samples + 6.0 * bins),
        traffic_bytes=count * FLOAT_BYTES * (3.0 * samples + 3.0 * bins),
    )


@dataclass(frozen=True)
class SiftFeature:
    """A keypoint plus its 128-D descriptor."""

    keypoint: Keypoint
    descriptor: np.ndarray  # (128,), L2-normalized


def _blocks(count: int):
    """``(start, stop)`` of consecutive blocks of at most :data:`BLOCK`."""
    return ((start, min(count, start + BLOCK))
            for start in range(0, count, BLOCK))


def orientation_histograms(
    magnitude: np.ndarray,
    angle: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    radius: int,
    sigmas: np.ndarray,
) -> np.ndarray:
    """Gaussian-weighted 36-bin angle histograms, one per keypoint.

    Row ``k`` covers the window of ``radius`` around the integer pixel
    ``(rows[k], cols[k])``, clipped at the image border, weighted with
    ``sigmas[k]`` and circularly smoothed twice.  Each bin adds its terms
    in the window's row-major order.
    """
    n_rows, n_cols = magnitude.shape
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    sigmas = np.asarray(sigmas, dtype=np.float64)
    dy, dx = np.mgrid[-radius : radius + 1, -radius : radius + 1]
    dy, dx = dy.ravel(), dx.ravel()
    neg_dist2 = -(dy**2 + dx**2)
    flat_magnitude, flat_angle = magnitude.ravel(), angle.ravel()
    out = np.empty((rows.size, N_ORIENTATION_BINS))
    for start, stop in _blocks(rows.size):
        yy = rows[start:stop, None] + dy
        xx = cols[start:stop, None] + dx
        inside = (yy >= 0) & (yy < n_rows) & (xx >= 0) & (xx < n_cols)
        flat = np.clip(yy, 0, n_rows - 1) * n_cols + np.clip(xx, 0, n_cols - 1)
        sigma = sigmas[start:stop, None]
        mags = flat_magnitude[flat] * np.exp(neg_dist2 / (2.0 * sigma * sigma))
        mags *= inside  # clipped samples add +0.0: the sums stay exact
        bins = np.floor(
            (flat_angle[flat] + math.pi) / (2 * math.pi) * N_ORIENTATION_BINS
        ).astype(np.intp) % N_ORIENTATION_BINS
        bins += N_ORIENTATION_BINS * np.arange(stop - start)[:, None]
        hist = np.bincount(
            bins.ravel(), weights=mags.ravel(),
            minlength=(stop - start) * N_ORIENTATION_BINS,
        ).reshape(-1, N_ORIENTATION_BINS)
        # Circular smoothing (Lowe smooths the histogram before peak picking).
        for _ in range(2):
            hist = (
                np.roll(hist, 1, axis=1) + hist + np.roll(hist, -1, axis=1)
            ) / 3.0
        out[start:stop] = hist
    return out


def orientation_peaks(
    hists: np.ndarray, peak_ratio: float = 0.8
) -> Tuple[np.ndarray, np.ndarray]:
    """Histogram peaks above ``peak_ratio`` times their histogram's max.

    Returns ``(owner, angles)``: the row of ``hists`` each peak belongs
    to and its angle in radians, rows in order and each row's peaks by
    bin.  A histogram without a positive maximum has no peaks.  Peak
    positions are refined by fitting a parabola through the bin and its
    neighbours.
    """
    hists = np.asarray(hists, dtype=np.float64)
    n = hists.shape[1]
    peak = hists.max(axis=1, initial=0.0)
    left = np.roll(hists, 1, axis=1)
    right = np.roll(hists, -1, axis=1)
    is_peak = (hists >= peak_ratio * peak[:, None]) & (hists > left)
    is_peak &= hists > right
    is_peak &= (peak > 0.0)[:, None]
    owner, index = np.nonzero(is_peak)
    left, right = left[owner, index], right[owner, index]
    denom = left - 2.0 * hists[owner, index] + right
    with np.errstate(divide="ignore", invalid="ignore"):
        shift = np.where(denom == 0, 0.0, 0.5 * (left - right) / denom)
    bin_center = (index + shift + 0.5) / n
    return owner, bin_center * 2.0 * math.pi - math.pi


def _descriptor_at_ref(
    magnitude: np.ndarray,
    angle: np.ndarray,
    row: float,
    col: float,
    orientation: float,
    scale: float = 1.0,
) -> np.ndarray:
    """Loop-faithful descriptor: one scalar rotate/bin/accumulate per
    sample of the 16x16 window, then the normalize/clip/renormalize tail.

    Sample order matches the vectorized path's row-major accumulation,
    so histogram bins agree to round-off.
    """
    rows, cols = magnitude.shape
    half = DESCRIPTOR_GRID * 2
    span = max(1.0, scale)
    cos_o, sin_o = math.cos(orientation), math.sin(orientation)
    two_pi = 2.0 * math.pi
    sigma_sq2 = 2.0 * (half * 0.6) ** 2
    hist = np.zeros(DESCRIPTOR_GRID * DESCRIPTOR_GRID * DESCRIPTOR_BINS)
    for sy in range(-half, half):
        for sx in range(-half, half):
            oy = (sy + 0.5) * span
            ox = (sx + 0.5) * span
            ry = int(np.rint(row + cos_o * oy - sin_o * ox))
            rx = int(np.rint(col + sin_o * oy + cos_o * ox))
            if not (0 <= ry < rows and 0 <= rx < cols):
                continue
            weight = math.exp(-(sy * sy + sx * sx) / sigma_sq2)
            mag = magnitude[ry, rx] * weight
            theta = (angle[ry, rx] - orientation) % two_pi
            cell_y = ((sy + half) * DESCRIPTOR_GRID) // (2 * half)
            cell_x = ((sx + half) * DESCRIPTOR_GRID) // (2 * half)
            bin_index = min(int(theta / two_pi * DESCRIPTOR_BINS),
                            DESCRIPTOR_BINS - 1)
            flat = (cell_y * DESCRIPTOR_GRID + cell_x) * DESCRIPTOR_BINS \
                + bin_index
            hist[flat] += mag
    desc = hist
    norm = math.sqrt(float(sum(v * v for v in desc)))
    if norm > 0:
        desc = desc / norm
        desc = np.minimum(desc, DESCRIPTOR_CLIP)
        norm = math.sqrt(float(sum(v * v for v in desc)))
        if norm > 0:
            desc = desc / norm
    return desc


def _descriptors_at_ref(
    magnitude: np.ndarray,
    angle: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    orientations: np.ndarray,
    scales: np.ndarray,
) -> np.ndarray:
    """Loop-faithful batch: one :func:`_descriptor_at_ref` per keypoint."""
    out = np.zeros((np.size(rows), DESCRIPTOR_GRID * DESCRIPTOR_GRID
                    * DESCRIPTOR_BINS))
    for k, args in enumerate(zip(rows, cols, orientations, scales)):
        out[k] = _descriptor_at_ref(magnitude, angle, *args)
    return out


def _normalize_rows(hist: np.ndarray) -> None:
    """Divide each nonzero row by its L2 norm, in place.

    The stacked matmul runs the same BLAS dot per row as
    ``np.linalg.norm`` of one vector; ``einsum`` would round differently.
    """
    norm = np.sqrt(np.matmul(hist[:, None, :], hist[:, :, None])[:, :, 0])
    np.divide(hist, norm, out=hist, where=norm > 0)


@register_kernel(
    "sift.descriptor",
    paper_kernel="SIFT (descriptor histogram)",
    apps=("sift", "stitch"),
    ref=_descriptors_at_ref,
    rtol=1e-9,
    atol=1e-9,
    work=_work_descriptors_at,
)
def descriptors_at(
    magnitude: np.ndarray,
    angle: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    orientations: np.ndarray,
    scales: np.ndarray,
) -> np.ndarray:
    """The 4x4x8 descriptors at (level-local) positions, ``(N, 128)``.

    Row ``k`` samples a 16x16 window around ``(rows[k], cols[k])``,
    rotated by ``orientations[k]`` and stretched by ``scales[k]`` (at
    least 1).  Each bin adds its samples in row-major window order.
    """
    n_rows, n_cols = magnitude.shape
    rows = np.asarray(rows, dtype=np.float64)
    cols = np.asarray(cols, dtype=np.float64)
    orientations = np.asarray(orientations, dtype=np.float64)
    spans = np.maximum(1.0, np.asarray(scales, dtype=np.float64))
    flat_magnitude, flat_angle = magnitude.ravel(), angle.ravel()
    n_bins = DESCRIPTOR_GRID * DESCRIPTOR_GRID * DESCRIPTOR_BINS
    out = np.empty((rows.size, n_bins))
    for start, stop in _blocks(rows.size):
        orientation = orientations[start:stop, None]
        # ``math`` rather than ``np.cos``: the same libm values as the
        # one-keypoint form.
        angles = orientations[start:stop].tolist()
        cos_o = np.array([math.cos(o) for o in angles])[:, None]
        sin_o = np.array([math.sin(o) for o in angles])[:, None]
        oy = _OFFSET_Y * spans[start:stop, None]
        ox = _OFFSET_X * spans[start:stop, None]
        ry = np.rint(rows[start:stop, None] + cos_o * oy - sin_o * ox
                     ).astype(np.int64)
        rx = np.rint(cols[start:stop, None] + sin_o * oy + cos_o * ox
                     ).astype(np.int64)
        inside = (ry >= 0) & (ry < n_rows) & (rx >= 0) & (rx < n_cols)
        flat = np.clip(ry, 0, n_rows - 1) * n_cols + np.clip(rx, 0, n_cols - 1)
        mags = flat_magnitude[flat] * _SAMPLE_WEIGHT * inside
        theta = np.mod(flat_angle[flat] - orientation, 2.0 * math.pi)
        bin_index = np.minimum(
            (theta / (2.0 * math.pi) * DESCRIPTOR_BINS).astype(np.int64),
            DESCRIPTOR_BINS - 1,
        )
        bin_index += _CELL_BASE
        bin_index += n_bins * np.arange(stop - start)[:, None]
        hist = np.bincount(
            bin_index.ravel(), weights=mags.ravel(),
            minlength=(stop - start) * n_bins,
        ).reshape(-1, n_bins)
        _normalize_rows(hist)
        np.minimum(hist, DESCRIPTOR_CLIP, out=hist)
        _normalize_rows(hist)
        out[start:stop] = hist
    return out


def describe_keypoints(
    image: np.ndarray,
    keypoints: Sequence[Keypoint],
    profiler: Optional[KernelProfiler] = None,
) -> List[SiftFeature]:
    """Assign orientations and descriptors to detected keypoints.

    Gradients are computed once on the full-resolution image.  The
    orientation histograms of all keypoints with the same window radius
    are built together; keypoints carrying multiple dominant orientations
    are duplicated per orientation, exactly as Lowe specifies, and one
    without a peak keeps orientation 0.  Every descriptor comes from one
    :func:`descriptors_at` call.  Keypoints whose rounded position lies
    off the image are dropped.
    """
    profiler = ensure_profiler(profiler)
    with profiler.kernel("SIFT"):
        gx, gy = gradient(np.asarray(image, dtype=np.float64))
        magnitude = np.hypot(gx, gy)
        angle = np.arctan2(gy, gx)
        n_rows, n_cols = magnitude.shape
        kp_rows = np.array([kp.row for kp in keypoints], dtype=np.float64)
        kp_cols = np.array([kp.col for kp in keypoints], dtype=np.float64)
        sigmas = np.array([kp.sigma for kp in keypoints], dtype=np.float64)
        rows = np.rint(kp_rows).astype(np.intp)
        cols = np.rint(kp_cols).astype(np.intp)
        radii = np.maximum(3, np.rint(3.0 * sigmas).astype(np.intp))
        inside = (rows >= 0) & (rows < n_rows) & (cols >= 0) & (cols < n_cols)
        owners = [np.zeros(0, dtype=np.intp)]
        thetas = [np.zeros(0)]
        for radius in np.unique(radii[inside]).tolist():
            members = np.flatnonzero(inside & (radii == radius))
            hists = orientation_histograms(
                magnitude, angle, rows[members], cols[members], radius,
                1.5 * np.maximum(sigmas[members], 0.8),
            )
            owner, angles = orientation_peaks(hists)
            bare = np.ones(members.size, dtype=bool)
            bare[owner] = False
            owners += [members[owner], members[bare]]
            thetas += [angles, np.zeros(int(bare.sum()))]
        owner = np.concatenate(owners)
        order = np.argsort(owner, kind="stable")
        owner = owner[order]
        theta = np.concatenate(thetas)[order]
        descriptors = descriptors_at(
            magnitude, angle, kp_rows[owner], kp_cols[owner], theta,
            np.maximum(0.5, sigmas[owner] / 2.0),
        )
        features = []
        for k, orientation, desc in zip(owner.tolist(), theta.tolist(),
                                        descriptors):
            kp = keypoints[k]
            oriented = Keypoint(
                row=kp.row,
                col=kp.col,
                octave=kp.octave,
                scale_index=kp.scale_index,
                sigma=kp.sigma,
                response=kp.response,
                orientation=orientation,
            )
            features.append(SiftFeature(keypoint=oriented, descriptor=desc))
    return features


def match_descriptors(
    first: Sequence[SiftFeature],
    second: Sequence[SiftFeature],
    ratio: float = 0.8,
) -> List[Tuple[int, int]]:
    """Lowe-ratio nearest-neighbour matching between two feature sets.

    Returns index pairs ``(i, j)`` where the best match ``j`` for ``i`` is
    sufficiently better than the runner-up.
    """
    if not first or not second:
        return []
    a = np.stack([f.descriptor for f in first])
    b = np.stack([f.descriptor for f in second])
    # Squared distances via the expansion |x-y|^2 = |x|^2 + |y|^2 - 2 x.y
    d2 = (
        (a * a).sum(axis=1)[:, None]
        + (b * b).sum(axis=1)[None, :]
        - 2.0 * (a @ b.T)
    )
    matches = []
    for i in range(a.shape[0]):
        order = np.argsort(d2[i])
        best = order[0]
        if d2.shape[1] >= 2:
            second_best = order[1]
            if d2[i, best] > ratio * ratio * d2[i, second_best]:
                continue
        matches.append((i, int(best)))
    return matches
