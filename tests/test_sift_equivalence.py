"""The batched SIFT stages against per-item references, byte for byte.

The references below are the per-keypoint and one-system implementations
the batched code replaced: orientation histogram and peak picking, Newton
refinement and edge test, the vectorized single descriptor, the 26-way
extremum scan and Gauss elimination.  Every comparison is on exact
bytes.  The file also checks the tracemalloc peak of one CIF extraction.
"""

import math
import tracemalloc

import numpy as np
import pytest

from repro.core.inputs import image
from repro.core.types import InputSize
from repro.imgproc.gradient import gradient
from repro.linalg.matrix import (
    SingularMatrixError,
    inverse,
    solve,
    solve_stack,
)
from repro.sift import descriptors as descriptors_module
from repro.sift import (
    Keypoint,
    describe_keypoints,
    descriptors_at,
    extract_features,
    local_extrema_mask,
    orientation_histograms,
    orientation_peaks,
    refine_candidates,
)

#: tracemalloc peak allowed for one CIF ``extract_features``.
EXTRACT_PEAK_BYTES = 70_000_000


# ----------------------------------------------------------------------
# Per-item references


def _solve_ref(a, b, pivot_tol=1e-12):
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[0]
    b = np.asarray(b, dtype=np.float64)
    vector_rhs = b.ndim == 1
    rhs = b.reshape(n, -1).copy()
    work = a.copy()
    scale = max(1.0, float(np.abs(work).max()))
    for col in range(n):
        pivot_row = col + int(np.argmax(np.abs(work[col:, col])))
        if abs(work[pivot_row, col]) <= pivot_tol * scale:
            raise SingularMatrixError(f"singular at column {col}")
        if pivot_row != col:
            work[[col, pivot_row]] = work[[pivot_row, col]]
            rhs[[col, pivot_row]] = rhs[[pivot_row, col]]
        factors = work[col + 1 :, col] / work[col, col]
        work[col + 1 :, col:] -= np.outer(factors, work[col, col:])
        rhs[col + 1 :] -= np.outer(factors, rhs[col])
    x = np.zeros_like(rhs)
    for row in range(n - 1, -1, -1):
        x[row] = (rhs[row] - work[row, row + 1 :] @ x[row + 1 :]) / work[row, row]
    return x[:, 0] if vector_rhs else x


def _local_extrema_mask_ref(below, here, above, threshold):
    rows, cols = here.shape
    center = here[1:-1, 1:-1]
    neighbour_max = np.full(center.shape, -np.inf)
    neighbour_min = np.full(center.shape, np.inf)
    for layer in (below, here, above):
        for dy in (0, 1, 2):
            for dx in (0, 1, 2):
                if layer is here and dy == 1 and dx == 1:
                    continue
                view = layer[dy : rows - 2 + dy, dx : cols - 2 + dx]
                neighbour_max = np.maximum(neighbour_max, view)
                neighbour_min = np.minimum(neighbour_min, view)
    mask = np.zeros_like(here, dtype=bool)
    mask[1:-1, 1:-1] = ((center > neighbour_max) & (center > threshold)) | (
        (center < neighbour_min) & (center < -threshold)
    )
    return mask


def _refine_candidate_ref(d, scale, row, col):
    grad = np.array(
        [
            (d[scale][row + 1, col] - d[scale][row - 1, col]) / 2.0,
            (d[scale][row, col + 1] - d[scale][row, col - 1]) / 2.0,
            (d[scale + 1][row, col] - d[scale - 1][row, col]) / 2.0,
        ]
    )
    drr = d[scale][row + 1, col] - 2 * d[scale][row, col] + d[scale][row - 1, col]
    dcc = d[scale][row, col + 1] - 2 * d[scale][row, col] + d[scale][row, col - 1]
    dss = d[scale + 1][row, col] - 2 * d[scale][row, col] + d[scale - 1][row, col]
    drc = (d[scale][row + 1, col + 1] - d[scale][row + 1, col - 1]
           - d[scale][row - 1, col + 1] + d[scale][row - 1, col - 1]) / 4.0
    drs = (d[scale + 1][row + 1, col] - d[scale + 1][row - 1, col]
           - d[scale - 1][row + 1, col] + d[scale - 1][row - 1, col]) / 4.0
    dcs = (d[scale + 1][row, col + 1] - d[scale + 1][row, col - 1]
           - d[scale - 1][row, col + 1] + d[scale - 1][row, col - 1]) / 4.0
    hessian = np.array([[drr, drc, drs], [drc, dcc, dcs], [drs, dcs, dss]])
    try:
        offset = -_solve_ref(hessian, grad)
    except SingularMatrixError:
        return None, None
    value = d[scale][row, col] + 0.5 * float(offset @ grad)
    return offset, value


def _edge_response_ok_ref(dog, row, col, edge_ratio=10.0):
    drr = dog[row + 1, col] - 2 * dog[row, col] + dog[row - 1, col]
    dcc = dog[row, col + 1] - 2 * dog[row, col] + dog[row, col - 1]
    drc = (dog[row + 1, col + 1] - dog[row + 1, col - 1]
           - dog[row - 1, col + 1] + dog[row - 1, col - 1]) / 4.0
    trace = drr + dcc
    det = drr * dcc - drc * drc
    if det <= 0.0:
        return False
    return trace * trace / det < (edge_ratio + 1.0) ** 2 / edge_ratio


def _orientation_histogram_ref(magnitude, angle, row, col, radius, sigma):
    rows, cols = magnitude.shape
    hist = np.zeros(36)
    r0, r1 = max(0, row - radius), min(rows, row + radius + 1)
    c0, c1 = max(0, col - radius), min(cols, col + radius + 1)
    yy, xx = np.mgrid[r0:r1, c0:c1]
    weight = np.exp(
        -((yy - row) ** 2 + (xx - col) ** 2) / (2.0 * sigma * sigma)
    )
    mags = magnitude[r0:r1, c0:c1] * weight
    bins = np.floor(
        (angle[r0:r1, c0:c1] + math.pi) / (2 * math.pi) * 36
    ).astype(int) % 36
    np.add.at(hist, bins.ravel(), mags.ravel())
    smoothed = hist.copy()
    for _ in range(2):
        smoothed = (np.roll(smoothed, 1) + smoothed + np.roll(smoothed, -1)) / 3.0
    return smoothed


def _dominant_orientations_ref(hist, peak_ratio=0.8):
    n = hist.size
    peak = float(hist.max())
    if peak <= 0.0:
        return []
    angles = []
    for i in range(n):
        left, right = hist[(i - 1) % n], hist[(i + 1) % n]
        if hist[i] >= peak_ratio * peak and hist[i] > left and hist[i] > right:
            denom = left - 2.0 * hist[i] + right
            shift = 0.0 if denom == 0 else 0.5 * (left - right) / denom
            angles.append((i + shift + 0.5) / n * 2.0 * math.pi - math.pi)
    return angles


def _descriptor_at_ref(magnitude, angle, row, col, orientation, scale=1.0):
    rows, cols = magnitude.shape
    half = 8
    span = max(1.0, scale)
    cos_o, sin_o = math.cos(orientation), math.sin(orientation)
    sy, sx = np.mgrid[-half:half, -half:half].astype(np.float64)
    oy = (sy + 0.5) * span
    ox = (sx + 0.5) * span
    ry = np.rint(row + cos_o * oy - sin_o * ox).astype(np.int64)
    rx = np.rint(col + sin_o * oy + cos_o * ox).astype(np.int64)
    inside = (ry >= 0) & (ry < rows) & (rx >= 0) & (rx < cols)
    ry_safe = np.clip(ry, 0, rows - 1)
    rx_safe = np.clip(rx, 0, cols - 1)
    weight = np.exp(-(sy * sy + sx * sx) / (2.0 * (half * 0.6) ** 2))
    mags = magnitude[ry_safe, rx_safe] * weight * inside
    theta = np.mod(angle[ry_safe, rx_safe] - orientation, 2.0 * math.pi)
    cell_y = ((sy + half).astype(np.int64) * 4) // (2 * half)
    cell_x = ((sx + half).astype(np.int64) * 4) // (2 * half)
    bin_index = np.minimum((theta / (2.0 * math.pi) * 8).astype(np.int64), 7)
    hist = np.zeros(128)
    np.add.at(hist, ((cell_y * 4 + cell_x) * 8 + bin_index).ravel(),
              mags.ravel())
    desc = hist
    norm = float(np.linalg.norm(desc))
    if norm > 0:
        desc = np.minimum(desc / norm, 0.2)
        norm = float(np.linalg.norm(desc))
        if norm > 0:
            desc = desc / norm
    return desc


def _describe_keypoints_ref(image_, keypoints):
    gx, gy = gradient(np.asarray(image_, dtype=np.float64))
    magnitude = np.hypot(gx, gy)
    angle = np.arctan2(gy, gx)
    rows, cols = magnitude.shape
    out = []
    for kp in keypoints:
        row, col = int(round(kp.row)), int(round(kp.col))
        if not (0 <= row < rows and 0 <= col < cols):
            continue
        radius = max(3, int(round(3.0 * kp.sigma)))
        hist = _orientation_histogram_ref(
            magnitude, angle, row, col, radius, 1.5 * max(kp.sigma, 0.8)
        )
        for theta in _dominant_orientations_ref(hist) or [0.0]:
            desc = _descriptor_at_ref(magnitude, angle, kp.row, kp.col, theta,
                                      scale=max(0.5, kp.sigma / 2.0))
            out.append((kp, theta, desc))
    return out


# ----------------------------------------------------------------------
# Fixtures


def _fields(size=InputSize.QCIF, variant=0):
    img = image(size, variant, salt="sift")
    gx, gy = gradient(img)
    return img, np.hypot(gx, gy), np.arctan2(gy, gx)


def _random_keypoints(shape, count, seed):
    """Keypoints over and just off the image, at every octave's sigmas."""
    rng = np.random.default_rng(seed)
    rows, cols = shape
    sigmas = [1.0, 1.26, 1.6, 2.0, 2.52, 3.2, 4.0, 5.04, 6.4, 0.3]
    return [
        Keypoint(row=float(rng.uniform(-3.0, rows + 3.0)),
                 col=float(rng.uniform(-3.0, cols + 3.0)),
                 octave=0, scale_index=1,
                 sigma=float(rng.choice(sigmas)), response=0.1)
        for _ in range(count)
    ]


def _bytes(values):
    return np.asarray(values, dtype=np.float64).tobytes()


# ----------------------------------------------------------------------
# Stacked elimination


def _systems(n, seed):
    """Random, pivot-swapping, near-singular and singular n x n systems."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((40, n, n))
    a[5:10, 0, 0] = 0.0                          # zero leading pivot
    a[10:15] *= 1e-13                            # tiny: singular by tolerance
    a[15:20] *= 1e-10                            # near-singular
    if n > 1:
        a[20:25, -1] = a[20:25, 0]               # repeated row: singular
        a[25:30, :, 1] = 3.0 * a[25:30, :, 0]    # dependent column
    a[30:35] = 0.0                               # zero matrix
    return a, rng.standard_normal((40, n)), rng.standard_normal((40, n, 2))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_solve_stack_matches_one_system_solve(n):
    a, b_vec, b_mat = _systems(n, seed=n)
    for b in (b_vec, b_mat):
        x, singular = solve_stack(a, b)
        assert x.shape == b.shape
        for k in range(a.shape[0]):
            try:
                expected = _solve_ref(a[k], b[k])
            except SingularMatrixError:
                assert singular[k]
                assert np.isnan(x[k]).all()
                with pytest.raises(SingularMatrixError):
                    solve(a[k], b[k])
                continue
            assert not singular[k]
            assert x[k].tobytes() == expected.tobytes()
            assert solve(a[k], b[k]).tobytes() == expected.tobytes()
    assert singular[10:15].all() and singular[30:35].all()
    assert not singular[15:20].all()


def test_solve_stack_empty_and_inverse():
    x, singular = solve_stack(np.zeros((0, 3, 3)), np.zeros((0, 3)))
    assert x.shape == (0, 3) and singular.shape == (0,)
    rng = np.random.default_rng(9)
    for n in (1, 3, 6):
        a = rng.standard_normal((n, n))
        assert inverse(a).tobytes() == _solve_ref(a, np.eye(n)).tobytes()


def test_solve_stack_rejects_bad_shapes():
    with pytest.raises(ValueError):
        solve_stack(np.zeros((2, 3, 2)), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        solve_stack(np.zeros((2, 3, 3)), np.zeros((3, 3)))


# ----------------------------------------------------------------------
# Detection


def test_local_extrema_mask_matches_reference():
    rng = np.random.default_rng(1)
    layers = rng.standard_normal((3, 40, 52))
    layers[:, 10:20, 10:20] = 0.0  # ties: flat region
    for threshold in (0.0, 0.5):
        assert np.array_equal(
            local_extrema_mask(*layers, threshold),
            _local_extrema_mask_ref(*layers, threshold),
        )


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_refine_candidates_match_reference(seed):
    rng = np.random.default_rng(seed)
    dogs = list(rng.standard_normal((3, 30, 34)) * 0.05)
    dogs[0][5:12, 5:12] = dogs[1][5:12, 5:12] = dogs[2][5:12, 5:12] = 0.0
    rows, cols = np.mgrid[1:29, 1:33]
    rows, cols = rows.ravel(), cols.ravel()
    offsets, values, ok = refine_candidates(dogs, 1, rows, cols)
    singular = 0
    for k, (r, c) in enumerate(zip(rows.tolist(), cols.tolist())):
        offset, value = _refine_candidate_ref(dogs, 1, r, c)
        if offset is None:
            singular += 1
            assert not ok[k]
            continue
        assert offsets[k].tobytes() == offset.tobytes()
        assert _bytes(values[k]) == _bytes(value)
        assert ok[k] == _edge_response_ok_ref(dogs[1], r, c)
    assert singular > 0  # the flat patch


def test_refine_candidates_empty():
    dogs = [np.zeros((5, 5))] * 3
    offsets, values, ok = refine_candidates(dogs, 1, [], [])
    assert offsets.shape == (0, 3) and values.shape == ok.shape == (0,)


# ----------------------------------------------------------------------
# Orientation and description


@pytest.mark.parametrize("radius", [3, 5, 19])
def test_orientation_histograms_match_reference(radius):
    _, magnitude, angle = _fields()
    rng = np.random.default_rng(radius)
    rows_n, cols_n = magnitude.shape
    # Include every border and corner, where the window is clipped.
    rows = np.concatenate([[0, rows_n - 1, 0, rows_n - 1, 2],
                           rng.integers(0, rows_n, 300)])
    cols = np.concatenate([[0, cols_n - 1, cols_n - 1, 0, 2],
                           rng.integers(0, cols_n, 300)])
    sigmas = rng.uniform(1.2, 9.6, rows.size)
    hists = orientation_histograms(magnitude, angle, rows, cols, radius,
                                   sigmas)
    for k in range(rows.size):
        expected = _orientation_histogram_ref(
            magnitude, angle, int(rows[k]), int(cols[k]), radius,
            float(sigmas[k]))
        assert hists[k].tobytes() == expected.tobytes()


def test_orientation_peaks_match_reference():
    rng = np.random.default_rng(4)
    hists = rng.random((200, 36)) ** 4
    hists[::9] = 0.0                             # no positive maximum
    hists[1::9] = 1.0                            # plateau: no strict peak
    hists[2::9, 4:6] = 5.0                       # tied top bins
    hists[3::9, 0], hists[3::9, 18] = 10.0, 9.5  # two peaks, wrap-around
    owner, angles = orientation_peaks(hists)
    expected_owner, expected_angles = [], []
    for k in range(hists.shape[0]):
        peaks = _dominant_orientations_ref(hists[k])
        expected_owner += [k] * len(peaks)
        expected_angles += peaks
    assert owner.tolist() == expected_owner
    assert _bytes(angles) == _bytes(expected_angles)


def test_descriptors_at_matches_reference():
    _, magnitude, angle = _fields()
    rng = np.random.default_rng(5)
    n = 600  # more than two blocks
    rows_n, cols_n = magnitude.shape
    rows = rng.uniform(-5.0, rows_n + 5.0, n)
    cols = rng.uniform(-5.0, cols_n + 5.0, n)
    orientations = rng.uniform(-math.pi, math.pi, n)
    orientations[:2] = (math.pi, -math.pi)
    scales = rng.uniform(0.2, 4.0, n)
    flat = magnitude.copy()
    flat[40:80, 40:80] = 0.0
    rows[2], cols[2], scales[2] = 60.0, 60.0, 0.5  # zero descriptor
    out = descriptors_at(flat, angle, rows, cols, orientations, scales)
    assert out.shape == (n, 128)
    assert not out[2].any()
    for k in range(n):
        expected = _descriptor_at_ref(flat, angle, rows[k], cols[k],
                                      orientations[k], scales[k])
        assert out[k].tobytes() == expected.tobytes()
    assert descriptors_at(flat, angle, [], [], [], []).shape == (0, 128)


def _einsum_normalize_rows(hist):
    norm = np.sqrt(np.einsum("ij,ij->i", hist, hist))[:, None]
    np.divide(hist, norm, out=hist, where=norm > 0)


def test_einsum_norm_mutant_is_caught(monkeypatch):
    """A row norm taken with ``einsum`` rounds differently from the
    reference's BLAS dot, and the byte comparison notices."""
    _, magnitude, angle = _fields(InputSize.CIF)
    rng = np.random.default_rng(6)
    n = 400
    args = (rng.uniform(0, magnitude.shape[0], n),
            rng.uniform(0, magnitude.shape[1], n),
            rng.uniform(-math.pi, math.pi, n), rng.uniform(0.5, 3.0, n))
    expected = np.stack([_descriptor_at_ref(magnitude, angle, *a)
                         for a in zip(*args)])
    assert descriptors_at(magnitude, angle, *args).tobytes() == \
        expected.tobytes()
    monkeypatch.setattr(descriptors_module, "_normalize_rows",
                        _einsum_normalize_rows)
    mutant = descriptors_at(magnitude, angle, *args)
    assert np.allclose(mutant, expected, rtol=1e-12, atol=0.0)
    assert (mutant != expected).any(axis=1).sum() > 0


@pytest.mark.parametrize("seed", [0, 1])
def test_describe_keypoints_matches_reference(seed):
    img, _, _ = _fields()
    img = img.copy()
    img[20:70, 20:90] = 0.5  # flat: zero magnitude, so no histogram peak
    keypoints = _random_keypoints(img.shape, 400, seed)
    keypoints += [Keypoint(row=45.0, col=55.0, octave=0, scale_index=1,
                           sigma=1.0, response=0.1)]
    features = describe_keypoints(img, keypoints)
    expected = _describe_keypoints_ref(img, keypoints)
    assert len(features) == len(expected)
    for feature, (kp, theta, desc) in zip(features, expected):
        assert feature.keypoint.row == kp.row and feature.keypoint.col == kp.col
        assert feature.keypoint.sigma == kp.sigma
        assert _bytes(feature.keypoint.orientation) == _bytes(theta)
        assert feature.descriptor.tobytes() == desc.tobytes()
    dropped = sum(
        1 for kp in keypoints
        if not (0 <= round(kp.row) < img.shape[0]
                and 0 <= round(kp.col) < img.shape[1]))
    assert dropped > 0
    assert features[-1].keypoint.orientation == 0.0
    assert describe_keypoints(img, []) == []


def test_extract_features_peak_memory():
    scene = image(InputSize.CIF, 0, salt="sift")
    tracemalloc.start()
    try:
        extract_features(scene)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < EXTRACT_PEAK_BYTES, f"peak {peak / 1e6:.1f} MB"
