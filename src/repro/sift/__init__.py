"""SIFT: scale-invariant feature detection and description."""

from .benchmark import BENCHMARK, KERNELS, N_OCTAVES, SCALES_PER_OCTAVE
from .descriptors import (
    SiftFeature,
    describe_keypoints,
    descriptors_at,
    match_descriptors,
    orientation_histograms,
    orientation_peaks,
)
from .mser import LEVELS, MserRegion, detect_mser
from .keypoints import (
    Keypoint,
    build_scale_space,
    detect_keypoints,
    local_extrema_mask,
    refine_candidates,
)
from .sift import SiftResult, contrast_normalize, extract_features

__all__ = [
    "BENCHMARK",
    "KERNELS",
    "N_OCTAVES",
    "SCALES_PER_OCTAVE",
    "Keypoint",
    "LEVELS",
    "MserRegion",
    "SiftFeature",
    "SiftResult",
    "build_scale_space",
    "contrast_normalize",
    "describe_keypoints",
    "descriptors_at",
    "detect_keypoints",
    "detect_mser",
    "extract_features",
    "local_extrema_mask",
    "match_descriptors",
    "orientation_histograms",
    "orientation_peaks",
    "refine_candidates",
]
