"""Benchmark wiring for the Face Detection (Viola-Jones) application.

The cascade is trained once per input variant on the synthetic face/
non-face patch set and cached — matching the original benchmark, which
ships a pre-trained detector and measures detection, not training.
Training is set-up, paid once in every fresh process: about 0.35-0.45 s
per variant on a 2-vCPU x86-64 host, nearly all of it the AdaBoost stump
search (the Haar feature matrix of 650 patches x 548 features takes
about 0.02 s).
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Mapping

from ..core.dataflow import Chain, Op, ParMap, Seq
from ..core.inputs import face_scene, face_training_set
from ..core.profiler import KernelProfiler
from ..core.registry import Benchmark
from ..core.types import (
    Characteristic,
    ConcentrationArea,
    InputSize,
    KernelInfo,
    ParallelismClass,
    ParallelismEstimate,
)
from .adaboost import Cascade, train_cascade
from .detector import detect_faces, detection_hit_rate
from .haar import WINDOW, evaluate_features_on_patches, feature_pool

STAGE_SIZES = (4, 8, 16, 24)

KERNELS = (
    KernelInfo("IntegralImage", "integral pyramids per scan scale",
               ParallelismClass.TLP),
    KernelInfo("ExtractFaces", "cascaded sliding-window classification",
               ParallelismClass.TLP),
    KernelInfo("Merge", "grouping of overlapping detections",
               ParallelismClass.ILP),
)


@lru_cache(maxsize=8)
def trained_cascade(variant: int = 0) -> Cascade:
    """Train (and cache) the cascade for one training-set variant."""
    patches, labels = face_training_set(variant, n_pos=150, n_neg=500)
    features = feature_pool(stride=3, min_cell=2, max_cell=6)
    values = evaluate_features_on_patches(features, patches)
    return train_cascade(values, labels, features, stage_sizes=STAGE_SIZES)


def setup(size: InputSize, variant: int):
    """Train/fetch the cascade and build the scene (both untimed).

    The original benchmark ships a pre-trained detector; only detection
    is measured.
    """
    return (trained_cascade(variant), face_scene(size, variant))


def run(workload, profiler: KernelProfiler) -> Mapping[str, object]:
    """Detect the synthetic faces planted in a prepared scene."""
    cascade, scene = workload
    detections = detect_faces(cascade, scene.image, profiler=profiler)
    return {
        "detections": len(detections),
        "true_faces": len(scene.true_boxes),
        "hit_rate": detection_hit_rate(detections, scene.true_boxes),
    }


def parallelism_models(size: InputSize) -> List[ParallelismEstimate]:
    """Work/span models for the face-detection kernels.

    Face detection is absent from Table IV; section III classifies it as
    compute-intensive with feature-granularity irregularity.  Windows are
    independent (wide TLP) but each window's cascade walk is a serial
    stump chain; merging is a mostly serial greedy pass.
    """
    rows, cols = size.shape
    windows = max(1, ((rows - WINDOW) // 2) * ((cols - WINDOW) // 2)) * 4
    integral = Seq(
        ParMap(rows, Chain(cols, Op(1))), ParMap(cols, Chain(rows, Op(1)))
    )
    scan = ParMap(windows, Chain(sum(STAGE_SIZES) // 2, Op(10)))
    merge = Chain(40, Op(6))
    estimates = []
    for name, model in (
        ("IntegralImage", integral),
        ("ExtractFaces", scan),
        ("Merge", merge),
    ):
        info = next(k for k in KERNELS if k.name == name)
        estimates.append(
            ParallelismEstimate(
                benchmark="face",
                kernel=name,
                parallelism=model.parallelism,
                parallelism_class=info.parallelism_class,
                work=model.work,
                span=model.span,
            )
        )
    return estimates


BENCHMARK = Benchmark(
    name="Face Detection",
    slug="face",
    area=ConcentrationArea.IMAGE_UNDERSTANDING,
    description="Identify Faces in an Image",
    characteristic=Characteristic.COMPUTE_INTENSIVE,
    application_domain="Video Surveillance, Image Database Management",
    kernels=KERNELS,
    setup=setup,
    run=run,
    parallelism=parallelism_models,
)
