"""Golden digests and the memory bound of face-cascade training.

The digests pin the trained cascade of every input variant across
commits, byte for byte, in canonical JSON: sorted keys, no whitespace,
and every number as the hex of its exact float64 bytes.
"""

import tracemalloc

import pytest

from repro.core.backend import use_backend
from repro.face import trained_cascade

from .golden import canonical, digest, hex64

#: sha256 of :func:`cascade_vector` per training-set variant.
GOLDEN_CASCADE_SHA256 = {
    0: "99102644576b8fddc5fe20493568901c9f638ae6c0c0b161c29a2753da25eabb",
    1: "e80793617e9b536633a8280abae5bfc9d94be2548ac3b32a2be9c45dd8272204",
    2: "23a7df929433a80943fb9552201992b2142abd9ac2c3d145cfa9da7c00c78ccd",
    3: "4f61568b5da2973c838584fd13fabb03c96b86f02373fd83360dcdafbdd3e412",
    4: "0e1be90b25d39aa26bc5d57908a4c2ca15ea8441ed1d4ec779628f8ff70dbb78",
}

#: tracemalloc peak allowed while training one cascade with an empty cache.
TRAINING_PEAK_BYTES = 14_000_000


def cascade_vector(cascade) -> str:
    """Canonical JSON of a cascade: sorted keys, no whitespace, and every
    number as the hex of its exact float64 bytes."""
    doc = {
        "stages": [
            {
                "stage_threshold": hex64(stage.stage_threshold),
                "stumps": [
                    {
                        "alpha": hex64(stump.alpha),
                        "feature_index": hex64(stump.feature_index),
                        "polarity": hex64(stump.polarity),
                        "threshold": hex64(stump.threshold),
                    }
                    for stump in stage.stumps
                ],
            }
            for stage in cascade.stages
        ]
    }
    return canonical(doc)


def cascade_digest(cascade) -> str:
    return digest(cascade_vector(cascade))


class TestGoldenCascade:
    @pytest.mark.parametrize("variant", sorted(GOLDEN_CASCADE_SHA256))
    def test_digest(self, variant):
        assert cascade_digest(trained_cascade(variant)) == \
            GOLDEN_CASCADE_SHA256[variant]

    def test_digest_independent_of_backend(self):
        trained_cascade.cache_clear()
        try:
            with use_backend("ref"):
                cascade = trained_cascade(0)
        finally:
            trained_cascade.cache_clear()
        assert cascade_digest(cascade) == GOLDEN_CASCADE_SHA256[0]


def test_training_peak_memory():
    trained_cascade.cache_clear()
    tracemalloc.start()
    try:
        trained_cascade(0)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < TRAINING_PEAK_BYTES, f"peak {peak / 1e6:.1f} MB"
