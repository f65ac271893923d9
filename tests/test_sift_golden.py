"""Golden digests of SIFT feature extraction.

The digests pin the keypoints and features of the benchmark's scenes
across commits, byte for byte, in canonical JSON: sorted keys, no
whitespace, every float as the hex of its exact float64 bytes and every
descriptor as the hex of its raw bytes.
"""

import numpy as np
import pytest

from repro.core.inputs import image
from repro.core.types import InputSize
from repro.sift import extract_features

from .golden import canonical, digest, hex64

#: sha256 of :func:`features_vector` per (size, variant).
GOLDEN_SIFT_SHA256 = {
    ("SQCIF", 0): "ee6a65f35be36a0306cf1a5ad6de7e0d3e2f16b18abd073dac1c55d49a8e7ecc",
    ("SQCIF", 1): "0123545cd8afcf19e54d1224958a3ac75cc950d10b5a9e6640ed93f7a4e5f30c",
    ("SQCIF", 2): "d2d71928fee59604d44c19f2ecded2644c51bbb95f764773d496ef16362897fc",
    ("SQCIF", 3): "2393e0fa62b0a4d31d1c358b244c2e67d661ca3f0e826edadd396c67a10aecd1",
    ("SQCIF", 4): "0338545a3dcd89d58256ad61a741381e5acc191e591d291357255ff2f074ed44",
    ("QCIF", 0): "bec5291e3e57f208b4a9e711b752f647864ddd9ac77769ba2c874b40c70e9e17",
    ("QCIF", 1): "4346463cbb76148f7953e0ac8f404554e38ef2edbc017d237d9f28cfa1f16be4",
    ("QCIF", 2): "536ecd467c5f63237fd0bfa92ea245d1b193ce99bf3cfb6f1508655f5f6f1032",
    ("QCIF", 3): "307eb6195fb1e0e5353b0e310b8d142f3e05056e5b480abfb7d94662616d27b5",
    ("QCIF", 4): "5f33ab44afc88f82090708cc0e7f9f15c636fa34a7c792a4920805ac22f428c4",
    ("CIF", 0): "24c50d1a2a21704dd508a501a0acad8f9fd895d45d50d42227c95c1e53f9ec40",
    ("CIF", 1): "39d8863ba92ab9182783f44f7d08e082acb88a67937df98fee204d93413f3f5f",
    ("CIF", 2): "2401fc1833a26176e561057702ecaf3e51f29d79d8404d4964a29c6b3b2e9cdb",
    ("CIF", 3): "ce1053c308ce3dbc2ca7dbcd7a90af4ad8ee214bdd1f7a7f878f823217585b0b",
    ("CIF", 4): "4dd6b9649d524943300c8bb283d8251ef0c01854f251521f66a416715b11c435",
    ("VGA", 0): "20dd1f0b8984c621f5454863b16cb936c613786948075ff5a75cff0dc833f836",
}


def _keypoint_doc(kp) -> dict:
    return {
        "col": hex64(kp.col),
        "octave": kp.octave,
        "orientation": hex64(kp.orientation),
        "response": hex64(kp.response),
        "row": hex64(kp.row),
        "scale_index": kp.scale_index,
        "sigma": hex64(kp.sigma),
    }


def features_vector(result) -> str:
    """Canonical JSON of a :class:`~repro.sift.SiftResult`."""
    doc = {
        "features": [
            {
                "descriptor": np.asarray(
                    f.descriptor, dtype=np.float64).tobytes().hex(),
                "keypoint": _keypoint_doc(f.keypoint),
            }
            for f in result.features
        ],
        "keypoints": [_keypoint_doc(kp) for kp in result.keypoints],
    }
    return canonical(doc)


def features_digest(size: InputSize, variant: int) -> str:
    result = extract_features(image(size, variant, salt="sift"))
    return digest(features_vector(result))


@pytest.mark.parametrize(
    "size, variant", sorted(GOLDEN_SIFT_SHA256),
    ids=lambda v: str(v))
def test_digest(size, variant):
    assert features_digest(InputSize[size], variant) == \
        GOLDEN_SIFT_SHA256[(size, variant)]
