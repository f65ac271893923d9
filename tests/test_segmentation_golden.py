"""Golden vectors of normalized-cuts segmentation.

For every (size, variant) region image of the benchmark this pins the
output of ``segment_image(segmentation_image(size, variant, n_regions=4)[0])``
as recorded with the tql2-based eigensolver, and lets a rewrite of the
eigensolver change rounding but nothing else:

* exactly: the sha256 of the working-grid labels after relabelling by
  first appearance (so only the partition is pinned, not the label ids),
  and the purity as the ``0x`` hex of its float64 bytes;
* within a tolerance: the four Ritz values the segmentation's
  eigensolve returns, each within 1e-12 absolute of the recorded one,
  and each embedding column equal to the recorded one up to sign,
  ``|cos| >= 1 - 1e-9``.

The recorded embedding columns are stored unit-normalized as float32 in
``data/segmentation_embeddings.npz`` (key ``"<size>-<variant>"``);
float32 rounding moves ``1 - |cos|`` by less than 1e-15.  A tracemalloc
guard bounds the memory one CIF segmentation may take.
"""

import os
import tracemalloc

import numpy as np
import pytest

from repro.core.inputs import segmentation_image
from repro.core.types import InputSize
from repro.segmentation import ncuts

from .golden import array_doc, canonical, digest, from_hex64, hex64

EIGENVALUE_ATOL = 1e-12
COSINE_TOL = 1e-9

#: tracemalloc peak of one CIF ``segment_image`` with the tql2-based
#: eigensolver, plus the 10% a rewrite may add.
PEAK_BYTES = int(12_116_309 * 1.10)

EMBEDDINGS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "data", "segmentation_embeddings.npz")

#: (labels sha256, purity hex, Ritz value hexes) per (size, variant).
GOLDEN_SEGMENTATION = {
    ("SQCIF", 0): (
        "d6415cd15eca59af6e6776d827fb93e7c2e669c39b71c44457dd34d28a37b4fe",
        "0xabaaaaaaaa9aef3f",
        ("0xf9bfadee3d0aaf3c", "0xfed4280e21e0063f",
         "0xb83e5a7b77df253f", "0x4fc14ede2970433f"),
    ),
    ("SQCIF", 1): (
        "7a31e03b30901e42b314808060434c1990fe11634e46a420588596b0ee5f0781",
        "0x00000000008cef3f",
        ("0x00000000d05fb6bc", "0x4165776b552d343f",
         "0xe497069b9812533f", "0xa19b90e410875c3f"),
    ),
    ("SQCIF", 2): (
        "97287294eda0f6128c0654c5df7c494eb24e55bfedf521c24822f6cec6ca4874",
        "0x555555555597ef3f",
        ("0xd56e13478a578ebc", "0xd87b82cef7bf063f",
         "0x73040e62e507403f", "0xc1c236f8e55f453f"),
    ),
    ("SQCIF", 3): (
        "beede44f3f83ac2d27c5af55620c40a93a7990c0b657dcae23254588c60effde",
        "0x55555555557bef3f",
        ("0x9892bf3e843bb73c", "0xd31fdf9643e7e73e",
         "0x3d660e1371f24a3f", "0xc13bef448cf6693f"),
    ),
    ("SQCIF", 4): (
        "a8ad7716f95f63cc23920f9729ea54d9c9c65f09111677d5b14511d56e14ed38",
        "0x000000000084ef3f",
        ("0x000000da17f6603d", "0xaa0dfa4b86f0003f",
         "0xd1e08c7e0458563f", "0x32a1acb205cf5a3f"),
    ),
    ("QCIF", 0): (
        "f86e3fafb428d43084e383e473d927c2edc8b14cf7860c493b3b4240485e6b15",
        "0x5d74d145177def3f",
        ("0x00d8a39176a6a13c", "0x216b4c843d7df93e",
         "0xa6b86627fceb393f", "0xe0deeeaaac65513f"),
    ),
    ("QCIF", 1): (
        "b3d38aa3c5066197d2905a05fdb4f8d75365f6e1f525d32d26dce344373822f4",
        "0x6f6748ccdb99ef3f",
        ("0x844be6d54f71c63c", "0xe388e6820884dc3e",
         "0x3b54860de4d5163f", "0x3b021d855bc2503f"),
    ),
    ("QCIF", 2): (
        "722d4331d2bc1baf40e00f6b2789274bbb60e996607b417006f1dc0e492a1e5c",
        "0x4362dece9098ef3f",
        ("0x000000000066a43c", "0xca4400303ed8283f",
         "0x33a65edb6939413f", "0x473dd69e9cb5483f"),
    ),
    ("QCIF", 3): (
        "4f589417e3b8967823581fc8f97e7edf3e52d2d846b7a2bd707d0b0dcaf4f703",
        "0xbd9d21316f07ed3f",
        ("0x00000000be41b0bc", "0x094ee11f4f2b353f",
         "0x73c124bcdb0c453f", "0xdb16b7400483473f"),
    ),
    ("QCIF", 4): (
        "453917b0d1f145aea795c44ec75b2c4964be22422e4885b17d7fb51ed0e9a844",
        "0x46175d74d185ef3f",
        ("0x00000000502fb23c", "0x2674bfabf277f93e",
         "0x1b8aa3ed4f30423f", "0x6cbae0fdc7dc533f"),
    ),
    ("CIF", 0): (
        "71d69c850bf594ffc6915bda3ad736c2b2571fbcf3f2ccd5aa35d9fa40fb5ff2",
        "0xbf52a0d6af8cef3f",
        ("0x0030ad0d2b9c40bc", "0xa8d50f2e7e3be23e",
         "0xba1d70811d11283f", "0xe5509164df6f343f"),
    ),
    ("CIF", 1): (
        "7fe047aaa98f98d3450462364531005b287af33ebb1fb2fe80a116733015e964",
        "0xe6ed0c89799bef3f",
        ("0x0000003ee3feaabc", "0xe8c308b2b100a23e",
         "0x20f426ba179b253f", "0xea80929c4455393f"),
    ),
    ("CIF", 2): (
        "c4b26fc6148e1c5911f36b9bb1a9ee6048ee0f90a9746231411a572d2908d941",
        "0x4b815abf52b0ef3f",
        ("0x000000403f41853c", "0xb49dd6b6c905993e",
         "0xfedca742ac0dff3e", "0x111eab7d96492a3f"),
    ),
    ("CIF", 3): (
        "5945494612414c9f5d20ed6e320c3831946de6e2c07182f2345b15c7b4fe9d07",
        "0xe9a28b2eba78ef3f",
        ("0xe5522e68ddd0e93c", "0x004e61288e74c73e",
         "0x8d72c9b4cae0223f", "0x67e481901a4d363f"),
    ),
    ("CIF", 4): (
        "a38110cd8649c11aad8e19143d0882e525cd9f86b5fc4ecf73b75518d5278349",
        "0x15a8f52b058aef3f",
        ("0x9de184d58abd833c", "0xbdc5f886820f173e",
         "0x3b667ca87b260d3f", "0xf60519ab9055273f"),
    ),
}


def first_appearance(labels: np.ndarray) -> np.ndarray:
    """Relabel so that label ids count up in order of first appearance."""
    ids, first = np.unique(labels.ravel(), return_index=True)
    mapping = np.empty(ids.max() + 1, dtype=np.int64)
    mapping[ids[np.argsort(first)]] = np.arange(ids.size)
    return mapping[labels]


def _segment(size_name: str, variant: int, monkeypatch):
    """Run ``segment_image``, capturing the Ritz values of its eigensolve."""
    solve = ncuts.smallest_eigenvectors_operator
    captured = []

    def recording(*args, **kwargs):
        values, vectors = solve(*args, **kwargs)
        captured.append(values)
        return values, vectors

    monkeypatch.setattr(ncuts, "smallest_eigenvectors_operator", recording)
    image, truth = segmentation_image(InputSize[size_name], variant,
                                      n_regions=4)
    result = ncuts.segment_image(image)
    (values,) = captured
    return result, ncuts.label_purity(result.labels, truth), values


@pytest.fixture(scope="module")
def embeddings():
    with np.load(EMBEDDINGS) as data:
        return {key: data[key].astype(np.float64) for key in data.files}


@pytest.mark.parametrize("size_name,variant", sorted(GOLDEN_SEGMENTATION))
def test_segmentation_golden(size_name, variant, embeddings, monkeypatch):
    labels_sha, purity_hex, value_hexes = \
        GOLDEN_SEGMENTATION[(size_name, variant)]
    result, purity, values = _segment(size_name, variant, monkeypatch)
    labels = first_appearance(result.grid_labels)
    assert digest(canonical(array_doc(labels))) == labels_sha
    assert hex64(purity) == purity_hex
    expected = np.array([from_hex64(h) for h in value_hexes])
    np.testing.assert_allclose(values, expected, rtol=0,
                               atol=EIGENVALUE_ATOL)
    recorded = embeddings[f"{size_name}-{variant}"]
    assert result.eigenvectors.shape == recorded.shape
    columns = result.eigenvectors / np.linalg.norm(result.eigenvectors,
                                                   axis=0)
    cosines = np.abs((columns * recorded).sum(axis=0)) / \
        np.linalg.norm(recorded, axis=0)
    assert (cosines >= 1.0 - COSINE_TOL).all(), 1.0 - cosines


def test_segmentation_peak_memory():
    image, _truth = segmentation_image(InputSize.CIF, 0, n_regions=4)
    tracemalloc.start()
    try:
        ncuts.segment_image(image)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= PEAK_BYTES, f"peak {peak / 1e6:.2f} MB"
