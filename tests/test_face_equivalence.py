"""Batched face-training loops against per-patch and per-column loops.

The batched feature evaluation and the blocked stump search must produce
exactly the bytes of the straightforward loops kept here as references,
also on adversarial inputs the training set never produces: constant
patches, duplicate columns, repeated values and uniform weights.
"""

import numpy as np
import pytest

from repro.face import (
    HaarFeature,
    best_stump,
    evaluate_features_on_patches,
    feature_pool,
    make_feature,
)
from repro.face.adaboost import column_order
from repro.face.haar import FEATURE_TYPES
from repro.imgproc.integral import integral_image


def _loop_features(features, patches):
    """Reference: per-patch normalization, integral image and
    :meth:`HaarFeature.evaluate` call for every (patch, feature)."""
    out = np.empty((patches.shape[0], len(features)))
    for i, patch in enumerate(np.asarray(patches, dtype=np.float64)):
        std = patch.std()
        normalized = (patch - patch.mean()) / (std if std > 1e-9 else 1.0)
        ii = integral_image(normalized)
        for j, feature in enumerate(features):
            out[i, j] = feature.evaluate(ii)
    return out


class TestFeatureEquivalence:
    def _pool(self):
        pool = feature_pool(stride=3, min_cell=2, max_cell=6)
        assert {f.kind for f in pool} == set(FEATURE_TYPES)
        return pool

    def _patches(self):
        rng = np.random.default_rng(12)
        return np.concatenate([
            rng.random((20, 16, 16)),
            rng.normal(0.0, 50.0, (5, 16, 16)),
            1e6 + rng.random((3, 16, 16)),          # cancellation-prone
            np.full((1, 16, 16), 0.7),              # std == 0 branch
            0.25 + 1e-12 * rng.random((1, 16, 16)),  # std <= 1e-9 branch
            np.zeros((1, 16, 16)),
            np.round(rng.random((4, 16, 16)) * 3),  # repeated values
        ])

    def test_byte_equal_to_loop(self):
        pool = self._pool()
        patches = self._patches()
        batched = evaluate_features_on_patches(pool, patches)
        assert batched.shape == (patches.shape[0], len(pool))
        assert batched.dtype == np.float64
        assert batched.tobytes() == _loop_features(pool, patches).tobytes()

    def test_every_kind_and_extreme_geometry(self):
        features = [make_feature(kind, 0, 0, 2, 2) for kind in FEATURE_TYPES]
        features += [
            make_feature("edge_h", 0, 0, 16, 8),
            make_feature("line_v", 1, 15, 5, 1),
            make_feature("quad", 8, 8, 4, 4),
            HaarFeature("edge_h", ((0, 0, 16, 16, 0.5),)),
        ]
        patches = self._patches()
        assert evaluate_features_on_patches(features, patches).tobytes() == \
            _loop_features(features, patches).tobytes()

    def test_integer_patches_and_single_patch(self):
        pool = self._pool()
        patch = np.arange(256, dtype=np.int64).reshape(1, 16, 16)
        assert evaluate_features_on_patches(pool, patch).tobytes() == \
            _loop_features(pool, patch).tobytes()

    def test_no_features_or_patches(self):
        assert evaluate_features_on_patches([], np.ones((3, 16, 16))).shape \
            == (3, 0)
        assert evaluate_features_on_patches(self._pool()[:4],
                                            np.ones((0, 16, 16))).shape \
            == (0, 4)


def _loop_best_stump(values, labels, weights):
    """Reference: argsort, prefix sums and argmin one column at a time;
    a later candidate wins only with a strictly lower error."""
    n, m = values.shape
    total_pos = float(weights[labels == 1].sum())
    total_neg = float(weights[labels == 0].sum())
    best = (0, 0.0, 1, float("inf"))
    for j in range(m):
        order = np.argsort(values[:, j], kind="stable")
        v = values[order, j]
        w = weights[order]
        lab = labels[order]
        pos_below = np.cumsum(w * (lab == 1))
        neg_below = np.cumsum(w * (lab == 0))
        err_pos = pos_below + (total_neg - neg_below)
        err_neg = neg_below + (total_pos - pos_below)
        i_pos = int(np.argmin(err_pos))
        i_neg = int(np.argmin(err_neg))
        for i, polarity, err in (
            (i_pos, 1, float(err_pos[i_pos])),
            (i_neg, -1, float(err_neg[i_neg])),
        ):
            if err < best[3]:
                threshold = (
                    (v[i] + v[i + 1]) / 2.0 if i + 1 < n else v[i] + 1e-9
                )
                best = (j, float(threshold), polarity, err)
    return best


def _bits(stump):
    """A stump tuple with its floats replaced by their exact bytes."""
    j, threshold, polarity, err = stump
    return (j, np.float64(threshold).tobytes(), polarity,
            np.float64(err).tobytes())


def _stump_cases():
    rng = np.random.default_rng(7)
    n = 90
    labels = (rng.random(n) < 0.3).astype(np.int64)
    random_w = rng.random(n)
    random_w /= random_w.sum()
    uniform_w = np.full(n, 1.0 / n)
    noise = rng.normal(size=(n, 150))
    informative = labels + rng.normal(0.0, 0.4, n)
    cases = {
        "random": (noise, labels, random_w),
        "uniform-weights": (noise, labels, uniform_w),
        # Identical columns tie exactly: the lowest index must win, also
        # across block boundaries.
        "duplicate-columns": (
            np.repeat(informative[:, None], 140, axis=1), labels, uniform_w
        ),
        "duplicate-across-blocks": (
            np.column_stack([noise[:, :70], informative,
                             noise[:, 70:], informative]),
            labels, random_w,
        ),
        # Few distinct values: runs of equal values and many equal errors.
        "repeated-values": (
            rng.integers(0, 3, size=(n, 130)).astype(np.float64),
            labels, uniform_w,
        ),
        "constant-columns": (np.ones((n, 70)), labels, uniform_w),
        # Mirrored columns make the +1 and -1 polarities tie.
        "mirrored": (
            np.column_stack([-informative, informative]), labels, uniform_w
        ),
        # err(+1) at the first gap equals err(-1) at the third: +1 wins.
        "polarity-tie": (np.repeat(np.arange(4.0)[:, None], 2, axis=1),
                         np.array([0, 1, 1, 0]), np.full(4, 0.25)),
        "single-column": (informative[:, None], labels, random_w),
        "two-examples": (np.array([[0.0, 1.0], [1.0, 0.0]]),
                         np.array([0, 1]), np.array([0.5, 0.5])),
    }
    return cases


class TestStumpEquivalence:
    @pytest.mark.parametrize("case", sorted(_stump_cases()))
    def test_same_tuple_as_loop(self, case):
        values, labels, weights = _stump_cases()[case]
        expected = _bits(_loop_best_stump(values, labels, weights))
        assert _bits(best_stump(values, labels, weights)) == expected
        order = column_order(values)
        assert _bits(best_stump(values, labels, weights, order)) == expected

    def test_column_order_is_stable_argsort(self):
        values = np.random.default_rng(3).integers(0, 4, size=(50, 140)) \
            .astype(np.float64)
        order = column_order(values)
        assert order.dtype == np.int32
        assert order.shape == (140, 50)
        for j in range(values.shape[1]):
            assert np.array_equal(
                order[j], np.argsort(values[:, j], kind="stable")
            )

    def test_no_columns(self):
        assert best_stump(np.empty((4, 0)), np.array([0, 1, 0, 1]),
                          np.full(4, 0.25)) == (0, 0.0, 1, float("inf"))
