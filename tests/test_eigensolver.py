"""The operator eigensolver: inverse iteration and the growing Krylov basis.

``smallest_eigenvectors_operator`` keeps one Lanczos basis and extends it
as the Krylov dimension doubles; the Ritz values come from QL without
eigenvectors and only the wanted Ritz vectors are formed, by inverse
iteration on the tridiagonal projection.
"""

import numpy as np
import pytest

from repro.core.inputs import segmentation_image
from repro.core.types import InputSize
from repro.linalg.eigen import (
    smallest_eigenvectors_operator,
    tridiagonal_eigh,
    tridiagonal_inverse_iteration,
)
from repro.segmentation.graph import GridAffinity
from repro.segmentation.ncuts import segment_image

EPS = np.finfo(np.float64).eps


def _dense(diag, off):
    t = np.diag(np.asarray(diag, dtype=np.float64))
    if len(off):
        t += np.diag(off, 1) + np.diag(off, -1)
    return t


def _wilkinson_plus(n=21):
    """W21+: diagonal |10 - i|, unit off-diagonal; its largest
    eigenvalues come in pairs equal to about 14 digits."""
    half = (n - 1) // 2
    return np.abs(np.arange(n) - half).astype(np.float64), np.ones(n - 1)


TRIDIAGONALS = {
    "random": (np.random.default_rng(3).standard_normal(40),
               np.random.default_rng(4).standard_normal(39)),
    "diagonal": (np.array([3.0, 1.0, 2.0, 1.0, -0.5, 2.0]), np.zeros(5)),
    "k1": (np.array([0.7]), np.zeros(0)),
    "wilkinson21": _wilkinson_plus(),
}


@pytest.mark.parametrize("name", sorted(TRIDIAGONALS))
def test_inverse_iteration_against_tridiagonal_eigh(name):
    diag, off = TRIDIAGONALS[name]
    t = _dense(diag, off)
    values, _vectors = tridiagonal_eigh(diag, off)
    vectors = tridiagonal_inverse_iteration(diag, off, values, seed=5)
    assert vectors.shape == (diag.size, diag.size)
    norm = np.linalg.norm(t, 2)
    residuals = np.linalg.norm(t @ vectors - vectors * values, axis=0)
    assert residuals.max() <= 100 * EPS * norm, residuals.max()
    gram = vectors.T @ vectors
    assert np.abs(gram - np.eye(diag.size)).max() <= 100 * EPS * diag.size


def test_inverse_iteration_wanted_subset():
    diag, off = TRIDIAGONALS["random"]
    values, full = tridiagonal_eigh(diag, off)
    vectors = tridiagonal_inverse_iteration(diag, off, values[:4])
    cosines = np.abs(np.sum(vectors * full[:, :4], axis=0))
    np.testing.assert_allclose(cosines, 1.0, rtol=0, atol=1e-12)


def test_operator_extends_one_basis():
    """With a tolerance no Ritz pair meets, the dimension doubles
    40 -> 80 -> 160 -> 200 (the cap) with four residual checks; the
    operator is applied once per basis step plus ``count`` times per
    check.  Rebuilding the basis at each dimension would cost
    40 + 80 + 160 + 200 steps."""
    a = np.random.default_rng(7).standard_normal((300, 300))
    sym = a + a.T
    calls = []

    def matvec(vec):
        calls.append(1)
        return sym @ vec

    count = 3
    values, vectors = smallest_eigenvectors_operator(
        matvec, 300, count, residual_tol=0.0, max_krylov=200)
    assert len(calls) == 200 + count * 4
    np.testing.assert_allclose(values, np.linalg.eigvalsh(sym)[:count],
                               rtol=0, atol=1e-8)
    assert vectors.shape == (300, count)


@pytest.mark.parametrize("size_name,variant,k_final,checks", [
    ("SQCIF", 0, 160, 3),
    ("CIF", 4, 320, 4),
])
def test_segmentation_affinity_matvecs(size_name, variant, k_final, checks,
                                       monkeypatch):
    """One affinity application for the degrees, then ``k_final`` basis
    steps and four per residual check (293 and 617 when each doubling
    rebuilt the basis)."""
    calls = []
    matvec = GridAffinity.matvec

    def counting(self, vec):
        calls.append(1)
        return matvec(self, vec)

    monkeypatch.setattr(GridAffinity, "matvec", counting)
    image, _truth = segmentation_image(InputSize[size_name], variant,
                                       n_regions=4)
    segment_image(image)
    assert len(calls) == 1 + k_final + 4 * checks
