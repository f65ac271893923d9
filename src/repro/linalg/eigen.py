"""Symmetric eigensolvers: cyclic Jacobi, tridiagonal QL and Lanczos.

The segmentation benchmark's "Eigensolve" kernel computes the smallest
eigenvectors of a (large, sparse-structured) normalized Laplacian.  We
provide a dense cyclic-Jacobi solver for small systems and, for the
Laplacian itself, one Lanczos basis with full reorthogonalization that
grows in place as the Krylov dimension doubles.  Its tridiagonal
projection is reduced by QL for the Ritz values only, and inverse
iteration forms just the wanted Ritz vectors.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np


def jacobi_eigh(a: np.ndarray, tol: float = 1e-12,
                max_sweeps: int = 100) -> Tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Returns ``(eigenvalues, eigenvectors)`` in ascending eigenvalue order
    with eigenvectors in columns: ``a @ v[:, i] == w[i] * v[:, i]``.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got {a.shape}")
    if not np.allclose(a, a.T, atol=1e-10 * max(1.0, float(np.abs(a).max()))):
        raise ValueError("matrix is not symmetric")
    n = a.shape[0]
    work = a.copy()
    vectors = np.eye(n)
    scale = max(1.0, float(np.abs(a).max()))
    for _sweep in range(max_sweeps):
        off = np.sqrt(np.sum(np.tril(work, -1) ** 2))
        if off <= tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = work[p, q]
                if abs(apq) <= tol * scale / max(1, n):
                    continue
                theta = (work[q, q] - work[p, p]) / (2.0 * apq)
                t = np.sign(theta) / (abs(theta) + np.hypot(1.0, theta))
                if theta == 0.0:
                    t = 1.0
                c = 1.0 / np.hypot(1.0, t)
                s = c * t
                rot_p = work[:, p].copy()
                rot_q = work[:, q].copy()
                work[:, p] = c * rot_p - s * rot_q
                work[:, q] = s * rot_p + c * rot_q
                rot_p = work[p, :].copy()
                rot_q = work[q, :].copy()
                work[p, :] = c * rot_p - s * rot_q
                work[q, :] = s * rot_p + c * rot_q
                vec_p = vectors[:, p].copy()
                vectors[:, p] = c * vec_p - s * vectors[:, q]
                vectors[:, q] = s * vec_p + c * vectors[:, q]
    values = np.diag(work).copy()
    order = np.argsort(values)
    return values[order], vectors[:, order]


def _tql(d: List[float], e: List[float],
         z: Optional[np.ndarray] = None) -> None:
    """Implicit-shift QL on a symmetric tridiagonal matrix, in place.

    ``d`` holds the ``n`` diagonal entries and ``e`` the ``n`` couplings
    (``e[i]`` joins ``i`` and ``i + 1``; ``e[n - 1]`` is zero), both as
    Python floats; on return ``d`` holds the eigenvalues, unsorted.  When
    the accumulator ``z`` is given, every rotation is also applied to its
    rows, so a ``z`` that starts as the identity ends with row ``i`` the
    eigenvector of ``d[i]``.
    """
    n = len(d)
    hypot = math.hypot
    for l in range(n):
        for _iteration in range(50):
            # Find the end of the unreduced block starting at l.
            m = l
            while m < n - 1:
                if abs(e[m]) <= 1e-15 * (abs(d[m]) + abs(d[m + 1])):
                    break
                m += 1
            if m == l:
                break
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = hypot(g, 1.0)
            g = d[m] - d[l] + e[l] / (g + (r if g >= 0 else -r))
            s, c = 1.0, 1.0
            p = 0.0
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    d[i + 1] -= p
                    e[m] = 0.0
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
                if z is not None:
                    z[i], z[i + 1] = (c * z[i] - s * z[i + 1],
                                      s * z[i] + c * z[i + 1])
            else:
                d[l] -= p
                e[l] = g
                e[m] = 0.0


def tridiagonal_eigh(diag: np.ndarray,
                     off: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric tridiagonal matrix (QL + shifts).

    ``diag`` holds the ``n`` diagonal entries, ``off`` the ``n - 1``
    sub-diagonal entries.  Classic ``tql2`` with implicit Wilkinson-style
    shifts: O(n^2) work, returns ascending eigenvalues and eigenvectors in
    columns.
    """
    d = np.asarray(diag, dtype=np.float64).tolist()
    n = len(d)
    off = np.asarray(off, dtype=np.float64).ravel()
    if n > 1 and off.size != n - 1:
        raise ValueError(f"off-diagonal must have {n - 1} entries")
    e = off[: max(n - 1, 0)].tolist() + [0.0]
    z = np.eye(n)
    _tql(d, e, z)
    order = np.argsort(d)
    return np.array(d)[order], z[order].T


def _shifted_solver(diag: Sequence[float], off: Sequence[float],
                    shift: float, tiny: float
                    ) -> Callable[[List[float]], List[float]]:
    """``b -> (T - shift I)^-1 b`` for the symmetric tridiagonal ``T``.

    Gaussian elimination with partial pivoting (LAPACK's ``gttrf`` /
    ``gttrs`` layout: multipliers ``dl``, pivots ``d``, two
    superdiagonals ``du``/``du2``).  Pivots smaller than ``tiny`` are
    replaced by ``tiny``, so an exact eigenvalue shift still solves.
    """
    k = len(diag)
    d = [value - shift for value in diag]
    du = list(off)
    dl = list(off)
    du2 = [0.0] * k
    swapped = [False] * k
    for i in range(k - 1):
        if abs(d[i]) >= abs(dl[i]):
            if abs(d[i]) < tiny:
                d[i] = math.copysign(tiny, d[i])
            fact = dl[i] / d[i]
            dl[i] = fact
            d[i + 1] -= fact * du[i]
        else:
            fact = d[i] / dl[i]
            d[i] = dl[i]
            dl[i] = fact
            du[i], d[i + 1] = d[i + 1], du[i] - fact * d[i + 1]
            if i < k - 2:
                du2[i] = du[i + 1]
                du[i + 1] = -fact * du[i + 1]
            swapped[i] = True
    d = [value if abs(value) >= tiny else math.copysign(tiny, value)
         for value in d]

    def solve(b: List[float]) -> List[float]:
        x = list(b)
        for i in range(k - 1):
            if swapped[i]:
                x[i], x[i + 1] = x[i + 1], x[i] - dl[i] * x[i + 1]
            else:
                x[i + 1] -= dl[i] * x[i]
        x[k - 1] /= d[k - 1]
        if k > 1:
            x[k - 2] = (x[k - 2] - du[k - 2] * x[k - 1]) / d[k - 2]
        for i in range(k - 3, -1, -1):
            x[i] = (x[i] - du[i] * x[i + 1] - du2[i] * x[i + 2]) / d[i]
        return x

    return solve


def tridiagonal_inverse_iteration(diag: Sequence[float],
                                  off: Sequence[float],
                                  values: Sequence[float],
                                  seed: int = 0) -> np.ndarray:
    """Eigenvectors of a symmetric tridiagonal matrix for known eigenvalues.

    ``diag``/``off`` are as in :func:`tridiagonal_eigh`; returns one unit
    vector per entry of ``values``, in columns.  Each comes from three
    steps of inverse iteration on ``T - value * I`` started from a
    ``seed``-drawn vector, with tiny pivots replaced by ``eps * |T|``.
    Every iterate is orthogonalized against the vectors already found, so
    clustered values still give independent vectors.
    """
    diag = [float(value) for value in diag]
    off = [float(value) for value in off]
    k = len(diag)
    if len(off) != max(k - 1, 0):
        raise ValueError(f"off-diagonal must have {max(k - 1, 0)} entries")
    padded = [0.0] + [abs(value) for value in off] + [0.0]
    norm = max(abs(diag[i]) + padded[i] + padded[i + 1] for i in range(k))
    eps = float(np.finfo(np.float64).eps)
    tiny = eps * norm if norm > 0.0 else eps
    rng = np.random.default_rng(seed)
    found = np.empty((len(values), k))
    for j, value in enumerate(values):
        solve = _shifted_solver(diag, off, float(value), tiny)
        x = rng.standard_normal(k)
        for _step in range(3):
            x = np.array(solve(x.tolist()))
            for _pass in range(2):
                x -= (found[:j] @ x) @ found[:j]
            x /= np.linalg.norm(x)
        found[j] = x
    return found.T


class _KrylovBasis:
    """A Lanczos basis with full reorthogonalization, grown in place.

    The orthonormal basis vectors are the rows of ``q``; ``alphas`` and
    ``betas`` hold the tridiagonal projection (``betas[j]`` couples steps
    ``j`` and ``j + 1``).  :meth:`extend` continues the recurrence where
    it stopped, so a larger Krylov dimension costs only the operator
    applications of its new steps.
    """

    def __init__(self, matvec: Callable[[np.ndarray], np.ndarray], n: int,
                 seed: int = 0, tol: float = 1e-10) -> None:
        start = np.random.default_rng(seed).standard_normal(n)
        self._matvec = matvec
        self._tol = tol
        self._next = start / np.linalg.norm(start)
        self.q = np.empty((0, n))
        self.alphas: List[float] = []
        self.betas: List[float] = []
        self.invariant = False

    def extend(self, k: int) -> None:
        """Grow to ``k`` steps; stop early once the space is invariant."""
        m = len(self.alphas)
        if self.invariant or k <= m:
            return
        q = np.empty((k, self.q.shape[1]))
        q[:m] = self.q
        self.q = q
        for j in range(m, k):
            q[j] = self._next
            w = self._matvec(q[j])
            alpha = float(q[j] @ w)
            w = w - alpha * q[j]
            if j > 0:
                w -= self.betas[j - 1] * q[j - 1]
            # Full reorthogonalization: classical Gram-Schmidt, twice.
            block = q[: j + 1]
            for _pass in range(2):
                w -= (block @ w) @ block
            beta = float(np.linalg.norm(w))
            self.alphas.append(alpha)
            if beta <= self._tol:
                self.invariant = True  # invariant subspace found
                self.q = q[: j + 1]
                return
            self.betas.append(beta)
            self._next = w / beta


def lanczos(matvec: Callable[[np.ndarray], np.ndarray], n: int, k: int,
            seed: int = 0, tol: float = 1e-10) -> Tuple[np.ndarray, np.ndarray]:
    """Lanczos iteration with full reorthogonalization.

    ``matvec`` applies a symmetric ``n x n`` operator.  Builds a ``k``-step
    Krylov basis, eigensolves the tridiagonal projection with QL, and
    returns the ``k`` Ritz pairs ``(values ascending, vectors in columns)``.
    Early termination (invariant subspace) shrinks ``k``.
    """
    if k < 1 or k > n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    basis = _KrylovBasis(matvec, n, seed=seed, tol=tol)
    basis.extend(k)
    values, small_vectors = tridiagonal_eigh(
        basis.alphas, basis.betas[: len(basis.alphas) - 1]
    )
    return values, basis.q.T @ small_vectors


def smallest_eigenvectors(matrix: np.ndarray, count: int,
                          seed: int = 0,
                          residual_tol: float = 1e-6) -> Tuple[np.ndarray, np.ndarray]:
    """The ``count`` smallest eigenpairs of a symmetric matrix via Lanczos.

    Grows the Krylov space until the Ritz-pair residuals
    ``|A v - lambda v|`` fall below ``residual_tol`` (relative to the
    matrix scale) or the space spans the whole matrix.  Small systems fall
    back to the dense Jacobi solver directly.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    n = matrix.shape[0]
    if count < 1 or count > n:
        raise ValueError(f"need 1 <= count <= n, got count={count}, n={n}")
    if n <= 64:
        values, vectors = jacobi_eigh(matrix)
        return values[:count], vectors[:, :count]
    return smallest_eigenvectors_operator(
        lambda v: matrix @ v, n, count, seed=seed,
        residual_tol=residual_tol,
        scale=float(np.abs(matrix).max()), max_krylov=n,
    )


def smallest_eigenvectors_operator(
    matvec: Callable[[np.ndarray], np.ndarray],
    n: int,
    count: int,
    seed: int = 0,
    residual_tol: float = 1e-5,
    scale: float = 1.0,
    max_krylov: int = 0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Operator form of :func:`smallest_eigenvectors` (for sparse systems).

    ``matvec`` applies a symmetric operator of dimension ``n``.  One
    Krylov basis doubles in dimension (from ``max(2 * count + 20, 40)``)
    until the residuals ``max |A v - lambda v|`` of the ``count``
    smallest Ritz pairs fall below ``residual_tol * max(scale, 1)`` or
    the dimension reaches ``max_krylov`` (default ``min(n, 400)``).  The
    Ritz values come from QL without eigenvectors, and only the ``count``
    wanted Ritz vectors are formed, by inverse iteration.
    """
    if count < 1 or count > n:
        raise ValueError(f"need 1 <= count <= n, got count={count}, n={n}")
    cap = max_krylov if max_krylov > 0 else min(n, 400)
    k = min(cap, max(2 * count + 20, 40))
    basis = _KrylovBasis(matvec, n, seed=seed)
    while True:
        basis.extend(k)
        ritz = list(basis.alphas)
        off = basis.betas[: len(ritz) - 1]
        _tql(ritz, off + [0.0])
        values = np.sort(ritz)[:count]
        vectors = basis.q.T @ tridiagonal_inverse_iteration(
            basis.alphas, off, values, seed=seed)
        applied = np.stack(
            [matvec(vectors[:, j]) for j in range(values.size)], axis=1
        )
        residual = np.abs(applied - vectors * values).max()
        if (residual <= residual_tol * max(scale, 1.0) or k >= cap
                or basis.invariant):
            return values, vectors
        k = min(cap, 2 * k)


def power_iteration(matrix: np.ndarray, iterations: int = 200,
                    seed: int = 0, tol: float = 1e-12) -> Tuple[float, np.ndarray]:
    """Dominant eigenpair of a symmetric matrix by power iteration."""
    matrix = np.asarray(matrix, dtype=np.float64)
    n = matrix.shape[0]
    rng = np.random.default_rng(seed)
    vec = rng.standard_normal(n)
    vec /= np.linalg.norm(vec)
    value = 0.0
    for _ in range(iterations):
        nxt = matrix @ vec
        norm = np.linalg.norm(nxt)
        if norm == 0.0:
            return 0.0, vec
        nxt /= norm
        new_value = float(nxt @ matrix @ nxt)
        if abs(new_value - value) <= tol * max(1.0, abs(new_value)):
            vec = nxt
            value = new_value
            break
        vec = nxt
        value = new_value
    return value, vec
