"""Inertia counts and generalized symmetric eigenpairs for (H, S).

Inertia is read off the pivots of a symmetric factorization, classified
by one rule (``_classify``).  Two routes produce the pivots:

  * sparse input: one SuperLU factorization restricted to diagonal
    pivots under a fill-reducing symmetric ordering.  When the row and
    column permutations agree it is P^T H P = L D L^T with D the
    diagonal of U, and Sylvester's law of inertia gives the count.
    Every call checks symmetry, the permutations, finite pivots and
    pivot growth, and raises ``FactorizationError`` rather than return a
    count it cannot vouch for;
  * dense input: Bunch-Kaufman (LAPACK ``dsytrf``), the pivoted
    reference the sparse route is tested against.

Eigenpairs come from the dense generalized solver (small problems,
ascending-k requests) or from shift-invert block inverse iteration at
zero (kernel candidates near a degeneracy, any scale).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as la
import scipy.linalg.lapack as lapack
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = [
    "Inertia",
    "EigenPairs",
    "FactorizationError",
    "inertia",
    "smallest_eigenpairs",
    "kernel_eigenpairs",
]

DEFAULT_PIVOT_TOL = 1e-9


class FactorizationError(RuntimeError):
    """A factorization could not be completed reliably."""


@dataclass(frozen=True)
class Inertia:
    n_neg: int
    n_zero: int
    n_pos: int
    pivot_tolerance: float

    @property
    def dim(self) -> int:
        return self.n_neg + self.n_zero + self.n_pos


@dataclass(frozen=True)
class EigenPairs:
    """Ascending generalized eigenvalues with S-orthonormal vectors."""

    values: np.ndarray    # (k,)
    vectors: np.ndarray   # (n, k), vectors[:, i]^T S vectors[:, j] = delta_ij


def _pivot_eigs_from_factor(ldu: np.ndarray, ipiv: np.ndarray) -> np.ndarray:
    """Eigenvalues of the block-diagonal D of a Bunch-Kaufman factor.

    LAPACK lower-storage convention: ipiv[k] > 0 marks a 1x1 pivot,
    ipiv[k] == ipiv[k+1] < 0 a 2x2 pivot in rows k, k+1.
    """
    n = ldu.shape[0]
    out = np.empty(n)
    k = 0
    while k < n:
        if ipiv[k] >= 0:
            out[k] = ldu[k, k]
            k += 1
        else:
            a, b, c = ldu[k, k], ldu[k + 1, k], ldu[k + 1, k + 1]
            tr, det = a + c, a * c - b * b
            disc = np.sqrt(max(0.25 * (a - c) ** 2 + b * b, 0.0))
            out[k] = 0.5 * tr - disc
            out[k + 1] = 0.5 * tr + disc
            k += 2
    return out


def _classify(pivots: np.ndarray, scale: float, tol: float, strict: bool):
    if strict:
        n_neg = int(np.sum(pivots < 0.0))
        return n_neg, 0, pivots.size - n_neg
    thr = tol * scale
    n_zero = int(np.sum(np.abs(pivots) <= thr))
    n_neg = int(np.sum(pivots < -thr))
    return n_neg, n_zero, pivots.size - n_neg - n_zero


def _dense_pivots(A: np.ndarray) -> np.ndarray:
    A = np.asfortranarray(A, dtype=float)
    ldu, ipiv, info = lapack.dsytrf(A, lower=1)
    if info < 0:
        raise FactorizationError(f"dsytrf failed with info = {info}")
    return _pivot_eigs_from_factor(ldu, ipiv)


def _matrix_scale(H) -> float:
    if sp.issparse(H):
        data = H.data
        return float(np.max(np.abs(data))) if data.size else 0.0
    return float(np.max(np.abs(H))) if H.size else 0.0


def _sparse_pivots(H: sp.csc_matrix, scale: float) -> np.ndarray:
    """Pivots D of P^T H P = L D L^T from one diagonal-pivoting SuperLU.

    SuperLU leaves the diagonal only on an exactly zero pivot, which
    shows as perm_r != perm_c; that, a singular factor and pivot growth
    beyond 1e12 max(max|H|, 1) are raised, never classified.
    """
    try:
        lu = spla.splu(
            H,
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options=dict(SymmetricMode=True),
        )
    except RuntimeError as exc:
        raise FactorizationError(f"sparse factorization failed: {exc}") from exc
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise FactorizationError("zero diagonal pivot: row and column orders differ")
    U = lu.U
    if U.nnz and np.max(np.abs(U.data)) > 1e12 * max(scale, 1.0):
        raise FactorizationError("pivot growth in sparse factorization")
    return U.diagonal()


def inertia(
    H,
    pivot_tolerance: float = DEFAULT_PIVOT_TOL,
    strict: bool = False,
) -> Inertia:
    """Inertia (n_neg, n_zero, n_pos) of a symmetric matrix.

    Pivots with |p| <= pivot_tolerance * max|H| count as zero.  With
    ``strict`` the zero band is disabled and pivots are classified by
    sign alone; bisection on the negative count uses this mode, since a
    tolerance band around zero would bias the located radius by the
    band width (see the conjugate module).

    Sparse input is factorized sparse, dense input by Bunch-Kaufman
    (see the module docstring).
    """
    n = H.shape[0]
    if H.shape[0] != H.shape[1]:
        raise ValueError("inertia requires a square matrix")
    if n == 0:
        return Inertia(0, 0, 0, pivot_tolerance)
    scale = _matrix_scale(H)
    if scale == 0.0:
        return Inertia(0, n, 0, pivot_tolerance)
    if sp.issparse(H):
        Hc = sp.csc_matrix(H, dtype=float)
        if abs(Hc - Hc.T).max() > 1e-12 * scale:
            raise ValueError("inertia requires a symmetric matrix")
        pivots = _sparse_pivots(Hc, scale)
    else:
        Hd = np.asarray(H, dtype=float)
        if not np.allclose(Hd, Hd.T, rtol=0.0, atol=1e-12 * scale):
            raise ValueError("inertia requires a symmetric matrix")
        pivots = _dense_pivots(0.5 * (Hd + Hd.T))
    if not np.all(np.isfinite(pivots)):
        raise FactorizationError("non-finite pivots in factorization")
    n_neg, n_zero, n_pos = _classify(pivots, scale, pivot_tolerance, strict)
    return Inertia(n_neg, n_zero, n_pos, pivot_tolerance)


def smallest_eigenpairs(H, S, k: int) -> EigenPairs:
    """The k algebraically smallest eigenpairs of H v = lambda S v.

    Dense reduction through a factorization of S; the returned vectors
    are S-orthonormal.  Intended for desk-scale matrices and for the
    1D pipeline; kernel extraction near a degeneracy at large 2D scale
    goes through ``kernel_eigenpairs`` instead.
    """
    n = H.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= {n}, got k = {k}")
    Hd = H.toarray() if sp.issparse(H) else np.asarray(H, dtype=float)
    Sd = S.toarray() if sp.issparse(S) else np.asarray(S, dtype=float)
    try:
        vals, vecs = la.eigh(Hd, Sd, subset_by_index=[0, k - 1])
    except la.LinAlgError as exc:
        raise FactorizationError(f"generalized eigensolve failed: {exc}") from exc
    return EigenPairs(values=vals, vectors=vecs)


def kernel_eigenpairs(
    H,
    S,
    k: int,
    tol: float = 1e-11,
    max_iter: int = 60,
    seed: int = 20240801,
) -> EigenPairs:
    """The k smallest-|lambda| eigenpairs of (H, S) by shift-invert at 0.

    Block inverse iteration with a sparse LU of H and Rayleigh-Ritz
    extraction; deterministic through the fixed seed.  Converges in a
    few sweeps whenever the eigenvalues nearest zero are well separated
    from the rest, which is exactly the regime it is used in (kernel
    bases at a located degeneracy, the r = 1 degeneracy check).  A sweep
    converges when the k Ritz values agree with the previous sweep's to
    rtol 1e-13 or ``tol * ||H||_inf``; if ``max_iter`` sweeps end without
    that, ``FactorizationError`` is raised rather than an unconverged
    basis returned.
    """
    n = H.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= {n}, got k = {k}")
    Hc = sp.csc_matrix(H)
    Sc = sp.csc_matrix(S)
    Hnorm = spla.norm(Hc, np.inf)
    lu = None
    for shift in (0.0, 1e-13 * Hnorm, -1e-13 * Hnorm):
        try:
            lu = spla.splu((Hc - shift * Sc) if shift else Hc)
            break
        except RuntimeError:
            continue
    if lu is None:
        raise FactorizationError("shift-invert factorization failed")

    rng = np.random.default_rng(seed)
    block = min(n, k + 2)
    X = rng.standard_normal((n, block))
    theta_old = None
    for _ in range(max_iter):
        Y = lu.solve(Sc @ X)
        # S-orthonormalize the block.
        G = Y.T @ (Sc @ Y)
        try:
            C = la.cholesky(0.5 * (G + G.T), lower=True)
        except la.LinAlgError:
            Y += 1e-12 * rng.standard_normal(Y.shape)
            G = Y.T @ (Sc @ Y)
            C = la.cholesky(0.5 * (G + G.T), lower=True)
        Y = la.solve_triangular(C, Y.T, lower=True).T
        T = Y.T @ (Hc @ Y)
        theta, Q = la.eigh(0.5 * (T + T.T))
        X = Y @ Q
        order = np.argsort(np.abs(theta), kind="stable")
        theta = theta[order]
        X = X[:, order]
        if theta_old is not None and np.allclose(
            theta[:k], theta_old[:k], rtol=1e-13, atol=tol * Hnorm
        ):
            break
        theta_old = theta
    else:
        raise FactorizationError(
            f"inverse iteration did not converge in {max_iter} sweeps"
        )
    vals = theta[:k]
    vecs = X[:, :k]
    # Ascending eigenvalue order within the returned block.
    order = np.argsort(vals, kind="stable")
    return EigenPairs(values=vals[order], vectors=vecs[:, order])
