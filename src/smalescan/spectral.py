"""Negative counts and kernel eigenpairs for the pencil (H, S).

One sparse factorization serves the whole package: ``factor`` runs
SuperLU restricted to diagonal pivots under a fill-reducing symmetric
ordering, and raises ``FactorizationError`` when SuperLU refuses.  The
negative count, the kernel eigensolve, the Gram solve and the Newton
step all use it.  Every matrix of one mesh shares one sparsity pattern,
so the fill-reducing ordering (SuperLU's minimum degree on H + H^T) is
found once per pattern and kept, with the pattern's transpose map (the
``data`` index of every entry's mirror); each factorization then
gathers the values into the permuted pattern and factors it in natural
order.  A matrix already in CSC form, as ``fem.Assembler`` returns it,
is factored without a transposition or copy.

The negative count n_neg(H) is the number of negative pivots of that
factorization (Sylvester's law of inertia), counted strictly by sign:
a tolerance band around zero would bias every radius located by
bisection on the count by the band width.  When the row and column
permutations agree the factor is P^T H P = L D L^T with D the diagonal
of U.  Every count first checks symmetry, as max |d - d[transpose]|
over the values d with that map, and raises ``ValueError`` on an
asymmetric matrix before anything is factored.  It then checks the
permutations, finite pivots and pivot growth, and raises
``FactorizationError`` rather than return a count it cannot vouch for.

Every integer question about the pencil (H, S) is a negative count;
``kernel_eigenpairs`` only returns a kernel basis at a located
degeneracy, by ARPACK's shift-invert Lanczos at zero on the factor of
H.  A refused factor of H is raised, not retried at a shift.
"""

from __future__ import annotations

import contextlib
import os

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = [
    "Factor",
    "FactorizationError",
    "factor",
    "inertia",
    "kernel_eigenpairs",
]

# Shift-invert Lanczos in ``kernel_eigenpairs``: ARPACK's restart bound
# and the fixed seed of the start vector.
KERNEL_MAX_SWEEPS = 60
KERNEL_SEED = 20240801

# Columns per SuperLU panel: of 1, 2, 4, 8, 12 and the default, 1
# factored the permuted H(0.7) fastest on the 40-ring cap and about as
# fast as 2 and 4 on the 2000-segment oscillator.
PANEL_SIZE = 1


class FactorizationError(RuntimeError):
    """A factorization could not be completed reliably."""


class Factor:
    """SuperLU factor ``lu`` of P^T H P, P the fill-reducing order ``p``
    of H's pattern; ``solve`` solves with H itself."""

    def __init__(self, lu, p: np.ndarray):
        self.lu = lu
        self.p = p

    def solve(self, b: np.ndarray) -> np.ndarray:
        y = self.lu.solve(b[self.p])
        x = np.empty_like(y)
        x[self.p] = y
        return x


def _splu(A, permc_spec: str):
    try:
        return spla.splu(
            A,
            permc_spec=permc_spec,
            diag_pivot_thresh=0.0,
            panel_size=PANEL_SIZE,
            options=dict(SymmetricMode=True),
        )
    except RuntimeError as exc:
        raise FactorizationError(f"sparse factorization failed: {exc}") from exc


def _csc(H) -> sp.csc_matrix:
    """H as a float CSC matrix with sorted indices and no duplicates, as
    the gather and the transpose map need; a ``csc_matrix`` of that kind
    is used as it is, without a copy."""
    A = sp.csc_matrix(H, dtype=float)
    A.sum_duplicates()
    return A


def _transpose_map(A: sp.csc_matrix) -> np.ndarray:
    """Index in A's ``data`` of the mirror (j, i) of every entry (i, j),
    or nnz where the mirror is absent from the pattern."""
    n = A.shape[0]
    col = np.repeat(np.arange(n, dtype=np.int64), np.diff(A.indptr))
    key = col * n + A.indices        # ascending: canonical CSC
    mirror = A.indices.astype(np.int64) * n + col
    k = np.minimum(np.searchsorted(key, mirror), max(A.nnz - 1, 0))
    return np.where(key[k] == mirror, k, A.nnz)


def _pattern_order(A: sp.csc_matrix):
    """A's pattern, its fill-reducing order, the permuted pattern and
    A's transpose map.

    The order is the column order of SuperLU's ``MMD_AT_PLUS_A`` factor
    of A itself; ``gather`` maps A's ``data`` onto that of P^T A P.
    """
    transpose = _transpose_map(A)
    p = np.argsort(_splu(A, "MMD_AT_PLUS_A").perm_c)
    # Entry k of A carries the value k + 1 (never zero, so never dropped)
    # through the permutation.
    slots = sp.csc_matrix(
        (np.arange(1.0, A.nnz + 1.0), A.indices, A.indptr), shape=A.shape
    )
    B = sp.csc_matrix(slots[p][:, p])
    B.sort_indices()
    gather = B.data.astype(np.int64) - 1
    return A.indptr.copy(), A.indices.copy(), p, B.indptr, B.indices, gather, transpose


# Pattern of the last matrix factored, its order and its transpose map,
# as returned by ``_pattern_order``.  Read once per call and replaced as
# a whole tuple, so concurrent factorizations race at most into a
# recomputation.  The order depends on the pattern alone and every
# factor is made in natural order on the permuted matrix, so no factor
# depends on what the slot held before.
_order = None


def _held(A: sp.csc_matrix):
    """The slot if it holds A's pattern (compared exactly), else None."""
    slot = _order
    if (slot is not None and np.array_equal(slot[0], A.indptr)
            and np.array_equal(slot[1], A.indices)):
        return slot
    return None


def factor(H) -> Factor:
    """SuperLU factor of H with diagonal pivots in a fill-reducing order.

    ``H`` is any square matrix, dense or sparse; it is factorized as a
    CSC matrix, and a float ``csc_matrix`` (as ``fem.Assembler`` returns)
    is read without a copy.  The order is SuperLU's minimum degree on
    H + H^T, found on the first matrix of a sparsity pattern and reused
    while the pattern (``indptr`` and ``indices``, compared exactly)
    repeats; the permuted matrix is factored in natural order.  A
    refusal raises ``FactorizationError``.
    """
    A = _csc(H)
    return _factor(A, _held(A))


def _factor(A: sp.csc_matrix, slot) -> Factor:
    """``factor`` of A, a matrix from ``_csc``, with ``slot`` as
    ``_held(A)`` returned it; None makes and holds the slot of A's
    pattern."""
    global _order
    if slot is None:
        slot = _order = _pattern_order(A)
    _, _, p, indptr, indices, gather, _ = slot
    B = sp.csc_matrix((A.data[gather], indices, indptr), shape=A.shape)
    return Factor(_splu(B, "NATURAL"), p)


# glibc's mallopt parameters (malloc.h), its default M_MMAP_MAX and the
# fixed trim threshold that ``_kept_heap`` leaves behind.
_M_TRIM_THRESHOLD = -1
_M_MMAP_MAX = -4
_MMAP_MAX_DEFAULT = 65536
_TRIM_THRESHOLD_AFTER = 32 << 20


def _glibc():
    """The C library as a ``ctypes`` handle with ``mallopt`` and
    ``malloc_trim`` declared, if it is glibc; None otherwise."""
    try:
        version = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):  # no confstr, or no such name
        return None
    if not version or not version.startswith("glibc"):
        return None
    import ctypes

    libc = ctypes.CDLL(None)
    libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    libc.mallopt.restype = ctypes.c_int
    libc.malloc_trim.argtypes = (ctypes.c_size_t,)
    libc.malloc_trim.restype = ctypes.c_int
    return libc


@contextlib.contextmanager
def _kept_heap():
    """Keep the memory that factorizations free for the next one, on glibc.

    A count factors H(r), copies L and U out of SuperLU and frees them
    all; glibc serves the large blocks by ``mmap`` and returns freed heap
    tops to the kernel, so the next count faults the same pages in again
    (about 1100 minor faults per count at 40 rings).  Inside the block
    every allocation comes from the heap (``M_MMAP_MAX`` 0) and the heap
    is never trimmed (``M_TRIM_THRESHOLD`` -1).  On exit, exceptions
    included, ``M_MMAP_MAX`` returns to glibc's default of 65536, the
    trim threshold is set to 32 MiB and ``malloc_trim(0)`` hands the
    free memory back.  On any other C library it does nothing.

    Any ``mallopt`` call freezes glibc's dynamic mmap and trim thresholds
    for the rest of the process, so the trim threshold cannot return to
    its dynamic default and is fixed instead.  32 MiB keeps later counts
    cheap too: against about 6k minor faults per ``all`` run of the 1D
    oscillator with the allocator left alone, 128 KiB (glibc's starting
    value) gave 14k and 32 MiB 2.5k; both kept the 2D peaks flat.  Only
    the command line's scan enters it, so a library caller's allocator
    is left as it was.
    """
    libc = _glibc()
    if libc is None:
        yield
        return
    libc.mallopt(_M_MMAP_MAX, 0)
    libc.mallopt(_M_TRIM_THRESHOLD, -1)
    try:
        yield
    finally:
        libc.mallopt(_M_MMAP_MAX, _MMAP_MAX_DEFAULT)
        libc.mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_AFTER)
        libc.malloc_trim(0)


def inertia(H, keep=None) -> int:
    """Negative count n_neg(H) of a symmetric matrix: pivots below zero.

    H is refused with ``ValueError`` before any factorization unless
    max |H_ij - H_ji| <= 1e-12 max|H|, read from the pattern's transpose
    map (kept with its order; an absent mirror reads as 0).  SuperLU
    leaves the diagonal only on an exactly zero pivot, which shows as
    perm_r != perm_c; that, a singular factor, pivot growth beyond
    1e12 max(max|H|, 1) and non-finite pivots are raised, never counted
    (see the module docstring).  ``keep``, a one-element list, receives
    the factor of a count, for further solves with H.
    """
    if H.shape[0] != H.shape[1]:
        raise ValueError("inertia requires a square matrix")
    A = _csc(H)
    d = A.data
    scale = float(max(d.max(), -d.min())) if A.nnz else 0.0
    if scale == 0.0:
        return 0
    slot = _held(A)
    transpose = _transpose_map(A) if slot is None else slot[6]
    if np.abs(d - np.append(d, 0.0)[transpose]).max() > 1e-12 * scale:
        raise ValueError("inertia requires a symmetric matrix")
    F = _factor(A, slot)
    lu = F.lu
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise FactorizationError("zero diagonal pivot: row and column orders differ")
    U = lu.U
    if U.nnz and max(U.data.max(), -U.data.min()) > 1e12 * max(scale, 1.0):
        raise FactorizationError("pivot growth in sparse factorization")
    pivots = U.diagonal()
    if not np.all(np.isfinite(pivots)):
        raise FactorizationError("non-finite pivots in factorization")
    if keep is not None:
        keep[0] = F
    return int(np.sum(pivots < 0.0))


def kernel_eigenpairs(H, S, k: int) -> np.ndarray:
    """S-orthonormal eigenvectors (n, k) of the k smallest-|lambda|
    eigenvalues of (H, S), by shift-invert at 0, in ascending eigenvalue
    order.

    ARPACK's shift-invert Lanczos (``eigsh`` with sigma 0) on
    ``factor(H)``, with k + 2 Lanczos vectors, a seeded start vector and
    at most ``KERNEL_MAX_SWEEPS`` restarts; a run that does not converge
    raises ``FactorizationError`` rather than return an unconverged
    basis.  It is used where the eigenvalues nearest zero are well
    separated from the rest: kernel bases at a located degeneracy.  With
    k = n, which ARPACK does not take, the pencil is solved densely.
    """
    n = H.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= {n}, got k = {k}")
    if k == n:
        return la.eigh(H.toarray(), S.toarray())[1]
    solve = spla.LinearOperator((n, n), matvec=factor(H).solve, dtype=float)
    start = np.random.default_rng(KERNEL_SEED).standard_normal(n)
    try:
        theta, X = spla.eigsh(H, k, M=S, sigma=0.0, OPinv=solve, v0=start,
                              ncv=min(n, k + 2), maxiter=KERNEL_MAX_SWEEPS)
    except spla.ArpackNoConvergence as exc:
        raise FactorizationError(f"kernel eigensolve did not converge: {exc}") from exc
    return X[:, np.argsort(theta, kind="stable")]
