"""Reference implementations the tests compare the package against.

None of these is on a path the command line runs; each is an
independent route to a quantity the package computes, or a check the
tests make on its output:

  * ``bunch_kaufman_inertia``: the negative count from the dense
    pivoted LDL^T of LAPACK ``dsytrf``, against ``spectral.inertia``;
  * ``smallest_eigenpairs``: dense generalized eigenpairs, against
    ``spectral.kernel_eigenpairs`` and as an eigenvalue oracle;
  * ``reference_assembly`` and ``energy``: H, J, F, S by COO assembly
    with four-operand einsum kernels, and the discrete energy E whose
    exact gradient is F;
  * ``g_values``: the primitive G of the nonlinearity V;
  * ``multistart_no_small_solutions`` and ``amplitude_exponent``:
    the multi-start search for small nontrivial solutions away from the
    crossings, and the pitchfork exponent of a traced branch.

Imported as a plain module from the test directory, which pytest puts
on ``sys.path`` for test files outside a package.
"""

import math

import numpy as np
import scipy.linalg as la
import scipy.linalg.lapack as lapack
import scipy.sparse as sp

from smalescan import branch, metric, spectral

SMALL_NORM = 1e-2
MULTISTART_SEED = 20240801


# ---------------------------------------------------------------------------
# Dense spectral references
# ---------------------------------------------------------------------------

def _pivot_eigs_from_factor(ldu, ipiv):
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
            disc = np.sqrt(max(0.25 * (a - c) ** 2 + b * b, 0.0))
            out[k] = 0.5 * (a + c) - disc
            out[k + 1] = 0.5 * (a + c) + disc
            k += 2
    return out


def bunch_kaufman_inertia(H) -> int:
    """Negative count of a symmetric matrix from dense Bunch-Kaufman.

    Pivots exactly zero count as nonnegative, so a singular matrix has a
    count here where the sparse route refuses to give one.
    """
    Hd = H.toarray() if sp.issparse(H) else np.asarray(H, dtype=float)
    scale = float(np.max(np.abs(Hd))) if Hd.size else 0.0
    if scale == 0.0:
        return 0
    if not np.allclose(Hd, Hd.T, rtol=0.0, atol=1e-12 * scale):
        raise ValueError("inertia requires a symmetric matrix")
    ldu, ipiv, info = lapack.dsytrf(np.asfortranarray(0.5 * (Hd + Hd.T)), lower=1)
    if info < 0:
        raise spectral.FactorizationError(f"dsytrf failed with info = {info}")
    pivots = _pivot_eigs_from_factor(ldu, ipiv)
    if not np.all(np.isfinite(pivots)):
        raise spectral.FactorizationError("non-finite pivots in factorization")
    return int(np.sum(pivots < 0.0))


def smallest_eigenpairs(H, S, k: int) -> spectral.EigenPairs:
    """The k algebraically smallest eigenpairs of H v = lambda S v.

    Dense reduction through a factorization of S; the returned vectors
    are S-orthonormal.  For desk-scale matrices only.
    """
    n = H.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= {n}, got k = {k}")
    Hd = H.toarray() if sp.issparse(H) else np.asarray(H, dtype=float)
    Sd = S.toarray() if sp.issparse(S) else np.asarray(S, dtype=float)
    try:
        vals, vecs = la.eigh(Hd, Sd, subset_by_index=[0, k - 1])
    except la.LinAlgError as exc:
        raise spectral.FactorizationError(f"generalized eigensolve failed: {exc}") from exc
    return spectral.EigenPairs(values=vals, vectors=vecs)


# ---------------------------------------------------------------------------
# Assembly and energy
# ---------------------------------------------------------------------------

def g_values(spec, fvals, xi):
    """Primitive G(y, xi) of V in xi with G(y, 0) = 0."""
    return 0.5 * fvals * xi ** 2 + 0.25 * spec.cubic_b * xi ** 4


def reference_assembly(asm, r, u):
    """(H(r), J(r, u), F(r, u), S, E(r, u)) by COO assembly with four-operand
    einsum kernels: convert to CSR, slice the interior, symmetrize.

    Oracle for the precomputed scatter and the matmul kernels of
    ``fem.Assembler``; it reads only the assembler's geometry and
    quadrature attributes and evaluates w through ``coefficients``.
    E is the discrete energy, whose exact gradient is F.
    """
    mesh, met, spec = asm.mesh, asm.metric, asm.spec
    nodes, phi = asm.elem_nodes, asm.mass_phi
    ne, nv = nodes.shape
    N = mesh.n_nodes
    interior = np.flatnonzero(~mesh.boundary_nodes)
    rows = np.repeat(nodes, nv, axis=1).ravel()
    cols = np.tile(nodes, (1, nv)).ravel()

    def matrix(elem_mats):
        M = sp.coo_matrix((elem_mats.ravel(), (rows, cols)), shape=(N, N)).tocsr()
        M = M[interior][:, interior]
        return (0.5 * (M + M.T)).tocsr()

    _, qg, d = asm.grad_pts.shape
    A, _ = metric.coefficients(met, (r * asm.grad_pts).reshape(-1, d))
    A = A.reshape(ne, qg, d, d)
    Ke = np.einsum("tq,tqab,tia,tjb->tij", asm.grad_w, A, asm.grads, asm.grads)
    qm = asm.mass_pts.shape[1]
    pts = (r * asm.mass_pts).reshape(-1, d)
    wq = asm.mass_w * metric.coefficients(met, pts)[1].reshape(ne, qm)
    fq = spec.f_values(pts).reshape(ne, qm)
    full = np.zeros(N)
    full[interior] = u
    ue = full[nodes]
    uq = ue @ phi
    H = matrix(Ke + r * r * np.einsum("tq,iq,jq->tij", wq * fq, phi, phi))
    dvq = spec.dv_values(fq, uq)
    J = matrix(Ke + r * r * np.einsum("tq,iq,jq->tij", wq * dvq, phi, phi))
    gu = np.einsum("tia,ti->ta", asm.grads, ue)
    Fe = np.einsum("tq,tia,tqab,tb->ti", asm.grad_w, asm.grads, A, gu)
    Fe += r * r * np.einsum("tq,iq->ti", wq * spec.v_values(fq, uq), phi)
    F = np.zeros(N)
    np.add.at(F, nodes.ravel(), Fe.ravel())
    S = matrix(np.einsum("t,tia,tja->tij", asm.grad_w.sum(axis=1), asm.grads, asm.grads))
    E = 0.5 * np.einsum("tq,ta,tqab,tb->", asm.grad_w, gu, A, gu)
    E += r * r * np.sum(wq * g_values(spec, fq, uq))
    return H, J, F[interior], S, E


def energy(asm, r, u) -> float:
    """Discrete energy E(r, u) of ``reference_assembly``."""
    return float(reference_assembly(asm, r, u)[4])


# ---------------------------------------------------------------------------
# Branch checks
# ---------------------------------------------------------------------------

def multistart_no_small_solutions(asm, r, n_seeds=20, seed_norm=1e-2):
    """Search for small nontrivial solutions from random small seeds.

    Away from conjugate radii the implicit function theorem forbids
    nontrivial solutions near zero; every converged run must land on
    the trivial solution (or escape past SMALL_NORM).  Returns
    (clean, samples) where clean means no converged solution had
    TRIVIAL_NORM < h1_norm <= SMALL_NORM.  Deterministic via the fixed
    seed MULTISTART_SEED.
    """
    S = asm.gram()
    n = S.shape[0]
    rng = np.random.default_rng(MULTISTART_SEED)
    samples = []
    clean = True
    for i in range(n_seeds):
        g = rng.standard_normal(n)
        scale = seed_norm * (i + 1) / n_seeds
        u0 = g * (scale / math.sqrt(max(float(g @ (S @ g)), 0.0)))
        sample = branch.newton_solve(asm, r, u0)
        samples.append(sample)
        if sample.converged and branch.TRIVIAL_NORM < sample.h1_norm <= SMALL_NORM:
            clean = False
    return clean, samples


def amplitude_exponent(trace, window=(1e-3, 1e-1)) -> float:
    """Log-log slope of h1_norm against |r - r*| over the given window."""
    rs = np.array([s.r for s in trace.samples])
    norms = np.array([s.h1_norm for s in trace.samples])
    dist = np.abs(rs - trace.r_star)
    mask = (dist >= window[0] * (1.0 - 1e-12)) & (dist <= window[1] * (1.0 + 1e-12))
    if mask.sum() < 3:
        raise ValueError("not enough samples inside the fit window")
    slope = np.polyfit(np.log(dist[mask]), np.log(norms[mask]), 1)[0]
    return float(slope)
