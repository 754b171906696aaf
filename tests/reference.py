"""Reference implementations the tests compare the package against.

None of these is on a path the command line runs; each is an
independent route to a quantity the package computes, or a check the
tests make on its output:

  * ``bunch_kaufman_inertia``: the negative count from the dense
    pivoted LDL^T of LAPACK ``dsytrf``, against ``spectral.inertia``;
  * ``smallest_eigenpairs``: dense generalized eigenpairs, against
    ``spectral.kernel_eigenpairs`` and the r = 1 check of
    ``conjugate.endpoint_kernel_gap``, and as an eigenvalue oracle;
  * ``pencil_crossings``: the discrete conjugate radii and their
    multiplicities of a flat metric with constant f, from one pencil
    eigensolve, against the bisection of ``conjugate``;
  * ``metric_fields``: A = g^{-1} |g|^(1/2) and w = |g|^(1/2) as full
    matrices from g = P_rad + q^2 P_tan, against the radial profiles of
    ``metric.coefficients``;
  * ``reference_assembly`` and ``energy``: H, J, F, S by COO assembly
    with four-operand einsum kernels, on gradients and quadrature
    points that ``simplex_geometry`` derives from the mesh and the
    published rules, and the discrete energy E whose exact gradient
    is F;
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
import scipy.sparse.linalg as spla

from smalescan import branch, spectral

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


def smallest_eigenpairs(H, S, k: int):
    """(values, vectors): the k algebraically smallest eigenpairs of
    H v = lambda S v, ascending.

    Dense reduction through a factorization of S; the returned vectors
    (n, k) are S-orthonormal.  For desk-scale matrices only.
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
    return vals, vecs


def pencil_crossings(asm, k, tol):
    """Discrete conjugate radii in (0, 1] with their multiplicities, for a
    flat metric and a constant f < 0.

    There H(r) = S + r^2 f M exactly, with M = (H(1) - S)/f, so H(r) is
    singular exactly at r = sqrt(mu/-f) for every eigenvalue mu of the
    pencil S v = mu M v.  The k smallest mu come from one shift-invert
    eigensolve and must reach past r = 1, so that no crossing is missed;
    with k >= n unknowns, all n come from one dense eigensolve instead.
    Radii closer than ``tol`` form one crossing, whose multiplicity is
    their number.  Returns [(r, m)] ascending.
    """
    f = asm.spec.f_constant
    if asm.metric.kappa != 0.0 or f is None or not f < 0.0:
        raise ValueError("the pencil needs a flat metric and a constant f < 0")
    S = asm.gram()
    M = (asm.h(1.0) - S) / f
    if k < S.shape[0]:
        mu = spla.eigsh(S, k, M, sigma=0.0, return_eigenvectors=False)
    else:
        mu = la.eigh(S.toarray(), M.toarray(), eigvals_only=True)
    radii = np.sort(np.sqrt(mu / -f))
    if len(radii) < S.shape[0] and radii[-1] <= 1.0:
        raise ValueError(f"the {k} smallest pencil radii do not reach past r = 1")
    clusters = []
    for r in radii[radii <= 1.0]:
        if clusters and r - clusters[-1][-1] <= tol:
            clusters[-1].append(r)
        else:
            clusters.append([r])
    return [(float(np.mean(c)), len(c)) for c in clusters]


# ---------------------------------------------------------------------------
# Assembly and energy
# ---------------------------------------------------------------------------

def metric_fields(met, pts):
    """(A, w) at points of the unit ball, shapes (m, n, n) and (m,).

    g = P_rad + q^2 P_tan with q = s_k(t)/t in closed form (1 at t = 0),
    inverted and its determinant taken as full matrices.
    """
    m, n = pts.shape
    t = np.linalg.norm(pts, axis=1)
    z = np.sqrt(abs(met.kappa)) * t
    z_safe = np.where(z > 0.0, z, 1.0)
    s = np.sin(z_safe) if met.kappa > 0.0 else np.sinh(z_safe)
    q = np.where(z > 0.0, s / z_safe, 1.0)
    e = pts / np.where(t > 0.0, t, 1.0)[:, None]
    ee = e[:, :, None] * e[:, None, :]
    g = ee + (q * q)[:, None, None] * (np.eye(n) - ee)
    w = np.sqrt(np.linalg.det(g))
    return np.linalg.inv(g) * w[:, None, None], w


def g_values(spec, fvals, xi):
    """Primitive G(y, xi) of V in xi with G(y, 0) = 0."""
    return 0.5 * fvals * xi ** 2 + 0.25 * spec.cubic_b * xi ** 4


# Quadrature rules on the reference simplex: barycentric points (q, nv)
# and weights summing to 1.  Gradient terms: the midpoint rule (1D) and
# the interior 3-point rule of degree 2 (2D).  Mass terms: 3-point
# Gauss-Legendre (1D) and Radon's 7-point degree-5 rule (2D).
_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(3)
_S15 = math.sqrt(15.0)
_A, _B = (6.0 - _S15) / 21.0, (6.0 + _S15) / 21.0
_GRADIENT_RULES = {
    1: (np.array([[0.5, 0.5]]), np.array([1.0])),
    2: (np.array([[2 / 3, 1 / 6, 1 / 6], [1 / 6, 2 / 3, 1 / 6], [1 / 6, 1 / 6, 2 / 3]]),
        np.full(3, 1 / 3)),
}
_MASS_RULES = {
    1: (np.column_stack([0.5 * (1.0 - _GAUSS_X), 0.5 * (1.0 + _GAUSS_X)]), 0.5 * _GAUSS_W),
    2: (np.array([[1 / 3, 1 / 3, 1 / 3],
                  [1 - 2 * _A, _A, _A], [_A, 1 - 2 * _A, _A], [_A, _A, 1 - 2 * _A],
                  [1 - 2 * _B, _B, _B], [_B, 1 - 2 * _B, _B], [_B, _B, 1 - 2 * _B]]),
        np.array([9 / 40] + 3 * [(155 - _S15) / 1200] + 3 * [(155 + _S15) / 1200])),
}


def simplex_geometry(mesh):
    """(grads, grad_pts, grad_w, mass_pts, mass_w, phi) of a P1 mesh.

    The hat functions of a simplex are its barycentric coordinates:
    lambda_i(x) = C[0, i] + C[1:, i] . x with C the inverse of the
    vertex matrix B = [1 | vertices], whose determinant is d! times the
    simplex's measure.  A rule maps to each simplex by its barycentric
    points, and phi (nv, qm) is lambda_i at the mass points.
    """
    v = mesh.nodes[mesh.elements]                          # (ne, nv, d)
    ne, nv, d = v.shape
    B = np.concatenate([np.ones((ne, nv, 1)), v], axis=2)
    grads = np.linalg.inv(B)[:, 1:, :].transpose(0, 2, 1)  # (ne, nv, d)
    measure = np.abs(np.linalg.det(B)) / math.factorial(d)
    out = [grads]
    for bary, w in (_GRADIENT_RULES[d], _MASS_RULES[d]):
        out += [np.einsum("qi,tid->tqd", bary, v), measure[:, None] * w[None, :]]
    return (*out, _MASS_RULES[d][0].T)


def reference_assembly(asm, r, u):
    """(H(r), J(r, u), F(r, u), S, E(r, u)) by COO assembly with four-operand
    einsum kernels: convert to CSR, slice the interior, symmetrize.

    Oracle for the precomputed scatter, the matmul kernels and the
    geometry of ``fem.Assembler``; it reads only the assembler's mesh,
    metric and problem, derives gradients and quadrature from the mesh
    by ``simplex_geometry`` and evaluates A and w through
    ``metric_fields``.  E is the discrete energy, whose exact gradient
    is F.
    """
    mesh, met, spec = asm.mesh, asm.metric, asm.spec
    grads, grad_pts, grad_w, mass_pts, mass_w, phi = simplex_geometry(mesh)
    nodes = mesh.elements
    ne, nv = nodes.shape
    N = mesh.n_nodes
    interior = np.flatnonzero(~mesh.boundary_nodes)
    rows = np.repeat(nodes, nv, axis=1).ravel()
    cols = np.tile(nodes, (1, nv)).ravel()

    def matrix(elem_mats):
        M = sp.coo_matrix((elem_mats.ravel(), (rows, cols)), shape=(N, N)).tocsr()
        M = M[interior][:, interior]
        return (0.5 * (M + M.T)).tocsr()

    _, qg, d = grad_pts.shape
    A, _ = metric_fields(met, (r * grad_pts).reshape(-1, d))
    A = A.reshape(ne, qg, d, d)
    Ke = np.einsum("tq,tqab,tia,tjb->tij", grad_w, A, grads, grads)
    qm = mass_pts.shape[1]
    pts = (r * mass_pts).reshape(-1, d)
    wq = mass_w * metric_fields(met, pts)[1].reshape(ne, qm)
    fq = spec.f_values(pts).reshape(ne, qm)
    full = np.zeros(N)
    full[interior] = u
    ue = full[nodes]
    uq = ue @ phi
    H = matrix(Ke + r * r * np.einsum("tq,iq,jq->tij", wq * fq, phi, phi))
    dvq = spec.dv_values(fq, uq)
    J = matrix(Ke + r * r * np.einsum("tq,iq,jq->tij", wq * dvq, phi, phi))
    gu = np.einsum("tia,ti->ta", grads, ue)
    Fe = np.einsum("tq,tia,tqab,tb->ti", grad_w, grads, A, gu)
    Fe += r * r * np.einsum("tq,iq->ti", wq * spec.v_values(fq, uq), phi)
    F = np.zeros(N)
    np.add.at(F, nodes.ravel(), Fe.ravel())
    S = matrix(np.einsum("t,tia,tja->tij", grad_w.sum(axis=1), grads, grads))
    E = 0.5 * np.einsum("tq,ta,tqab,tb->", grad_w, gu, A, gu)
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
