"""Meshes on the unit ball and assembly of the radius-parametrized forms.

Discretization is piecewise-linear on a uniform partition of [-1, 1] in
1D and on the structured polar-ring triangulation of the disc in 2D
(ring i of R carries 6i nodes at radius i/R).  All accuracy comes from
mesh refinement, never from element order.

For a mesh, metric and problem the assembler produces, at any scale
parameter r in [0, 1], on the ball of the mesh's dimension:

    H(r)    matrix of the quadratic form
            h_r(u) = int A(r x) grad u . grad u + r^2 int w(r x) f(r x) u^2
    S       Euclidean H^1_0 Gram matrix int grad u . grad v  (r-independent)
    F(r,u)  residual of the semilinear functional, F_i = q_r(u_h, phi_i)
    J(r,u)  Jacobian of F; J(r, 0) equals H(r) by the same quadrature

Quadrature: the gradient terms use the midpoint rule (1D) and the
3-point barycentric rule (2D); the weighted mass / nonlinear terms use
3-point Gauss (1D) and the 7-point degree-5 rule (2D), which integrates
the cubic nonlinearity of P1 functions exactly in 1D and near-exactly
in 2D.

Assembly: every element matrix is symmetric, so each is half-stored,
its nu = nv (nv + 1) / 2 entries i <= j only.  Per mesh, once: the
interior pattern, the slot among its upper entries (row <= col) of
every upper element entry, the mirror map from each pattern entry to
the upper entry of its pair, the half-stored stiffness projectors
G G^T and (G e)(G e)^T of every element and gradient point, and the
table of distinct quadrature radii |x|.  Every form is then the
metric's radial profiles, evaluated once per distinct r|x| and
gathered, two half-stored element kernels (weighted sums of the
stiffness projectors; the weighted mass values times a fixed
phi_i phi_j table), one ``np.bincount`` scatter into the upper entries
and one gather through the mirror map, so every form is symmetric by
construction.  A curved metric scatters K + r^2 M once per form.  On a
flat metric the stiffness does not depend on r: the assembler keeps its
scattered data, and the scattered f-mass data too when f is constant,
so that H(r) = K + r^2 f M is one axpy of two kept vectors; see
``Assembler``.
The matrices are returned as exactly symmetric ``scipy.sparse``
``csc_matrix`` objects, the format the factorizations of ``spectral``
read without a transposition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import metric as metric_mod
from .metric import MetricModel
from .problem import ProblemSpec
from .spectral import factor

__all__ = [
    "Mesh",
    "Assembler",
    "build_mesh",
]

@dataclass(frozen=True)
class Mesh:
    """P1 mesh of the unit ball in dimension 1 or 2."""

    dim: int
    nodes: np.ndarray                 # (N, dim)
    elements: np.ndarray              # (ne, dim + 1) node indices
    boundary_nodes: np.ndarray        # (N,) bool
    boundary_weights: np.ndarray      # (N,) lumped P1 boundary measure

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_interior(self) -> int:
        return int((~self.boundary_nodes).sum())


def build_mesh(dim: int, resolution: int) -> Mesh:
    """Deterministic mesh of the unit ball.

    1D: uniform partition of [-1, 1] into ``resolution`` segments.
    2D: polar-ring triangulation with ``resolution`` rings;
    node count 1 + 3 R (R + 1), 6 R^2 triangles.
    """
    if dim == 1:
        if resolution < 2:
            raise ValueError(f"1D resolution must be >= 2, got {resolution}")
        return _build_mesh_1d(resolution)
    if dim == 2:
        if resolution < 1:
            raise ValueError(f"2D ring count must be >= 1, got {resolution}")
        return _build_mesh_2d(resolution)
    raise ValueError(f"unsupported mesh dimension {dim}")


def _build_mesh_1d(res: int) -> Mesh:
    nodes = np.linspace(-1.0, 1.0, res + 1).reshape(-1, 1)
    elements = np.column_stack([np.arange(res), np.arange(1, res + 1)])
    boundary = np.zeros(res + 1, dtype=bool)
    boundary[0] = boundary[-1] = True
    return Mesh(
        dim=1,
        nodes=nodes,
        elements=elements,
        boundary_nodes=boundary,
        boundary_weights=boundary.astype(float),
    )


def _build_mesh_2d(rings: int) -> Mesh:
    R = rings
    # Ring i holds 6i nodes from 1 + 3i(i - 1) on, and the strip inside it
    # 6(2i - 1) triangles from 6(i - 1)^2 on.  Both arrays are allocated
    # at full size first, so numpy refuses a ring count it cannot hold.
    nodes = np.zeros((1 + 3 * R * (R + 1), 2))
    elements = np.empty((6 * R * R, 3), dtype=int)
    # Every triangle is listed counterclockwise (Assembler._setup_2d
    # refuses any other).  Innermost fan around the center node.
    fan = 1 + np.arange(6)
    elements[:6] = np.column_stack([np.zeros(6, dtype=int), fan, np.roll(fan, -1)])
    sextant = np.arange(6)[:, None]
    for i in range(1, R + 1):
        s_in, s_out = 1 + 3 * (i - 1) * (i - 2), 1 + 3 * i * (i - 1)
        theta = 2.0 * np.pi * np.arange(6 * i) / (6 * i)
        ring = nodes[s_out:s_out + 6 * i]
        ring[:, 0], ring[:, 1] = i / R * np.cos(theta), i / R * np.sin(theta)
        if i == R:
            # Pin boundary nodes exactly onto the unit circle.
            ring /= np.linalg.norm(ring, axis=1)[:, None]
        if i == 1:
            continue
        # Strip between ring i-1 and ring i, built sextant by sextant so the
        # pattern is invariant under rotation by 60 degrees: i triangles
        # (o_j, o_j+1, a_j), then i - 1 triangles (a_j, o_j+1, a_j+1).
        o = s_out + (sextant * i + np.arange(i + 1)) % (6 * i)
        a = s_in + (sextant * (i - 1) + np.arange(i)) % (6 * (i - 1))
        strip = np.concatenate([np.stack([o[:, :-1], o[:, 1:], a], axis=-1),
                                np.stack([a[:, :-1], o[:, 1:-1], a[:, 1:]], axis=-1)], axis=1)
        elements[6 * (i - 1) ** 2:6 * i * i] = strip.reshape(-1, 3)

    # The outer ring is the boundary polygon, its nodes in order; each
    # gets half of its two edges.
    outer = 1 + 3 * R * (R - 1)
    boundary = np.zeros(len(nodes), dtype=bool)
    boundary[outer:] = True
    ring = nodes[outer:]
    edge = np.linalg.norm(np.roll(ring, -1, axis=0) - ring, axis=1)
    weights = np.zeros(len(nodes))
    weights[outer:] = 0.5 * (edge + np.roll(edge, 1))
    return Mesh(
        dim=2,
        nodes=nodes,
        elements=elements,
        boundary_nodes=boundary,
        boundary_weights=weights,
    )


# Degree-5 rule on the reference triangle (barycentric points, weights
# summing to 1); used for the weighted mass and nonlinear terms.
_A1 = (6.0 - np.sqrt(15.0)) / 21.0
_A2 = (6.0 + np.sqrt(15.0)) / 21.0
_W1 = (155.0 - np.sqrt(15.0)) / 1200.0
_W2 = (155.0 + np.sqrt(15.0)) / 1200.0
_TRI7_BARY = np.array(
    [
        [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
        [1.0 - 2.0 * _A1, _A1, _A1],
        [_A1, 1.0 - 2.0 * _A1, _A1],
        [_A1, _A1, 1.0 - 2.0 * _A1],
        [1.0 - 2.0 * _A2, _A2, _A2],
        [_A2, 1.0 - 2.0 * _A2, _A2],
        [_A2, _A2, 1.0 - 2.0 * _A2],
    ]
)
_TRI7_W = np.array([9.0 / 40.0, _W1, _W1, _W1, _W2, _W2, _W2])

_TRI3_BARY = np.array(
    [
        [2.0 / 3.0, 1.0 / 6.0, 1.0 / 6.0],
        [1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0],
        [1.0 / 6.0, 1.0 / 6.0, 2.0 / 3.0],
    ]
)
_TRI3_W = np.full(3, 1.0 / 3.0)

# 3-point Gauss on [-1, 1].
_G3_X = np.array([-np.sqrt(3.0 / 5.0), 0.0, np.sqrt(3.0 / 5.0)])
_G3_W = np.array([5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0])


class Assembler:
    """Caches mesh geometry, quadrature data and the interior scatter.

    Per mesh, once: element gradients G_t, quadrature points x, the
    interior pattern (the pairs of interior nodes sharing an element,
    indices sorted; symmetric, so its CSR and CSC arrays are the same),
    the slot among its upper entries of every upper element entry
    (i <= j), the mirror map from each pattern entry to the upper entry
    of its pair, the stiffness projectors

        P1_t = G_t G_t^T,   P2_tq = (G_t e_q)(G_t e_q)^T   (e = x/|x|, 0 at x = 0),

    half-stored with the element index last, (nu, ne) and (qg, nu, ne)
    for nu = nv (nv + 1) / 2 upper entries i <= j, the
    sorted distinct radii |x| of all quadrature points with the index
    into them of each gradient point and each mass point, and the Gram
    matrix, the scatter of (sum_q gw) P1_t.  Per call, with gw = grad_w,
    (w, a) = ``metric.coefficients`` at r times the distinct radii,
    gathered to the points, every form goes through two half-stored
    element kernels, each (ne, nu)

        stiffness  K_t = (sum_q gw a) P1_t + sum_q gw (w - a) P2_tq
        mass       M_t = (mass_w w c)_t @ Phi,  Phi[q, k] = phi_i phi_j, (i, j) upper entry k

    with c = f for H(r) and c = dV/du(r x, u) for J(r, u).  ``h`` and
    ``boundary_flux`` share the element matrices K_t + r^2 M_t of H(r); the
    flux applies their boundary-node rows to a vector extended by zero,
    and ``residual`` applies K_t column by column.  The mass and nonlinear
    terms read only w from the metric.  Element matrices become ``data``
    on the pattern by one ``np.bincount`` into the upper entries and one
    gather through the mirror map: entries (i, j) and (j, i) read the same
    float, so the matrix is symmetric by construction.  A matrix is
    ``data`` wrapped as a ``csc_matrix`` on the pattern's arrays; write
    data(X) for the ``data`` of element matrices X.  The metric chooses
    the formula, so every form at r has the same bits whatever was
    assembled before:

        curved   H, J = data(K + r^2 M), one scatter per form
        flat     H, J = data(K) + r^2 data(M), data(K) kept across radii
                        and, when f is constant, data(M) of H too

    A flat metric (w = a = 1) gives K_t = (sum_q gw) P1_t, the Gram
    matrix's kernel, bit for bit, at every r.  In both formulas J(r, 0)
    equals H(r) exactly.

    The r-only data of the last radius sits in one slot, a tuple
    ``(r, K, mass_w w, f, data(K), data(M))``: K_t, mass_w w and f at the
    mass points, and on a flat metric the scattered stiffness and, when f
    is constant, the scattered f-mass (None otherwise).  Newton
    continuation calls ``residual`` and ``jacobian`` many times at one r,
    and they recompute nothing on a repeat of r.  A new r evaluates the
    profiles once.  A curved metric then rebuilds the slot; a flat one
    keeps everything but f and the f-mass, and those too when f is
    constant, so ``h`` at a new r is one axpy of nnz values.  The slot is
    read once and replaced as a whole tuple, never mutated, and its arrays
    are read only, so concurrent ``h`` calls at different radii each
    compute from a consistent tuple; a race costs at most a recomputation.

    ``h`` also takes a complex radius r + i eps, the complex step of
    ``conjugate.crossing_form_fd``: Im H(r + i eps) / eps is H'(r) to
    rounding.  Such a call may read the slot but never replaces it.
    """

    def __init__(self, mesh: Mesh, metric: MetricModel, spec: ProblemSpec):
        self.mesh = mesh
        self.metric = metric
        self.spec = spec
        if mesh.dim == 1:
            self._setup_1d()
        else:
            self._setup_2d()
        nv = mesh.elements.shape[1]
        iu, ju = np.triu_indices(nv)                       # upper entries i <= j
        self._full = np.empty((nv, nv), dtype=np.intp)     # (i, j) -> its upper entry
        self._full[iu, ju] = self._full[ju, iu] = np.arange(iu.size)
        phi = self.mass_phi
        self._phi2 = np.ascontiguousarray((phi[iu] * phi[ju]).T)   # (qm, nu)
        self._int_idx = np.flatnonzero(~mesh.boundary_nodes)
        self._setup_scatter(iu, ju)
        self._flat = metric.kappa == 0.0
        # The metric depends on x only through |x| and e e^T (e = 0 at x = 0).
        # Many points share |x| (the 1D mesh is mirror-symmetric, the polar
        # one rotation-symmetric), so the profiles are evaluated once per
        # distinct radius and gathered.
        qg = self.grad_w.shape[1]
        radius = np.hstack([np.linalg.norm(self.grad_pts, axis=2),
                            np.linalg.norm(self.mass_pts, axis=2)])   # (ne, qg + qm)
        self._radii, inverse = np.unique(radius, return_inverse=True)
        inverse = inverse.reshape(radius.shape)
        self._grad_radius = np.ascontiguousarray(inverse[:, :qg].T)   # (qg, ne)
        self._mass_radius = np.ascontiguousarray(inverse[:, qg:])
        gr = radius[:, :qg, None]
        e = self.grad_pts / np.where(gr > 0.0, gr, 1.0)              # (ne, qg, d)
        G = self.grads                                                # (ne, nv, d)
        Ge = (e @ G.transpose(0, 2, 1)).transpose(2, 1, 0)           # (nv, qg, ne)
        # The projectors are stored element index last, so that the
        # per-radius sums over q run along contiguous rows of ne values.
        # Each entry of P1 is a (1 x d)(d x 1) matmul, so that it rounds as
        # the entry of the product G_t G_t^T does; a sum of elementwise
        # products rounds differently in 2D.
        self._P1 = np.ascontiguousarray(
            (G[:, iu, None, :] @ G[:, ju, :, None])[:, :, 0, 0].T)         # (nu, ne)
        self._P2 = np.ascontiguousarray(
            (Ge[iu] * Ge[ju]).transpose(1, 0, 2))                          # (qg, nu, ne)
        self._S = self._csc(self._data((self.grad_w.sum(axis=1) * self._P1).T))
        self._lu_S = None
        self._at_r = None  # (r, K, mass_w w, f, data(K), data(M)) of the last radius

    # -- geometry -----------------------------------------------------------

    def _setup_1d(self):
        mesh = self.mesh
        verts = mesh.nodes[mesh.elements][:, :, 0]     # (ne, 2)
        h = verts[:, 1] - verts[:, 0]
        if np.any(h <= 1e-14):
            raise ValueError("degenerate 1D element")
        self.grads = np.stack([-1.0 / h, 1.0 / h], axis=1)[:, :, None]  # (ne,2,1)
        mid = 0.5 * (verts[:, 0] + verts[:, 1])
        self.grad_pts = mid[:, None, None]                 # (ne, 1, 1)
        self.grad_w = h[:, None]                           # midpoint rule
        x = mid[:, None] + 0.5 * h[:, None] * _G3_X[None, :]
        self.mass_pts = x[:, :, None]                      # (ne, 3, 1)
        self.mass_w = 0.5 * h[:, None] * _G3_W[None, :]
        lam1 = 0.5 * (1.0 + _G3_X)
        self.mass_phi = np.stack([1.0 - lam1, lam1], axis=0)  # (nv, qm) = (2, 3)

    def _setup_2d(self):
        mesh = self.mesh
        v = mesh.nodes[mesh.elements]                      # (ne, 3, 2)
        e1 = v[:, 1] - v[:, 0]
        e2 = v[:, 2] - v[:, 0]
        det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        area = 0.5 * det
        if np.any(area <= 1e-14):
            raise ValueError("degenerate or misoriented triangle")
        g1 = np.stack([e2[:, 1], -e2[:, 0]], axis=1) / det[:, None]
        g2 = np.stack([-e1[:, 1], e1[:, 0]], axis=1) / det[:, None]
        self.grads = np.stack([-g1 - g2, g1, g2], axis=1)  # (ne, 3, 2)
        self.grad_pts = np.einsum("qi,tid->tqd", _TRI3_BARY, v)
        self.grad_w = area[:, None] * _TRI3_W[None, :]
        self.mass_pts = np.einsum("qi,tid->tqd", _TRI7_BARY, v)
        self.mass_w = area[:, None] * _TRI7_W[None, :]
        self.mass_phi = _TRI7_BARY.T                       # (3, 7)

    def _setup_scatter(self, iu: np.ndarray, ju: np.ndarray):
        """Interior pattern, upper element-entry slots, mirror gather.

        Upper entry k of element t, the pair (iu[k], ju[k]) of its nodes,
        goes to slot ``_slot[t * nu + k]`` of the pattern's upper entries
        (row <= col, in pattern order); entries touching a boundary node
        go to one extra slot past them, which is discarded.  ``_mirror``
        maps every pattern entry to the upper entry of its pair.
        """
        n = self._int_idx.size
        dof = np.full(self.mesh.n_nodes, -1)
        dof[self._int_idx] = np.arange(n)
        dof = dof[self.mesh.elements]                          # (ne, nv)
        a, b = dof[:, iu].ravel(), dof[:, ju].ravel()
        lo, hi = np.minimum(a, b).astype(np.int64), np.maximum(a, b)
        inside = lo >= 0
        upper, slot = np.unique(lo[inside] * n + hi[inside], return_inverse=True)
        urow, ucol = np.divmod(upper, n)
        off = urow != ucol
        pattern = np.sort(np.concatenate([upper, ucol[off] * n + urow[off]]))
        prow, pcol = np.divmod(pattern, n)
        self._indptr = np.searchsorted(prow, np.arange(n + 1)).astype(np.int32)
        self._indices = pcol.astype(np.int32)
        self._mirror = np.searchsorted(upper, np.minimum(prow, pcol) * n
                                       + np.maximum(prow, pcol))
        self._slot = np.full(a.size, upper.size)
        self._slot[inside] = slot

    # -- element kernels and scatter -------------------------------------------

    def _f_values(self, r: complex):
        """f(r x) at the mass points; the points r x are built only for an
        f that depends on them."""
        ne, qm, d = self.mass_pts.shape
        c = self.spec.f_constant
        if c is None:
            return self.spec.f_values((r * self.mass_pts).reshape(-1, d)).reshape(ne, qm)
        return np.full((ne, qm), c)

    def _r_slot(self, r: complex):
        """The slot's tuple at r (see the class docstring), read from the
        slot when r is the last radius; every form checks r here.  A
        complex r (a complex step) may read the slot but never replaces
        it."""
        if not 0.0 <= r.real <= 1.0:
            raise ValueError(f"scale parameter r = {r} outside [0, 1]")
        slot = self._at_r
        if slot is not None and slot[0] == r:
            return slot
        # Once per new r; a flat metric's profiles are exact ones, which
        # only the first slot reads.
        w, a = metric_mod.coefficients(self.metric, r * self._radii, self.mesh.dim)
        K = fq = Md = None
        if self._flat and slot is not None:
            # w = a = 1 at every r, so the stiffness and mass_w w are the
            # slot's bit for bit, and f and the f-mass are too when f is
            # constant, complex radii included.
            _, K, wq, fq, Kd, Md = slot
            if self.spec.f_constant is None:
                fq = Md = None
        keep = not np.iscomplexobj(r)
        if keep:
            # Release the old radius's data first: kept while the new is
            # built, it would raise peak memory by one slot.
            slot = self._at_r = None
        if K is None:
            wg, ag = w.take(self._grad_radius), a.take(self._grad_radius)
            # A = a I + (w - a) e e^T, so G A G^T splits over the projectors;
            # when w = a = 1 the second sum is exactly 0 and K_t the Gram
            # kernel.  Both sums run over q in index order.
            gw = self.grad_w.T
            ga, c = gw * ag, gw * (wg - ag)                           # (qg, ne)
            s, E = ga[0], c[0] * self._P2[0]
            for q in range(1, len(c)):
                s = s + ga[q]
                E += c[q] * self._P2[q]
            K = np.ascontiguousarray((s * self._P1 + E).T)           # (ne, nu)
            wq = self.mass_w * w.take(self._mass_radius)
            Kd = self._data(K) if self._flat else None
        if fq is None:
            fq = self._f_values(r)
            if self._flat and self.spec.f_constant is not None:
                Md = self._data((wq * fq) @ self._phi2)
        slot = (r, K, wq, fq, Kd, Md)
        if keep:
            for arr in slot[1:]:
                if arr is not None:
                    arr.flags.writeable = False
            self._at_r = slot
        return slot

    def _r_data(self, r: complex):
        """(K, mass_w w, f) at r."""
        return self._r_slot(r)[1:4]

    def _data(self, elem_mats: np.ndarray) -> np.ndarray:
        """The pattern's ``data`` of the half-stored element matrices
        (ne, nu): one scatter into the upper entries, mirrored onto the
        whole pattern by one gather, so symmetric by construction."""
        # Every upper entry receives an element entry, so the counts cover
        # them all (and the discard slot after them, when it is used).
        d = np.bincount(self._slot, weights=elem_mats.real.ravel())
        if np.iscomplexobj(elem_mats):  # np.bincount sums real weights only
            d = d + 1j * np.bincount(self._slot, weights=elem_mats.imag.ravel())
        return d[self._mirror]

    def _csc(self, data: np.ndarray) -> sp.csc_matrix:
        n = self.mesh.n_interior
        # Symmetric values on a symmetric pattern: the CSR arrays are also
        # the CSC arrays of the same matrix.
        return sp.csc_matrix(
            (data, self._indices.copy(), self._indptr.copy()), shape=(n, n)
        )

    def _element_values(self, u: np.ndarray):
        """Nodal values per element (ne, nv) and values at the mass points."""
        full = np.zeros(self.mesh.n_nodes)
        full[self._int_idx] = u
        ue = full[self.mesh.elements]
        return ue, ue @ self.mass_phi

    # -- public assembly ------------------------------------------------------

    def gram(self) -> sp.csc_matrix:
        return self._S

    def gram_lu(self):
        if self._lu_S is None:
            self._lu_S = factor(self._S)
        return self._lu_S

    def _assemble(self, r: complex, K, Kd, mass: np.ndarray) -> sp.csc_matrix:
        """K + r^2 M on the pattern from the mass kernel M_t (ne, nu),
        by the metric's formula: one scatter of K_t + r^2 M_t (curved, no
        kept data(K)), or data(K) plus r^2 times the scatter of M_t (flat)."""
        if Kd is None:
            return self._csc(self._data(K + r * r * mass))
        return self._csc(Kd + r * r * self._data(mass))

    def h(self, r: complex) -> sp.csc_matrix:
        _, K, wq, fq, Kd, Md = self._r_slot(r)
        if Md is not None:
            return self._csc(Kd + r * r * Md)
        return self._assemble(r, K, Kd, (wq * fq) @ self._phi2)

    def boundary_flux(self, r: float, V: np.ndarray) -> np.ndarray:
        """Boundary-node rows, in ``mesh.boundary_nodes`` order, of the
        full-node H(r) applied to V (n_interior, m) extended by zero: the
        discrete flux sigma_b ~ int (A grad u . n) phi_b dS, by Green's
        identity, of a u that solves the interior equation."""
        ne, nv = self.mesh.elements.shape
        full = np.zeros((self.mesh.n_nodes, V.shape[1]))
        full[self._int_idx] = V
        K, wq, fq = self._r_data(r)
        He = K + r * r * ((wq * fq) @ self._phi2)
        # The full matrices, C-ordered by ``take``: a column gather would be
        # Fortran-ordered, and the batched product rounds those differently.
        Fe = He.take(self._full.ravel(), axis=1).reshape(ne, nv, nv) @ full[self.mesh.elements]
        sigma = np.zeros_like(full)
        np.add.at(sigma, self.mesh.elements.ravel(), Fe.reshape(ne * nv, -1))
        return sigma[self.mesh.boundary_nodes]

    def jacobian(self, r: float, u: np.ndarray) -> sp.csc_matrix:
        _, uq = self._element_values(u)
        _, K, wq, fq, Kd, _ = self._r_slot(r)
        return self._assemble(r, K, Kd, (wq * self.spec.dv_values(fq, uq)) @ self._phi2)

    def residual(self, r: float, u: np.ndarray) -> np.ndarray:
        ue, uq = self._element_values(u)
        nv = ue.shape[1]
        K, wq, fq = self._r_data(r)
        # K_t ue_t column by column, each column one gather of the upper
        # entries, summed first + last column, then the middle one: the
        # order in which np.einsum("eij,ej->ei") sums a row of nv <= 3
        # entries, so F is that product of the full matrices bit for bit.
        first, *rest = (0, nv - 1, *range(1, nv - 1))
        Fs = K[:, self._full[first]] * ue[:, first, None]
        for j in rest:
            Fs += K[:, self._full[j]] * ue[:, j, None]
        # The gathers are Fortran-ordered; the scatter reads Fe C-ordered.
        Fe = np.add(Fs, r * r * ((wq * self.spec.v_values(fq, uq)) @ self.mass_phi.T),
                    order="C")
        F = np.bincount(
            self.mesh.elements.ravel(), weights=Fe.ravel(), minlength=self.mesh.n_nodes
        )
        return F[self._int_idx]
