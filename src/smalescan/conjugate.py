"""Scan the radius family, locate conjugate radii, crossing forms, index.

A conjugate radius is a parameter r* where the discrete form H(r)
becomes degenerate.  Since the crossing form is negative definite,
eigenvalue branches cross zero transversally downward, so the negative
count n_neg(H(r)) is a nondecreasing step function of r.  The count has
one definition, ``_n_neg_evaluator``: the scan evaluates it once per
grid point and checks that it rises, and bisection starts from the
scan's counts at the ends of every rising grid cell; its
split-and-recurse alone separates crossings that share a cell.

The crossing form on the kernel at r* is computed two independent
ways: as the central difference of the assembled bilinear form in r
(the precision anchor), and as the boundary integral

    Gamma[u] = -(1/r*) int_{dB} <grad u, x>^2 <A(r* x) x, x> dS

evaluated with elementwise-constant gradients from boundary-adjacent
elements (the formula witness).  Their agreement, the negative
definiteness of the form, and the index identity

    mu(H(1)) = sum of multiplicities over 0 < r < 1

are the verification products of this module.

Every stage that assembles takes the ``fem.Assembler`` of one problem
first: it owns the mesh, the metric and the problem spec, so the radius
family H(r) a stage works on is fixed by that one argument.
``verify_index`` assembles nothing: it reads mu = n_neg(H(1)) and the
count at the smallest radius off a scan that ends at r = 1.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from . import metric as metric_mod
from .fem import Assembler
from .spectral import FactorizationError, inertia, kernel_eigenpairs

__all__ = [
    "ScanResult",
    "ConjugateRadius",
    "CrossingFormReport",
    "IndexReport",
    "VerificationError",
    "DegenerateRadiusOneError",
    "scan",
    "find_conjugate_radii",
    "crossing_form_fd",
    "crossing_form_boundary",
    "verify_crossing",
    "endpoint_kernel_gap",
    "verify_index",
]

R_MIN_FLOOR = 1e-3
BISECTION_TOL = {1: 1e-8, 2: 1e-6}
KERNEL_RESIDUAL_TOL = 1e-6
KERNEL_THRESHOLD_AT_ONE = 1e-7
DEFAULT_GRID_POINTS = 200


class VerificationError(RuntimeError):
    """A verified identity or definiteness property failed."""


class DegenerateRadiusOneError(RuntimeError):
    """H(1) is degenerate: the standing assumption m(1) = 0 is violated."""


@dataclass(frozen=True)
class ScanResult:
    """Negative counts over an ascending radius grid."""

    r: np.ndarray
    n_neg: np.ndarray

    def brackets(self) -> List[Tuple[float, int, float, int]]:
        """(r_lo, n_lo, r_hi, n_hi) of every grid cell where n_neg rises."""
        return [
            (float(self.r[i]), int(self.n_neg[i]),
             float(self.r[i + 1]), int(self.n_neg[i + 1]))
            for i in range(len(self.r) - 1)
            if self.n_neg[i + 1] > self.n_neg[i]
        ]


@dataclass(frozen=True)
class ConjugateRadius:
    r_star: float
    multiplicity: int
    kernel_basis: np.ndarray        # (n, m), S-orthonormal columns
    bracket: Tuple[float, float]

    @property
    def bracket_width(self) -> float:
        return self.bracket[1] - self.bracket[0]


@dataclass(frozen=True)
class CrossingFormReport:
    r_star: float
    multiplicity: int
    gamma_fd: np.ndarray
    gamma_bd: np.ndarray
    signature: int
    agreement: float


@dataclass(frozen=True)
class IndexReport:
    morse_index_at_1: int
    conjugate_list: List[Tuple[float, int]]
    sum_m: int
    identity_holds: bool
    morse_index_small_r: int
    corollary_bound: int


def _n_neg_evaluator(asm: Assembler):
    """Closure r -> n_neg(H(r)), the one negative count of the package.

    Counts strictly by pivot sign.  A rejected sparse factorization
    (an exactly zero diagonal pivot or pivot growth) occurs only on a
    measure-zero set of radii; a deterministic nudge of relative size
    1e-9, toward the interior of (0, 1], moves off it without affecting
    any located quantity (bisection tolerances are 1e-8 and coarser).
    """

    def n_neg(r: float) -> int:
        shift = 0.0
        for attempt in range(4):
            try:
                return inertia(asm.h(r + shift if r + shift <= 1.0 else r - shift))
            except FactorizationError:
                shift = (attempt + 1) * 1e-9 * (1.0 + r)
        raise FactorizationError(f"inertia evaluation failed near r = {r}")

    return n_neg


def _check_rise(r_a: float, n_a: int, r_b: float, n_b: int):
    """Raise unless n_neg(r_a) <= n_neg(r_b) for r_a < r_b."""
    if n_b < n_a:
        raise VerificationError(
            f"negative count drops from {n_a} at r = {float(r_a)!r} to {n_b} at "
            f"r = {float(r_b)!r}; n_neg(H(r)) must be nondecreasing"
        )


def scan(asm: Assembler, r_grid: Sequence[float], threads: int = 1) -> ScanResult:
    """Negative counts over a grid, checked to rise from point to point.

    The grid must be ascending inside [R_MIN_FLOOR, 1]; the lower cutoff
    excludes the degenerate limit r -> 0 where the ball collapses.
    Grid points are independent; with ``threads > 1`` they are evaluated
    concurrently and collected in grid order, so output is identical to
    the sequential run.  A count that drops between consecutive grid
    points raises ``VerificationError`` naming both radii.
    """
    r_grid = np.asarray(list(r_grid), dtype=float)
    if r_grid.ndim != 1 or len(r_grid) == 0:
        raise ValueError("empty scan grid")
    if np.any(np.diff(r_grid) <= 0.0):
        raise ValueError("scan grid must be strictly ascending")
    if r_grid[0] < R_MIN_FLOOR - 1e-15 or r_grid[-1] > 1.0 + 1e-15:
        raise ValueError(f"scan grid must lie in [{R_MIN_FLOOR}, 1]")
    count = _n_neg_evaluator(asm)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            counts = list(pool.map(count, r_grid))
    else:
        counts = [count(r) for r in r_grid]
    for i in range(len(r_grid) - 1):
        _check_rise(r_grid[i], counts[i], r_grid[i + 1], counts[i + 1])
    return ScanResult(r=r_grid, n_neg=np.array(counts, dtype=int))


def _bisect(n_neg, r_lo, n_lo, r_hi, n_hi, tol) -> List[Tuple[float, float, int, int]]:
    """Shrink [r_lo, r_hi] around each crossing down to width <= tol.

    Returns final brackets (lo, hi, n_lo, n_hi).  When the midpoint
    count splits the jump, both halves carry a crossing and are
    refined independently (split-and-recurse).  A midpoint count
    outside [n_lo, n_hi] contradicts monotonicity and is raised.
    """
    stack = [(r_lo, n_lo, r_hi, n_hi)]
    final = []
    while stack:
        lo, nlo, hi, nhi = stack.pop()
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            nmid = n_neg(mid)
            _check_rise(lo, nlo, mid, nmid)
            _check_rise(mid, nmid, hi, nhi)
            if nmid > nlo and nmid < nhi:
                stack.append((mid, nmid, hi, nhi))
                hi, nhi = mid, nmid
            elif nmid == nlo:
                lo = mid
            else:
                hi = mid
        final.append((lo, hi, nlo, nhi))
    final.sort()
    return final


def find_conjugate_radii(asm: Assembler, scan_result: ScanResult) -> List[ConjugateRadius]:
    """Conjugate radii inside every rising cell of a scan.

    Bisection starts from the scan's counts at the cell ends and runs on
    the same strict negative count; its split-and-recurse separates any
    two crossings more than about half the tolerance apart.  Brackets
    that keep a jump >= 2 down to the final width are genuine multiple
    crossings, and their multiplicity is the jump itself.  Kernel bases
    come from the smallest-|lambda| eigenvectors at the final midpoint.
    Brackets shrink to BISECTION_TOL of the mesh dimension.
    """
    tol = BISECTION_TOL[asm.mesh.dim]
    n_neg = _n_neg_evaluator(asm)
    S = asm.gram()
    out = []
    for r_lo, n_lo, r_hi, n_hi in scan_result.brackets():
        for blo, bhi, bnlo, bnhi in _bisect(n_neg, r_lo, n_lo, r_hi, n_hi, tol):
            m = bnhi - bnlo
            r_star = 0.5 * (blo + bhi)
            H = asm.h(r_star)
            basis = kernel_eigenpairs(H, S, m).vectors
            Hnorm = abs(H).max()
            for j in range(m):
                v = basis[:, j]
                rel = np.linalg.norm(H @ v) / (Hnorm * math.sqrt(v @ (S @ v)))
                if rel > KERNEL_RESIDUAL_TOL:
                    raise VerificationError(
                        f"kernel vector residual {rel:.2e} exceeds "
                        f"{KERNEL_RESIDUAL_TOL} at r* = {r_star}"
                    )
            out.append(
                ConjugateRadius(
                    r_star=r_star, multiplicity=m, kernel_basis=basis, bracket=(blo, bhi)
                )
            )
    return out


def crossing_form_fd(asm: Assembler, conj: ConjugateRadius) -> np.ndarray:
    """Crossing form on the kernel by central differencing of H(r).

    Gamma_ij = (u_i^T H(r*+d) u_j - u_i^T H(r*-d) u_j) / (2 d), with the
    step d = 1e-4 r*.  H(r) is defined on [0, 1] only, so when
    r* + d > 1 the second-order backward stencil
    (3 H(r*) - 4 H(r*-d) + H(r*-2d)) / (2 d) takes its place.  A
    Richardson audit at d/2 must agree to 1 percent; for forms
    polynomial of degree <= 2 in r both stencils are exact and the
    audit is trivially satisfied.
    """
    r0 = conj.r_star
    delta = 1e-4 * r0
    V = conj.kernel_basis

    def q(r):
        return V.T @ (asm.h(r) @ V)

    def gamma(d):
        if r0 + d <= 1.0:
            G = (q(r0 + d) - q(r0 - d)) / (2.0 * d)
        else:
            G = (3.0 * q(r0) - 4.0 * q(r0 - d) + q(r0 - 2.0 * d)) / (2.0 * d)
        return 0.5 * (G + G.T)

    G = gamma(delta)
    G_half = gamma(0.5 * delta)
    denom = np.linalg.norm(G_half, "fro")
    if denom > 0.0:
        discrepancy = np.linalg.norm(G - G_half, "fro") / denom
        if discrepancy > 0.01:
            raise VerificationError(
                f"finite-difference step audit failed at r* = {r0}: "
                f"delta vs delta/2 discrepancy {discrepancy:.2e}"
            )
    return G


def _boundary_quadratic_2d(asm: Assembler, r0: float, ufull: np.ndarray) -> float:
    mesh = asm.mesh
    edges = mesh.boundary_edges
    tris = mesh.boundary_elements
    p0 = mesh.nodes[edges[:, 0]]
    p1 = mesh.nodes[edges[:, 1]]
    length = np.linalg.norm(p1 - p0, axis=1)
    # Elementwise-constant gradient of the adjacent triangle.
    ue = ufull[mesh.elements[tris]]
    gu = np.einsum("tia,ti->ta", asm.grads[tris], ue)
    total = 0.0
    # Two-point Gauss along each straight edge.
    for s in (0.5 - 0.5 / math.sqrt(3.0), 0.5 + 0.5 / math.sqrt(3.0)):
        x = (1.0 - s) * p0 + s * p1
        A, _ = metric_mod.coefficients(asm.metric, r0 * x)
        axx = np.einsum("ta,tab,tb->t", x, A, x)
        gux = np.einsum("ta,ta->t", gu, x)
        total += 0.5 * np.sum(length * gux * gux * axx)
    return -total / r0


def _boundary_quadratic_1d(asm: Assembler, r0: float, ufull: np.ndarray) -> float:
    mesh = asm.mesh
    h_left = mesh.nodes[1, 0] - mesh.nodes[0, 0]
    h_right = mesh.nodes[-1, 0] - mesh.nodes[-2, 0]
    du_left = (ufull[1] - ufull[0]) / h_left
    du_right = (ufull[-1] - ufull[-2]) / h_right
    A, _ = metric_mod.coefficients(asm.metric, r0 * np.array([[1.0], [-1.0]]))
    return -(du_right ** 2 * A[0, 0, 0] + du_left ** 2 * A[1, 0, 0]) / r0


def crossing_form_boundary(asm: Assembler, conj: ConjugateRadius) -> np.ndarray:
    """Crossing form by the boundary integral, independent of the fd route.

    In 1D the integral degenerates to the two-endpoint sum.  Off-diagonal
    entries come from the polarization identity
    Gamma(u, v) = (Gamma[u + v] - Gamma[u - v]) / 4.
    """
    mesh = asm.mesh
    r0 = conj.r_star
    quad = _boundary_quadratic_1d if mesh.dim == 1 else _boundary_quadratic_2d
    int_idx = np.flatnonzero(~mesh.boundary_nodes)

    def q(u):
        full = np.zeros(mesh.n_nodes)
        full[int_idx] = u
        return quad(asm, r0, full)

    V = conj.kernel_basis
    m = V.shape[1]
    G = np.empty((m, m))
    for i in range(m):
        G[i, i] = q(V[:, i])
        for j in range(i + 1, m):
            G[i, j] = G[j, i] = 0.25 * (q(V[:, i] + V[:, j]) - q(V[:, i] - V[:, j]))
    return G


def verify_crossing(asm: Assembler, conj: ConjugateRadius) -> CrossingFormReport:
    """Both crossing forms, definiteness check and the agreement figure.

    The fd form must be negative definite; its signature is then -m and
    |signature| equals the multiplicity, which is what makes every
    crossing a genuine bifurcation point.  A failure here flags either
    a discretization problem or a violated hypothesis and is raised,
    never patched.
    """
    gamma_fd = crossing_form_fd(asm, conj)
    gamma_bd = crossing_form_boundary(asm, conj)
    eigs = np.linalg.eigvalsh(gamma_fd)
    if np.any(eigs >= 0.0):
        raise VerificationError(
            f"crossing form at r* = {conj.r_star} is not negative definite "
            f"(eigenvalues {eigs})"
        )
    signature = -len(eigs)
    agreement = np.linalg.norm(gamma_fd - gamma_bd, "fro") / np.linalg.norm(
        gamma_fd, "fro"
    )
    return CrossingFormReport(
        r_star=conj.r_star,
        multiplicity=conj.multiplicity,
        gamma_fd=gamma_fd,
        gamma_bd=gamma_bd,
        signature=signature,
        agreement=float(agreement),
    )


def endpoint_kernel_gap(asm: Assembler) -> float:
    """|lambda| of the pencil eigenvalue of (H(1), S) nearest zero.

    Raises ``DegenerateRadiusOneError`` when it is below
    KERNEL_THRESHOLD_AT_ONE: the index identity presumes no degeneracy
    at the endpoint, and a run that violates the assumption must abort
    rather than guess.
    """
    gap = float(abs(kernel_eigenpairs(asm.h(1.0), asm.gram(), 1).values[0]))
    if gap < KERNEL_THRESHOLD_AT_ONE:
        raise DegenerateRadiusOneError(
            f"|lambda_min(H(1), S)| = {gap:.3e} < {KERNEL_THRESHOLD_AT_ONE}"
        )
    return gap


def verify_index(
    scan_result: ScanResult, conjugates: Sequence[ConjugateRadius]
) -> IndexReport:
    """Morse index at r = 1 against the summed crossing multiplicities.

    mu = n_neg(H(1)) and the count at the smallest radius are the last
    and the first counts of ``scan_result``, which must end at r = 1.
    The identity presumes H(1) non-degenerate; ``endpoint_kernel_gap``
    checks that, and a caller runs it before trusting the report.
    """
    if scan_result.r[-1] != 1.0:
        raise ValueError("verify_index needs a scan that ends at r = 1")
    mu = int(scan_result.n_neg[-1])
    n_small = int(scan_result.n_neg[0])
    conj_list = [(c.r_star, c.multiplicity) for c in sorted(conjugates, key=lambda c: c.r_star)]
    sum_m = int(sum(m for _, m in conj_list))
    max_m = max((m for _, m in conj_list), default=0)
    bound = mu // max_m if max_m > 0 else 0
    return IndexReport(
        morse_index_at_1=mu,
        conjugate_list=conj_list,
        sum_m=sum_m,
        identity_holds=(mu == sum_m),
        morse_index_small_r=n_small,
        corollary_bound=int(bound),
    )
