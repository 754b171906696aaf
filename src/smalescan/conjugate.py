"""Scan the radius family, locate conjugate radii, crossing forms, index.

A conjugate radius is a parameter r* where the discrete form H(r)
becomes degenerate.  Since the crossing form is negative definite,
eigenvalue branches cross zero transversally downward, so the negative
count n_neg(H(r)) is a nondecreasing step function of r.  The count has
one definition, ``_n_neg_evaluator``: the scan evaluates it once per
grid point and checks that it rises, and bisection starts from the
scan's counts at the ends of every rising grid cell; its
split-and-recurse alone separates crossings that share a cell.  Each
bisection probe sits at a safeguarded secant zero of the pencil
eigenvalue of (H(r), S) nearest zero, read off the factor that the
probe's own count made, so the probes home in on the crossing while
every one of them is still a certified count.

The crossing form on the kernel at r* is computed two independent
ways: as the r-derivative of the assembled bilinear form, taken by one
complex-step assembly (the precision anchor), and as the boundary
integral

    Gamma(u, v) = -(1/r*) int_{dB} <grad u, x> <grad v, x> <A(r* x) x, x> dS

(the formula witness).  On the unit sphere A(r* x) x = w(r*) x, so with
the discrete flux sigma of ``fem.Assembler.boundary_flux`` and the
lumped boundary weights m_b it reads

    Gamma = -(1/(r* w(r*))) sum_b sigma_b sigma_b^T / m_b.

Their agreement, the negative definiteness of the form, and the index
identity

    mu(H(1)) = sum of multiplicities over 0 < r < 1

are the verification products of this module.

Every stage that assembles takes the ``fem.Assembler`` of one problem
first: it owns the mesh, the metric and the problem spec, so the radius
family H(r) a stage works on is fixed by that one argument.
``verify_index`` assembles nothing: it reads mu = n_neg(H(1)) and the
count at the smallest radius off a scan that ends at r = 1, and
``endpoint_kernel_gap`` checks that H(1) is non-degenerate by two counts.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from . import metric as metric_mod
from .fem import Assembler
from .spectral import KERNEL_SEED, FactorizationError, inertia, kernel_eigenpairs

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
# Inverse-iteration solves per bisection probe for the eigenvalue that
# places the next probe.
SECANT_SOLVES = 2


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
    The closure's ``keep`` attribute is None; set to a one-element list,
    it receives the factor of each count (see ``spectral.inertia``).
    """

    def n_neg(r: float) -> int:
        shift = 0.0
        for attempt in range(4):
            try:
                return inertia(
                    asm.h(r + shift if r + shift <= 1.0 else r - shift), n_neg.keep
                )
            except FactorizationError:
                shift = (attempt + 1) * 1e-9 * (1.0 + r)
        raise FactorizationError(f"inertia evaluation failed near r = {r}")

    n_neg.keep = None
    return n_neg


def _nearest_eigenvalue(lu, S, x: np.ndarray):
    """Eigenvalue of the pencil (H, S) nearest zero, and its S-normalized
    vector, after SECANT_SOLVES inverse-iteration solves from x with the
    factor ``lu`` of H.

    With y = H^-1 S x the estimate is x^T S x / x^T S y, a Rayleigh
    quotient of the inverted pencil: its error is relative to the
    eigenvalue itself, however close to zero that is.  None when
    x^T S y is zero.
    """
    Sx = S @ x
    xSx = x @ Sx
    for _ in range(SECANT_SOLVES):
        y = lu.solve(Sx)
        ySx = y @ Sx
        if ySx == 0.0:
            return None, x
        lam = xSx / ySx
        Sy = S @ y
        norm = math.sqrt(y @ Sy)
        x, Sx, xSx = y / norm, Sy / norm, 1.0
    return lam, x


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


def _secant_probe(lo: float, hi: float, samples, tol: float):
    """Probe a third of tol from the secant zero of the last two samples
    (r, lambda), toward the longer side of [lo, hi]; None when there are
    fewer than two samples or the zero is not inside the bracket.

    Stepping off the estimate toward the longer side makes the count
    move that end, so an estimate good to tol/3 closes the bracket to
    2 tol/3 in two probes, one on each side.
    """
    if len(samples) < 2:
        return None
    (a, fa), (b, fb) = samples[-2:]
    if fa == fb:
        return None
    s = b - fb * (b - a) / (fb - fa)
    if not lo < s < hi:
        return None
    step = tol / 3.0
    return s - step if s - lo > hi - s else s + step


def _bisect(n_neg, r_lo, n_lo, r_hi, n_hi, tol,
            eigenvalue=None) -> List[Tuple[float, float, int, int]]:
    """Shrink [r_lo, r_hi] around each crossing down to width <= tol.

    Returns final brackets (lo, hi, n_lo, n_hi).  Every probe's count
    moves one end of the bracket; when it splits the jump, both halves
    carry a crossing and are refined independently (split-and-recurse).
    A probe count outside [n_lo, n_hi] contradicts monotonicity and is
    raised.

    ``eigenvalue()``, when given, returns the pencil eigenvalue nearest
    zero at the radius just counted (or None).  Its samples place the
    probes by a safeguarded secant (``_secant_probe``): a sample counts
    only if its sign matches the side it landed on (positive below the
    crossing, negative above).  The midpoint is probed instead when the
    secant zero leaves the bracket, when fewer than two samples exist,
    and when the last two probes together did not halve the bracket, so
    the bracket shrinks at least as fast as every other bisection step.
    Without ``eigenvalue`` every probe is the midpoint (bisection).
    """
    stack = [(r_lo, n_lo, r_hi, n_hi, [])]
    final = []
    while stack:
        lo, nlo, hi, nhi, samples = stack.pop()
        widths = []  # bracket width before each probe
        while hi - lo > tol:
            r = None
            if len(widths) < 2 or hi - lo <= 0.5 * widths[-2]:
                r = _secant_probe(lo, hi, samples, tol)
            if r is None:
                r = 0.5 * (lo + hi)
            widths.append(hi - lo)
            n = n_neg(r)
            lam = eigenvalue() if eigenvalue is not None else None
            _check_rise(lo, nlo, r, n)
            _check_rise(r, n, hi, nhi)
            below = lam is not None and lam > 0.0
            above = lam is not None and lam < 0.0
            if nlo < n < nhi:
                stack.append((r, n, hi, nhi, [(r, lam)] if below else []))
                hi, nhi = r, n
                samples = [(r, lam)] if above else []
                widths = []
            elif n == nlo:
                lo = r
                if below:
                    samples.append((r, lam))
            else:
                hi = r
                if above:
                    samples.append((r, lam))
        final.append((lo, hi, nlo, nhi))
    final.sort()
    return final


def find_conjugate_radii(asm: Assembler, scan_result: ScanResult) -> List[ConjugateRadius]:
    """Conjugate radii inside every rising cell of a scan.

    Bisection starts from the scan's counts at the cell ends and runs on
    the same strict negative count; its split-and-recurse separates any
    two crossings more than about half the tolerance apart.  Each
    probe is placed by a safeguarded secant on the pencil eigenvalue of
    (H(r), S) nearest zero, from SECANT_SOLVES inverse-iteration solves
    with the factor the probe's own count made, so a probe costs one
    factorization (see ``_bisect``).  Brackets that keep a jump >= 2
    down to the final width are genuine multiple crossings, and their
    multiplicity is the jump itself.  Kernel bases come from the
    smallest-|lambda| eigenvectors at the final midpoint, each with
    ||H(r*) v|| <= KERNEL_RESIDUAL_TOL max|S| ||v||_S.  Brackets shrink
    to BISECTION_TOL of the mesh dimension.
    """
    tol = BISECTION_TOL[asm.mesh.dim]
    n_neg = _n_neg_evaluator(asm)
    keep = n_neg.keep = [None]
    S = asm.gram()
    # Residual scale: H(r*) nearly vanishes on a one-unknown mesh, S never.
    s_max = np.abs(S.data).max()
    start = np.random.default_rng(KERNEL_SEED).standard_normal(S.shape[0])
    x = [start]

    def eigenvalue():
        lu, keep[0] = keep[0], None
        if lu is None:
            return None
        lam, x[0] = _nearest_eigenvalue(lu, S, x[0])
        return lam

    out = []
    for r_lo, n_lo, r_hi, n_hi in scan_result.brackets():
        x[0] = start
        for blo, bhi, bnlo, bnhi in _bisect(n_neg, r_lo, n_lo, r_hi, n_hi, tol,
                                            eigenvalue):
            m = bnhi - bnlo
            r_star = 0.5 * (blo + bhi)
            H = asm.h(r_star)
            basis = kernel_eigenpairs(H, S, m)
            for j in range(m):
                v = basis[:, j]
                Hv = H @ v
                rel = np.linalg.norm(Hv) / (s_max * math.sqrt(v @ (S @ v)))
                if rel > KERNEL_RESIDUAL_TOL:
                    raise VerificationError(
                        f"kernel vector residual {rel:.2e} exceeds "
                        f"{KERNEL_RESIDUAL_TOL} at r* = {r_star} (componentwise "
                        f"backward error {_backward_error(H, v, Hv):.2f})"
                    )
            out.append(
                ConjugateRadius(
                    r_star=r_star, multiplicity=m, kernel_basis=basis, bracket=(blo, bhi)
                )
            )
    return out


def _backward_error(H, v: np.ndarray, Hv: np.ndarray) -> float:
    """max_i |Hv|_i / (|H| |v|)_i, the componentwise backward error of v
    as a kernel vector of H (Oettli & Prager 1964): the smallest relative
    change of the entries of H that puts v in its kernel.  It is near the
    unit roundoff for a kernel vector solved to rounding and at most 1,
    reached when some row must change by all of its size.  Rows with
    (|H| |v|)_i = 0 have Hv_i = 0 and count 0."""
    scale = abs(H) @ np.abs(v)
    ratio = np.divide(np.abs(Hv), scale, out=np.zeros_like(scale), where=scale > 0.0)
    return float(ratio.max())


def crossing_form_fd(asm: Assembler, conj: ConjugateRadius) -> np.ndarray:
    """Crossing form on the kernel, V^T H'(r*) V, by a complex step in r.

    Gamma = Im(V^T H(r* + i eps) V) / eps with eps = 1e-20 r*: one
    assembly at a complex radius, with no subtraction, so H'(r*) is
    exact to rounding (Squire & Trapp 1998), also at r* = 1.
    Symmetrized, so exactly symmetric.
    """
    r0 = conj.r_star
    eps = 1e-20 * r0
    V = conj.kernel_basis
    G = (V.T @ (asm.h(r0 + 1j * eps) @ V)).imag / eps
    return 0.5 * (G + G.T)


def crossing_form_boundary(asm: Assembler, conj: ConjugateRadius) -> np.ndarray:
    """Crossing form by the boundary integral, independent of the
    r-derivative route.

    G = -(1/(r* w(r*))) sum_b sigma_b sigma_b^T / m_b, with sigma the
    discrete boundary flux of the kernel columns at r* (sigma_b / m_b
    approximates w(r*) d_n u at boundary node b) and m_b the lumped
    boundary weights; a formula at fixed r*, not a difference in r.
    Symmetrized, so exactly symmetric.
    """
    mesh = asm.mesh
    r0 = conj.r_star
    sigma = asm.boundary_flux(r0, conj.kernel_basis)
    w, _ = metric_mod.coefficients(asm.metric, np.array([r0]), mesh.dim)
    G = -(sigma.T / mesh.boundary_weights[mesh.boundary_nodes]) @ sigma / (r0 * w[0])
    return 0.5 * (G + G.T)


def verify_crossing(asm: Assembler, conj: ConjugateRadius) -> CrossingFormReport:
    """Both crossing forms, definiteness check and the agreement figure.

    ``gamma_fd`` is the complex-step r-derivative of ``crossing_form_fd``
    and ``gamma_bd`` the boundary form.  ``gamma_fd`` must be negative
    definite; its signature is then -m and
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


def endpoint_kernel_gap(asm: Assembler) -> None:
    """Raise ``DegenerateRadiusOneError`` unless the pencil (H(1), S)
    has no eigenvalue in [-tau, tau), tau = KERNEL_THRESHOLD_AT_ONE.

    By Sylvester's law that number is n_neg(H(1) - tau S) -
    n_neg(H(1) + tau S): two counts through the one negative count, no
    eigensolve.  The index identity presumes no degeneracy at the
    endpoint, and a run that violates the assumption must abort rather
    than guess.  A refused count is raised, not nudged: the check is
    about r = 1 itself.
    """
    tau = KERNEL_THRESHOLD_AT_ONE
    H, S = asm.h(1.0), asm.gram()
    below, above = inertia(H - tau * S), inertia(H + tau * S)
    if below != above:
        raise DegenerateRadiusOneError(
            f"{below - above} eigenvalue(s) of (H(1), S) in [-{tau:g}, {tau:g}): "
            f"n_neg(H(1) - tau S) = {below}, n_neg(H(1) + tau S) = {above}"
        )


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
