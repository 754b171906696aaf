"""Newton continuation of nontrivial solutions near conjugate radii.

The semilinear residual vanishes identically at u = 0 for every r; a
branch of nontrivial solutions can only leave the trivial line at a
conjugate radius.  This module traces such branches (warm-started
damped Newton, seeded along the kernel direction with the pitchfork
amplitude sqrt(step)), confirms that their norm vanishes into the
crossing, and conversely certifies by multi-start search that no small
nontrivial solutions exist near non-conjugate radii.  Like the stages
of ``conjugate``, every function takes the problem's ``fem.Assembler``
first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .fem import Assembler

__all__ = [
    "BranchSample",
    "BranchTrace",
    "newton_solve",
    "trace_branch",
    "multistart_no_small_solutions",
    "amplitude_exponent",
]

NEWTON_TOL = 1e-10
NEWTON_MAX_ITERS = 50
ARMIJO_FACTOR = 0.5
ARMIJO_SLOPE = 1e-4
TRIVIAL_NORM = 1e-8
SMALL_NORM = 1e-2
MULTISTART_SEED = 20240801


@dataclass(frozen=True)
class BranchSample:
    r: float
    u: np.ndarray
    h1_norm: float
    residual_norm: float
    newton_iters: int
    converged: bool


@dataclass(frozen=True)
class BranchTrace:
    r_star: float
    direction: int
    samples: List[BranchSample]
    confirmed: bool
    intercept: Optional[float]
    failure: Optional[str]


def _h1_norm(S, u) -> float:
    return math.sqrt(max(float(u @ (S @ u)), 0.0))


def newton_solve(asm: Assembler, r: float, u0: np.ndarray) -> BranchSample:
    """Damped Newton for the semilinear residual at fixed r.

    The merit function is half the squared residual in the S-inverse
    (dual) norm; steps backtrack by halving until the Armijo decrease
    holds.  Convergence means residual_norm <= NEWTON_TOL * (1 + ||H(r)||)
    within NEWTON_MAX_ITERS steps.  A singular Jacobian or a stalled line
    search ends the run with ``converged = False``; the caller decides
    whether to reseed.
    """
    S = asm.gram()
    lu_S = asm.gram_lu()
    u = np.asarray(u0, dtype=float).copy()
    if u.shape != (S.shape[0],):
        raise ValueError(f"u0 has shape {u.shape}, expected ({S.shape[0]},)")

    h_scale = abs(asm.h(r).H).max()
    tol_abs = NEWTON_TOL * (1.0 + h_scale)

    def dual_norm(res):
        z = lu_S.solve(res)
        return math.sqrt(max(float(res @ z), 0.0))

    res = asm.residual(r, u)
    rnorm = dual_norm(res)
    iters = 0
    converged = rnorm <= tol_abs
    while not converged and iters < NEWTON_MAX_ITERS:
        J = asm.jacobian(r, u)
        try:
            lu_J = spla.splu(sp.csc_matrix(J))
            step = lu_J.solve(-res)
        except RuntimeError:
            break  # singular Jacobian: report non-convergence
        if not np.all(np.isfinite(step)):
            break
        alpha = 1.0
        phi0 = 0.5 * rnorm * rnorm
        accepted = False
        while alpha > 2.0 ** -30:
            trial = u + alpha * step
            res_t = asm.residual(r, trial)
            rn_t = dual_norm(res_t)
            if 0.5 * rn_t * rn_t <= (1.0 - 2.0 * ARMIJO_SLOPE * alpha) * phi0:
                u, res, rnorm = trial, res_t, rn_t
                accepted = True
                break
            alpha *= ARMIJO_FACTOR
        if not accepted:
            break  # line search stalled
        iters += 1
        converged = rnorm <= tol_abs
    return BranchSample(
        r=float(r),
        u=u,
        h1_norm=_h1_norm(S, u),
        residual_norm=rnorm,
        newton_iters=iters,
        converged=bool(converged),
    )


def _seed_amplitude(asm: Assembler, r1: float, phi: np.ndarray, step_size: float) -> float:
    """Pitchfork amplitude estimate along the S-normalized kernel direction.

    The residual along a * phi expands as a * lambda + a^3 * K4 with
    lambda = phi^T H(r1) phi and K4 the cubic coefficient, so the branch
    sits near a = sqrt(-lambda / K4) when the signs cooperate.
    """
    fallback = math.sqrt(step_size)
    if not 0.0 < r1 <= 1.0:
        return fallback
    lam = float(phi @ (asm.h(r1).H @ phi))
    k4 = float(asm.residual(r1, phi) @ phi) - lam
    if k4 != 0.0 and -lam / k4 > 0.0:
        return math.sqrt(-lam / k4)
    return fallback


def trace_branch(
    asm: Assembler,
    r_star: float,
    kernel_vector: np.ndarray,
    direction: int,
    steps: int,
    step_size: float,
) -> BranchTrace:
    """Follow a nontrivial branch away from a conjugate radius.

    Radii are r_j = r* + direction * j * step.  The first guess points
    along the kernel direction with the pitchfork amplitude
    sqrt(-lambda(r_1)/K4(r_1)), where lambda is the Rayleigh quotient of
    the kernel vector and K4 its cubic residual coefficient; the bare
    sqrt(step) scale is the fallback when the local normal form gives no
    usable sign (e.g. linear problems).  Afterwards the previous
    solution warm-starts the next radius.  A collapse onto the trivial
    solution is retried once from doubled amplitude; if the branch is
    still lost the trace reports a one-sided failure (the opposite
    direction may carry the branch).

    The trace is confirmed when every sample is nontrivial, the norms
    decrease monotonically into r*, and the extrapolated zero of
    h1_norm^2 lands within one step of r*.
    """
    if direction not in (-1, 1):
        raise ValueError("direction must be +1 or -1")
    if steps < 2:
        raise ValueError("need at least 2 continuation steps")
    S = asm.gram()
    phi = np.asarray(kernel_vector, dtype=float)
    phi = phi / _h1_norm(S, phi)
    amplitude = _seed_amplitude(asm, r_star + direction * step_size, phi, step_size)

    samples: List[BranchSample] = []
    failure = None
    guess = amplitude * phi
    for j in range(1, steps + 1):
        r_j = r_star + direction * j * step_size
        if not 0.0 < r_j <= 1.0:
            failure = f"continuation left (0, 1] at r = {r_j:.6f}"
            break
        sample = newton_solve(asm, r_j, guess)
        if sample.converged and sample.h1_norm <= TRIVIAL_NORM:
            retry_guess = 2.0 * (guess if samples else amplitude * phi)
            sample = newton_solve(asm, r_j, retry_guess)
        if not sample.converged:
            failure = f"Newton did not converge at r = {r_j:.6f}"
            break
        if sample.h1_norm <= TRIVIAL_NORM:
            failure = f"branch lost to the trivial solution at r = {r_j:.6f}"
            break
        samples.append(sample)
        guess = sample.u

    confirmed = False
    intercept = None
    if failure is None and len(samples) == steps:
        norms = np.array([s.h1_norm for s in samples])
        rs = np.array([s.r for s in samples])
        monotone = bool(np.all(np.diff(norms) > -1e-9 * norms[:-1]))
        # Pitchfork law: h1_norm^2 is asymptotically linear in r - r*;
        # extrapolate its zero from the samples nearest the crossing.
        head = slice(0, min(5, len(samples)))
        coef = np.polyfit(rs[head], norms[head] ** 2, 1)
        if abs(coef[0]) > 0.0:
            intercept = float(-coef[1] / coef[0])
            confirmed = monotone and abs(intercept - r_star) <= step_size
    return BranchTrace(
        r_star=float(r_star),
        direction=direction,
        samples=samples,
        confirmed=confirmed,
        intercept=intercept,
        failure=failure,
    )


def multistart_no_small_solutions(
    asm: Assembler, r: float, n_seeds: int = 20, seed_norm: float = 1e-2
) -> Tuple[bool, List[BranchSample]]:
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
        u0 = g * (scale / _h1_norm(S, g))
        sample = newton_solve(asm, r, u0)
        samples.append(sample)
        if sample.converged and TRIVIAL_NORM < sample.h1_norm <= SMALL_NORM:
            clean = False
    return clean, samples


def amplitude_exponent(
    trace: BranchTrace, window: Tuple[float, float] = (1e-3, 1e-1)
) -> float:
    """Log-log slope of h1_norm against |r - r*| over the given window."""
    rs = np.array([s.r for s in trace.samples])
    norms = np.array([s.h1_norm for s in trace.samples])
    dist = np.abs(rs - trace.r_star)
    mask = (dist >= window[0] * (1.0 - 1e-12)) & (dist <= window[1] * (1.0 + 1e-12))
    if mask.sum() < 3:
        raise ValueError("not enough samples inside the fit window")
    slope = np.polyfit(np.log(dist[mask]), np.log(norms[mask]), 1)[0]
    return float(slope)
