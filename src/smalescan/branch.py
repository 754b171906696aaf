"""Newton continuation of nontrivial solutions near conjugate radii.

The semilinear residual vanishes identically at u = 0 for every r; a
branch of nontrivial solutions can only leave the trivial line at a
conjugate radius.  This module traces such branches and confirms that
their norm vanishes into the crossing.  The first radius is seeded along
the kernel direction with the pitchfork amplitude of the local normal
form; later radii start from a polynomial extrapolation through the last
``PREDICTOR_POINTS`` solutions.  Each radius is solved by chord steps on
the Jacobian factor carried from the previous radius while they contract
the residual, and by damped Newton from the first step that does not.
Like the stages of ``conjugate``, every function takes the problem's
``fem.Assembler`` first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .fem import Assembler
from .spectral import FactorizationError, factor

__all__ = [
    "BranchSample",
    "BranchTrace",
    "newton_solve",
    "trace_branch",
]

NEWTON_TOL = 1e-10
NEWTON_MAX_ITERS = 50
ARMIJO_FACTOR = 0.5
ARMIJO_SLOPE = 1e-4
TRIVIAL_NORM = 1e-8
# A chord step on a carried Jacobian factor is kept only if it shrinks
# the dual-norm residual at least this much.
CHORD_CONTRACTION = 0.1
# Solutions the continuation predictor extrapolates through.
PREDICTOR_POINTS = 5


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


def newton_solve(
    asm: Assembler, r: float, u0: np.ndarray, carry: Optional[list] = None
) -> BranchSample:
    """Damped Newton for the semilinear residual at fixed r.

    The merit function is half the squared residual in the S-inverse
    (dual) norm; steps backtrack by halving until the Armijo decrease
    holds.  Convergence means residual_norm <= NEWTON_TOL * (1 + max|S|)
    * min(1, max(||u||_S, TRIVIAL_NORM)), S the Gram matrix, within
    NEWTON_MAX_ITERS steps: a near-trivial seed cannot pass unmoved, and
    the floor lets an iterate collapsing onto u = 0 converge without
    shrinking by a rounding factor per step down to underflow.  A
    Jacobian that ``spectral.factor`` refuses or a stalled line search
    ends the run with ``converged = False``; the caller decides whether
    to reseed.

    ``carry`` is an optional one-element list holding a Jacobian factor
    (or None) from an earlier solve, typically at the neighbouring
    radius.  While it holds one, the iteration takes full chord steps
    u <- u - J_old^-1 F(r, u), each kept only if it shrinks the residual
    norm by CHORD_CONTRACTION; the first step that does not drops the
    factor, and damped Newton with a fresh Jacobian per step takes over
    for the rest of the solve.  Chord steps count toward
    NEWTON_MAX_ITERS.  Every fresh factor replaces the held one, so the
    list ends up holding the last factor made (at most one stays alive).
    Without ``carry`` the iteration is plain damped Newton.
    """
    S = asm.gram()
    lu_S = asm.gram_lu()
    u = np.asarray(u0, dtype=float).copy()
    if u.shape != (S.shape[0],):
        raise ValueError(f"u0 has shape {u.shape}, expected ({S.shape[0]},)")

    tol_abs = NEWTON_TOL * (1.0 + np.abs(S.data).max())

    def done(u, rnorm):
        return rnorm <= tol_abs * min(1.0, max(_h1_norm(S, u), TRIVIAL_NORM))

    def dual_norm(res):
        z = lu_S.solve(res)
        return math.sqrt(max(float(res @ z), 0.0))

    res = asm.residual(r, u)
    rnorm = dual_norm(res)
    iters = 0
    converged = done(u, rnorm)
    if carry is None:
        carry = [None]
    chord = carry[0] is not None
    while not converged and iters < NEWTON_MAX_ITERS:
        if chord:
            trial = u - carry[0].solve(res)
            if np.all(np.isfinite(trial)):
                res_t = asm.residual(r, trial)
                rn_t = dual_norm(res_t)
                if rn_t <= CHORD_CONTRACTION * rnorm:
                    u, res, rnorm = trial, res_t, rn_t
                    iters += 1
                    converged = done(u, rnorm)
                    continue
            chord = False  # the carried factor no longer contracts
        J = asm.jacobian(r, u)
        carry[0] = None  # release the held factor before making the next
        try:
            carry[0] = factor(J)
            step = carry[0].solve(-res)
        except FactorizationError:
            break  # refused Jacobian factor: report non-convergence
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
        converged = done(u, rnorm)
    return BranchSample(
        r=float(r),
        u=u,
        h1_norm=_h1_norm(S, u),
        residual_norm=rnorm,
        newton_iters=iters,
        converged=bool(converged),
    )


def _extrapolation_weights(m: int) -> np.ndarray:
    """Weights that extrapolate m equally spaced samples one spacing on.

    The polynomial of degree m - 1 through the samples at the last m
    points takes, one spacing beyond the newest, the value
    sum_i w_i u_{j-i} with w_i = (-1)^i C(m, i + 1), i = 0 the newest
    (m = 2 is the secant 2 u_j - u_{j-1}).
    """
    return np.array([(-1) ** i * math.comb(m, i + 1) for i in range(m)], dtype=float)


def _seed_amplitude(asm: Assembler, r1: float, phi: np.ndarray, step_size: float) -> float:
    """Pitchfork amplitude estimate along the S-normalized kernel direction.

    The residual along a * phi expands as a * lambda + a^3 * K4 with
    lambda = phi^T H(r1) phi and K4 the cubic coefficient, so the branch
    sits near a = sqrt(-lambda / K4) when the signs cooperate.
    """
    fallback = math.sqrt(step_size)
    if not 0.0 < r1 <= 1.0:
        return fallback
    lam = float(phi @ (asm.h(r1) @ phi))
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
    usable sign (e.g. linear problems).  From the second radius on, the
    guess extrapolates the polynomial through the last
    min(j - 1, PREDICTOR_POINTS) solutions one step on (the first
    solution itself at j = 2, the secant at j = 3).  One Jacobian factor
    is carried from radius to radius (see ``newton_solve``), so a radius
    whose guess the carried factor contracts costs no factorization.  A
    collapse onto the trivial solution is retried once from the doubled
    guess; if the branch is still lost the trace reports a one-sided
    failure (the opposite direction may carry the branch).

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
    carry = [None]
    for j in range(1, steps + 1):
        r_j = r_star + direction * j * step_size
        if not 0.0 < r_j <= 1.0:
            failure = f"continuation left (0, 1] at r = {r_j:.6f}"
            break
        sample = newton_solve(asm, r_j, guess, carry)
        if sample.converged and sample.h1_norm <= TRIVIAL_NORM:
            retry_guess = 2.0 * (guess if samples else amplitude * phi)
            sample = newton_solve(asm, r_j, retry_guess, carry)
        if not sample.converged:
            failure = f"Newton did not converge at r = {r_j:.6f}"
            break
        if sample.h1_norm <= TRIVIAL_NORM:
            failure = f"branch lost to the trivial solution at r = {r_j:.6f}"
            break
        samples.append(sample)
        # The radii are equally spaced, so the extrapolation weights
        # depend only on how many solutions there are.
        recent = samples[-PREDICTOR_POINTS:][::-1]  # newest first
        guess = _extrapolation_weights(len(recent)) @ np.array([s.u for s in recent])

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
