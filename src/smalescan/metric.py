"""Riemannian metric data in geodesic normal coordinates.

The model is the space form of sectional curvature k, Euclidean being
k = 0.  Pulled back to the unit ball at scale r, its metric depends only
on the geodesic distance t = r|x| and the fixed direction e = x/|x|:

    g(x)   = P_rad + q(t)^2 P_tan,          q(t) = s_k(t)/t,
    A(x)   = g^{-1} |g|^(1/2) = w(t) P_rad + a(t) P_tan,
    w(t)   = |g|^(1/2) = q(t)^(n-1),        a(t) = q(t)^(n-3),

where n is the number of coordinates, P_rad = e e^T, P_tan = I - P_rad,
and s_k(t) = sin(sqrt(k) t)/sqrt(k) for k > 0, t for k = 0 and
sinh(sqrt(-k) t)/sqrt(-k) for k < 0.  ``coefficients`` evaluates the two
radial profiles (w, a) at a batch of radii; the assembler combines them
with the projectors of its fixed quadrature points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "MetricModel",
    "coefficients",
]

# Below this value of sqrt(|k|) t the ratio s_k(t)/t is evaluated by its
# series to avoid cancellation; quadrature points sit arbitrarily close
# to 0.
SERIES_CUTOFF = 1e-4

# sinh(sqrt(-kappa) t) overflows a double once sqrt(-kappa) t passes
# about 710.5, so hyperbolic curvatures stop short of it on the unit ball.
MAX_SQRT_NEG_KAPPA = 700.0


@dataclass(frozen=True)
class MetricModel:
    """The space form of sectional curvature ``kappa`` (0 is Euclidean),
    reduced to its radial profiles (w, a); n is set by the caller."""

    kappa: float = 0.0

    def __post_init__(self):
        if self.kappa > 0.0 and np.sqrt(self.kappa) >= np.pi:
            # The unit ball must stay strictly inside the injectivity
            # radius pi/sqrt(kappa) of the sphere.
            raise ValueError(
                "constant curvature kappa = %g puts the unit ball outside "
                "the injectivity radius (need sqrt(kappa) < pi)" % self.kappa
            )
        if self.kappa < 0.0 and np.sqrt(-self.kappa) >= MAX_SQRT_NEG_KAPPA:
            raise ValueError(
                "constant curvature kappa = %g overflows the metric weight on "
                "the unit ball (need sqrt(-kappa) < %g)"
                % (self.kappa, MAX_SQRT_NEG_KAPPA)
            )


def _sin_ratio(kappa: float, t: np.ndarray) -> np.ndarray:
    """q(t) = s_k(t)/t: the closed form where sqrt|kappa| Re t reaches
    SERIES_CUTOFF, and below it the series s_k(t)/t = 1 - u/6 + u^2/120
    - u^3/5040 in u = kappa t^2.  At kappa = 0 the series is exactly 1.
    Both are analytic in t, so a complex step through them gives q';
    below the cutoff only the series keeps it, since sin(z)/z loses q'
    to cancellation there."""
    z = np.sqrt(abs(kappa)) * t
    far = z.real >= SERIES_CUTOFF
    q = np.empty_like(z)
    zf = z[far]
    q[far] = (np.sin(zf) if kappa > 0.0 else np.sinh(zf)) / zf
    near = ~far
    if near.any():
        tn = t[near]
        u = kappa * tn * tn
        q[near] = 1.0 - u / 6.0 + u * u / 120.0 - u * u * u / 5040.0
    return q


def coefficients(model: MetricModel, t: np.ndarray, n: int):
    """The radial profiles (w, a) at radii ``t``, in n coordinates.

    Parameters
    ----------
    model : MetricModel
    t : ndarray
        Geodesic distances r|x| on the closed unit ball, 0 <= t <= 1:
        assembly reaches t = 1 on the unit sphere at r = 1, where the
        closed forms extend continuously.  Complex t, for a complex
        step, is kept complex and checked on its real part.
    n : int
        Number of coordinates.

    Returns
    -------
    w : ndarray, the shape of t, |g|^(1/2) = q^(n-1), also the radial
        entry of A
    a : ndarray, the shape of t, the tangential entry of A, q^(n-3)

    At kappa = 0, after the domain checks, both are exact ones (the
    dtype of t), bit for bit what the series would give, without a pass
    over t.
    """
    t = np.asarray(t, dtype=complex if np.iscomplexobj(t) else float)
    if np.any(t.real < 0.0):
        raise ValueError("metric evaluated at a negative radius (t = %g)" % t.real.min())
    if np.any(t.real > 1.0 + 1e-12):
        raise ValueError("metric evaluated outside the unit ball (|x| = %g)" % t.real.max())
    if model.kappa == 0.0:
        # q = 1: the series would give exactly these values at every t.
        one = np.ones((), t.dtype)
        return np.full(t.shape, one ** (n - 1)), np.full(t.shape, one ** (n - 3))
    q = _sin_ratio(model.kappa, t)
    # q^(n-3), not w / q^2: q^2 overflows near sqrt(-kappa) = 700.
    return q ** (n - 1), q ** (n - 3)
