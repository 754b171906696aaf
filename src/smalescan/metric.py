"""Riemannian metric data in geodesic normal coordinates.

All downstream assembly only ever needs two fields on the unit ball:
the coefficient matrix A(x) = g^{jk}(x) |g(x)|^(1/2) and the scalar
weight w(x) = |g(x)|^(1/2).  The model is the space form of sectional
curvature k, Euclidean being k = 0, for which both fields have closed
forms in normal coordinates:

    g(x)   = P_rad + (s_k(t)/t)^2 P_tan,      t = |x|,
    w(x)   = (s_k(t)/t)^(n-1),
    A(x)   = w(x) * (P_rad + (t/s_k(t))^2 P_tan),

where s_k(t) = sin(sqrt(k) t)/sqrt(k) for k > 0, t for k = 0 and
sinh(sqrt(-k) t)/sqrt(-k) for k < 0, and P_rad = x x^T / t^2,
P_tan = I - P_rad.

``coefficients`` evaluates (A, w) at a batch of points; ``weights``
evaluates w alone, with the same checks and the same values, for the
terms that need no A (mass and nonlinear terms).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "MetricModel",
    "euclidean",
    "constant_curvature",
    "coefficients",
    "weights",
]

# Below this radius the trigonometric ratios are evaluated by series to
# avoid cancellation; quadrature points sit arbitrarily close to 0.
SERIES_CUTOFF = 1e-4

# sinh(sqrt(-kappa) t) overflows a double once sqrt(-kappa) t passes
# about 710.5, so hyperbolic curvatures stop short of it on the unit ball.
MAX_SQRT_NEG_KAPPA = 700.0


@dataclass(frozen=True)
class MetricModel:
    """The space form of curvature ``kappa``, reduced to its (A, w) fields.

    Parameters
    ----------
    dim : int
        Ambient dimension n >= 1.
    kappa : float
        Sectional curvature; 0 is the Euclidean metric.
    """

    dim: int
    kappa: float = 0.0

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"metric dimension must be >= 1, got {self.dim}")
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


def euclidean(dim: int) -> MetricModel:
    """Flat metric, curvature 0: A = I, w = 1 everywhere."""
    return MetricModel(dim)


def constant_curvature(dim: int, kappa: float) -> MetricModel:
    """Space form of sectional curvature ``kappa`` in normal coordinates."""
    return MetricModel(dim, float(kappa))


def _sin_ratio(kappa: float, t: np.ndarray) -> np.ndarray:
    """s_k(t)/t for kappa != 0, series-evaluated below SERIES_CUTOFF.

    Uniform in the sign of kappa through u = kappa * t**2:
    s_k(t)/t = 1 - u/6 + u^2/120 - u^3/5040 + ...
    """
    u = kappa * t * t
    series = 1.0 - u / 6.0 + u * u / 120.0 - u * u * u / 5040.0
    sk = np.sqrt(abs(kappa))
    with np.errstate(invalid="ignore", divide="ignore"):
        if kappa > 0.0:
            closed = np.sin(sk * t) / (sk * t)
        else:
            closed = np.sinh(sk * t) / (sk * t)
    return np.where(t < SERIES_CUTOFF, series, closed)


def _inv_sin_ratio(kappa: float, t: np.ndarray) -> np.ndarray:
    """t/s_k(t) for kappa != 0 by 4-term series below the cutoff, closed
    form above."""
    u = kappa * t * t
    series = 1.0 + u / 6.0 + 7.0 * u * u / 360.0 + 31.0 * u ** 3 / 15120.0
    sk = np.sqrt(abs(kappa))
    with np.errstate(invalid="ignore", divide="ignore"):
        if kappa > 0.0:
            closed = (sk * t) / np.sin(sk * t)
        else:
            closed = (sk * t) / np.sinh(sk * t)
    return np.where(t < SERIES_CUTOFF, series, closed)


def _checked_points(model: MetricModel, points):
    """Points as an (m, n) float array and their norms, after the checks
    shared by ``weights`` and ``coefficients``."""
    P = np.atleast_2d(np.asarray(points, dtype=float))
    n = P.shape[1]
    if n != model.dim:
        raise ValueError(f"points have dimension {n}, metric has {model.dim}")
    t = np.linalg.norm(P, axis=1)
    if np.any(t > 1.0 + 1e-12):
        raise ValueError("metric evaluated outside the unit ball (|x| = %g)" % t.max())
    return P, t


def _weights(model: MetricModel, P: np.ndarray, t: np.ndarray) -> np.ndarray:
    """w at checked points; (s_k(t)/t)^(n-1) for the space forms, whose
    series branch gives exactly 1 at the center."""
    m, n = P.shape
    if model.kappa == 0.0:
        return np.ones(m)
    return _sin_ratio(model.kappa, t) ** (n - 1)


def weights(model: MetricModel, points: np.ndarray) -> np.ndarray:
    """Batched w = |g|^(1/2) alone, equal to ``coefficients(...)[1]``.

    The mass and nonlinear terms of the assembly need only w, so
    they skip building A.  Same checks and errors as ``coefficients`` on
    the closed unit ball; returns an array of shape (m,).
    """
    return _weights(model, *_checked_points(model, points))


def coefficients(model: MetricModel, points: np.ndarray):
    """Batched (A, w) at an array of points.

    Parameters
    ----------
    model : MetricModel
    points : ndarray, shape (m, n)
        Evaluation points on the closed unit ball, |x| <= 1: assembly
        evaluates scaled points r*x, which land on the unit sphere at
        r = 1, where the closed forms extend continuously.

    Returns
    -------
    A : ndarray, shape (m, n, n)
    w : ndarray, shape (m,), the same values as ``weights``
    """
    P, t = _checked_points(model, points)
    m, n = P.shape
    w = _weights(model, P, t)

    if model.kappa == 0.0:
        # Flat: A = I exactly; the ratios below need kappa != 0.
        return np.broadcast_to(np.eye(n), (m, n, n)).copy(), w

    qi = _inv_sin_ratio(model.kappa, t)     # t/s(t)
    # Radial projector e e^T, with e = x/t.  At t = 0, e = 0 and the
    # series give w = qi = 1, so A is exactly I there.
    safe_t = np.where(t > 0.0, t, 1.0)
    e = P / safe_t[:, None]
    ee = e[:, :, None] * e[:, None, :]
    eye = np.broadcast_to(np.eye(n), (m, n, n))
    tan_coef = (w * qi * qi)[:, None, None]
    rad_coef = w[:, None, None]
    A = tan_coef * (eye - ee) + rad_coef * ee
    return A, w
