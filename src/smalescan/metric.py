"""Riemannian metric data in geodesic normal coordinates.

All downstream assembly only ever needs two fields on the unit ball:
the coefficient matrix A(x) = g^{jk}(x) |g(x)|^(1/2) and the scalar
weight w(x) = |g(x)|^(1/2).  Built-in models are the Euclidean metric
and the constant-curvature space forms, for which both fields have
closed forms in normal coordinates:

    g(x)   = P_rad + (s_k(t)/t)^2 P_tan,      t = |x|,
    w(x)   = (s_k(t)/t)^(n-1),
    A(x)   = w(x) * (P_rad + (t/s_k(t))^2 P_tan),

where s_k(t) = sin(sqrt(k) t)/sqrt(k) for k > 0, t for k = 0 and
sinh(sqrt(-k) t)/sqrt(-k) for k < 0, and P_rad = x x^T / t^2,
P_tan = I - P_rad.  A user-supplied (A, w) callback pair is accepted
for metrics outside the built-in families.

``coefficients`` evaluates (A, w) at a batch of points; ``weights``
evaluates w alone, with the same checks and the same values, for the
terms that need no A (mass, nonlinear and energy terms).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "MetricModel",
    "euclidean",
    "constant_curvature",
    "callback_metric",
    "coefficients",
    "weights",
]

# Below this radius the trigonometric ratios are evaluated by series to
# avoid cancellation; quadrature points sit arbitrarily close to 0.
SERIES_CUTOFF = 1e-4

EUCLIDEAN = "euclidean"
CONSTANT_CURVATURE = "constant_curvature"
CALLBACK = "callback"


@dataclass(frozen=True)
class MetricModel:
    """A metric in normal coordinates, reduced to its (A, w) fields.

    Parameters
    ----------
    kind : str
        One of ``"euclidean"``, ``"constant_curvature"``, ``"callback"``.
    dim : int
        Ambient dimension n >= 1.
    kappa : float
        Sectional curvature; only meaningful for ``constant_curvature``.
    a_fn, w_fn : callable, optional
        For ``callback`` metrics: batched evaluators mapping points of
        shape (m, n) to A of shape (m, n, n) and w of shape (m,).
    """

    kind: str
    dim: int
    kappa: float = 0.0
    a_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
    w_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if self.kind not in (EUCLIDEAN, CONSTANT_CURVATURE, CALLBACK):
            raise ValueError(f"unknown metric kind {self.kind!r}")
        if self.dim < 1:
            raise ValueError(f"metric dimension must be >= 1, got {self.dim}")
        if self.kind == CONSTANT_CURVATURE and self.kappa > 0.0:
            # The unit ball must stay strictly inside the injectivity
            # radius pi/sqrt(kappa) of the sphere.
            if np.sqrt(self.kappa) >= np.pi:
                raise ValueError(
                    "constant curvature kappa = %g puts the unit ball outside "
                    "the injectivity radius (need sqrt(kappa) < pi)" % self.kappa
                )
        if self.kind == CALLBACK and (self.a_fn is None or self.w_fn is None):
            raise ValueError("callback metric requires both a_fn and w_fn")


def euclidean(dim: int) -> MetricModel:
    """Flat metric: A = I, w = 1 everywhere."""
    return MetricModel(EUCLIDEAN, dim)


def constant_curvature(dim: int, kappa: float) -> MetricModel:
    """Space form of sectional curvature ``kappa`` in normal coordinates."""
    if kappa == 0.0:
        return MetricModel(CONSTANT_CURVATURE, dim, 0.0)
    return MetricModel(CONSTANT_CURVATURE, dim, float(kappa))


def callback_metric(dim, a_fn, w_fn) -> MetricModel:
    """Plug-in point for metrics given directly by their (A, w) fields."""
    return MetricModel(CALLBACK, dim, 0.0, a_fn, w_fn)


def _sin_ratio(kappa: float, t: np.ndarray) -> np.ndarray:
    """s_k(t)/t, series-evaluated below SERIES_CUTOFF.

    Uniform in the sign of kappa through u = kappa * t**2:
    s_k(t)/t = 1 - u/6 + u^2/120 - u^3/5040 + ...
    """
    t = np.asarray(t, dtype=float)
    u = kappa * t * t
    series = 1.0 - u / 6.0 + u * u / 120.0 - u * u * u / 5040.0
    if kappa == 0.0:
        return np.ones_like(t)
    sk = np.sqrt(abs(kappa))
    with np.errstate(invalid="ignore", divide="ignore"):
        if kappa > 0.0:
            closed = np.sin(sk * t) / (sk * t)
        else:
            closed = np.sinh(sk * t) / (sk * t)
    return np.where(t < SERIES_CUTOFF, series, closed)


def _inv_sin_ratio(kappa: float, t: np.ndarray) -> np.ndarray:
    """t/s_k(t) by 4-term series below the cutoff, closed form above."""
    t = np.asarray(t, dtype=float)
    u = kappa * t * t
    series = 1.0 + u / 6.0 + 7.0 * u * u / 360.0 + 31.0 * u ** 3 / 15120.0
    if kappa == 0.0:
        return np.ones_like(t)
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
    if model.kind == CALLBACK:
        return np.asarray(model.w_fn(P), dtype=float).reshape(m)
    if model.kind == EUCLIDEAN or model.kappa == 0.0:
        return np.ones(m)
    return _sin_ratio(model.kappa, t) ** (n - 1)


def weights(model: MetricModel, points: np.ndarray) -> np.ndarray:
    """Batched w = |g|^(1/2) alone, equal to ``coefficients(...)[1]``.

    The mass, nonlinear and energy terms of the assembly need only w, so
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

    if model.kind == CALLBACK:
        return np.asarray(model.a_fn(P), dtype=float).reshape(m, n, n), w

    if model.kind == EUCLIDEAN or model.kappa == 0.0:
        return np.broadcast_to(np.eye(n), (m, n, n)).copy(), w

    qi = _inv_sin_ratio(model.kappa, t)     # t/s(t)
    # Radial projector e e^T, with e = x/t; at t = 0 both projector
    # coefficients coincide (A -> I), so any unit e works there.
    safe_t = np.where(t > 0.0, t, 1.0)
    e = P / safe_t[:, None]
    ee = e[:, :, None] * e[:, None, :]
    eye = np.broadcast_to(np.eye(n), (m, n, n))
    tan_coef = (w * qi * qi)[:, None, None]
    rad_coef = w[:, None, None]
    A = tan_coef * (eye - ee) + rad_coef * ee
    at_center = t == 0.0
    if np.any(at_center):
        A[at_center] = np.eye(n)
    return A, w
