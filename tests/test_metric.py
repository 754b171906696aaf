import numpy as np
import pytest

from smalescan import metric


def test_euclidean_identity():
    m = metric.euclidean()
    A, w = metric.coefficients(m, [[0.3, 0.4]])
    assert np.array_equal(A[0], np.eye(2))
    assert w[0] == 1.0


def test_euclidean_is_curvature_zero():
    assert metric.euclidean() == metric.constant_curvature(0.0)


def test_zero_curvature_collapses_to_flat():
    m = metric.constant_curvature(0.0)
    A, w = metric.coefficients(m, [[0.2, -0.1, 0.4]])
    assert np.allclose(A[0], np.eye(3), atol=0.0)
    assert w[0] == 1.0


def test_sphere_values_at_half_radius():
    # kappa = 1, n = 2 at x = (0.5, 0): w = sin(0.5)/0.5, tangential
    # entry t/sin(t), radial entry w.
    m = metric.constant_curvature(1.0)
    (A,), (w,) = metric.coefficients(m, [[0.5, 0.0]])
    w_exact = np.sin(0.5) / 0.5
    assert w == pytest.approx(w_exact, rel=1e-15)
    assert A[0, 0] == pytest.approx(w_exact, rel=1e-14)          # radial
    assert A[1, 1] == pytest.approx(0.5 / np.sin(0.5), rel=1e-14)  # tangential
    assert A[0, 1] == 0.0 and A[1, 0] == 0.0
    # published approximations from the model family
    assert w == pytest.approx(0.958851, abs=1e-6)
    assert A[1, 1] == pytest.approx(1.042915, abs=1e-6)


def test_scaled_matches_composition():
    m = metric.constant_curvature(1.0)
    A1, w1 = metric.coefficients(m, 0.5 * np.array([[1.0, 0.0]]))
    A2, w2 = metric.coefficients(m, [[0.5, 0.0]])
    assert np.allclose(A1, A2, atol=0.0)
    assert np.array_equal(w1, w2)


def test_scaled_euclidean_is_identity_everywhere():
    m = metric.euclidean()
    A, w = metric.coefficients(m, 0.7 * np.array([[1.0]]))
    assert np.array_equal(A[0], np.eye(1))
    assert w[0] == 1.0


def test_scaled_at_zero_is_identity():
    for m in (metric.euclidean(), metric.constant_curvature(1.0),
              metric.constant_curvature(-2.0)):
        A, w = metric.coefficients(m, 0.0 * np.array([[0.77, -0.6]]))
        assert np.array_equal(A[0], np.eye(2))
        assert w[0] == 1.0


def test_scaled_allows_closed_ball():
    m = metric.constant_curvature(1.0)
    A, w = metric.coefficients(m, 1.0 * np.array([[1.0, 0.0]]))
    assert w[0] == pytest.approx(np.sin(1.0), rel=1e-14)


def test_domain_errors():
    m = metric.constant_curvature(1.0)
    with pytest.raises(ValueError):
        metric.coefficients(m, [[1.2, 0.0]])
    with pytest.raises(ValueError):
        metric.coefficients(m, 1.0 * np.array([[1.1, 0.0]]))
    with pytest.raises(ValueError):
        metric.constant_curvature(np.pi ** 2)
    with pytest.raises(ValueError):
        metric.constant_curvature(12.0)


def test_hyperbolic_curvature_bound():
    # sinh(sqrt(-kappa)) overflows a double past sqrt(-kappa) ~ 710.5
    with pytest.raises(ValueError, match="sqrt\\(-kappa\\) < 700"):
        metric.constant_curvature(-1e6)
    m = metric.constant_curvature(-(699.0 ** 2))
    A, w = metric.coefficients(m, [[1.0, 0.0], [0.0, 0.5]])
    assert np.all(np.isfinite(A)) and np.all(np.isfinite(w))


def test_symmetry_exact_and_spd_at_random_points():
    rng = np.random.default_rng(7)
    for kappa, dim in ((1.0, 2), (-3.0, 2), (2.5, 3)):
        m = metric.constant_curvature(kappa)
        pts = rng.standard_normal((10_000, dim))
        pts *= (rng.uniform(0.0, 1.0, len(pts)) ** (1.0 / dim) /
                np.linalg.norm(pts, axis=1))[:, None]
        A, w = metric.coefficients(m, pts)
        assert np.max(np.abs(A - np.transpose(A, (0, 2, 1)))) == 0.0
        assert np.all(w > 0.0)
        eigs = np.linalg.eigvalsh(A)
        assert eigs.min() > 0.0


def test_series_matches_closed_form_near_center():
    # Removable singularity: at t just below the series cutoff the code
    # takes the Taylor route; the trigonometric closed forms evaluated
    # at the same point must agree to 1e-12 relative.
    t = 0.9999e-4
    for kappa in (1.0, -2.0, 5.0):
        m = metric.constant_curvature(kappa)
        (A,), (w,) = metric.coefficients(m, [[t, 0.0]])
        sk = np.sqrt(abs(kappa))
        if kappa > 0:
            ratio = np.sin(sk * t) / (sk * t)
        else:
            ratio = np.sinh(sk * t) / (sk * t)
        assert w == pytest.approx(ratio, rel=1e-12)
        assert A[0, 0] == pytest.approx(ratio, rel=1e-12)          # radial = w
        assert A[1, 1] == pytest.approx(1.0 / ratio, rel=1e-12)    # tangential = w (t/s)^2


def test_rotational_equivariance():
    rng = np.random.default_rng(3)
    m = metric.constant_curvature(1.0)
    for _ in range(25):
        theta = rng.uniform(0, 2 * np.pi)
        Q = np.array([[np.cos(theta), -np.sin(theta)],
                      [np.sin(theta), np.cos(theta)]])
        x = rng.uniform(-0.6, 0.6, 2)
        (A_x,), (w_x,) = metric.coefficients(m, [x])
        (A_qx,), (w_qx,) = metric.coefficients(m, [Q @ x])
        assert np.allclose(A_qx, Q @ A_x @ Q.T, atol=1e-14)
        assert w_qx == pytest.approx(w_x, rel=1e-14)


def test_one_dimensional_space_forms_are_flat():
    m = metric.constant_curvature(1.0)
    A, w = metric.coefficients(m, [[0.7]])
    assert A[0, 0, 0] == pytest.approx(1.0, rel=1e-15)
    assert w[0] == pytest.approx(1.0, rel=1e-15)


@pytest.mark.parametrize("kappa,n", [
    (0.0, 2), (1.0, 2), (-1.0, 2), (1.0, 3),
], ids=["euclidean", "kappa+1", "kappa-1", "kappa+1-3d"])
def test_weights_equal_coefficients_w(kappa, n):
    model = metric.constant_curvature(kappa)
    pts = np.zeros((5, n))
    pts[1, 0] = 0.3 * metric.SERIES_CUTOFF          # series branch
    pts[2, :2] = [0.3, -0.4]
    pts[3, -1] = 1.0                                # on the unit sphere
    pts[4, :2] = [-0.6, 0.8]
    w = metric.weights(model, pts)
    assert w.shape == (5,)
    assert np.array_equal(w, metric.coefficients(model, pts)[1])
    assert w[0] == 1.0
    outside = np.zeros((1, n))
    outside[0, 0] = 1.0 + 1e-9
    for fn in (metric.weights, metric.coefficients):
        with pytest.raises(ValueError):
            fn(model, outside)
