import numpy as np
import pytest

from smalescan import metric


def _closed_ratio(kappa, t):
    """s_k(t)/t by its trigonometric closed form, t > 0."""
    sk = np.sqrt(abs(kappa))
    return (np.sin(sk * t) if kappa > 0 else np.sinh(sk * t)) / (sk * t)


def test_euclidean_identity():
    m = metric.MetricModel()
    w, a = metric.coefficients(m, np.array([0.5]), 2)
    assert w[0] == 1.0 and a[0] == 1.0


def test_euclidean_is_curvature_zero():
    assert metric.MetricModel() == metric.MetricModel(0.0)


def test_zero_curvature_collapses_to_flat(monkeypatch):
    # kappa = 0 returns exact ones without the series, bit for bit what
    # the series and its two powers give (the sign of a zero imaginary
    # part included), after the same domain checks.
    m = metric.MetricModel(0.0)
    t = np.array([0.0, 0.3 * metric.SERIES_CUTOFF, 0.2, 0.45, 1.0])
    sin_ratio = metric._sin_ratio

    def series(t, n):
        q = sin_ratio(0.0, t)
        return q ** (n - 1), q ** (n - 3)

    def refused(*args):
        raise AssertionError("_sin_ratio called at kappa = 0")

    cases = [(x, n, series(x, n)) for x in (t, t * (1.0 + 1e-20j), t - 1e-20j)
             for n in (1, 2, 3)]
    monkeypatch.setattr(metric, "_sin_ratio", refused)
    for x, n, want in cases:
        got = metric.coefficients(m, x, n)
        assert np.all(got[0] == 1.0) and np.all(got[1] == 1.0)
        for g, s in zip(got, want):
            assert g.dtype == s.dtype and g.shape == s.shape
            assert g.tobytes() == s.tobytes()
    for bad in (np.array([0.5, -1e-300]), np.array([0.5, -0.9 + 1e-20j])):
        with pytest.raises(ValueError, match="negative radius"):
            metric.coefficients(m, bad, 2)
    for bad in (np.array([0.5, 1.1]), np.array([0.5 + 1e-20j, 1.1 + 1e-20j])):
        with pytest.raises(ValueError, match="outside the unit ball"):
            metric.coefficients(m, bad, 2)


def test_sphere_values_at_half_radius():
    # kappa = 1, n = 2 at t = 0.5: w = sin(0.5)/0.5 (radial entry of A),
    # a = 0.5/sin(0.5) (tangential entry).
    m = metric.MetricModel(1.0)
    (w,), (a,) = metric.coefficients(m, np.array([0.5]), 2)
    w_exact = np.sin(0.5) / 0.5
    assert w == pytest.approx(w_exact, rel=1e-15)
    assert a == pytest.approx(0.5 / np.sin(0.5), rel=1e-15)
    # published approximations from the model family
    assert w == pytest.approx(0.958851, abs=1e-6)
    assert a == pytest.approx(1.042915, abs=1e-6)
    # n = 3: w = q^2, a = 1
    (w3,), (a3,) = metric.coefficients(m, np.array([0.5]), 3)
    assert w3 == pytest.approx(w_exact ** 2, rel=1e-15)
    assert a3 == 1.0


def test_scaled_matches_composition():
    # The assembler passes r |x|; the profiles see only that product.
    m = metric.MetricModel(1.0)
    w1, a1 = metric.coefficients(m, 0.5 * np.array([1.0]), 2)
    w2, a2 = metric.coefficients(m, np.array([0.5]), 2)
    assert np.array_equal(w1, w2) and np.array_equal(a1, a2)


def test_scaled_euclidean_is_identity_everywhere():
    m = metric.MetricModel()
    w, a = metric.coefficients(m, 0.7 * np.array([1.0]), 1)
    assert w[0] == 1.0 and a[0] == 1.0


def test_scaled_at_zero_is_identity():
    for m in (metric.MetricModel(), metric.MetricModel(1.0),
              metric.MetricModel(-2.0)):
        w, a = metric.coefficients(m, 0.0 * np.array([0.77]), 2)
        assert w[0] == 1.0 and a[0] == 1.0


def test_scaled_allows_closed_ball():
    m = metric.MetricModel(1.0)
    w, a = metric.coefficients(m, 1.0 * np.array([1.0]), 2)
    assert w[0] == pytest.approx(np.sin(1.0), rel=1e-14)
    assert a[0] == pytest.approx(1.0 / np.sin(1.0), rel=1e-14)


def test_domain_errors():
    m = metric.MetricModel(1.0)
    with pytest.raises(ValueError):
        metric.coefficients(m, np.array([1.2]), 2)
    with pytest.raises(ValueError):
        metric.coefficients(m, 1.0 * np.array([0.5, 1.1]), 2)
    # Negative radii are off the ball too, though the series would
    # return a value there (w = 0.87036206 at t = -0.9, n = 2).
    for t in (-0.9, -1e-300):
        with pytest.raises(ValueError, match="negative radius"):
            metric.coefficients(m, np.array([0.5, t]), 2)
    # A complex t (a complex step) is checked, and named, by its real part.
    with pytest.raises(ValueError, match=r"negative radius \(t = -0\.9\)"):
        metric.coefficients(m, np.array([0.5, -0.9 + 1e-20j]), 2)
    with pytest.raises(ValueError, match=r"outside the unit ball \(\|x\| = 1\.1\)"):
        metric.coefficients(m, np.array([0.5 + 1e-20j, 1.1 + 1e-20j]), 2)
    with pytest.raises(ValueError):
        metric.MetricModel(np.pi ** 2)
    with pytest.raises(ValueError):
        metric.MetricModel(12.0)


def test_hyperbolic_curvature_bound():
    # sinh(sqrt(-kappa)) overflows a double past sqrt(-kappa) ~ 710.5
    with pytest.raises(ValueError, match="sqrt\\(-kappa\\) < 700"):
        metric.MetricModel(-1e6)
    m = metric.MetricModel(-(699.0 ** 2))
    w, a = metric.coefficients(m, np.array([1.0, 0.5]), 2)
    assert np.all(np.isfinite(w)) and np.all(np.isfinite(a))
    # a = q^(n-3) stays positive where w / q^2 would underflow to 0
    assert np.all(a > 0.0)


def test_profiles_positive_at_random_radii():
    rng = np.random.default_rng(7)
    t = rng.uniform(0.0, 1.0, 10_000)
    for kappa, n in ((1.0, 2), (-3.0, 2), (2.5, 3), (-(699.0 ** 2), 2)):
        w, a = metric.coefficients(metric.MetricModel(kappa), t, n)
        assert np.all(w > 0.0) and np.all(a > 0.0)
        assert np.all(np.isfinite(w)) and np.all(np.isfinite(a))


def test_series_matches_closed_form_near_center():
    # Removable singularity: on either side of the cutoff in sqrt|kappa| t
    # (series below, closed form above) the profiles agree with the
    # closed form to 1e-12 relative.
    for kappa in (1.0, -2.0, 5.0):
        sk = np.sqrt(abs(kappa))
        t = np.array([0.9999, 1.0001]) * metric.SERIES_CUTOFF / sk
        w, a = metric.coefficients(metric.MetricModel(kappa), t, 2)
        ratio = _closed_ratio(kappa, t)
        assert np.allclose(w, ratio, rtol=1e-12, atol=0.0)
        assert np.allclose(a, 1.0 / ratio, rtol=1e-12, atol=0.0)


def test_complex_step_gives_the_profile_derivative():
    # q' = (c_k(t) - q)/t, c_k(t) = cos(sqrt(k) t), or its series where
    # that cancels, on both sides of the series cutoff.  At t = 1e-3 of
    # the cutoff sin(z)/z would keep only about 2 digits of Im q.
    for kappa in (1.0, -2.0):
        sk = np.sqrt(abs(kappa))
        t = np.array([1e-3, 0.5, 2.0, 1e3]) * metric.SERIES_CUTOFF / sk
        t = np.append(t, 0.7)
        eps = 1e-20 * t
        w, a = metric.coefficients(metric.MetricModel(kappa), t + 1j * eps, 3)
        q = _closed_ratio(kappa, t)
        cos = np.cos(sk * t) if kappa > 0.0 else np.cosh(sk * t)
        u = kappa * t * t
        dq = np.where(sk * t < 1e-2, -u / 3.0 + u * u / 30.0, cos - q) / t
        assert w.real == pytest.approx(q * q, rel=1e-12)
        assert np.all(a == 1.0)
        assert w.imag / eps == pytest.approx(2.0 * q * dq, rel=1e-8)


def test_one_dimensional_space_forms_are_flat():
    # n = 1 has no tangential direction: A = w = q^0 = 1 exactly.
    m = metric.MetricModel(1.0)
    w, _ = metric.coefficients(m, np.array([0.0, 0.7, 1.0]), 1)
    assert np.all(w == 1.0)


@pytest.mark.parametrize("kappa,n", [
    (0.0, 2), (1.0, 2), (-1.0, 2), (1.0, 3),
], ids=["euclidean", "kappa+1", "kappa-1", "kappa+1-3d"])
def test_profiles_shape_center_and_domain(kappa, n):
    model = metric.MetricModel(kappa)
    t = np.array([0.0, 0.3 * metric.SERIES_CUTOFF, 0.5, 1.0, 1.0 + 1e-13])
    w, a = metric.coefficients(model, t, n)
    assert w.shape == a.shape == (5,)
    assert w[0] == 1.0 and a[0] == 1.0
    q = np.ones(4) if kappa == 0.0 else _closed_ratio(kappa, t[1:])
    assert np.allclose(w[1:], q ** (n - 1), rtol=1e-14, atol=0.0)
    assert np.allclose(a[1:], q ** (n - 3), rtol=1e-14, atol=0.0)
    with pytest.raises(ValueError):
        metric.coefficients(model, np.array([1.0 + 1e-9]), n)
