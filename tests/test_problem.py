import numpy as np
import pytest

from smalescan import fem, metric, problem

from reference import g_values


def test_constant_potential_eval():
    spec = problem.ProblemSpec(-52.379)
    assert spec.f_values(0.5 * np.array([[0.2, 0.1]]))[0] == -52.379


def test_coordinate_potential_eval():
    spec = problem.ProblemSpec(problem.parse_field("x1", dim=2))
    assert spec.f_values(0.5 * np.array([[1.0, 0.0]]))[0] == pytest.approx(0.5)


def test_complex_points_keep_their_imaginary_part():
    # A complex step r + i eps through f(r x) gives x . grad f at r x.
    spec = problem.ProblemSpec(problem.parse_field("5*x1*x2 - 3*r2 + 2", 2))
    x = np.array([[0.3, -0.4], [0.0, 0.9]])
    r, eps = 0.6, 1e-20
    got = spec.f_values((r + 1j * eps) * x)
    f = 5.0 * x[:, 0] * x[:, 1] - 3.0 * (x * x).sum(axis=1)
    assert got.real == pytest.approx(r * r * f + 2.0, rel=1e-15)
    assert got.imag / eps == pytest.approx(2.0 * r * f, rel=1e-15)


def test_zero_potential():
    spec = problem.ProblemSpec(0.0)
    assert spec.f_values(0.9 * np.array([[0.3, -0.2]]))[0] == 0.0


def test_cubic_algebraic_identity():
    spec = problem.ProblemSpec(-4.0, 1.0)
    fvals = spec.f_values(0.1 * np.array([[0.0, 0.0]]))
    assert spec.v_values(fvals, np.array([2.0]))[0] == pytest.approx(0.0)


def test_linear_is_cubic_with_zero_b():
    f = -52.379
    assert problem.ProblemSpec(f) == problem.ProblemSpec(f, 0.0)
    mesh = fem.build_mesh(1, 8)
    lin = fem.Assembler(mesh, metric.MetricModel(), problem.ProblemSpec(f))
    cub = fem.Assembler(mesh, metric.MetricModel(), problem.ProblemSpec(f, 0.0))
    u = np.linspace(-0.7, 0.9, mesh.n_interior)
    assert np.array_equal(lin.residual(0.6, u), cub.residual(0.6, u))
    assert np.array_equal(lin.jacobian(0.6, u).toarray(), cub.jacobian(0.6, u).toarray())


def test_values_at_zero():
    for spec in (problem.ProblemSpec(-3.0), problem.ProblemSpec(-3.0, 2.0)):
        fvals = spec.f_values(0.4 * np.array([[0.1, 0.1]]))
        xi = np.array([0.0])
        assert spec.v_values(fvals, xi)[0] == 0.0
        assert g_values(spec, fvals, xi)[0] == 0.0
        assert spec.dv_values(fvals, xi)[0] == -3.0


def test_cubic_arithmetic():
    spec = problem.ProblemSpec(-52.379, 1.0)
    fvals = spec.f_values(0.0 * np.array([[0.0]]))
    assert spec.v_values(fvals, np.array([0.1]))[0] == pytest.approx(-5.2369, abs=1e-12)


def test_cubic_values_and_derivative():
    spec = problem.ProblemSpec(-7.5, 1.3)
    rng = np.random.default_rng(3)
    fvals = rng.uniform(-10.0, 10.0, (2000, 3))
    xi = rng.uniform(-3.0, 3.0, (2000, 3))
    # Relative to the size of the terms: their sum may cancel.
    scale = np.abs(fvals * xi) + np.abs(1.3 * xi ** 3)
    err = np.abs(spec.v_values(fvals, xi) - (fvals * xi + 1.3 * xi ** 3))
    assert np.all(err <= 1e-15 * scale)
    h = 1e-5
    fd = (spec.v_values(fvals, xi + h) - spec.v_values(fvals, xi - h)) / (2 * h)
    assert np.allclose(spec.dv_values(fvals, xi), fd, rtol=1e-8, atol=1e-8)


def test_fd_derivative_of_V_is_f():
    # (V(y, eps) - V(y, -eps)) / (2 eps) -> f(y)
    f = problem.parse_field("x1 - 0.5*r2 + 2", dim=2)
    spec = problem.ProblemSpec(f, 3.0)
    rng = np.random.default_rng(0)
    eps = 1e-6
    for _ in range(20):
        y = rng.uniform(-0.5, 0.5, 2)
        fvals = spec.f_values(1.0 * y[None, :])
        V = spec.v_values(fvals, np.array([eps, -eps]))
        fd = (V[0] - V[1]) / (2 * eps)
        assert fd == pytest.approx(fvals[0], rel=1e-6)


def test_dv_matches_fd_of_V():
    spec = problem.ProblemSpec(-2.0, 1.5)
    rng = np.random.default_rng(1)
    h = 1e-5
    for _ in range(30):
        y = rng.uniform(-0.5, 0.5, 2)
        xi = rng.uniform(-2.0, 2.0)
        fvals = spec.f_values(0.8 * y[None, :])
        V = spec.v_values(fvals, np.array([xi + h, xi - h]))
        fd = (V[0] - V[1]) / (2 * h)
        dv = spec.dv_values(fvals, np.array([xi]))[0]
        assert fd == pytest.approx(dv, rel=1e-8, abs=1e-10)


def test_g_prime_is_V():
    spec = problem.ProblemSpec(-2.0, 1.5)
    rng = np.random.default_rng(2)
    h = 1e-5
    for _ in range(30):
        y = rng.uniform(-0.5, 0.5, 2)
        xi = rng.uniform(-2.0, 2.0)
        fvals = spec.f_values(0.8 * y[None, :])
        G = g_values(spec, fvals, np.array([xi + h, xi - h]))
        fd = (G[0] - G[1]) / (2 * h)
        v = spec.v_values(fvals, np.array([xi]))[0]
        assert fd == pytest.approx(v, rel=1e-8, abs=1e-10)


class TestFieldGrammar:
    def test_constant(self):
        f = problem.parse_field("-52.379", dim=1)
        assert f(np.array([[0.3]]))[0] == -52.379

    def test_polynomial(self):
        f = problem.parse_field("2*x1 - 0.5*r2 + 1", dim=2)
        assert f(np.array([[1.0, 2.0]]))[0] == pytest.approx(2 - 2.5 + 1)

    def test_parentheses_and_products(self):
        f = problem.parse_field("(x1 + x2) * (x1 - x2)", dim=2)
        assert f(np.array([[3.0, 2.0]]))[0] == pytest.approx(5.0)

    def test_unary_minus(self):
        f = problem.parse_field("-x1*-x1", dim=1)
        assert f(np.array([[2.0]]))[0] == pytest.approx(4.0)

    def test_scientific_notation(self):
        f = problem.parse_field("1e-3 + 2.5E2", dim=1)
        assert f(np.array([[0.0]]))[0] == pytest.approx(250.001)

    def test_rejects_unknown_symbol(self):
        with pytest.raises(ValueError):
            problem.parse_field("sin(x1)", dim=1)

    @pytest.mark.parametrize("text", [
        "x1**2", "x1/2", "+x1", "__import__('os')", "x1.real", "(lambda: 1)()",
        "True", "1j",
        # Nested deeper than Python's parser and compiler accept.
        pytest.param("(" * 400 + "1" + ")" * 400, id="400_nested_parentheses"),
        pytest.param("+".join(["1"] * 2001), id="2001_term_sum"),
    ])
    def test_rejects_outside_the_grammar(self, text):
        with pytest.raises(ValueError):
            problem.parse_field(text, dim=1)

    def test_rejects_out_of_range_coordinate(self):
        with pytest.raises(ValueError):
            problem.parse_field("x3", dim=2)

    def test_rejects_trailing_garbage(self):
        with pytest.raises(ValueError):
            problem.parse_field("1 + 2)", dim=1)

    def test_python_literal_spellings(self):
        f = problem.parse_field("1_000 + 0x10 * x1", dim=1)
        assert f(np.array([[0.5]]))[0] == 1008.0

    def test_integer_literals_are_doubles(self):
        # A product of integer literals overflows to inf, as in doubles.
        f = problem.parse_field("1" * 200 + "*" + "1" * 200, dim=1)
        assert f(np.array([[0.0]]))[0] == np.inf

    @pytest.mark.parametrize("text", ["2", "x2", "x1 - r2"])
    def test_values_are_a_float_array_per_point(self, text):
        out = problem.parse_field(text, dim=2)(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert out.dtype == float and out.shape == (2,)

    def test_vectorized(self):
        f = problem.parse_field("r2", dim=2)
        P = np.array([[0.0, 0.0], [3.0, 4.0]])
        assert np.allclose(f(P), [0.0, 25.0])
