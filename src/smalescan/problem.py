"""Potential f and nonlinearity V.

The linearized problem only sees f; the semilinear problem sees
V(y, xi) with V(y, 0) = 0 and dV/dxi(y, 0) = f(y).  The nonlinearity
is the cubic

    V = f(y) xi + b xi^3,

and the linear problem is its case b = 0.

Potentials are either constants or small closed-form expressions in
the coordinates (see ``parse_field``): a parsed Python expression,
checked node by node against a whitelist before it is compiled, and
evaluated with no builtins.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

__all__ = [
    "ProblemSpec",
    "parse_field",
]


@dataclass(frozen=True)
class ProblemSpec:
    """Potential f and cubic coefficient b of V = f xi + b xi^3.

    ``f`` is either a constant or a batched callable mapping points of
    shape (m, n) to values of shape (m,).  ``f_values`` keeps complex
    points complex, so a complex step in r reaches f(r x).
    """

    f: Union[float, Callable[[np.ndarray], np.ndarray]]
    cubic_b: float = 0.0

    @property
    def f_constant(self) -> Optional[float]:
        """The value of f when it does not depend on the point, else None:
        a number, or a ``parse_field`` expression that names no coordinate."""
        if callable(self.f):
            return getattr(self.f, "constant", None)
        return float(self.f)

    def f_values(self, points: np.ndarray) -> np.ndarray:
        P = np.atleast_2d(
            np.asarray(points, dtype=complex if np.iscomplexobj(points) else float))
        if callable(self.f):
            return self.f(P)
        return np.full(P.shape[0], float(self.f))

    def v_values(self, fvals: np.ndarray, xi: np.ndarray) -> np.ndarray:
        return fvals * xi + self.cubic_b * (xi * xi * xi)

    def dv_values(self, fvals: np.ndarray, xi: np.ndarray) -> np.ndarray:
        return fvals + 3.0 * self.cubic_b * xi ** 2


# Node types a potential may contain: sums, differences, products,
# unary minus, numeric literals and names.
_ALLOWED_NODES = (ast.Expression, ast.BinOp, ast.Add, ast.Sub, ast.Mult,
                  ast.UnaryOp, ast.USub, ast.Constant, ast.Name, ast.Load)


def parse_field(text: str, dim: int) -> Callable[[np.ndarray], np.ndarray]:
    """Compile a potential expression to an evaluator of points (m, dim).

    Only nodes of ``_ALLOWED_NODES`` pass, with int or float literals,
    each taken as a double, and the names x1..x<dim> and r2 = |x|^2.
    The evaluator returns values (m,) and sees only the names the
    expression uses, with no builtins.  Its ``constant`` attribute is
    the expression's value when it names no coordinate, else None.

    >>> f = parse_field("2*x1 - 0.5*r2 + 1", dim=2)
    >>> f(np.array([[1.0, 2.0]]))
    array([0.5])
    """
    names = [f"x{k}" for k in range(1, dim + 1)] + ["r2"]
    used = set()
    try:
        tree = ast.parse(text.strip(), mode="eval")
        for node in ast.walk(tree):
            if not isinstance(node, _ALLOWED_NODES):
                raise ValueError(f"{type(node).__name__} is not allowed in a potential")
            if isinstance(node, ast.Constant):
                if type(node.value) not in (int, float):
                    raise ValueError(f"literal {node.value!r} is not an int or float")
                node.value = float(node.value)
            elif isinstance(node, ast.Name):
                if node.id not in names:
                    raise ValueError(f"unknown symbol {node.id!r}, not one of {names}")
                used.add(node.id)
        code = compile(tree, "<problem.f>", "eval")
    except (SyntaxError, RecursionError, MemoryError, OverflowError) as exc:
        raise ValueError(f"{type(exc).__name__}: {exc}") from exc

    def field(P: np.ndarray) -> np.ndarray:
        env = {
            name: np.sum(P * P, axis=1) if name == "r2" else P[:, int(name[1:]) - 1]
            for name in used
        }
        return np.full(P.shape[0], eval(code, {"__builtins__": {}}, env))

    field.constant = None if used else float(eval(code, {"__builtins__": {}}, {}))
    return field
