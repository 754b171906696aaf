"""Potential f and nonlinearity V.

The linearized problem only sees f; the semilinear problem sees
V(y, xi) with V(y, 0) = 0 and dV/dxi(y, 0) = f(y).  Two nonlinearities
are built in:

    linear      V = f(y) xi
    cubic(b)    V = f(y) xi + b xi^3

Potentials are either constants or small closed-form expressions in
the coordinates (see ``parse_field``), so that configurations stay
reproducible without a scripting engine.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

__all__ = [
    "ProblemSpec",
    "linear_problem",
    "cubic_problem",
    "parse_field",
]

LINEAR = "linear"
CUBIC = "cubic"


@dataclass(frozen=True)
class ProblemSpec:
    """Potential and nonlinearity of the semilinear problem.

    ``f`` is either a constant or a batched callable mapping points of
    shape (m, n) to values of shape (m,).
    """

    f: Union[float, Callable[[np.ndarray], np.ndarray]]
    nonlinearity: str = LINEAR
    cubic_b: float = 0.0

    def __post_init__(self):
        if self.nonlinearity not in (LINEAR, CUBIC):
            raise ValueError(f"unknown nonlinearity {self.nonlinearity!r}")

    def f_values(self, points: np.ndarray) -> np.ndarray:
        P = np.atleast_2d(np.asarray(points, dtype=float))
        if callable(self.f):
            vals = np.asarray(self.f(P), dtype=float)
            return np.broadcast_to(vals, (P.shape[0],)).astype(float)
        return np.full(P.shape[0], float(self.f))

    def v_values(self, fvals: np.ndarray, xi: np.ndarray) -> np.ndarray:
        if self.nonlinearity == LINEAR:
            return fvals * xi
        return fvals * xi + self.cubic_b * xi ** 3

    def dv_values(self, fvals: np.ndarray, xi: np.ndarray) -> np.ndarray:
        if self.nonlinearity == LINEAR:
            return fvals * np.ones_like(xi)
        return fvals + 3.0 * self.cubic_b * xi ** 2


def linear_problem(f) -> ProblemSpec:
    return ProblemSpec(f, LINEAR, 0.0)


def cubic_problem(f, b: float) -> ProblemSpec:
    return ProblemSpec(f, CUBIC, float(b))


# ---------------------------------------------------------------------------
# Potential expression grammar
# ---------------------------------------------------------------------------
#
#   expr   := term (('+' | '-') term)*
#   term   := factor ('*' factor)*
#   factor := ['-'] atom
#   atom   := NUMBER | 'x1'..'xN' | 'r2' | '(' expr ')'
#
# 'r2' denotes |x|^2.  Sums and products only; that is enough for every
# polynomial potential and keeps config files trivially auditable.

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*()]))"
)


def _tokenize(text: str):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None or m.end() == pos:
            raise ValueError(f"bad character in potential expression at {text[pos:]!r}")
        pos = m.end()
        if m.lastgroup == "num":
            out.append(("num", float(m.group("num"))))
        elif m.lastgroup == "name":
            out.append(("name", m.group("name")))
        else:
            out.append(("op", m.group("op")))
    out.append(("end", None))
    return out


class _FieldParser:
    def __init__(self, tokens, dim):
        self.tokens = tokens
        self.pos = 0
        self.dim = dim

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expr(self):
        node = self.term()
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            op = self.take()[1]
            rhs = self.term()
            lhs = node
            if op == "+":
                node = (lambda P, a=lhs, b=rhs: a(P) + b(P))
            else:
                node = (lambda P, a=lhs, b=rhs: a(P) - b(P))
        return node

    def term(self):
        node = self.factor()
        while self.peek() == ("op", "*"):
            self.take()
            rhs = self.factor()
            lhs = node
            node = (lambda P, a=lhs, b=rhs: a(P) * b(P))
        return node

    def factor(self):
        if self.peek() == ("op", "-"):
            self.take()
            inner = self.factor()
            return lambda P, a=inner: -a(P)
        return self.atom()

    def atom(self):
        kind, val = self.take()
        if kind == "num":
            return lambda P, c=val: np.full(P.shape[0], c)
        if kind == "name":
            if val == "r2":
                return lambda P: np.sum(P * P, axis=1)
            m = re.fullmatch(r"x(\d+)", val)
            if m:
                idx = int(m.group(1))
                if not 1 <= idx <= self.dim:
                    raise ValueError(
                        f"coordinate {val} out of range for dimension {self.dim}"
                    )
                return lambda P, k=idx - 1: P[:, k]
            raise ValueError(f"unknown symbol {val!r} in potential expression")
        if (kind, val) == ("op", "("):
            node = self.expr()
            if self.take() != ("op", ")"):
                raise ValueError("unbalanced parentheses in potential expression")
            return node
        raise ValueError("malformed potential expression")


def parse_field(text: str, dim: int) -> Callable[[np.ndarray], np.ndarray]:
    """Compile a potential expression to a batched evaluator.

    >>> f = parse_field("2*x1 - 0.5*r2 + 1", dim=2)
    >>> f(np.array([[1.0, 2.0]]))
    array([0.5])
    """
    parser = _FieldParser(_tokenize(text), dim)
    node = parser.expr()
    if parser.peek() != ("end", None):
        raise ValueError(f"trailing input in potential expression {text!r}")
    return node
