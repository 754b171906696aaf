"""Exact invariances of the discrete form H(r).

Scaling: the metric depends on kappa only through sqrt(kappa) r |x|, and
the potential term carries r^2, so (kappa, f(x), r) and
(c kappa, c f(sqrt(c) x), r / sqrt(c)) assemble the same H to rounding
and have the same negative count.  Mirrors: a symmetry T of the mesh
(x2 -> -x2 and rotation by pi/3 on the polar rings, x -> -x in 1D)
permutes the nodes, so f(T x) gives H(r) with rows and columns permuted
and every count unchanged.  The closed-form oracles all use a constant
f; only these checks see a slip in how the kernels gather the metric
profiles or f onto their quadrature points.
"""

import math

import numpy as np
import pytest

from smalescan import fem, metric, problem, spectral

RESOLUTION = {1: 60, 2: 8}


def random_potential(rng, dim):
    """f(x1[, x2]) as an expression builder: given the text of the two
    coordinates and a scale c, the expression of c f(sqrt(c) x).  A
    negative mean of about -36 gives a few crossings on (0, 1]."""
    a0 = -36.0 + 4.0 * float(rng.uniform(-1.0, 1.0))
    a1, a2, a3, a4 = (6.0 * float(a) for a in rng.uniform(-1.0, 1.0, 4))

    def expr(x1, x2="0", c=1.0):
        s = math.sqrt(c)
        terms = [f"{c * a0!r}", f"{c * s * a1!r}*{x1}", f"{c * c * a3!r}*({x1}*{x1} + {x2}*{x2})"]
        if dim == 2:
            terms += [f"{c * c * a2!r}*{x1}*{x2}", f"{c * s * a4!r}*{x2}"]
        return " + ".join(terms)

    return expr


def assembler(dim, kappa, text):
    spec = problem.ProblemSpec(problem.parse_field(text, dim))
    return fem.Assembler(fem.build_mesh(dim, RESOLUTION[dim]), metric.MetricModel(kappa), spec)


def interior_permutation(mesh, T):
    """p with node int_idx[p[k]] at T(node int_idx[k]), so that a form
    assembled with f(T x) is H[p][:, p] of the form assembled with f."""
    interior = mesh.nodes[~mesh.boundary_nodes]
    image = interior @ T.T
    dist = np.linalg.norm(image[:, None, :] - interior[None, :, :], axis=2)
    p = dist.argmin(axis=1)
    assert np.all(dist[np.arange(len(p)), p] <= 1e-12)
    assert np.array_equal(np.sort(p), np.arange(len(p)))
    return p


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("kappa", [1.0, 0.0, -3.0], ids=["cap", "flat", "hyperbolic"])
@pytest.mark.parametrize("dim", [1, 2])
def test_scaling_gives_the_same_form(dim, kappa, seed):
    rng = np.random.default_rng(100 * seed + dim)
    expr = random_potential(rng, dim)
    coords = ("x1", "x2")[:dim]
    base = assembler(dim, kappa, expr(*coords))
    radii = np.sort(rng.uniform(0.05, 1.0, 12))
    for c in (2.0, 4.0):
        scaled = assembler(dim, c * kappa, expr(*coords, c=c))
        for r in radii:
            H, Hc = base.h(r), scaled.h(r / math.sqrt(c))
            assert np.array_equal(H.indices, Hc.indices)
            assert np.abs(H.data - Hc.data).max() <= 1e-14 * np.abs(H.data).max()
            assert spectral.inertia(H) == spectral.inertia(Hc)


def mirrors(dim):
    if dim == 1:
        return {"x->-x": np.array([[-1.0]])}
    c, s = 0.5, math.sqrt(3.0) / 2.0
    return {"x2->-x2": np.array([[1.0, 0.0], [0.0, -1.0]]),
            "rotate-pi/3": np.array([[c, -s], [s, c]])}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("kappa", [1.0, 0.0, -3.0], ids=["cap", "flat", "hyperbolic"])
@pytest.mark.parametrize("dim", [1, 2])
def test_mirrored_potential_permutes_the_form(dim, kappa, seed):
    rng = np.random.default_rng(200 * seed + dim)
    expr = random_potential(rng, dim)
    base = assembler(dim, kappa, expr(*("x1", "x2")[:dim]))
    radii = np.sort(rng.uniform(0.05, 1.0, 12))
    counts = [spectral.inertia(base.h(r)) for r in radii]
    assert counts[-1] > counts[0]  # f is not trivial on these radii
    for name, T in mirrors(dim).items():
        # f(T x): each coordinate of T x written out in x1, x2.
        rows = [" + ".join(f"{float(T[i, j])!r}*x{j + 1}" for j in range(dim)) for i in range(dim)]
        mirrored = assembler(dim, kappa, expr(*(f"({row})" for row in rows)))
        p = interior_permutation(base.mesh, T)
        for r, n in zip(radii, counts):
            H = base.h(r).toarray()
            Hm = mirrored.h(r)
            assert np.abs(Hm.toarray() - H[np.ix_(p, p)]).max() <= 1e-13 * np.abs(H).max(), name
            assert spectral.inertia(Hm) == n, name
