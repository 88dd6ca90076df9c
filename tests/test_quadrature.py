import itertools
import math

import numpy as np
import pytest

from streamfem.mesh import build_uniform_mesh
from streamfem.quadrature import SUPPORTED_POINT_COUNTS, map_to_triangle, rule

REF = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def integrate_on_triangle(q, coords, integrand) -> float:
    """Integrate ``integrand(x, y)`` over the triangle with vertices ``coords``."""
    coords = np.asarray(coords, dtype=float)
    u, v = coords[1] - coords[0], coords[2] - coords[0]
    area2 = float(u[0] * v[1] - u[1] * v[0])
    if area2 <= 0.0:
        raise ValueError("triangle must have positive area (counterclockwise vertices)")
    pts, wts = map_to_triangle(q, coords)
    vals = np.array([integrand(px, py) for px, py in pts], dtype=float)
    return float(np.dot(wts, vals))


def integrate_on_mesh(q, mesh, integrand) -> float:
    """Sum of :func:`integrate_on_triangle` over all triangles of a mesh."""
    total = 0.0
    for t in range(mesh.num_triangles):
        total += integrate_on_triangle(q, mesh.vertices[mesh.triangles[t]], integrand)
    return total


def exact_mean(p, q):
    # mean of x^p y^q over the reference triangle
    return 2.0 * math.factorial(p) * math.factorial(q) / math.factorial(p + q + 2)


def rule_mean(q, p, s):
    x, y = q.points[:, 0], q.points[:, 1]
    return float(np.sum(q.weights * x ** p * y ** s))


@pytest.mark.parametrize("n_points", SUPPORTED_POINT_COUNTS)
def test_weights_sum_to_one(n_points):
    q = rule(n_points)
    assert abs(q.weights.sum() - 1.0) < 1e-14
    bary = np.column_stack([1.0 - q.points.sum(axis=1), q.points[:, 0], q.points[:, 1]])
    assert np.all(bary >= -1e-14) and np.all(bary <= 1.0 + 1e-14)


@pytest.mark.parametrize("n_points", SUPPORTED_POINT_COUNTS)
def test_exact_to_declared_degree(n_points):
    q = rule(n_points)
    for d in range(q.exact_degree + 1):
        for p in range(d + 1):
            err = abs(rule_mean(q, p, d - p) - exact_mean(p, d - p))
            assert err < 1e-12, (n_points, p, d - p, err)


@pytest.mark.parametrize("n_points", SUPPORTED_POINT_COUNTS)
def test_sharpness_one_degree_beyond(n_points):
    q = rule(n_points)
    d = q.exact_degree + 1
    worst = max(abs(rule_mean(q, p, d - p) - exact_mean(p, d - p)) for p in range(d + 1))
    assert worst > 1e-10, f"{n_points}-point rule unexpectedly exact at degree {d}"


def test_unsupported_count_rejected():
    with pytest.raises(ValueError):
        rule(7)


def test_centroid_rule():
    q = rule(1)
    assert np.allclose(q.points, [[1 / 3, 1 / 3]])
    assert integrate_on_triangle(q, REF, lambda x, y: x) == pytest.approx(1 / 6, abs=1e-15)


def test_rule4_x2y():
    q = rule(4)
    val = rule_mean(q, 2, 1) / 2.0  # integral = |T| * mean
    assert abs(val - 1 / 60) < 1e-14


def test_rule6_exactness_boundary():
    q = rule(6)
    # x^4 exact at degree 4
    assert abs(rule_mean(q, 4, 0) - exact_mean(4, 0)) < 1e-14
    # a degree-6 monomial is misintegrated by a nonzero amount
    assert abs(rule_mean(q, 6, 0) - exact_mean(6, 0)) > 1e-8


@pytest.mark.parametrize("n_points", SUPPORTED_POINT_COUNTS)
def test_symmetry_invariance(n_points):
    """Symmetric rules are set-invariant under the 6 barycentric permutations.

    No positive-weight 4-point rule of degree 3 can be fully symmetric (the
    only symmetric candidate is centroid + one orbit, which forces the
    -27/48 centroid weight), so the 4-point rule is exempt by construction.
    """
    q = rule(n_points)
    if not q.symmetric:
        assert n_points == 4
        return
    bary = np.column_stack([1.0 - q.points.sum(axis=1), q.points[:, 0], q.points[:, 1]])
    base = {(round(b[0], 12), round(b[1], 12), round(b[2], 12), round(w, 12))
            for b, w in zip(bary, q.weights)}
    for perm in itertools.permutations(range(3)):
        permuted = {(round(b[perm[0]], 12), round(b[perm[1]], 12), round(b[perm[2]], 12),
                     round(w, 12)) for b, w in zip(bary, q.weights)}
        assert permuted == base


def test_integrate_constant_is_area():
    q = rule(3)
    tri = np.array([[0.2, 0.1], [0.9, 0.3], [0.4, 0.8]])
    u, v = tri[1] - tri[0], tri[2] - tri[0]
    area = 0.5 * abs(u[0] * v[1] - u[1] * v[0])
    assert integrate_on_triangle(q, tri, lambda x, y: 1.0) == pytest.approx(area, rel=1e-14)


def test_integrate_rejects_degenerate():
    bad = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(ValueError):
        integrate_on_triangle(rule(3), bad, lambda x, y: 1.0)


def test_mesh_area_sums_to_one():
    mesh = build_uniform_mesh(4)
    total = integrate_on_mesh(rule(1), mesh, lambda x, y: 1.0)
    assert abs(total - 1.0) < 1e-13


def test_beta_identity_on_mesh():
    # int over the unit square of (x^2(1-x)^2 y^2(1-y)^2)^2 factors into
    # (int t^4 (1-t)^4 dt)^2 = (1/630)^2
    mesh = build_uniform_mesh(4)
    g = lambda t: (t * (1 - t)) ** 2
    val = integrate_on_mesh(rule(25), mesh, lambda x, y: (g(x) * g(y)) ** 2)
    assert val == pytest.approx((1 / 630) ** 2, rel=1e-9)
