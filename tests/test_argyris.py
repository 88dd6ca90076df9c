import numpy as np
import pytest
import sympy

from streamfem.argyris import ElementConstructionError, build_all_bases
from streamfem.assembly import EXACT, dof_arrays
from streamfem.mesh import Mesh, build_uniform_mesh, enumerate_dofs

from fields import interpolate_field

DERIV_NAMES = ("value", "dx", "dy", "dxx", "dxy", "dyy")


def sympy_derivatives(expr):
    """Callable table of a sympy expression and its derivatives."""
    x, y = sympy.symbols("x y")
    table = {}
    orders = {
        "value": (0, 0), "dx": (1, 0), "dy": (0, 1),
        "dxx": (2, 0), "dxy": (1, 1), "dyy": (0, 2),
    }
    for name, (ax, ay) in orders.items():
        fn = sympy.lambdify((x, y), sympy.diff(expr, x, ax, y, ay), "numpy")
        table[name] = lambda px, py, fn=fn: np.broadcast_to(
            np.asarray(fn(px, py), dtype=float), np.shape(px)
        )
    return table


def test_duality_all_triangles(bases3):
    assert bases3.duality_residual.max() < 1e-8


def test_constant_reproduction(mesh3, dofmap3, bases3, rng):
    one = {name: (lambda x, y: np.ones_like(x)) if name == "value"
           else (lambda x, y: np.zeros_like(x)) for name in DERIV_NAMES}
    coeffs = interpolate_field(mesh3, dofmap3, one)
    pts = rng.random((20, 2))
    from streamfem.analysis import evaluate_field

    vals = evaluate_field(mesh3, dofmap3, coeffs, pts, bases=bases3)
    assert np.abs(vals - 1.0).max() < 1e-10


def test_quintic_reproduction_symbolic(mesh3, dofmap3, bases3, rng):
    x, y = sympy.symbols("x y")
    table = sympy_derivatives(x ** 5 - 3 * x ** 2 * y ** 3)
    coeffs = interpolate_field(mesh3, dofmap3, table)
    pts = rng.random((30, 2))
    from streamfem.analysis import _locate, evaluate_field

    vals = evaluate_field(mesh3, dofmap3, coeffs, pts, bases=bases3)
    polys = bases3.polynomials(coeffs[dof_arrays(mesh3, dofmap3)], (("dx", (1, 0)), ("dy", (0, 1))))
    grads = bases3.derivatives(polys, pts, _locate(mesh3, pts))
    assert np.abs(vals - table["value"](pts[:, 0], pts[:, 1])).max() < 1e-8
    assert np.abs(grads["dx"] - table["dx"](pts[:, 0], pts[:, 1])).max() < 1e-8
    assert np.abs(grads["dy"] - table["dy"](pts[:, 0], pts[:, 1])).max() < 1e-8


def test_p5_exactness_random_quintics(bases3, rng):
    """Interpolating random quintics on one element reproduces them to 1e-9."""
    coords, t = bases3.coords[4], [4]
    x, y = sympy.symbols("x y")
    monos = [x ** i * y ** j for i in range(6) for j in range(6 - i)]
    pts = coords[0][None, :] * 0.25 + coords[1][None, :] * 0.35 + coords[2][None, :] * 0.40
    sample = np.vstack([pts, bases3.centroid[t], coords])
    for _ in range(10):
        c = rng.standard_normal(len(monos))
        expr = sum(ci * m for ci, m in zip(c, monos))
        table = sympy_derivatives(expr)
        # element-local interpolation: apply the 21 functionals analytically
        dof_vals = np.empty(21)
        for v in range(3):
            px, py = coords[v]
            for k, name in enumerate(DERIV_NAMES):
                dof_vals[6 * v + k] = table[name](px, py)
        for m in range(3):
            (px, py), normal = bases3.midpoints[4, m], bases3.edge_normals[4, m]
            dof_vals[18 + m] = normal[0] * table["dx"](px, py) + normal[1] * table["dy"](px, py)
        tab = bases3.evaluate(sample[None], (("value", (0, 0)),), t)
        interp = tab["value"][0] @ dof_vals
        exact = table["value"](sample[:, 0], sample[:, 1])
        scale = max(1.0, np.abs(exact).max())
        assert np.abs(interp - exact).max() / scale < 1e-9


def test_laplacian_matches_finite_differences(bases3):
    c = bases3.centroid[2]
    h = 1e-5
    tab = bases3.evaluate(
        np.array([[c, c + [h, 0], c - [h, 0], c + [0, h], c - [0, h]]]),
        (("value", (0, 0)), ("dxx", (2, 0)), ("dyy", (0, 2))), [2],
    )
    vals = tab["value"][0]
    fd_lap = (vals[1] + vals[2] + vals[3] + vals[4] - 4 * vals[0]) / h ** 2
    lap = tab["dxx"][0, 0] + tab["dyy"][0, 0]
    scale = np.maximum(np.abs(lap), 1.0)
    assert np.abs(fd_lap - lap).max() / scale.max() < 1e-5


def _edge_samples(mesh, e, count, rng):
    a, b = mesh.edges[e]
    s = rng.uniform(0.05, 0.95, count)
    return mesh.vertices[a] * (1 - s)[:, None] + mesh.vertices[b] * s[:, None]


def test_c1_conformity_interior_edges(rng):
    """Value and normal-slope continuity across shared edges of the
    interpolated manufactured field."""
    mesh = build_uniform_mesh(4)
    dm = enumerate_dofs(mesh, 1)
    bases = build_all_bases(mesh)
    coeffs = interpolate_field(mesh, dm, EXACT)
    interior = np.flatnonzero(~mesh.edge_on_boundary)
    edge_to_tris = {e: [] for e in interior}
    for t, te in enumerate(mesh.triangle_edges):
        for e in te:
            if e in edge_to_tris:
                edge_to_tris[e].append(t)
    scale = abs(coeffs[dm.vertex_dofs[:, 0]]).max()
    orders = (("value", (0, 0)), ("dx", (1, 0)), ("dy", (0, 1)))
    local = coeffs[dof_arrays(mesh, dm)]
    for e in interior:
        t1, t2 = edge_to_tris[e]
        pts = _edge_samples(mesh, e, 5, rng)
        n = bases.edge_normals[mesh.triangle_edges == e][0]
        tab = bases.evaluate(np.stack([pts, pts]), orders, [t1, t2])
        field = {name: np.einsum("tpi,ti->tp", table, local[[t1, t2]])
                 for name, table in tab.items()}
        value_jump = np.abs(field["value"][0] - field["value"][1]).max()
        slope = field["dx"] * n[0] + field["dy"] * n[1]
        assert value_jump <= 1e-9 * max(scale, 1e-30)
        assert np.abs(slope[0] - slope[1]).max() <= 1e-8 * max(scale, 1e-30)


def _scaled_copy(mesh: Mesh, s: float) -> Mesh:
    return Mesh(
        n=mesh.n,
        vertices=mesh.vertices * s,
        triangles=mesh.triangles,
        edges=mesh.edges,
        edge_midpoints=mesh.edge_midpoints * s,
        triangle_edges=mesh.triangle_edges,
        vertex_on_boundary=mesh.vertex_on_boundary,
        edge_on_boundary=mesh.edge_on_boundary,
    )


def test_scaling_leaves_value_shapes_invariant():
    mesh = build_uniform_mesh(1)
    scaled = _scaled_copy(mesh, 3.7)
    pts = np.array([[[0.3, 0.2], [0.6, 0.25], [0.5, 0.4]]])
    v1 = build_all_bases(mesh).evaluate(pts, (("value", (0, 0)),), [0])["value"][0]
    v2 = build_all_bases(scaled).evaluate(pts * 3.7, (("value", (0, 0)),), [0])["value"][0]
    for local_value_dof in (0, 6, 12):
        assert np.abs(v1[:, local_value_dof] - v2[:, local_value_dof]).max() < 1e-9


def test_degenerate_triangle_rejected():
    mesh = build_uniform_mesh(1)
    bad = _scaled_copy(mesh, 1.0)
    squashed = bad.vertices.copy()
    squashed[:, 1] = 0.0  # collapse onto the x axis
    bad = Mesh(
        n=bad.n, vertices=squashed, triangles=bad.triangles, edges=bad.edges,
        edge_midpoints=bad.edge_midpoints, triangle_edges=bad.triangle_edges,
        vertex_on_boundary=bad.vertex_on_boundary, edge_on_boundary=bad.edge_on_boundary,
    )
    with pytest.raises(ElementConstructionError):
        build_all_bases(bad)


def test_edge_normal_convention(mesh3, bases3):
    for t, m in np.ndindex(mesh3.triangle_edges.shape):
        a, b = mesh3.edges[mesh3.triangle_edges[t, m]]
        assert a < b
        d = mesh3.vertices[b] - mesh3.vertices[a]
        d = d / np.linalg.norm(d)
        n = bases3.edge_normals[t, m]
        assert np.linalg.norm(n) == pytest.approx(1.0, abs=1e-14)
        assert float(d[0] * n[1] - d[1] * n[0]) == pytest.approx(1.0, abs=1e-12)

