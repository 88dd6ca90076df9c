"""Batched element construction against the one-triangle formulas.

The reference below is the per-triangle construction: one monomial design
matrix row at a time, one 21 x 21 solve per triangle, tables filled by
evaluating each basis at its own mapped quadrature points, and one viscous
element matrix per triangle. The batched build, which computes each
element once per kind of byte-equal inputs and gathers, must reproduce it
bit for bit (``np.array_equal``), because reported quantities such as the
criterion-3 ordering ranking rest on roundoff.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from streamfem.argyris import (
    BLOCK,
    EVAL_ORDERS,
    MONOMIAL_EXPONENTS,
    ElementConstructionError,
    _dual_matrices,
    _solve_duals,
    build_all_bases,
    build_element_basis,
    distinct,
    edge_normal,
)
from streamfem.assembly import (
    VISCOUS_EXACT_DEGREE,
    ElementTables,
    element_blocks,
    viscous_element_matrices,
)
from streamfem.mesh import build_uniform_mesh
from streamfem.quadrature import rule

RULES = (4, 6, 12, 25)
VERTEX_ORDERS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))

_FALLING = np.zeros((6, 3))
for _i in range(6):
    _FALLING[_i] = (1.0, _i, _i * (_i - 1))


# --- reference: the per-triangle formulas ------------------------------------

def ref_monomial_matrix(local_pts, ax, ay, inv_d):
    xi = local_pts[:, 0][:, None]
    eta = local_pts[:, 1][:, None]
    I = MONOMIAL_EXPONENTS[:, 0][None, :]
    J = MONOMIAL_EXPONENTS[:, 1][None, :]
    ci = _FALLING[MONOMIAL_EXPONENTS[:, 0], ax][None, :]
    cj = _FALLING[MONOMIAL_EXPONENTS[:, 1], ay][None, :]
    pi = np.maximum(I - ax, 0)
    pj = np.maximum(J - ay, 0)
    with np.errstate(invalid="ignore"):
        m = ci * cj * (xi ** pi) * (eta ** pj)
    return m * inv_d ** (ax + ay)


def ref_edge_normal(mesh, e):
    a, b = mesh.edges[e]
    d = mesh.vertices[b] - mesh.vertices[a]
    d = d / np.linalg.norm(d)
    return np.array([-d[1], d[0]])


def ref_basis(mesh, t):
    coords = mesh.vertices[mesh.triangles[t]]
    edges = mesh.triangle_edges[t]
    normals = np.array([ref_edge_normal(mesh, e) for e in edges])
    midpoints = np.array([mesh.edge_midpoints[e] for e in edges])
    centroid = coords.mean(axis=0)
    diameter = max(
        float(np.linalg.norm(coords[i] - coords[j])) for i in range(3) for j in range(i + 1, 3)
    )
    inv_d = 1.0 / diameter
    F = np.empty((21, 21))
    for v in range(3):
        loc = (coords[v] - centroid)[None, :] * inv_d
        for k, (ax, ay) in enumerate(VERTEX_ORDERS):
            F[6 * v + k] = ref_monomial_matrix(loc, ax, ay, inv_d)[0]
    for m in range(3):
        loc = ((midpoints[m] - centroid) * inv_d)[None, :]
        gx = ref_monomial_matrix(loc, 1, 0, inv_d)[0]
        gy = ref_monomial_matrix(loc, 0, 1, inv_d)[0]
        F[18 + m] = normals[m][0] * gx + normals[m][1] * gy
    coeffs = np.linalg.solve(F, np.eye(21)).T
    residual = float(np.abs(F @ coeffs.T - np.eye(21)).max())
    return dict(coords=coords, centroid=centroid, diameter=diameter, coeffs=coeffs,
                midpoints=midpoints, edge_normals=normals, duality_residual=residual, F=F)


def ref_map_to_triangle(q, coords):
    a, b, c = coords
    x = q.points[:, 0]
    y = q.points[:, 1]
    pts = a[None, :] + np.outer(x, b - a) + np.outer(y, c - a)
    u, v = b - a, c - a
    area = 0.5 * abs(float(u[0] * v[1] - u[1] * v[0]))
    return pts, q.weights * area


def ref_evaluate(ref, points, orders):
    loc = (np.atleast_2d(points) - ref["centroid"]) / ref["diameter"]
    inv_d = 1.0 / ref["diameter"]
    return {name: ref_monomial_matrix(loc, ax, ay, inv_d) @ ref["coeffs"].T
            for name, (ax, ay) in orders}


def ref_tables(refs, q):
    out = {name: [] for name in ("points", "weights", "dx", "dy", "lap",
                                 "dxx", "dxy", "dyy", "values")}
    for ref in refs:
        pts, wts = ref_map_to_triangle(q, ref["coords"])
        tab = ref_evaluate(ref, pts, EVAL_ORDERS)
        out["points"].append(pts)
        out["weights"].append(wts)
        out["lap"].append(tab["dxx"] + tab["dyy"])
        out["values"].append(tab["value"])
        for name in ("dx", "dy", "dxx", "dxy", "dyy"):
            out[name].append(tab[name])
    return {name: np.array(rows) for name, rows in out.items()}


# --- comparison ---------------------------------------------------------------

def assert_bitwise_equal_to_reference(mesh, rules=RULES):
    bases = build_all_bases(mesh)
    refs = [ref_basis(mesh, t) for t in range(mesh.num_triangles)]
    assert len(bases) == mesh.num_triangles
    for name in ("coords", "centroid", "diameter", "coeffs", "midpoints", "edge_normals",
                 "duality_residual"):
        assert np.array_equal(getattr(bases, name), np.array([r[name] for r in refs])), name
    inv_d = bases.inverse_powers[:, 1, None, None]
    F = _dual_matrices((bases.coords - bases.centroid[:, None]) * inv_d,
                       (bases.midpoints - bases.centroid[:, None]) * inv_d,
                       bases.edge_normals, bases.inverse_powers)
    assert np.array_equal(F, np.array([r["F"] for r in refs]))
    for t in (0, mesh.num_triangles - 1):
        basis, ref = bases[t], refs[t]
        assert basis.triangle == t and basis.diameter == ref["diameter"]
        assert basis.duality_residual == ref["duality_residual"]
        anchors = np.array([f.anchor for f in basis.functionals])
        assert np.array_equal(anchors, np.vstack([np.repeat(ref["coords"], 6, axis=0),
                                                  ref["midpoints"]]))
        assert np.array_equal(np.array([f.normal for f in basis.functionals[18:]]),
                              ref["edge_normals"])
        pts = ref["centroid"] + 0.1 * (ref["coords"] - ref["centroid"])
        got, want = basis.evaluate(pts, EVAL_ORDERS), ref_evaluate(ref, pts, EVAL_ORDERS)
        assert all(np.array_equal(got[name], want[name]) for name in want)
    for n_points in rules:
        q = rule(n_points)
        want = ref_tables(refs, q)
        # the blocks the error pass and the viscous assembly stream, then the kept tables
        for blk, points, weights in element_blocks(q, bases):
            assert np.array_equal(points, want["points"][blk]), n_points
            assert np.array_equal(weights, want["weights"][blk]), n_points
            for name, table in bases.evaluate(points, EVAL_ORDERS, blk).items():
                ref_name = "values" if name == "value" else name
                assert np.array_equal(table, want[ref_name][blk]), (n_points, name)
        tables = ElementTables(mesh, q, bases=bases)
        for name in ("points", "weights", "dx", "dy", "lap"):
            assert np.array_equal(getattr(tables, name), want[name]), (n_points, name)
        if q.exact_degree >= VISCOUS_EXACT_DEGREE:
            # one einsum per triangle, as a one-triangle assembly forms it
            ref = np.concatenate([np.einsum("tq,tqi,tqj->tij", want["weights"][t:t + 1],
                                            want["lap"][t:t + 1], want["lap"][t:t + 1])
                                  for t in range(mesh.num_triangles)])
            assert np.array_equal(viscous_element_matrices(mesh, q, 3.0, bases), ref / 3.0), \
                n_points


@pytest.mark.parametrize("n", [1, 3, 5, 8, 9, 12, 16])
def test_uniform_mesh_matches_per_triangle_reference(n):
    if n >= 12:
        assert 2 * n * n > BLOCK  # the mesh crosses a block seam
    # n = 8 and 16 share basis kinds widely; at n = 9 some triangles of one
    # basis kind differ in their local quadrature points
    assert_bitwise_equal_to_reference(build_uniform_mesh(n))


def dual_inputs(bases):
    """(T,) bytes of each triangle's inputs to its dual system."""
    inv_d = bases.inverse_powers[:, 1, None, None]
    arrays = ((bases.coords - bases.centroid[:, None]) * inv_d,
              (bases.midpoints - bases.centroid[:, None]) * inv_d,
              bases.edge_normals, bases.inverse_powers)
    return [b"".join(a[t].tobytes() for a in arrays) for t in range(len(bases))]


@settings(max_examples=8, deadline=None)
@given(n=st.integers(1, 24))
def test_kinds_group_byte_equal_dual_inputs_in_order_of_first_occurrence(n):
    bases = build_all_bases(build_uniform_mesh(n))
    kind = bases.kind
    values, first = np.unique(kind, return_index=True)
    assert np.array_equal(values, np.arange(len(values)))
    assert np.all(np.diff(first) > 0)  # kind k first occurs before kind k + 1
    inputs = dual_inputs(bases)
    assert all(inputs[t] == inputs[first[k]] for t, k in enumerate(kind))
    assert len({inputs[t] for t in first}) == len(first)


def test_distinct_compares_bytes():
    payload = np.array([0x7FF8000000000001], dtype=np.uint64).view(float)[0]
    a = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0], [np.nan, 2.0], [payload, 2.0]])
    first, kind = distinct(a, np.array([5, 5, 5, 7, 7]))
    assert first.tolist() == [0, 1, 3, 4] and kind.tolist() == [0, 1, 0, 2, 3]
    first, kind = distinct(np.array([3.0, 1.0, 3.0, 1.0, 2.0]))
    assert first.tolist() == [0, 1, 4] and kind.tolist() == [0, 1, 0, 1, 2]


def assert_changed_triangles_leave_their_kinds(mesh, changed):
    kind = build_all_bases(mesh).kind
    assert len(set(kind[changed])) == changed.sum()
    assert not set(kind[changed]) & set(kind[~changed])
    assert_bitwise_equal_to_reference(mesh)


def test_vertex_moved_by_one_ulp_leaves_its_kinds():
    mesh = build_uniform_mesh(8)
    v = np.flatnonzero(~mesh.vertex_on_boundary)[10]
    vertices = mesh.vertices.copy()
    vertices[v, 0] = np.nextafter(vertices[v, 0], 1.0)
    midpoints = 0.5 * (vertices[mesh.edges[:, 0]] + vertices[mesh.edges[:, 1]])
    around = (mesh.triangles == v).any(axis=1)
    assert around.sum() == 6
    assert_changed_triangles_leave_their_kinds(
        replace(mesh, vertices=vertices, edge_midpoints=midpoints), around)


def test_reversed_edge_leaves_its_kinds():
    """Only the midside normal of the reversed edge changes: the key holds
    the normals beside the local coordinates."""
    mesh = build_uniform_mesh(8)
    edges = mesh.edges.copy()
    edges[100] = edges[100, ::-1]
    sharing = (mesh.triangle_edges == 100).any(axis=1)
    assert sharing.sum() == 2
    assert_changed_triangles_leave_their_kinds(replace(mesh, edges=edges), sharing)


def jittered_mesh(n, seed, amplitude):
    """Uniform mesh with interior vertices moved by less than amplitude * h."""
    mesh = build_uniform_mesh(n)
    rng = np.random.default_rng(seed)
    angle = rng.uniform(0.0, 2.0 * np.pi, mesh.num_vertices)
    radius = amplitude / mesh.n * rng.uniform(0.0, 1.0, mesh.num_vertices)
    shift = radius[:, None] * np.column_stack([np.cos(angle), np.sin(angle)])
    shift[mesh.vertex_on_boundary] = 0.0
    vertices = mesh.vertices + shift
    midpoints = 0.5 * (vertices[mesh.edges[:, 0]] + vertices[mesh.edges[:, 1]])
    return replace(mesh, vertices=vertices, edge_midpoints=midpoints)


@settings(max_examples=6, deadline=None)
@given(n=st.integers(2, 12), seed=st.integers(0, 2**32 - 1),
       amplitude=st.floats(0.01, 0.24))
def test_jittered_mesh_matches_per_triangle_reference(n, seed, amplitude):
    mesh = jittered_mesh(n, seed, amplitude)
    p = mesh.vertices[mesh.triangles]
    u, v = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    assume(np.all(u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0] > 0.0))
    assert len(np.unique(np.round(build_all_bases(mesh).diameter, 12))) > 1
    assert_bitwise_equal_to_reference(mesh)


# --- error paths --------------------------------------------------------------

def test_degenerate_mesh_names_first_triangle():
    mesh = build_uniform_mesh(1)
    squashed = mesh.vertices.copy()
    squashed[:, 1] = 0.0
    with pytest.raises(ElementConstructionError, match=r"triangle 0 is degenerate"):
        build_all_bases(replace(mesh, vertices=squashed))


def test_degenerate_triangle_past_first_block_is_named():
    mesh = build_uniform_mesh(12)
    k = BLOCK + 17
    triangles = mesh.triangles.copy()
    triangles[k] = triangles[k, ::-1]  # clockwise
    with pytest.raises(ElementConstructionError, match=rf"triangle {k} is degenerate or misoriented"):
        build_all_bases(replace(mesh, triangles=triangles))


def test_singular_dual_system_is_named(mesh3):
    with pytest.raises(ElementConstructionError, match=r"dual system of triangle 4 is singular"):
        build_element_basis(mesh3, 4, edge_normal_convention=lambda mesh, e: np.zeros(2))


def test_singular_system_inside_a_batch_is_found():
    F = np.stack([np.eye(21)] * 5)
    F[3, 7] = 0.0
    with pytest.raises(ElementConstructionError, match=r"dual system of triangle 13 is singular"):
        _solve_duals(F, np.arange(10, 15))


def test_duality_residual_above_tolerance_is_named(mesh3):
    def tiny(mesh, e):
        return 1e-12 * edge_normal(mesh, e)

    with pytest.raises(ElementConstructionError, match=r"duality residual .* on triangle 4 "):
        build_element_basis(mesh3, 4, edge_normal_convention=tiny)
