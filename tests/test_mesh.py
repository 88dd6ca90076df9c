import dataclasses
import os

import numpy as np
import pytest

from streamfem.mesh import (
    SLOT_INDEX,
    VERTEX_SLOTS,
    DofMap,
    Mesh,
    OrderingScheme,
    _vertex_visit_order,
    build_uniform_mesh,
    enumerate_dofs,
    export_mesh_csv,
    free_permutation,
    ordering_permutation,
)


@pytest.mark.parametrize(
    "n,nv,nt,ne",
    [(1, 4, 2, 5), (2, 9, 8, 16), (3, 16, 18, 33), (5, 36, 50, 85)],
)
def test_entity_counts(n, nv, nt, ne):
    mesh = build_uniform_mesh(n)
    assert mesh.num_vertices == nv
    assert mesh.num_triangles == nt
    assert mesh.num_edges == ne


@pytest.mark.parametrize("n", range(1, 9))
def test_euler_formula(n):
    mesh = build_uniform_mesh(n)
    assert mesh.num_edges == mesh.num_vertices + mesh.num_triangles - 1


@pytest.mark.parametrize("n", [1, 3, 6])
def test_geometry_invariants(n):
    mesh = build_uniform_mesh(n)
    assert np.all(mesh.vertices >= 0.0) and np.all(mesh.vertices <= 1.0)
    for t in range(mesh.num_triangles):
        u, v = mesh.vertices[mesh.triangles[t, 1:]] - mesh.vertices[mesh.triangles[t, 0]]
        assert u[0] * v[1] - u[1] * v[0] > 0.0
    # interior edges in exactly 2 triangles, boundary edges in exactly 1
    counts = np.zeros(mesh.num_edges, dtype=int)
    for te in mesh.triangle_edges:
        counts[te] += 1
    assert np.all(counts[mesh.edge_on_boundary] == 1)
    assert np.all(counts[~mesh.edge_on_boundary] == 2)


def test_invalid_sizes():
    with pytest.raises(ValueError):
        build_uniform_mesh(0)
    with pytest.raises(ValueError):
        build_uniform_mesh(-2)
    with pytest.raises(TypeError):
        build_uniform_mesh(2.5)


def test_total_dofs_n3(mesh3, dofmap3):
    assert dofmap3.total_dofs == 6 * 16 + 33 == 129


def test_scheme1_vertex_blocks():
    mesh = build_uniform_mesh(1)
    dm = enumerate_dofs(mesh, 1)
    assert sorted(dm.vertex_dofs[0]) == [0, 1, 2, 3, 4, 5]
    assert sorted(dm.vertex_dofs[1]) == [6, 7, 8, 9, 10, 11]
    # midsides last, in mesh edge order
    assert list(dm.edge_dofs) == [24, 25, 26, 27, 28]


def test_scheme2_function_values_first():
    mesh = build_uniform_mesh(1)
    dm = enumerate_dofs(mesh, 2)
    assert list(dm.vertex_dofs[:, 0]) == [0, 1, 2, 3]
    # each derivative family is contiguous
    for k in range(6):
        assert list(dm.vertex_dofs[:, k]) == [4 * k + v for v in range(4)]


def test_scheme3_alternating_vertices():
    mesh = build_uniform_mesh(2)  # 9 vertices
    dm = enumerate_dofs(mesh, 3)
    # even row-major positions first: vertices 0,2,4,6,8 then 1,3,5,7
    order = [0, 2, 4, 6, 8, 1, 3, 5, 7]
    for rank, v in enumerate(order):
        assert dm.vertex_dofs[v, 0] == 6 * rank


@pytest.mark.parametrize("n", [1, 2, 3, 5])
@pytest.mark.parametrize("scheme", [1, 2, 3])
def test_numbering_is_bijection(n, scheme):
    mesh = build_uniform_mesh(n)
    dm = enumerate_dofs(mesh, scheme)
    assigned = np.concatenate([dm.vertex_dofs.ravel(), dm.edge_dofs])
    assert sorted(assigned) == list(range(dm.total_dofs))


def test_constrained_counts_n3(mesh3, dofmap3):
    constrained = np.flatnonzero(dofmap3.constrained)
    assert len(constrained) == 12 * 6 + 12 == 84
    assert dofmap3.num_free == 45


def test_constrained_counts_n1():
    # the diagonal edge has both endpoints on the boundary but is itself
    # interior (shared by both triangles), so its midside DOF stays free
    mesh = build_uniform_mesh(1)
    dm = enumerate_dofs(mesh, 1)
    assert len(np.flatnonzero(dm.constrained)) == 4 * 6 + 4 == 28
    assert dm.num_free == 1


def test_free_count_n5(mesh5, dofmap5):
    interior_vertices = int((~mesh5.vertex_on_boundary).sum())
    interior_edges = int((~mesh5.edge_on_boundary).sum())
    assert interior_vertices == 16 and interior_edges == 65
    assert dofmap5.num_free == 6 * interior_vertices + interior_edges == 161


def test_constrained_set_scheme_invariant(mesh3):
    dms = [enumerate_dofs(mesh3, s) for s in (1, 2, 3)]
    base = dms[0]
    for other in dms[1:]:
        p = ordering_permutation(base, other)
        mapped = {int(p[g]) for g in np.flatnonzero(base.constrained)}
        assert mapped == set(np.flatnonzero(other.constrained).tolist())


def test_minimal_bc_counts(mesh3):
    dm = enumerate_dofs(mesh3, 1, minimal_bc=True)
    # 8 non-corner boundary vertices each keep the second derivative along
    # the boundary normal free
    assert dm.num_free == 45 + 8 == 53


def test_ordering_permutation_bijection(mesh3):
    a = enumerate_dofs(mesh3, 1)
    b = enumerate_dofs(mesh3, 3)
    p = ordering_permutation(a, b)
    assert sorted(p) == list(range(a.total_dofs))
    pf = free_permutation(a, b)
    assert sorted(pf) == list(range(a.num_free))


def test_triangle_dofs_layout(mesh3, dofmap3):
    dofs = dofmap3.triangle_dofs(mesh3, 0)
    v0, v1, v2 = mesh3.triangles[0]
    assert list(dofs[:6]) == list(dofmap3.vertex_dofs[v0])
    assert list(dofs[6:12]) == list(dofmap3.vertex_dofs[v1])
    assert list(dofs[12:18]) == list(dofmap3.vertex_dofs[v2])
    assert list(dofs[18:]) == [dofmap3.edge_dofs[e] for e in mesh3.triangle_edges[0]]


def ref_export_mesh_csv(mesh, dofmap, directory):
    """The per-entity writer: one f-string per vertex, edge and triangle."""
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, "vertices.csv"), "w") as f:
        f.write("vertex,x,y,on_boundary," + ",".join(f"dof_{s}" for s in VERTEX_SLOTS) + "\n")
        for v in range(mesh.num_vertices):
            x, y = (float(c) for c in mesh.vertices[v])
            dofs = ",".join(str(d) for d in dofmap.vertex_dofs[v])
            f.write(f"{v},{x!r},{y!r},{int(mesh.vertex_on_boundary[v])},{dofs}\n")
    with open(os.path.join(directory, "edges.csv"), "w") as f:
        f.write("edge,v_lo,v_hi,mid_x,mid_y,on_boundary,dof_normal\n")
        for e in range(mesh.num_edges):
            a, b = mesh.edges[e]
            mx, my = (float(c) for c in mesh.edge_midpoints[e])
            f.write(
                f"{e},{a},{b},{mx!r},{my!r},"
                f"{int(mesh.edge_on_boundary[e])},{dofmap.edge_dofs[e]}\n"
            )
    with open(os.path.join(directory, "triangles.csv"), "w") as f:
        f.write("triangle,v0,v1,v2,e01,e12,e20\n")
        for t in range(mesh.num_triangles):
            v = mesh.triangles[t]
            e = mesh.triangle_edges[t]
            f.write(f"{t},{v[0]},{v[1]},{v[2]},{e[0]},{e[1]},{e[2]}\n")


@pytest.mark.parametrize("minimal_bc", [False, True])
@pytest.mark.parametrize("ordering", [1, 2, 3])
def test_csv_export_matches_per_entity_reference(tmp_path, ordering, minimal_bc):
    for n in range(1, 13):
        mesh = build_uniform_mesh(n)
        dofmap = enumerate_dofs(mesh, ordering, minimal_bc=minimal_bc)
        paths = export_mesh_csv(mesh, dofmap, tmp_path / f"new{n}")
        ref_export_mesh_csv(mesh, dofmap, tmp_path / f"ref{n}")
        for path in paths:
            name = os.path.basename(path)
            assert open(path, "rb").read() == (tmp_path / f"ref{n}" / name).read_bytes(), name


def test_csv_export(tmp_path, mesh3, dofmap3):
    paths = export_mesh_csv(mesh3, dofmap3, tmp_path)
    assert len(paths) == 3
    lines = open(paths[0]).read().splitlines()
    assert len(lines) == mesh3.num_vertices + 1
    lines = open(paths[1]).read().splitlines()
    assert len(lines) == mesh3.num_edges + 1
    lines = open(paths[2]).read().splitlines()
    assert len(lines) == mesh3.num_triangles + 1


def test_summary_text():
    mesh = build_uniform_mesh(1)
    s = mesh.summary()
    assert "4 vertices" in s and "2 triangles" in s and "5 edges" in s and "29 DOFs" in s


def test_scheme_from_int_rejects_unknown():
    with pytest.raises(ValueError):
        OrderingScheme.from_int(4)


# --- the array-built mesh and numbering against the loops they replaced -----
#
# ``ref_build_uniform_mesh`` and ``ref_enumerate_dofs`` are the per-edge,
# per-triangle and per-vertex loops ``build_uniform_mesh`` and
# ``enumerate_dofs`` ran before they were written as array expressions; the
# bodies are kept verbatim but for the argument checks. The rewrite must
# give every field the same dtype, shape and bytes.


def ref_build_uniform_mesh(n: int) -> Mesh:
    m = n + 1
    xs = np.arange(m) / n
    gx, gy = np.meshgrid(xs, xs, indexing="xy")
    vertices = np.column_stack([gx.ravel(), gy.ravel()])

    def vid(i, j):
        return j * m + i

    edges = []
    edge_index = {}

    def add_edge(a, b):
        key = (a, b) if a < b else (b, a)
        edge_index[key] = len(edges)
        edges.append(key)

    for j in range(m):          # horizontal
        for i in range(n):
            add_edge(vid(i, j), vid(i + 1, j))
    for j in range(n):          # vertical
        for i in range(m):
            add_edge(vid(i, j), vid(i, j + 1))
    for j in range(n):          # oblique
        for i in range(n):
            add_edge(vid(i, j), vid(i + 1, j + 1))

    triangles = []
    triangle_edges = []

    def local_edges(a, b, c):
        return [
            edge_index[(a, b) if a < b else (b, a)],
            edge_index[(b, c) if b < c else (c, b)],
            edge_index[(c, a) if c < a else (a, c)],
        ]

    for j in range(n):
        for i in range(n):
            v00, v10 = vid(i, j), vid(i + 1, j)
            v01, v11 = vid(i, j + 1), vid(i + 1, j + 1)
            triangles.append((v00, v10, v11))          # lower
            triangle_edges.append(local_edges(v00, v10, v11))
            triangles.append((v00, v11, v01))          # upper
            triangle_edges.append(local_edges(v00, v11, v01))

    edges_arr = np.array(edges, dtype=np.int64)
    triangles_arr = np.array(triangles, dtype=np.int64)
    triangle_edges_arr = np.array(triangle_edges, dtype=np.int64)

    edge_midpoints = 0.5 * (vertices[edges_arr[:, 0]] + vertices[edges_arr[:, 1]])

    # boundary = incident to exactly one triangle
    edge_tri_count = np.zeros(len(edges_arr), dtype=np.int64)
    for te in triangle_edges_arr:
        edge_tri_count[te] += 1
    edge_on_boundary = edge_tri_count == 1
    vertex_on_boundary = np.zeros(len(vertices), dtype=bool)
    for (a, b), on_b in zip(edges_arr, edge_on_boundary):
        if on_b:
            vertex_on_boundary[a] = True
            vertex_on_boundary[b] = True

    return Mesh(
        n=int(n),
        vertices=vertices,
        triangles=triangles_arr,
        edges=edges_arr,
        edge_midpoints=edge_midpoints,
        triangle_edges=triangle_edges_arr,
        vertex_on_boundary=vertex_on_boundary,
        edge_on_boundary=edge_on_boundary,
    )


def ref_enumerate_dofs(mesh: Mesh, scheme: OrderingScheme, minimal_bc: bool) -> DofMap:
    nv, ne = mesh.num_vertices, mesh.num_edges
    total = 6 * nv + ne

    vertex_dofs = np.empty((nv, 6), dtype=np.int64)
    if scheme is OrderingScheme.FUNCTION_FIRST:
        for k in range(6):
            vertex_dofs[:, k] = k * nv + np.arange(nv)
    else:
        order = _vertex_visit_order(mesh, scheme)
        for rank, v in enumerate(order):
            vertex_dofs[v] = 6 * rank + np.arange(6)
    edge_dofs = 6 * nv + np.arange(ne)

    constrained = np.zeros(total, dtype=bool)
    m = mesh.n + 1
    for v in np.flatnonzero(mesh.vertex_on_boundary):
        if minimal_bc:
            i, j = v % m, v // m
            on_vertical = i == 0 or i == mesh.n    # boundary running in y
            on_horizontal = j == 0 or j == mesh.n  # boundary running in x
            clamped = {"value", "dx", "dy", "dxy"}
            if on_vertical:
                clamped.add("dyy")
            if on_horizontal:
                clamped.add("dxx")
            for name in clamped:
                constrained[vertex_dofs[v, SLOT_INDEX[name]]] = True
        else:
            constrained[vertex_dofs[v]] = True
    constrained[edge_dofs[mesh.edge_on_boundary]] = True

    free_of_global = np.full(total, -1, dtype=np.int64)
    globals_of_free = np.flatnonzero(~constrained)
    free_of_global[globals_of_free] = np.arange(len(globals_of_free))

    return DofMap(
        scheme=scheme,
        total_dofs=total,
        vertex_dofs=vertex_dofs,
        edge_dofs=edge_dofs,
        constrained=constrained,
        free_of_global=free_of_global,
        globals_of_free=globals_of_free,
    )


def assert_fields_identical(got, want):
    """Every dataclass field equal; arrays in dtype, shape, C order and bytes."""
    for f in dataclasses.fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert (a.dtype, a.shape, a.flags.c_contiguous) == (b.dtype, b.shape, True), f.name
            assert a.tobytes() == b.tobytes(), f.name
        else:
            assert type(a) is type(b) and a == b, f.name


@pytest.mark.parametrize("n", range(1, 21))
def test_mesh_matches_loop_reference(n):
    assert_fields_identical(build_uniform_mesh(n), ref_build_uniform_mesh(n))


@pytest.mark.parametrize("n", range(1, 21))
@pytest.mark.parametrize("scheme", list(OrderingScheme))
@pytest.mark.parametrize("minimal_bc", [False, True])
def test_dofmap_matches_loop_reference(n, scheme, minimal_bc):
    mesh = build_uniform_mesh(n)
    assert_fields_identical(enumerate_dofs(mesh, scheme.value, minimal_bc=minimal_bc),
                            ref_enumerate_dofs(mesh, scheme, minimal_bc))
