"""Structured triangulations of the unit square and global DOF numberings.

Every cell of the uniform n x n grid is split along its bottom-left to
top-right diagonal. Each vertex carries six degrees of freedom (value, first
and second derivatives) and each edge midpoint carries one (normal
derivative), for a total of 6 V + E unknowns. Three global numbering schemes
are provided; they permute the unknowns but describe the same field.
"""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass, field

import numpy as np

# per-vertex DOF slots, in this fixed order
VERTEX_SLOTS = ("value", "dx", "dy", "dxx", "dxy", "dyy")
SLOT_INDEX = {name: k for k, name in enumerate(VERTEX_SLOTS)}


class OrderingScheme(enum.Enum):
    """Global numbering strategies for the Argyris unknowns.

    VERTEX_BLOCK      six consecutive numbers per vertex, then midside DOFs
                      (horizontal, vertical, oblique edges in row-major order).
    FUNCTION_FIRST    all function values, then each derivative family in
                      turn, then midside DOFs as above.
    ALTERNATING_VERTEX  vertices visited even row-major positions first, then
                      odd positions, six consecutive numbers each, then
                      midside DOFs as above.
    """

    VERTEX_BLOCK = 1
    FUNCTION_FIRST = 2
    ALTERNATING_VERTEX = 3

    @classmethod
    def from_int(cls, k: int) -> "OrderingScheme":
        try:
            return cls(k)
        except ValueError:
            raise ValueError(f"ordering scheme must be 1, 2 or 3, got {k}") from None


@dataclass(frozen=True)
class Mesh:
    """Uniform triangulation of the unit square with h = 1/n.

    Attributes
    ----------
    n : int
        Subdivisions per side.
    vertices : (V, 2) float array
        Vertex coordinates, row-major over the grid.
    triangles : (T, 3) int array
        Counterclockwise vertex triples.
    edges : (E, 2) int array
        Vertex pairs with lower index first.
    edge_midpoints : (E, 2) float array
    triangle_edges : (T, 3) int array
        Global edge index of local edges (v0,v1), (v1,v2), (v2,v0).
    vertex_on_boundary, edge_on_boundary : bool arrays
        An edge is on the boundary iff it belongs to exactly one triangle.
    """

    n: int
    vertices: np.ndarray
    triangles: np.ndarray
    edges: np.ndarray
    edge_midpoints: np.ndarray
    triangle_edges: np.ndarray
    vertex_on_boundary: np.ndarray
    edge_on_boundary: np.ndarray

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_triangles(self) -> int:
        return len(self.triangles)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def summary(self) -> str:
        nb_v = int(self.vertex_on_boundary.sum())
        nb_e = int(self.edge_on_boundary.sum())
        return (
            f"unit-square mesh n={self.n} (h=1/{self.n}): "
            f"{self.num_vertices} vertices ({nb_v} on boundary), "
            f"{self.num_triangles} triangles, "
            f"{self.num_edges} edges ({nb_e} on boundary), "
            f"{6 * self.num_vertices + self.num_edges} DOFs"
        )


def build_uniform_mesh(n: int) -> Mesh:
    """Triangulate the unit square with n subdivisions per side.

    Each cell is split by its bottom-left to top-right diagonal; both
    triangles are counterclockwise. Edges are listed horizontal block first
    (row-major), then vertical, then oblique.
    """
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise TypeError(f"n must be an integer, got {type(n).__name__}")
    if n < 1:
        raise ValueError(f"mesh subdivisions must be >= 1, got {n}")

    m = n + 1
    xs = np.arange(m) / n
    gx, gy = np.meshgrid(xs, xs, indexing="xy")
    vertices = np.column_stack([gx.ravel(), gy.ravel()])

    vid = np.arange(m * m, dtype=np.int64).reshape(m, m)  # vid[j, i]: vertex (i, j)
    v00, v10, v01, v11 = vid[:-1, :-1], vid[:-1, 1:], vid[1:, :-1], vid[1:, 1:]
    edges_arr = np.concatenate([
        np.stack([vid[:, :-1], vid[:, 1:]], axis=-1).reshape(-1, 2),   # horizontal
        np.stack([vid[:-1], vid[1:]], axis=-1).reshape(-1, 2),         # vertical
        np.stack([v00, v11], axis=-1).reshape(-1, 2),                  # oblique
    ])
    # global index of each edge of the three blocks, laid out like its start vertex
    horizontal = np.arange(m * n, dtype=np.int64).reshape(m, n)
    vertical = m * n + np.arange(n * m, dtype=np.int64).reshape(n, m)
    oblique = 2 * m * n + np.arange(n * n, dtype=np.int64).reshape(n, n)

    def per_cell(lower, upper):
        """(2 n^2, 3) rows of the lower then the upper triangle of each cell, row-major."""
        return np.stack([np.stack(lower, axis=-1), np.stack(upper, axis=-1)], axis=2).reshape(-1, 3)

    triangles_arr = per_cell((v00, v10, v11), (v00, v11, v01))
    # local edges (v0,v1), (v1,v2), (v2,v0) of each triangle
    triangle_edges_arr = per_cell((horizontal[:-1], vertical[:, 1:], oblique),
                                  (oblique, horizontal[1:], vertical[:, :-1]))

    edge_midpoints = 0.5 * (vertices[edges_arr[:, 0]] + vertices[edges_arr[:, 1]])

    # boundary = incident to exactly one triangle
    edge_on_boundary = np.bincount(triangle_edges_arr.ravel(), minlength=len(edges_arr)) == 1
    vertex_on_boundary = np.zeros(len(vertices), dtype=bool)
    vertex_on_boundary[edges_arr[edge_on_boundary]] = True

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


@dataclass(frozen=True)
class DofMap:
    """Bijection between (entity, slot) pairs and global DOF indices.

    ``vertex_dofs[v, k]`` is the global index of slot k at vertex v (slot
    order: value, dx, dy, dxx, dxy, dyy); ``edge_dofs[e]`` the midside
    normal-derivative DOF of edge e. ``constrained`` marks clamped DOFs;
    ``free_of_global`` maps global index -> reduced index (-1 if clamped)
    and ``globals_of_free`` is its inverse, sorted ascending.
    """

    scheme: OrderingScheme
    total_dofs: int
    vertex_dofs: np.ndarray
    edge_dofs: np.ndarray
    constrained: np.ndarray
    free_of_global: np.ndarray = field(repr=False)
    globals_of_free: np.ndarray = field(repr=False)

    @property
    def num_free(self) -> int:
        return len(self.globals_of_free)


def _vertex_visit_order(mesh: Mesh, scheme: OrderingScheme) -> np.ndarray:
    v = np.arange(mesh.num_vertices)
    if scheme is OrderingScheme.ALTERNATING_VERTEX:
        return np.concatenate([v[::2], v[1::2]])
    return v


def enumerate_dofs(
    mesh: Mesh,
    scheme: OrderingScheme | int = OrderingScheme.VERTEX_BLOCK,
    minimal_bc: bool = False,
) -> DofMap:
    """Number the 6 V + E degrees of freedom under one of the three schemes.

    All schemes number the midside DOFs last, in the mesh's edge order
    (horizontal, vertical, oblique). ``minimal_bc=False`` clamps all six
    slots of every boundary vertex; ``minimal_bc=True`` leaves the second
    derivative along the boundary normal direction free at non-corner
    boundary vertices.
    """
    if isinstance(scheme, int):
        scheme = OrderingScheme.from_int(scheme)
    nv, ne = mesh.num_vertices, mesh.num_edges
    total = 6 * nv + ne

    if scheme is OrderingScheme.FUNCTION_FIRST:
        vertex_dofs = np.arange(nv, dtype=np.int64)[:, None] + nv * np.arange(6)
    else:
        vertex_dofs = np.empty((nv, 6), dtype=np.int64)
        vertex_dofs[_vertex_visit_order(mesh, scheme)] = np.arange(6 * nv).reshape(nv, 6)
    edge_dofs = 6 * nv + np.arange(ne)

    clamped = np.zeros((nv, 6), dtype=bool)
    clamped[mesh.vertex_on_boundary] = True
    if minimal_bc:
        # the second derivative along the boundary normal stays free except at
        # corners: dxx on a side running in y (i = 0, n), dyy on one in x (j = 0, n)
        j, i = np.divmod(np.arange(nv), mesh.n + 1)
        clamped[:, SLOT_INDEX["dxx"]] &= (j == 0) | (j == mesh.n)
        clamped[:, SLOT_INDEX["dyy"]] &= (i == 0) | (i == mesh.n)
    constrained = np.zeros(total, dtype=bool)
    constrained[vertex_dofs[clamped]] = True
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


def export_mesh_csv(mesh: Mesh, dofmap: DofMap, directory) -> list[str]:
    """Write vertices.csv, edges.csv and triangles.csv under ``directory``.

    Returns the written file paths. Coordinates at full precision (``repr``);
    intended for debugging and plotting, not re-import. Each file is one
    ``"".join`` of its rows, each row formatted from ``tolist()`` columns.
    """
    os.makedirs(directory, exist_ok=True)
    files = (
        ("vertices.csv", "vertex,x,y,on_boundary," + ",".join(f"dof_{s}" for s in VERTEX_SLOTS),
         "{},{!r},{!r},{}" + ",{}" * len(VERTEX_SLOTS),
         [*mesh.vertices.T, mesh.vertex_on_boundary.astype(int), *dofmap.vertex_dofs.T]),
        ("edges.csv", "edge,v_lo,v_hi,mid_x,mid_y,on_boundary,dof_normal",
         "{},{},{},{!r},{!r},{},{}",
         [*mesh.edges.T, *mesh.edge_midpoints.T, mesh.edge_on_boundary.astype(int),
          dofmap.edge_dofs]),
        ("triangles.csv", "triangle,v0,v1,v2,e01,e12,e20", "{},{},{},{},{},{},{}",
         [*mesh.triangles.T, *mesh.triangle_edges.T]),
    )
    paths = []
    for name, header, row, columns in files:
        paths.append(os.path.join(directory, name))
        lines = map(f"{row}\n".format, range(len(columns[0])), *(c.tolist() for c in columns))
        with open(paths[-1], "w") as f:
            f.write(header + "\n" + "".join(lines))
    return paths
