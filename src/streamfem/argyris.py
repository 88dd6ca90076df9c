"""Quintic Argyris shape functions on physical triangles.

Each triangle carries 21 degrees of freedom: value, gradient and Hessian at
the three vertices plus the normal derivative at the three edge midpoints.
The shape functions of a physical triangle come from its own 21 x 21 dual
system (functionals applied to monomials); no reference-element mapping is
used because the element is not affine-equivalent. Monomials are centered
at the centroid and scaled by the triangle diameter to keep the system well
conditioned.

Element work is done once per *kind* (:func:`distinct`): triangles whose
inputs to a step are byte-for-byte equal share its result, computed on the
kind's first triangle and gathered, so every array stays (T, ...) and equal
to a per-triangle computation bit for bit. The dual systems of the kinds
(50 of 512 triangles at n = 16) are solved ``BLOCK`` at a time: one (B, 21,
21) array and one batched ``np.linalg.solve`` per block. Each batched step
applies, per triangle, the floating-point operations of a one-triangle
build in the same order, so a basis does not depend on its block.

The midside normal is global: the edge runs from the lower to the higher
global vertex index and the normal is that direction rotated by +90 degrees.
Both triangles sharing an edge therefore see the same normal, which makes
the midside DOF single-valued and the global field C1.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .mesh import Mesh

DUALITY_TOL = 1e-8

# triangles per batched dual solve and per batched table evaluation
BLOCK = 256

# monomial exponents (i, j) with i + j <= 5, by total degree
MONOMIAL_EXPONENTS = np.array(
    [(i, d - i) for d in range(6) for i in range(d, -1, -1)], dtype=np.int64
)

_FALLING = np.zeros((6, 3))
for _i in range(6):
    _FALLING[_i, 0] = 1.0
    _FALLING[_i, 1] = _i
    _FALLING[_i, 2] = _i * (_i - 1)

_POWERS = np.arange(6)
_EYE = np.eye(21)


_I, _J = MONOMIAL_EXPONENTS.T
# falling-factorial coefficients and reduced exponents of each (ax, ay) derivative
_MONOMIAL_FACTORS = {
    (ax, ay): (_FALLING[_I, ax] * _FALLING[_J, ay], np.maximum(_I - ax, 0), np.maximum(_J - ay, 0))
    for ax in range(3) for ay in range(3 - ax)
}

# the monomials each (ax, ay) derivative keeps (nonzero coefficient) and their
# coefficients: by the degree order, kept monomial k differentiates to monomial k
_DERIVATIVE_TERMS = {order: (np.flatnonzero(c), c[c != 0])
                     for order, (c, _, _) in _MONOMIAL_FACTORS.items()}


class ElementConstructionError(RuntimeError):
    """Raised when the dual system of a triangle cannot be solved reliably."""


@dataclass(frozen=True)
class DofFunctional:
    """One of the 21 nodal functionals of a triangle.

    kind is 'value', 'dx', 'dy', 'dxx', 'dxy', 'dyy' or 'normal'; anchor is
    the vertex or edge midpoint; normal is set only for kind='normal'.
    """

    kind: str
    anchor: np.ndarray
    normal: np.ndarray | None = None


def _unit_normals(tail: np.ndarray, head: np.ndarray) -> np.ndarray:
    """(..., 2) unit vectors from tail to head, rotated by +90 degrees.

    ``sqrt(vecdot(d, d))`` is the float64 ``np.linalg.norm`` of each d.
    """
    d = head - tail
    d = d / np.sqrt(np.vecdot(d, d))[..., None]
    return np.stack([-d[..., 1], d[..., 0]], axis=-1)


def edge_normal(mesh: Mesh, e: int) -> np.ndarray:
    """Unit normal of edge e under the global lower-to-higher +90 convention."""
    a, b = mesh.edges[e]
    return _unit_normals(mesh.vertices[a], mesh.vertices[b])


def distinct(*arrays) -> tuple[np.ndarray, np.ndarray]:
    """Group the rows of (T, ...) arrays into kinds: rows k and l are of one
    kind when each array's row k equals its row l byte for byte, so 0.0 and
    -0.0, or two NaN payloads, stay apart.

    Returns ``first``, the ascending index of each kind's first row, and
    ``kind`` (T,), the kinds numbered in that order.
    """
    rows = np.hstack([np.ascontiguousarray(a).reshape(len(a), -1).view(np.uint8) for a in arrays])
    keys = rows.view(np.dtype((np.void, rows.shape[1]))).ravel().tolist()  # bytes
    number = {}  # numbers the keys in order of first occurrence, without a sort
    kind = np.array([number.setdefault(key, len(number)) for key in keys])
    return np.flatnonzero(np.diff(np.maximum.accumulate(kind), prepend=-1)), kind


def _inverse_powers(diameter) -> np.ndarray:
    """(..., 3) array of (1 / diameter) ** k for k = 0, 1, 2.

    The powers are Python float powers (C ``pow``), taken once per distinct
    diameter; numpy's vectorized power rounds differently in the last bit
    for some arguments.
    """
    inv_d = 1.0 / np.asarray(diameter, dtype=float)
    first, kind = distinct(inv_d.ravel())
    powers = [[v ** k for k in range(3)] for v in inv_d.ravel()[first].tolist()]
    return np.array(powers)[kind].reshape(*inv_d.shape, 3)


def _powers(local_pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x ** p and y ** p for p = 0..5 at local points (..., P, 2), each (..., P, 6).

    Each power is one ``np.power`` of a broadcast operand, as a direct
    evaluation of the monomials takes it; repeated multiplication, or
    numpy's contiguous power loop, changes the last bits. The dual matrices
    and tables of each kind take their powers from here only: A, every
    Krylov iterate and the ordering study's operation counts (acceptance
    criterion 3) depend on those last bits. The field evaluator,
    :meth:`ElementBases.derivatives`, feeds none of them and uses running
    products instead, which are cheaper.
    0 ** 0 is 1; the terms it enters in a derivative have zero coefficient.
    """
    with np.errstate(invalid="ignore"):
        return local_pts[..., 0, None] ** _POWERS, local_pts[..., 1, None] ** _POWERS


def _monomials(powers, ax: int, ay: int, scale: np.ndarray) -> np.ndarray:
    """Design matrix (..., P, 21) of the (ax, ay) derivative of all monomials.

    ``powers`` is :func:`_powers` of centered/scaled local points and
    ``scale`` is :func:`_inverse_powers` of the diameter, whose factors
    convert local derivatives back to physical ones.
    """
    c, pi, pj = _MONOMIAL_FACTORS[ax, ay]
    xp, yp = powers
    m = c * xp[..., pi] * yp[..., pj]
    return m * scale[..., ax + ay, None, None]


def _tables(local_pts, scale, coeffs, orders) -> dict[str, np.ndarray]:
    """name -> table for each (name, (ax, ay)) of ``orders``: the derivative
    tables (..., P, 21) of shapes with coefficients (..., 21, 21).

    The powers of the points are formed once.
    """
    powers = _powers(local_pts)
    coeffs_t = np.swapaxes(coeffs, -1, -2)
    return {name: _monomials(powers, ax, ay, scale) @ coeffs_t for name, (ax, ay) in orders}


# derivative orders, also the order of the six DOFs at each vertex
EVAL_ORDERS = (
    ("value", (0, 0)),
    ("dx", (1, 0)),
    ("dy", (0, 1)),
    ("dxx", (2, 0)),
    ("dxy", (1, 1)),
    ("dyy", (0, 2)),
)


def _dual_matrices(vertices, midpoints, normals, scale) -> np.ndarray:
    """(B, 21, 21) dual matrices: F[t, j, k] is functional j of triangle t
    applied to monomial k.

    vertices and midpoints (B, 3, 2) are the vertices and the midside
    anchors in local coordinates, normals (B, 3, 2) the midside unit
    normals, and scale (B, 3) is :func:`_inverse_powers` of the diameters.
    """
    F = np.empty((len(vertices), 21, 21))
    powers = _powers(vertices)
    for k, (_, (ax, ay)) in enumerate(EVAL_ORDERS):
        F[:, k:18:6] = _monomials(powers, ax, ay, scale)
    powers = _powers(midpoints)
    F[:, 18:] = (normals[..., 0, None] * _monomials(powers, 1, 0, scale)
                 + normals[..., 1, None] * _monomials(powers, 0, 1, scale))
    return F


def _solve_duals(F: np.ndarray, triangles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve F X = I for a block; return X (B, 21, 21) and the duality residuals (B,)."""
    try:
        X = np.linalg.solve(F, _EYE)
    except np.linalg.LinAlgError as exc:
        for t, f in zip(triangles, F):
            try:
                np.linalg.solve(f, _EYE)
            except np.linalg.LinAlgError:
                raise ElementConstructionError(
                    f"dual system of triangle {t} is singular "
                    f"(condition estimate {np.linalg.cond(f):.3e})"
                ) from exc
        raise
    residual = np.abs(F @ X - _EYE).max(axis=(1, 2))
    bad = np.flatnonzero(residual > DUALITY_TOL)
    if bad.size:
        k = bad[0]
        raise ElementConstructionError(
            f"duality residual {residual[k]:.3e} exceeds {DUALITY_TOL:g} on triangle "
            f"{triangles[k]} (condition estimate {np.linalg.cond(F[k]):.3e})"
        )
    return X, residual


@dataclass(frozen=True)
class ElementBasis:
    """The 21 dual shape functions of one physical triangle.

    coeffs[i, k] is the coefficient of monomial k (in centered/scaled local
    coordinates) of shape function i. Local DOF order: six slots per vertex
    (value, dx, dy, dxx, dxy, dyy) for vertices 0, 1, 2, then the midside
    normal DOFs of edges (v0,v1), (v1,v2), (v2,v0), anchored at ``midpoints``
    with normals ``edge_normals``.
    """

    triangle: int
    coords: np.ndarray
    centroid: np.ndarray
    diameter: float
    coeffs: np.ndarray
    midpoints: np.ndarray
    edge_normals: np.ndarray
    duality_residual: float

    @property
    def functionals(self) -> tuple[DofFunctional, ...]:
        """The 21 nodal functionals in local DOF order."""
        vertex = (DofFunctional(kind=kind, anchor=a) for a in self.coords for kind, _ in EVAL_ORDERS)
        normal = (DofFunctional(kind="normal", anchor=m, normal=n)
                  for m, n in zip(self.midpoints, self.edge_normals))
        return (*vertex, *normal)

    def evaluate(self, points: np.ndarray, orders) -> dict[str, np.ndarray]:
        """Evaluate derivative tables of all 21 shapes at the given points.

        Returns a dict name -> (npoints, 21) array for each requested
        (name, (ax, ay)) pair.
        """
        local = (np.atleast_2d(np.asarray(points, dtype=float)) - self.centroid) / self.diameter
        return _tables(local, _inverse_powers(self.diameter), self.coeffs, orders)


@dataclass(frozen=True)
class ElementBases(Sequence):
    """Element bases of a set of triangles, stored as stacked arrays.

    Item k is the :class:`ElementBasis` of triangle ``triangles[k]``, a view
    into the arrays: coords, midpoints and edge_normals (T, 3, 2), centroid
    (T, 2), diameter and duality_residual (T,), coeffs (T, 21, 21).
    inverse_powers (T, 3) is :func:`_inverse_powers` of the diameters, and
    kind (T,) the :func:`distinct` kind of each triangle's dual system.
    """

    triangles: np.ndarray
    coords: np.ndarray
    centroid: np.ndarray
    diameter: np.ndarray
    coeffs: np.ndarray
    midpoints: np.ndarray
    edge_normals: np.ndarray
    duality_residual: np.ndarray
    inverse_powers: np.ndarray
    kind: np.ndarray

    def __len__(self) -> int:
        return len(self.triangles)

    def __getitem__(self, k) -> ElementBasis:
        k = range(len(self))[operator.index(k)]
        return ElementBasis(
            triangle=int(self.triangles[k]),
            coords=self.coords[k],
            centroid=self.centroid[k],
            diameter=float(self.diameter[k]),
            coeffs=self.coeffs[k],
            midpoints=self.midpoints[k],
            edge_normals=self.edge_normals[k],
            duality_residual=float(self.duality_residual[k]),
        )

    def local(self, points, block=slice(None)) -> np.ndarray:
        """``points`` (B, P, 2) of the triangles in ``block`` in local coordinates."""
        return (points - self.centroid[block, None, :]) / self.diameter[block, None, None]

    def evaluate(self, points, orders, block=slice(None), out=None) -> dict[str, np.ndarray]:
        """Derivative tables of the triangles in ``block`` (a slice or
        indices) at their own points.

        ``points`` is (B, P, 2) for the B triangles of the block; returns
        name -> (B, P, 21) for each (name, (ax, ay)) in ``orders``, written
        into ``out[name]`` where ``out`` names an array; evaluated once
        per distinct (kind, local points) and gathered.
        """
        local = self.local(points, block)
        first, kind = distinct(self.kind[block], local)
        tables = _tables(local[first], self.inverse_powers[block][first],
                         self.coeffs[block][first], orders)
        out = out or {}
        return {name: np.take(table, kind, axis=0, out=out.get(name), mode="clip")
                for name, table in tables.items()}

    def polynomials(self, local: np.ndarray, orders) -> dict[str, np.ndarray]:
        """name -> (T, m) monomial coefficients of the (ax, ay) derivative, for
        each (name, (ax, ay)) in ``orders``, of the field whose local DOFs are
        ``local`` (T, 21).

        On triangle t the field's coefficients are ``coeffs[t].T @ local[t]``;
        a derivative keeps the m = (6 - s)(7 - s) / 2 monomials of degree at
        least ax in x and ay in y, s = ax + ay, each times its
        falling-factorial coefficient and the diameter's ``-s``-th power, so
        the constants are applied once per triangle, not once per point.
        """
        poly = np.einsum("tik,ti->tk", self.coeffs, local)
        polys = {}
        for name, (ax, ay) in orders:
            kept, c = _DERIVATIVE_TERMS[ax, ay]
            polys[name] = poly[:, kept] * (c * self.inverse_powers[:, ax + ay, None])
        return polys

    def derivatives(self, polys, points, tri) -> dict[str, np.ndarray]:
        """name -> (...) for each name of ``polys`` (:meth:`polynomials`): that
        derivative of the field at ``points`` (..., 2) in triangles ``tri``
        (...), a dot product of the local monomials with the derivative's
        coefficients.

        Precision: x ** p and y ** p are running products (a column of
        ones, then one cumulative product per coordinate), so each carries
        at most p - 1 roundings, and each monomial x ** i * y ** j one more.
        The result agrees with the per-triangle reference
        ``ElementBasis.evaluate(p) @ local``, whose powers are
        :func:`_powers`, to 1e-14 of the field's largest monomial
        coefficient over ``diameter ** (ax + ay)``.
        """
        local = (points - self.centroid[tri]) / self.diameter[tri][..., None]
        powers = np.empty((*local.shape, 6))  # [..., 0 or 1, p]: x ** p or y ** p
        powers[..., 0] = 1.0
        powers[..., 1:] = local[..., None]
        np.cumprod(powers, axis=-1, out=powers)
        monomials = powers[..., 0, _I] * powers[..., 1, _J]
        return {name: np.vecdot(monomials[..., :q.shape[1]], q[tri]) for name, q in polys.items()}


def _build_bases(mesh: Mesh, triangles: np.ndarray, normals: np.ndarray | None = None) -> ElementBases:
    """Bases of the given triangles: one dual system per kind of the inputs
    of :func:`_dual_matrices`, ``BLOCK`` kinds per solve, gathered.

    The triangles are checked in this order: any degenerate or misoriented
    one, then per block any singular dual system, then any duality residual
    above ``DUALITY_TOL``; the first triangle failing a check is named, a
    kind's first triangle standing for the kind.
    """
    coords = mesh.vertices[mesh.triangles[triangles]]
    u, v = coords[:, 1] - coords[:, 0], coords[:, 2] - coords[:, 0]
    area2 = u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]
    bad = np.flatnonzero(area2 <= 0.0)
    if bad.size:
        k = bad[0]
        raise ElementConstructionError(
            f"triangle {triangles[k]} is degenerate or misoriented (2*area = {area2[k]:g})"
        )

    edges = mesh.triangle_edges[triangles]
    if normals is None:
        ends = mesh.vertices[mesh.edges[edges]]
        normals = _unit_normals(ends[..., 0, :], ends[..., 1, :])
    midpoints = mesh.edge_midpoints[edges]
    centroid = coords.mean(axis=1)
    chords = coords[:, (0, 0, 1)] - coords[:, (1, 2, 2)]
    diameter = np.sqrt(np.vecdot(chords, chords)).max(axis=1)
    scale = _inverse_powers(diameter)
    inv_d = scale[:, 1, None, None]
    vertices = (coords - centroid[:, None, :]) * inv_d  # local coordinates
    anchors = (midpoints - centroid[:, None, :]) * inv_d
    first, kind = distinct(vertices, anchors, normals, scale)

    X = np.empty((len(first), 21, 21))
    residual = np.empty(len(first))
    for lo in range(0, len(first), BLOCK):
        blk, rep = slice(lo, lo + BLOCK), first[lo:lo + BLOCK]
        F = _dual_matrices(vertices[rep], anchors[rep], normals[rep], scale[rep])
        X[blk], residual[blk] = _solve_duals(F, triangles[rep])

    return ElementBases(
        triangles=triangles,
        coords=coords,
        centroid=centroid,
        diameter=diameter,
        coeffs=X[kind].transpose(0, 2, 1),
        midpoints=midpoints,
        edge_normals=normals,
        duality_residual=residual[kind],
        inverse_powers=scale,
        kind=kind,
    )


def build_element_basis(mesh: Mesh, triangle_index: int, edge_normal_convention=None) -> ElementBasis:
    """Solve the dual system of one triangle and verify nodal duality.

    ``edge_normal_convention`` may be a callable (mesh, edge) -> unit normal
    to override the global convention (used in tests); the default is the
    shared lower-to-higher +90 convention required for C1 assembly.
    """
    normals = None
    if edge_normal_convention is not None:
        normals = np.array(
            [[edge_normal_convention(mesh, e) for e in mesh.triangle_edges[triangle_index]]],
            dtype=float,
        )
    return _build_bases(mesh, np.array([triangle_index]), normals)[0]


def build_all_bases(mesh: Mesh) -> ElementBases:
    """Element bases for every triangle of the mesh."""
    return _build_bases(mesh, np.arange(mesh.num_triangles))


def interpolate_field(mesh: Mesh, dofmap, derivatives: dict) -> np.ndarray:
    """Argyris interpolant coefficients of an analytically known field.

    ``derivatives`` maps each name of ``EVAL_ORDERS`` to a callable f(x, y)
    accepting arrays, as ``assembly.EXACT`` does. The midside DOFs are the
    normal derivatives under the global edge convention.
    """
    coeffs = np.zeros(dofmap.total_dofs)
    vx, vy = mesh.vertices[:, 0], mesh.vertices[:, 1]
    for k, (name, _) in enumerate(EVAL_ORDERS):
        coeffs[dofmap.vertex_dofs[:, k]] = derivatives[name](vx, vy)
    mx, my = mesh.edge_midpoints[:, 0], mesh.edge_midpoints[:, 1]
    gx = derivatives["dx"](mx, my)
    gy = derivatives["dy"](mx, my)
    n = _unit_normals(mesh.vertices[mesh.edges[:, 0]], mesh.vertices[mesh.edges[:, 1]])
    coeffs[dofmap.edge_dofs] = n[:, 0] * gx + n[:, 1] * gy
    return coeffs
