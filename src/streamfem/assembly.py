"""Global assembly of the viscous, convection and load forms.

The discrete system is (A + B(xi)) c = l over the free DOFs, where

    A[i,j]  = Re^-1 sum_T int_T  lap(phi_j) lap(phi_i)
    B[i,j]  =        sum_T int_T  lap(xi_h) (dphi_j/dy dphi_i/dx
                                             - dphi_j/dx dphi_i/dy)
    l[i]    =        sum_T int_T  f . (dphi_i/dy, -dphi_i/dx)

with trial index j and test index i. Constrained DOFs are eliminated by
deletion, which keeps A symmetric positive definite and B antisymmetric.

The viscous integrand lap(phi_i) lap(phi_j) is a degree-6 polynomial; rules
below that degree leave the form rank deficient per element (4 or 6 point
values cannot control the 10-dimensional space of quintic Laplacians) and
the assembled matrix close to singular. The viscous form is therefore
always integrated with a rule exact for degree 6, while the requested
n.q.p. rule governs the load and convection assemblies, whose integrands
carry the data dependence.

The manufactured forcing uses the exact stream function
psi = x^2 (x-1)^2 y^2 (y-1)^2 with velocity u = (psi_y, -psi_x) and pressure
p = x^3 + y^3 - 1/2; f = -Re^-1 lap(u) + (u.grad)u + grad p. With the
opposite velocity sign the same field solves the system with the convection
form and the convective part of f both negated, which the ``flip_convention``
switches expose for verification.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .argyris import BLOCK, ElementBases, build_all_bases
from .mesh import DofMap, Mesh
from .quadrature import QuadratureRule, map_to_triangle, rule as quad_rule
from .solvers import SparseMatrix, from_coo

VISCOUS_EXACT_DEGREE = 6


class ElementTables:
    """Shape derivative tables of every triangle at the rule's points.

    Arrays are (T, nq, 21) for dx, dy, lap (plus dxx, dxy, dyy when
    ``second_derivatives`` is set), (T, nq, 2) physical points and (T, nq)
    area-scaled weights. They are filled ``BLOCK`` triangles at a time: one
    batched ``map_to_triangle`` and one batched matmul per derivative table,
    written straight into the arrays, with the same per-triangle arithmetic
    as ``ElementBasis.evaluate``. Building this once and reusing it across
    assemblies is what makes the fixed-point iteration cheap.
    """

    def __init__(self, mesh: Mesh, rule: QuadratureRule, bases: ElementBases | None = None,
                 second_derivatives: bool = False, values: bool = False):
        if bases is None:
            bases = build_all_bases(mesh)
        self.mesh = mesh
        self.rule = rule
        self.bases = bases
        nt, nq = mesh.num_triangles, rule.n_points
        self.points = np.empty((nt, nq, 2))
        self.weights = np.empty((nt, nq))
        self.dx = np.empty((nt, nq, 21))
        self.dy = np.empty((nt, nq, 21))
        self.lap = np.empty((nt, nq, 21))
        orders = [("dx", (1, 0)), ("dy", (0, 1)), ("dxx", (2, 0)), ("dyy", (0, 2))]
        kept = {"dx": self.dx, "dy": self.dy}
        if second_derivatives:
            orders.append(("dxy", (1, 1)))
            self.dxx = np.empty((nt, nq, 21))
            self.dxy = np.empty((nt, nq, 21))
            self.dyy = np.empty((nt, nq, 21))
            kept.update(dxx=self.dxx, dxy=self.dxy, dyy=self.dyy)
        if values:
            orders.append(("value", (0, 0)))
            self.values = np.empty((nt, nq, 21))
            kept["value"] = self.values
        for lo in range(0, nt, BLOCK):
            blk = slice(lo, lo + BLOCK)
            self.points[blk], self.weights[blk] = map_to_triangle(rule, bases.coords[blk])
            tab = bases.evaluate(self.points[blk], orders, blk,
                                 out={name: table[blk] for name, table in kept.items()})
            np.add(tab["dxx"], tab["dyy"], out=self.lap[blk])

    def dof_arrays(self, dofmap: DofMap) -> np.ndarray:
        """(T, 21) global DOFs of every triangle, rows as DofMap.triangle_dofs."""
        return np.hstack([dofmap.vertex_dofs[self.mesh.triangles].reshape(-1, 18),
                          dofmap.edge_dofs[self.mesh.triangle_edges]])


def _scatter(mesh, dofmap, tri_dofs, local_blocks, is_symmetric, reduced):
    """Accumulate (T, 21, 21) local matrices into the global CSR matrix."""
    nt = mesh.num_triangles
    rows = np.repeat(tri_dofs, 21, axis=1).ravel()
    cols = np.tile(tri_dofs, (1, 21)).ravel()
    vals = local_blocks.reshape(nt * 441)
    if reduced:
        r = dofmap.free_of_global[rows]
        c = dofmap.free_of_global[cols]
        keep = (r >= 0) & (c >= 0)
        return from_coo(dofmap.num_free, r[keep], c[keep], vals[keep], is_symmetric=is_symmetric)
    return from_coo(dofmap.total_dofs, rows, cols, vals, is_symmetric=is_symmetric)


def _viscous_tables(mesh, rule, tables):
    """Tables exact for the degree-6 viscous integrand, reusing bases."""
    if rule.exact_degree >= VISCOUS_EXACT_DEGREE:
        if tables is not None and tables.rule is rule:
            return tables
        return ElementTables(mesh, rule, bases=tables.bases if tables else None)
    exact = quad_rule(12)
    if tables is not None and tables.rule is exact:
        return tables
    return ElementTables(mesh, exact, bases=tables.bases if tables else None)


def assemble_biharmonic(
    mesh: Mesh,
    dofmap: DofMap,
    rule: QuadratureRule,
    reynolds: float = 1.0,
    tables: ElementTables | None = None,
    reduced: bool = True,
) -> SparseMatrix:
    """Assemble the viscous form Re^-1 (lap psi, lap phi).

    The integration rule is promoted to one exact for the degree-6
    integrand when the requested rule is weaker (see module docstring).
    ``reduced=False`` keeps the constrained DOFs (for quadratic-form
    evaluations with inhomogeneous data).
    """
    if reynolds <= 0:
        raise ValueError(f"Reynolds number must be positive, got {reynolds}")
    tables = _viscous_tables(mesh, rule, tables)
    local = np.einsum("tq,tqi,tqj->tij", tables.weights, tables.lap, tables.lap)
    local /= reynolds
    tri_dofs = tables.dof_arrays(dofmap)
    return _scatter(mesh, dofmap, tri_dofs, local, is_symmetric=True, reduced=reduced)


def assemble_convection(
    mesh: Mesh,
    dofmap: DofMap,
    rule: QuadratureRule,
    xi: np.ndarray,
    tables: ElementTables | None = None,
    flip_convention: bool = False,
    reduced: bool = True,
) -> SparseMatrix:
    """Assemble the linearized convection form with frozen field xi.

    xi is a full-DOF coefficient vector (constrained entries zero). The
    result is antisymmetric; ``flip_convention`` negates it (the opposite
    velocity sign convention).
    """
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (dofmap.total_dofs,):
        raise ValueError(
            f"xi must have full DOF length {dofmap.total_dofs}, got shape {xi.shape}"
        )
    if tables is None:
        tables = ElementTables(mesh, rule)
    tri_dofs = tables.dof_arrays(dofmap)
    xi_local = xi[tri_dofs]                                    # (T, 21)
    lap_xi = np.einsum("tqk,tk->tq", tables.lap, xi_local)     # (T, nq)
    w = tables.weights * lap_xi
    cross = np.einsum("tq,tqi,tqj->tij", w, tables.dx, tables.dy)
    local = cross - np.transpose(cross, (0, 2, 1))
    if flip_convention:
        local = -local
    return _scatter(mesh, dofmap, tri_dofs, local, is_symmetric=False, reduced=reduced)


def assemble_load(
    mesh: Mesh,
    dofmap: DofMap,
    rule: QuadratureRule,
    f: Callable,
    tables: ElementTables | None = None,
    reduced: bool = True,
) -> np.ndarray:
    """Assemble l[i] = int f . (dphi_i/dy, -dphi_i/dx) over free DOFs.

    ``f(x, y)`` takes coordinate arrays and returns (f1, f2) arrays.
    """
    if tables is None:
        tables = ElementTables(mesh, rule)
    x = tables.points[:, :, 0]
    y = tables.points[:, :, 1]
    f1, f2 = f(x, y)
    f1 = np.broadcast_to(np.asarray(f1, dtype=float), x.shape)
    f2 = np.broadcast_to(np.asarray(f2, dtype=float), x.shape)
    local = np.einsum("tq,tqi->ti", tables.weights * f1, tables.dy)
    local -= np.einsum("tq,tqi->ti", tables.weights * f2, tables.dx)
    tri_dofs = tables.dof_arrays(dofmap)
    if not reduced:
        vec = np.zeros(dofmap.total_dofs)
        np.add.at(vec, tri_dofs.ravel(), local.ravel())
        return vec
    vec = np.zeros(dofmap.num_free)
    free = dofmap.free_of_global
    r = free[tri_dofs.ravel()]
    keep = r >= 0
    np.add.at(vec, r[keep], local.ravel()[keep])
    return vec


# --- manufactured solution -------------------------------------------------

def _g(t):
    return t * t * (1.0 - t) ** 2


def _dg(t):
    return 2.0 * t - 6.0 * t * t + 4.0 * t ** 3


def _d2g(t):
    return 2.0 - 12.0 * t + 12.0 * t * t


def _d3g(t):
    return 24.0 * t - 12.0


@dataclass(frozen=True)
class ManufacturedSolution:
    """Closed-form forcing and exact field for the test problem."""

    reynolds: float
    flip_convention: bool

    def exact(self, x, y):
        return _g(x) * _g(y)

    def exact_dx(self, x, y):
        return _dg(x) * _g(y)

    def exact_dy(self, x, y):
        return _g(x) * _dg(y)

    def exact_dxx(self, x, y):
        return _d2g(x) * _g(y)

    def exact_dxy(self, x, y):
        return _dg(x) * _dg(y)

    def exact_dyy(self, x, y):
        return _g(x) * _d2g(y)

    def exact_gradient(self, x, y):
        return self.exact_dx(x, y), self.exact_dy(x, y)

    def forcing(self, x, y):
        """f = -Re^-1 lap(u) + (u.grad)u + grad p, componentwise.

        Under ``flip_convention`` only the convective term changes sign,
        matching the sign flip of the convection form; the solved stream
        function is then unchanged.
        """
        gx, gy = _g(x), _g(y)
        dgx, dgy = _dg(x), _dg(y)
        d2gx, d2gy = _d2g(x), _d2g(y)
        d3gx, d3gy = _d3g(x), _d3g(y)
        inv_re = 1.0 / self.reynolds
        s = -1.0 if self.flip_convention else 1.0
        # u1 = g(x) g'(y), u2 = -g'(x) g(y)
        lap_u1 = d2gx * dgy + gx * d3gy
        lap_u2 = -(d3gx * gy + dgx * d2gy)
        conv1 = gx * dgx * (dgy ** 2 - gy * d2gy)
        conv2 = gy * dgy * (dgx ** 2 - gx * d2gx)
        f1 = -inv_re * lap_u1 + s * conv1 + 3.0 * x ** 2
        f2 = -inv_re * lap_u2 + s * conv2 + 3.0 * y ** 2
        return f1, f2

    def forcing_linear(self, x, y):
        """The forcing with the convective term dropped (Stokes problem);
        the exact stream function then solves the biharmonic problem
        exactly, which is what a refinement study needs."""
        gx, gy = _g(x), _g(y)
        dgx, dgy = _dg(x), _dg(y)
        d2gx, d2gy = _d2g(x), _d2g(y)
        d3gx, d3gy = _d3g(x), _d3g(y)
        inv_re = 1.0 / self.reynolds
        f1 = -inv_re * (d2gx * dgy + gx * d3gy) + 3.0 * x ** 2
        f2 = inv_re * (d3gx * gy + dgx * d2gy) + 3.0 * y ** 2
        return f1, f2

    def interpolation_data(self) -> dict:
        """Derivative callables accepted by argyris.interpolate_field."""
        return {
            "value": self.exact,
            "dx": self.exact_dx,
            "dy": self.exact_dy,
            "dxx": self.exact_dxx,
            "dxy": self.exact_dxy,
            "dyy": self.exact_dyy,
        }


def manufactured_rhs(reynolds: float = 1.0, flip_convention: bool = False) -> ManufacturedSolution:
    """Forcing and exact-solution evaluators for the unit-square test case."""
    if reynolds <= 0:
        raise ValueError(f"Reynolds number must be positive, got {reynolds}")
    return ManufacturedSolution(reynolds=float(reynolds), flip_convention=flip_convention)
