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
carry the data dependence. Its element matrices are formed ``BLOCK``
triangles at a time from the element bases, so no table of that rule is
held for the whole mesh, and no n.q.p. table needs to exist yet.

Element matrices reach the global CSR matrix through a :class:`ScatterPlan`,
built once per DOF map. Entry (t, i, j) of the stacked (T, 21, 21) element
matrices belongs at (dof[t, i], dof[t, j]), and each (row, column) slot of
the structural pattern (the entries element connectivity implies) receives
one to six of them. The order in which they are summed is the order scipy's
COO-to-CSR conversion sums duplicates: a stable bucket sort by row, then an
unstable sort by column within each row. That sort permutes by the columns
alone, never by the values, so the plan runs the conversion once on the
entry numbers and records the order it produced. Each assembly replays it:
one gather of every slot's first entry, then at most five passes adding the
further entries in turn (``CHUNK`` slots at a time). The matrix is bitwise
the one ``coo_matrix(...).tocsr()`` builds from the same entries, without
its COO index copies and sort on every assembly. A slot whose entries
cancel keeps its exact zero, so every matrix a plan assembles is stored on
the plan's structural pattern and shares its read-only ``indptr`` and
``indices``: nnz, bandwidth and profile are properties of the mesh and
the ordering, never of roundoff.

A caller builds the plan and the tables once and hands them to every
assembly, which reads what it covers off them: the mesh and the DOF map,
whose free DOFs it covers, off the plan, and the mesh and n.q.p. tables off
the :class:`ElementTables`, which are evaluated from the element bases the
caller passes in. The convection form checks that its tables and plan share
one mesh. The load vector, which needs no plan, takes the tables and the
DOF map.

The linearized operator A + B(xi) of a fixed-point step is one such pass:
B's slots are summed and A's data is added slot by slot, A's entry first.
No CSR matrix of B exists. A caller that passes the (T, 21, 21) element
stack straight in hands it over: the plan frees it once its slots are
summed, before A is added.

The manufactured forcing uses the exact stream function
psi = x^2 (x-1)^2 y^2 (y-1)^2 with velocity u = (psi_y, -psi_x) and pressure
p = x^3 + y^3 - 1/2; f = -Re^-1 lap(u) + (u.grad)u + grad p. With the
opposite velocity sign the same field solves the system with the convection
form and the convective part of f both negated, which the ``flip_convention``
switches expose for verification. Neither moves psi, so ``EXACT`` is one
table: a callable f(x, y) of psi's derivative per name of ``EVAL_ORDERS``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import coo_tocsr, csr_has_sorted_indices, csr_sort_indices

from .argyris import BLOCK, EVAL_ORDERS, ElementBases, build_all_bases, distinct
from .mesh import DofMap, Mesh
from .quadrature import QuadratureRule, map_to_triangle, rule as quad_rule
from .solvers import SparseMatrix

VISCOUS_EXACT_DEGREE = 6
TABLE_ORDERS = (("dx", (1, 0)), ("dy", (0, 1)), ("dxx", (2, 0)), ("dyy", (0, 2)))
LAPLACIAN_ORDERS = TABLE_ORDERS[2:]
CHUNK = 2**14  # slots per gather-add of a rank pass: bounds its temporaries


def element_blocks(rule: QuadratureRule, bases: ElementBases):
    """Yield (slice, points, weights) for ``BLOCK`` triangles at a time.

    ``points`` (B, nq, 2) and ``weights`` (B, nq) are the rule mapped to the
    block's triangles by one batched ``map_to_triangle``. Callers group
    the block's triangles into kinds (:func:`distinct`), evaluate one
    triangle per kind (``bases.evaluate``, one batched matmul per table)
    and gather.
    """
    for lo in range(0, len(bases), BLOCK):
        blk = slice(lo, lo + BLOCK)
        yield (blk, *map_to_triangle(rule, bases.coords[blk]))


class ElementTables:
    """Shape derivative tables of every triangle at the rule's points.

    Arrays are (T, nq, 21) for dx, dy and lap, (T, nq, 2) physical points and
    (T, nq) area-scaled weights, filled block by block from
    :func:`element_blocks`: each block's tables are evaluated once per
    distinct (basis kind, local points) and gathered into the arrays, so
    every triangle holds its own rows. Building this once and reusing it
    across assemblies is what makes the fixed-point iteration cheap. The
    tables keep no reference to the element bases they were evaluated from.
    """

    def __init__(self, mesh: Mesh, rule: QuadratureRule, bases: ElementBases):
        self.mesh = mesh
        nt, nq = mesh.num_triangles, rule.n_points
        self.points = np.empty((nt, nq, 2))
        self.weights = np.empty((nt, nq))
        self.dx = np.empty((nt, nq, 21))
        self.dy = np.empty((nt, nq, 21))
        self.lap = np.empty((nt, nq, 21))
        triangles = np.arange(nt)
        for blk, points, weights in element_blocks(rule, bases):
            self.points[blk], self.weights[blk] = points, weights
            first, kind = distinct(bases.kind[blk], bases.local(points, blk))
            dx, dy, dxx, dyy = bases.evaluate(points[first], TABLE_ORDERS,
                                              triangles[blk][first]).values()
            lap = np.add(dxx, dyy, out=dxx)
            for table, out in ((dx, self.dx), (dy, self.dy), (lap, self.lap)):
                np.take(table, kind, axis=0, out=out[blk], mode="clip")


def dof_arrays(mesh: Mesh, dofmap: DofMap) -> np.ndarray:
    """(T, 21) global DOFs of every triangle in local order: the six slots of
    each vertex, then the midside DOFs of edges (v0,v1), (v1,v2), (v2,v0)."""
    return np.hstack([dofmap.vertex_dofs[mesh.triangles].reshape(-1, 18),
                      dofmap.edge_dofs[mesh.triangle_edges]])


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class ScatterPlan:
    """Where and in which order element matrix entries sum into the global
    CSR matrix of one DOF map (see the module docstring).

    ``indptr`` and ``indices`` are the structural pattern over the free
    DOFs. Slot s starts from entry ``first[s]`` of the flattened (T, 21, 21)
    element matrices, and ``ranks[r]`` is a (slots, entries) pair: entry
    ``entries[k]`` is added to slot ``slots[k]`` in pass r. All arrays are
    int32 and read-only, because assembled matrices share ``indptr`` and
    ``indices`` with the plan.
    """

    mesh: Mesh
    dofmap: DofMap
    indptr: np.ndarray
    indices: np.ndarray
    first: np.ndarray
    ranks: tuple[tuple[np.ndarray, np.ndarray], ...]

    @property
    def dimension(self) -> int:
        return len(self.indptr) - 1

    @property
    def nnz(self) -> int:
        """Slots of the structural pattern."""
        return len(self.indices)

    @classmethod
    def build(cls, mesh: Mesh, dofmap: DofMap) -> "ScatterPlan":
        dofs = dofmap.free_of_global[dof_arrays(mesh, dofmap)].astype(np.int32)  # -1: eliminated
        n = dofmap.num_free
        keep = ((dofs[:, :, None] >= 0) & (dofs[:, None, :] >= 0)).ravel()
        rows = np.repeat(dofs, 21, axis=1).ravel()[keep]
        cols = np.tile(dofs, (1, 21)).ravel()[keep]
        # scipy's conversion carries the entry numbers as its data; both of
        # its sorts permute by the row and column indices alone, so int32
        # numbers come out in the order float64 values would
        numbers = np.arange(len(keep), dtype=np.int32)[keep]
        del keep
        indptr = np.empty(n + 1, dtype=np.int32)
        indices = np.empty(len(rows), dtype=np.int32)
        entries = np.empty(len(rows), dtype=np.int32)
        coo_tocsr(n, n, len(rows), rows, cols, numbers, indptr, indices, entries)
        del rows, cols, numbers
        if not csr_has_sorted_indices(n, indptr, indices):  # what csr.sort_indices() does
            csr_sort_indices(n, indptr, indices, entries)
        # a slot starts at every row start and at every change of column
        head = np.ones(len(indices) + 1, dtype=bool)
        np.not_equal(indices[1:], indices[:-1], out=head[1:-1])
        head[indptr] = True
        starts = np.flatnonzero(head).astype(np.int32)  # then len(indices), closing the last slot
        del head
        runs = np.diff(starts)
        ranks = []
        for r in range(1, runs.max(initial=1)):
            slots = np.flatnonzero(runs > r).astype(np.int32)
            at = starts[slots]
            at += r
            ranks.append((_read_only(slots), _read_only(entries[at])))
        return cls(
            mesh=mesh,
            dofmap=dofmap,
            indptr=_read_only(np.searchsorted(starts, indptr).astype(np.int32)),
            indices=_read_only(indices[starts[:-1]]),
            first=_read_only(entries[starts[:-1]]),
            ranks=tuple(ranks),
        )

    def assemble(self, local: np.ndarray, plus: SparseMatrix | None = None) -> SparseMatrix:
        """Sum (T, 21, 21) element matrices into the global CSR matrix, plus
        ``plus``, a matrix this plan assembled, in the same pass (see the
        module docstring); ``local`` passed straight in is freed once summed."""
        if local.shape != (self.mesh.num_triangles, 21, 21):
            raise ValueError(f"element matrices must have shape "
                             f"({self.mesh.num_triangles}, 21, 21), got {local.shape}")
        if plus is not None and not np.may_share_memory(plus.indices, self.indices):
            raise ValueError("the matrix to add was not assembled on this scatter plan")
        values = local.reshape(-1)
        del local
        data = values[self.first]
        for slots, entries in self.ranks:
            for lo in range(0, len(slots), CHUNK):
                s = slots[lo:lo + CHUNK]
                data[s] += values[entries[lo:lo + CHUNK]]
        del values
        if plus is not None:
            np.add(plus.data, data, out=data)
        csr = sp.csr_matrix((data, self.indices, self.indptr),
                            shape=(self.dimension, self.dimension))
        csr.has_canonical_format = True
        return SparseMatrix(csr)


def check_reynolds(reynolds) -> None:
    if not (np.isfinite(reynolds) and reynolds > 0):
        raise ValueError(f"Reynolds number must be positive and finite, got {reynolds}")


def viscous_element_matrices(
    mesh: Mesh,
    rule: QuadratureRule,
    reynolds: float,
    bases: ElementBases | None = None,
) -> np.ndarray:
    """(T, 21, 21) element matrices of Re^-1 (lap psi, lap phi).

    The Laplacians are tabulated ``BLOCK`` triangles at a time from
    ``bases``, or from new bases, at ``rule`` promoted to one exact for the
    degree-6 integrand when weaker (see module docstring). Each block's
    matrices are formed once per distinct (basis kind, local points,
    weights) and gathered. Each assembly forms its own stack, which the
    plan frees once summed.
    """
    check_reynolds(reynolds)
    if rule.exact_degree < VISCOUS_EXACT_DEGREE:
        rule = quad_rule(12)
    if bases is None:
        bases = build_all_bases(mesh)
    local = np.empty((mesh.num_triangles, 21, 21))
    triangles = np.arange(mesh.num_triangles)
    for blk, points, weights in element_blocks(rule, bases):
        first, kind = distinct(bases.kind[blk], bases.local(points, blk), weights)
        dxx, dyy = bases.evaluate(points[first], LAPLACIAN_ORDERS, triangles[blk][first]).values()
        lap = np.add(dxx, dyy, out=dxx)
        del dxx, dyy  # only lap is held through the einsum
        np.take(np.einsum("tq,tqi,tqj->tij", weights[first], lap, lap), kind, axis=0,
                out=local[blk], mode="clip")
    local /= reynolds
    return local


def assemble_biharmonic(
    plan: ScatterPlan,
    rule: QuadratureRule,
    reynolds: float,
    bases: ElementBases | None = None,
) -> SparseMatrix:
    """Assemble the viscous form Re^-1 (lap psi, lap phi) on ``plan``'s
    mesh, DOF map and reduction, from the :func:`viscous_element_matrices`
    of ``bases``."""
    return plan.assemble(viscous_element_matrices(plan.mesh, rule, reynolds, bases))


def _convection_element_matrices(mesh, dofmap, xi, tables, flip_convention) -> np.ndarray:
    """(T, 21, 21) element matrices of the convection form frozen at xi."""
    xi_local = xi[dof_arrays(mesh, dofmap)]                    # (T, 21)
    lap_xi = np.einsum("tqk,tk->tq", tables.lap, xi_local)     # (T, nq)
    w = tables.weights * lap_xi
    local = np.empty((mesh.num_triangles, 21, 21))
    block = np.empty((min(BLOCK, mesh.num_triangles), 21, 21))  # one cross table, reused
    for lo in range(0, mesh.num_triangles, BLOCK):
        blk = slice(lo, lo + BLOCK)
        cross = np.einsum("tq,tqi,tqj->tij", w[blk], tables.dx[blk], tables.dy[blk],
                          out=block[:len(w[blk])])
        np.subtract(cross, np.transpose(cross, (0, 2, 1)), out=local[blk])
    if flip_convention:
        np.negative(local, out=local)
    return local


def assemble_convection(
    plan: ScatterPlan,
    tables: ElementTables,
    xi: np.ndarray,
    flip_convention: bool = False,
    plus: SparseMatrix | None = None,
) -> SparseMatrix:
    """Assemble the linearized convection form with frozen field xi on
    ``plan``, from ``tables`` of the n.q.p. rule over the plan's mesh.

    xi is a full-DOF coefficient vector (constrained entries zero). The
    result is antisymmetric; ``flip_convention`` negates it (the opposite
    velocity sign convention). ``plus``, a matrix assembled on the same
    plan such as the viscous A, is summed in the same pass, each slot
    ``plus``'s entry plus B's.
    """
    if tables.mesh is not plan.mesh:
        raise ValueError("element tables and scatter plan must be over the same mesh")
    mesh, dofmap = plan.mesh, plan.dofmap
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (dofmap.total_dofs,):
        raise ValueError(
            f"xi must have full DOF length {dofmap.total_dofs}, got shape {xi.shape}"
        )
    # handed straight to the plan, which frees the stack once it is summed
    return plan.assemble(_convection_element_matrices(mesh, dofmap, xi, tables, flip_convention),
                         plus=plus)


def assemble_load(tables: ElementTables, dofmap: DofMap, f: Callable) -> np.ndarray:
    """Assemble l[i] = int f . (dphi_i/dy, -dphi_i/dx) over the free DOFs of
    ``dofmap``, at the points of ``tables``.

    ``f(x, y)`` takes coordinate arrays and returns (f1, f2) arrays.
    """
    x = tables.points[:, :, 0]
    y = tables.points[:, :, 1]
    f1, f2 = f(x, y)
    f1 = np.broadcast_to(np.asarray(f1, dtype=float), x.shape)
    f2 = np.broadcast_to(np.asarray(f2, dtype=float), x.shape)
    local = np.einsum("tq,tqi->ti", tables.weights * f1, tables.dy)
    local -= np.einsum("tq,tqi->ti", tables.weights * f2, tables.dx)
    vec = np.zeros(dofmap.num_free)
    r = dofmap.free_of_global[dof_arrays(tables.mesh, dofmap).ravel()]
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


def _product(ax, ay):
    gx, gy = (_g, _dg, _d2g)[ax], (_g, _dg, _d2g)[ay]
    return lambda x, y: gx(x) * gy(y)


EXACT = {name: _product(ax, ay) for name, (ax, ay) in EVAL_ORDERS}


@dataclass(frozen=True)
class ManufacturedSolution:
    """Closed-form forcing of the test problem; :data:`EXACT` is its field."""

    reynolds: float
    flip_convention: bool

    def forcing(self, x, y):
        """f = -Re^-1 lap(u) + (u.grad)u + grad p, componentwise.

        Under ``flip_convention`` only the convective term changes sign,
        matching the sign flip of the convection form; the solved stream
        function is then unchanged.
        """
        return self._forcing(x, y, -1.0 if self.flip_convention else 1.0)

    def forcing_linear(self, x, y):
        """The forcing with the convective term dropped (Stokes problem);
        the exact stream function then solves the biharmonic problem
        exactly, which is what a refinement study needs."""
        # a convective factor of 0.0 adds +-0.0, which leaves every bit unchanged
        return self._forcing(x, y, 0.0)

    def _forcing(self, x, y, s):
        """The forcing with its convective term scaled by ``s``."""
        gx, gy = _g(x), _g(y)
        dgx, dgy = _dg(x), _dg(y)
        d2gx, d2gy = _d2g(x), _d2g(y)
        d3gx, d3gy = _d3g(x), _d3g(y)
        inv_re = 1.0 / self.reynolds
        # u1 = g(x) g'(y), u2 = -g'(x) g(y)
        lap_u1 = d2gx * dgy + gx * d3gy
        lap_u2 = -(d3gx * gy + dgx * d2gy)
        conv1 = gx * dgx * (dgy ** 2 - gy * d2gy)
        conv2 = gy * dgy * (dgx ** 2 - gx * d2gx)
        f1 = -inv_re * lap_u1 + s * conv1 + 3.0 * x ** 2
        f2 = -inv_re * lap_u2 + s * conv2 + 3.0 * y ** 2
        return f1, f2


def manufactured_rhs(reynolds: float = 1.0, flip_convention: bool = False) -> ManufacturedSolution:
    """The forcing of the unit-square test case at Reynolds number ``reynolds``."""
    check_reynolds(reynolds)
    return ManufacturedSolution(reynolds=float(reynolds), flip_convention=flip_convention)
