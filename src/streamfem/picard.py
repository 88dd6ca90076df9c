"""Fixed-point driver for the linearized stream-function problem.

The initial guess is the solution of the biharmonic problem (convection form
dropped, same load), solved with PCG. Each outer iteration freezes the
convection field at the previous iterate and solves the nonsymmetric
system with BiCGSTAB. The iteration stops when both the coefficient update
norm and the relative nonlinear residual fall below the tolerance.

The operator A + B(psi_k) that measures the nonlinear residual of iterate
k is the system matrix of outer iteration k + 1, so the convection form is
assembled once before the loop and once per outer iteration.

A solve always returns its coefficients and trace. An initial PCG that does
not converge, or a BiCGSTAB breakdown, ends the iteration early and names
the cause in ``PicardTrace.failure``; running out of outer iterations only
leaves ``converged`` false.

Both solves take a :class:`Discretization`: the DOF map, element tables,
manufactured solution, scatter plan and viscous matrix of one config, built
once by :func:`discretize` from the mesh and its element bases, the one
input a run may share across orderings. Every operator A + B(psi) is summed
in one pass of the scatter plan that assembled A.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .argyris import ElementBases, build_all_bases
from .assembly import (
    ElementTables,
    ManufacturedSolution,
    ScatterPlan,
    assemble_biharmonic,
    assemble_convection,
    assemble_load,
    check_reynolds,
    manufactured_rhs,
)
from .mesh import DofMap, Mesh, OrderingScheme, enumerate_dofs
from .quadrature import rule as quad_rule
from .solvers import SolveReport, SparseMatrix, bicgstab, pcg

# iteration cap of every PCG and BiCGSTAB solve
LINEAR_MAX_ITER = 20000


@dataclass(frozen=True)
class PicardConfig:
    """Run parameters; tolerances per the fixed-point stopping rule.

    An int ``ordering`` is converted to its :class:`OrderingScheme`.
    ``linear_tol=None`` resolves to ``tol`` for a standalone biharmonic
    solve and to ``tol * 1e-3`` inside the fixed-point loop: the inner
    solves must be accurate well below the outer update test, or the
    update norms stall at the inner solver's noise floor and the dual
    stopping criterion is never met.
    """

    reynolds: float = 1.0
    tol: float = 1e-5
    max_outer: int = 50
    n_quad_points: int = 6
    ordering: OrderingScheme | int = OrderingScheme.VERTEX_BLOCK
    linear_tol: float | None = None
    minimal_bc: bool = False
    flip_convention: bool = False

    def __post_init__(self):
        object.__setattr__(self, "ordering", OrderingScheme.from_int(self.ordering))
        check_reynolds(self.reynolds)
        for name in ("tol", "linear_tol"):
            value = getattr(self, name)
            if value is not None and not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.max_outer < 1:
            raise ValueError("max_outer must be at least 1")

    @property
    def biharmonic_tol(self) -> float:
        return self.tol if self.linear_tol is None else self.linear_tol

    @property
    def inner_tol(self) -> float:
        return self.tol * 1e-3 if self.linear_tol is None else self.linear_tol


@dataclass
class OuterIteration:
    index: int
    update_norm: float
    residual: float
    report: SolveReport


@dataclass
class PicardTrace:
    iterations: list[OuterIteration] = field(default_factory=list)
    converged: bool = False
    initial_report: SolveReport | None = None
    failure: str | None = None  # why the iteration stopped early, if it did

    @property
    def total_inner_iterations(self) -> float:
        return sum(it.report.iterations for it in self.iterations)

    @property
    def mean_inner_iterations(self) -> float:
        if not self.iterations:
            return 0.0
        return self.total_inner_iterations / len(self.iterations)

    @property
    def total_flops(self) -> int:
        total = sum(it.report.flops for it in self.iterations)
        if self.initial_report is not None:
            total += self.initial_report.flops
        return total

    def export_csv(self, path) -> None:
        with open(path, "w") as f:
            f.write("outer,update_norm,residual,inner_iterations,inner_flops,inner_converged\n")
            for it in self.iterations:
                f.write(
                    f"{it.index},{it.update_norm!r},{it.residual!r},"
                    f"{it.report.iterations:g},{it.report.flops},"
                    f"{int(it.report.converged)}\n"
                )


@dataclass(frozen=True)
class Discretization:
    """One discretization of the unit square: everything a solve, the
    ordering study and the exports share, built once by :func:`discretize`.

    ``tables`` are the n.q.p. tables of the load and convection forms;
    ``plan`` scatters element matrices over the free DOFs of ``dofmap``;
    ``A`` is the assembled viscous matrix. The element bases are not kept:
    a caller that evaluates the field after the solve holds its own.
    """

    config: PicardConfig
    dofmap: DofMap
    tables: ElementTables
    ms: ManufacturedSolution
    plan: ScatterPlan
    A: SparseMatrix

    def operator(self, psi: np.ndarray) -> SparseMatrix:
        """A + B(psi), the linearized operator frozen at the full-DOF field psi,
        summed in one scatter-plan pass on the plan's structural pattern."""
        return assemble_convection(self.plan, self.tables, psi,
                                   flip_convention=self.config.flip_convention, plus=self.A)


def discretize(mesh: Mesh, config: PicardConfig,
               bases: ElementBases | None = None) -> Discretization:
    """Number the DOFs, build the scatter plan, assemble A and tabulate the
    elements for ``config``, in that order, so the plan's build peak is the
    only large allocation alive.

    ``bases`` are the element bases of ``mesh``, built here when not given.
    They do not depend on the DOF numbering, so a caller that discretizes
    one mesh under several orderings, or evaluates the field after the
    solve, builds them once and passes them in; the result keeps no
    reference to them.
    """
    q = quad_rule(config.n_quad_points)
    dofmap = enumerate_dofs(mesh, config.ordering, minimal_bc=config.minimal_bc)
    ms = manufactured_rhs(config.reynolds, flip_convention=config.flip_convention)
    plan = ScatterPlan.build(mesh, dofmap)
    if bases is None:
        bases = build_all_bases(mesh)  # shared by A and the tables
    A = assemble_biharmonic(plan, q, config.reynolds, bases)
    tables = ElementTables(mesh, q, bases)
    return Discretization(config=config, dofmap=dofmap, tables=tables, ms=ms, plan=plan, A=A)


def _expand(dofmap, reduced: np.ndarray) -> np.ndarray:
    full = np.zeros(dofmap.total_dofs)
    full[dofmap.globals_of_free] = reduced
    return full


def _load(disc: Discretization, f) -> tuple[np.ndarray, float]:
    """The load vector of the forcing f and its 2-norm, which must be finite:
    entries above about 1e154 (a tiny Re) overflow the sum of squares, and
    no solve could converge. The solvers report such a b as nonconverged."""
    ell = assemble_load(disc.tables, disc.dofmap, f)
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(ell))
    if not np.isfinite(norm):
        raise ValueError(f"the load vector's 2-norm overflows at Reynolds number "
                         f"{disc.config.reynolds}")
    return ell, norm


def solve_biharmonic_problem(disc: Discretization, load: str = "full"):
    """Solve the biharmonic problem A psi = l with PCG.

    ``load`` selects the manufactured forcing: 'full' keeps the convective
    term (the reference-table runs), 'stokes' drops it so the exact stream
    function solves the continuous problem (refinement studies), 'zero'
    uses f = 0.

    Returns (full-DOF coefficients, SolveReport).
    """
    if load == "full":
        f = disc.ms.forcing
    elif load == "stokes":
        f = disc.ms.forcing_linear
    elif load == "zero":
        f = lambda x, y: (np.zeros_like(x), np.zeros_like(y))
    else:
        raise ValueError(f"unknown load '{load}'")
    ell, _ = _load(disc, f)
    x, report = pcg(disc.A, ell, tol=disc.config.biharmonic_tol, max_iter=LINEAR_MAX_ITER)
    return _expand(disc.dofmap, x), report


def solve_linearized_nse(disc: Discretization):
    """Run the fixed-point iteration for the linearized problem.

    Returns (full-DOF coefficients, PicardTrace). After an early stop the
    coefficients are the last iterate: the initial PCG's when it failed, the
    one before the breakdown otherwise.
    """
    dofmap, config, A = disc.dofmap, disc.config, disc.A
    ell, norm_ell = _load(disc, disc.ms.forcing)
    scale = norm_ell if norm_ell > 0 else 1.0

    trace = PicardTrace()
    x0, trace.initial_report = pcg(A, ell, tol=config.inner_tol, max_iter=LINEAR_MAX_ITER)
    psi_full = _expand(dofmap, x0)
    if not trace.initial_report.converged:
        trace.failure = "initial biharmonic PCG solve did not converge"
        return psi_full, trace

    free = dofmap.globals_of_free
    system = disc.operator(psi_full)
    for outer in range(1, config.max_outer + 1):
        x, report = bicgstab(system, ell, tol=config.inner_tol, max_iter=LINEAR_MAX_ITER)
        del system  # released before the next operator is assembled
        if report.breakdown is not None:
            trace.iterations.append(
                OuterIteration(index=outer, update_norm=np.nan, residual=np.nan, report=report)
            )
            trace.failure = f"BiCGSTAB {report.breakdown} at outer iteration {outer}"
            break

        new_full = _expand(dofmap, x)
        update = float(np.linalg.norm(new_full[free] - psi_full[free]))
        psi_full = new_full

        # nonlinear residual of the discrete equation with the new iterate;
        # its operator is also the system of the next outer iteration
        system = disc.operator(psi_full)
        residual = float(np.linalg.norm(system.matvec(x) - ell)) / scale

        trace.iterations.append(
            OuterIteration(index=outer, update_norm=update, residual=residual, report=report)
        )
        if update <= config.tol and residual <= config.tol:
            trace.converged = True
            break

    return psi_full, trace
