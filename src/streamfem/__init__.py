"""Argyris finite element solver for the stream-function form of the
linearized steady Navier-Stokes equations on the unit square.

The package is organized around the pipeline

    mesh -> dof numbering -> element bases -> quadrature -> assembly
         -> linear solvers -> fixed-point driver -> error analysis/exports

with a CLI (``streamfem``) wiring the pieces into reproducible runs.
"""

from .mesh import Mesh, DofMap, OrderingScheme, build_uniform_mesh, enumerate_dofs
from .quadrature import QuadratureRule, rule, integrate_on_triangle
from .argyris import ElementBasis, ElementBases, DofFunctional, build_element_basis, build_all_bases, eval_shape
from .assembly import assemble_biharmonic, assemble_convection, assemble_load, manufactured_rhs
from .solvers import SparseMatrix, SolveReport, pcg, bicgstab, bandwidth_stats
from .picard import (
    Discretization,
    PicardConfig,
    PicardTrace,
    discretize,
    solve_biharmonic_problem,
    solve_linearized_nse,
)
from .analysis import ErrorReport, compute_errors, evaluate_field, export_sparsity, export_contours

__version__ = "0.1.0"

__all__ = [
    "Mesh",
    "DofMap",
    "OrderingScheme",
    "build_uniform_mesh",
    "enumerate_dofs",
    "QuadratureRule",
    "rule",
    "integrate_on_triangle",
    "ElementBasis",
    "ElementBases",
    "DofFunctional",
    "build_element_basis",
    "build_all_bases",
    "eval_shape",
    "assemble_biharmonic",
    "assemble_convection",
    "assemble_load",
    "manufactured_rhs",
    "SparseMatrix",
    "SolveReport",
    "pcg",
    "bicgstab",
    "bandwidth_stats",
    "Discretization",
    "PicardConfig",
    "PicardTrace",
    "discretize",
    "solve_biharmonic_problem",
    "solve_linearized_nse",
    "ErrorReport",
    "compute_errors",
    "evaluate_field",
    "export_sparsity",
    "export_contours",
]
