"""Argyris finite element solver for the stream-function form of the
linearized steady Navier-Stokes equations on the unit square.

The package is organized around the pipeline

    mesh -> dof numbering -> element bases -> quadrature -> assembly
         -> linear solvers -> fixed-point driver -> error analysis/exports

with a CLI (``streamfem``) wiring the pieces into reproducible runs. The
package re-exports nothing: import each name from its module.
"""

__version__ = "0.1.0"
