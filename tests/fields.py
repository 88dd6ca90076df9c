"""Test fixtures on coefficient vectors and DOF maps.

``interpolate_field`` gives the Argyris interpolant of a field known in
closed form, ``ordering_permutation`` and ``free_permutation`` map one DOF
numbering onto another, and ``unconstrained`` is a DOF map whose every DOF
is free, the full-DOF system a scatter plan built on it assembles.
"""

from dataclasses import replace

import numpy as np

from streamfem.argyris import EVAL_ORDERS, _unit_normals


def interpolate_field(mesh, dofmap, derivatives: dict) -> np.ndarray:
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


def ordering_permutation(dm_from, dm_to) -> np.ndarray:
    """Permutation p with p[i_from] = i_to for the same (entity, slot).

    Both maps must come from the same mesh and boundary-condition choice.
    """
    if dm_from.total_dofs != dm_to.total_dofs:
        raise ValueError("DOF maps are not over the same mesh")
    p = np.empty(dm_from.total_dofs, dtype=np.int64)
    p[dm_from.vertex_dofs.ravel()] = dm_to.vertex_dofs.ravel()
    p[dm_from.edge_dofs] = dm_to.edge_dofs
    return p


def free_permutation(dm_from, dm_to) -> np.ndarray:
    """Same as :func:`ordering_permutation` but between reduced indices."""
    p = ordering_permutation(dm_from, dm_to)
    return dm_to.free_of_global[p[dm_from.globals_of_free]]


def unconstrained(dofmap):
    """``dofmap`` with no DOF clamped: its free indices are the global ones."""
    every = np.arange(dofmap.total_dofs)
    return replace(dofmap, constrained=np.zeros(dofmap.total_dofs, dtype=bool),
                   free_of_global=every, globals_of_free=every)
