"""The one-pass operator A + B(psi) against the two-matrix sum it replaced.

``ref_operator`` below is that sum: B assembled into a CSR matrix of its
own, then scipy's ``csr_plus_csr`` through ``SparseMatrix.__add__``.
``Discretization.operator`` and ``ScatterPlan.assemble(..., plus=A)`` must
give the same indptr, indices and data, dtype and bytes: the BiCGSTAB
iterates, and so every reported iteration count, rest on the last bit.
"""

import functools
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from streamfem import assembly, picard
from streamfem.argyris import BLOCK, build_all_bases
from streamfem.assembly import ScatterPlan, assemble_biharmonic, assemble_convection
from streamfem.mesh import build_uniform_mesh, enumerate_dofs
from streamfem.picard import PicardConfig, discretize
from streamfem.quadrature import rule

from test_scatter_plan import PALETTE, assert_same_bytes, traced_peak


def ref_operator(disc, psi):
    """A + B(psi) as two CSR matrices and their scipy sum."""
    B = assemble_convection(disc.mesh, disc.dofmap, disc.q, psi, tables=disc.tables,
                            flip_convention=disc.config.flip_convention, plan=disc.plan)
    return disc.A + B


def field(dofmap, values):
    """A full-DOF field with the given free values, constrained entries zero."""
    psi = np.zeros(dofmap.total_dofs)
    psi[dofmap.globals_of_free] = values
    return psi


@functools.cache
def disc_for(n, ordering=1, minimal_bc=False, flip=False):
    return discretize(build_uniform_mesh(n), PicardConfig(
        ordering=ordering, minimal_bc=minimal_bc, flip_convention=flip))


# --- the operator on drawn fields ----------------------------------------------

# zeros of both signs leave whole triangles without convection, so B's slots
# cancel to +-0.0 beside A's entries; 1e16 against 1 loses the small terms
FIELD_VALUES = (0.0, -0.0, 1.0, -1.0, 0.5, 3.0, 1e16, -1e16, 1e-300)


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from((1, 3, 5)), ordering=st.sampled_from((1, 2, 3)),
       minimal_bc=st.booleans(), flip=st.booleans(), seed=st.integers(0, 2**32 - 1),
       with_nan=st.booleans())
def test_operator_matches_two_matrix_sum(n, ordering, minimal_bc, flip, seed, with_nan):
    disc = disc_for(n, ordering, minimal_bc, flip)
    palette = FIELD_VALUES + ((np.nan,) if with_nan else ())
    values = np.random.default_rng(seed).choice(palette, size=disc.dofmap.num_free)
    psi = field(disc.dofmap, values)
    assert_same_bytes(disc.operator(psi), ref_operator(disc, psi))


@pytest.mark.parametrize("n", [1, 3, 5, 12])
def test_operator_matches_on_every_mesh(n):
    if n == 5:
        disc = disc_for(n)
        assert disc.A.nnz < disc.plan.nnz  # A dropped zeros: its data finds its slots by mask
    if n == 12:
        assert 2 * n * n > BLOCK  # the convection stack crosses a block seam
    for flip in (False, True):
        disc = disc_for(n, flip=flip)
        rng = np.random.default_rng(n)
        for psi in (field(disc.dofmap, rng.standard_normal(disc.dofmap.num_free)),
                    field(disc.dofmap, 0.0), field(disc.dofmap, -0.0)):
            got = disc.operator(psi)
            assert_same_bytes(got, ref_operator(disc, psi))
    assert got.nnz == disc.A.nnz  # B(-0.0) adds nothing


@pytest.mark.parametrize("chunk", [1, 7, 1000])
def test_chunk_seams_leave_the_operator_unchanged(monkeypatch, chunk):
    disc = disc_for(5, ordering=2)
    psi = field(disc.dofmap, np.random.default_rng(chunk).standard_normal(disc.dofmap.num_free))
    want = disc.operator(psi)
    monkeypatch.setattr(assembly, "CHUNK", chunk)
    assert disc.plan.nnz > chunk
    assert_same_bytes(disc.operator(psi), want)
    assert_same_bytes(disc.operator(psi), ref_operator(disc, psi))


def test_unreduced_operator_matches_two_matrix_sum():
    mesh = build_uniform_mesh(4)
    dm = enumerate_dofs(mesh, 3)
    q = rule(6)
    plan = ScatterPlan.build(mesh, dm, reduced=False)
    A = assemble_biharmonic(mesh, dm, q, 2.0, reduced=False, plan=plan)
    tables = assembly.ElementTables(mesh, q)
    psi = np.random.default_rng(4).standard_normal(dm.total_dofs)
    for flip in (False, True):
        B = assemble_convection(mesh, dm, q, psi, tables=tables, flip_convention=flip,
                                reduced=False, plan=plan)
        got = assemble_convection(mesh, dm, q, psi, tables=tables, flip_convention=flip,
                                  reduced=False, plan=plan, plus=A)
        assert_same_bytes(got, A + B)


# --- the plan's fused sum on arbitrary element matrices ----------------------------

@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 6), ordering=st.sampled_from((1, 2, 3)), reduced=st.booleans(),
       seed=st.integers(0, 2**32 - 1), chunk=st.sampled_from((3, 64, assembly.CHUNK)))
def test_plan_sum_matches_csr_plus_csr(n, ordering, reduced, seed, chunk):
    mesh = build_uniform_mesh(n)
    dm = enumerate_dofs(mesh, ordering)
    plan = ScatterPlan.build(mesh, dm, reduced)
    rng = np.random.default_rng(seed)
    shape = (mesh.num_triangles, 21, 21)
    # palette sums cancel to +-0.0 in A, in B and in A + B, and carry NaN
    A = plan.assemble(rng.choice(PALETTE, size=shape), is_symmetric=True)
    local = rng.choice(PALETTE, size=shape)
    B = plan.assemble(local)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(assembly, "CHUNK", chunk)
        got = plan.assemble(local.copy(), plus=A)
    assert_same_bytes(got, A + B)


def test_plan_sum_rejects_a_matrix_of_another_pattern():
    mesh = build_uniform_mesh(2)
    dm = enumerate_dofs(mesh, 1)
    small, full = ScatterPlan.build(mesh, dm), ScatterPlan.build(mesh, dm, reduced=False)
    A = small.assemble(np.ones((mesh.num_triangles, 21, 21)))
    with pytest.raises(ValueError, match="not assembled on this scatter plan"):
        full.assemble(np.ones((mesh.num_triangles, 21, 21)), plus=A)


def test_zero_free_sum_shares_the_plan_pattern():
    disc = disc_for(3)
    psi = field(disc.dofmap, np.random.default_rng(3).standard_normal(disc.dofmap.num_free))
    op = disc.operator(psi)
    assert op.kept is None and op.nnz == disc.plan.nnz
    assert np.shares_memory(op.indices, disc.plan.indices)


# --- memory ------------------------------------------------------------------------

def test_operator_holds_one_element_stack_and_no_second_csr():
    disc = disc_for(16)
    psi = field(disc.dofmap, np.random.default_rng(16).standard_normal(disc.dofmap.num_free))
    entries, slots = disc.mesh.num_triangles * 441, disc.plan.nnz
    assert disc.A.kept is not None  # A dropped zeros: the masked addend runs
    # the element stack (8 B an entry) while it is summed, and per slot the
    # summed data (8 B) and the zero drop's mask, data and indices (13 B).
    # Measured with numpy 2.4: 3.79 MB against a bound of 4.17 MB; keeping
    # the stack through B's zero drop and then summing A and B as two CSR
    # matrices peaked at 4.73 MB.
    bound = 8 * entries + 24 * slots + 2**18
    peak, _ = traced_peak(lambda: disc.operator(psi))
    assert peak < bound, f"tracemalloc peak {peak} B, bound {bound} B"


def zeros_and_ones(shape, rng):
    """A float64 stack of exact zeros and ones, allocated once."""
    stack = rng.random(shape)
    np.multiply(stack, 2.0, out=stack)
    return np.floor(stack, out=stack)


def test_a_stack_handed_over_is_freed_before_the_zero_drop():
    plan = disc_for(16).plan
    shape = (plan.mesh.num_triangles, 21, 21)
    rng = np.random.default_rng(0)
    peak, B = traced_peak(lambda: plan.assemble(zeros_and_ones(shape, rng)))
    assert B.kept is not None and B.nnz > plan.nnz // 2  # most slots survive the drop
    # the stack and the summed data, and a chunk's gathered values, slot data
    # and index made intp (8 B a slot each); a stack still held at the zero
    # drop would sit beside the drop's mask, data and indices (13 B a slot)
    bound = 8 * np.prod(shape) + 8 * plan.nnz + 24 * assembly.CHUNK + 2**16
    assert peak < bound, f"tracemalloc peak {peak} B, bound {bound} B"


def test_discretize_drops_its_bases_and_keeps_the_callers(monkeypatch):
    built = []

    def recording(mesh):
        bases = build_all_bases(mesh)
        built.append(weakref.ref(bases))
        return bases

    monkeypatch.setattr(picard, "build_all_bases", recording)
    mesh = build_uniform_mesh(3)
    disc = discretize(mesh, PicardConfig())
    assert len(built) == 1 and built[0]() is None  # gone before the first solve
    mine = build_all_bases(mesh)
    kept = weakref.ref(mine)
    shared = discretize(mesh, PicardConfig(), bases=mine)
    assert len(built) == 1 and kept() is mine  # used, not rebuilt, and still the caller's
    assert_same_bytes(shared.A, disc.A)
    del mine
    assert kept() is None  # the discretization holds no reference of its own


def held_after(step):
    """(result, bytes still allocated when ``step`` returns), traced from its start."""
    tracemalloc.start()
    try:
        result = step()
        return result, tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def test_discretize_holds_no_more_when_it_builds_the_bases():
    mesh = build_uniform_mesh(16)
    bases = build_all_bases(mesh)
    given_disc, given = held_after(lambda: discretize(mesh, PicardConfig(), bases=bases))
    own_disc, own = held_after(lambda: discretize(mesh, PicardConfig()))
    # bases kept by the discretization would add their (T, 21, 21) coefficients
    assert own - given < bases.coeffs.nbytes // 8, (own, given)
    assert_same_bytes(own_disc.A, given_disc.A)
