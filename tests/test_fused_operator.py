"""The one-pass operator A + B(psi) against a structural two-matrix sum.

``ref_operator`` below is that sum: B assembled by the COO reference
(scipy's COO -> CSR conversion, duplicates summed, exact zeros kept), then
A's and B's entries as one list of COO triples converted the same way, so
each slot is A's entry plus B's, a sum of two that does not depend on the
order the conversion adds them in. ``Discretization.operator``
and ``ScatterPlan.assemble(..., plus=A)`` must give the same indptr,
indices and data, dtype and bytes: the BiCGSTAB iterates, and so every
reported iteration count, rest on the last bit.
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
from streamfem.solvers import SparseMatrix, from_coo

from fields import unconstrained
from test_scatter_plan import PALETTE, _scatter, assert_same_bytes, ref_convection, traced_peak


def structural_sum(A, B):
    """A + B from the COO triples of A and of B: each slot sums its two
    entries, and a slot that cancels keeps its exact zero."""
    a, b = A._csr.tocoo(), B._csr.tocoo()
    return from_coo(A.dimension, np.concatenate([a.row, b.row]),
                    np.concatenate([a.col, b.col]), np.concatenate([a.data, b.data]))


def ref_B(mesh, dofmap, psi, tables, flip):
    """B(psi) from whole-mesh element matrices and the COO reference assembly."""
    return _scatter(mesh, dofmap, ref_convection(mesh, dofmap, psi, tables, flip))


def ref_operator(disc, psi):
    """A + B(psi) as two CSR matrices and their structural sum."""
    B = ref_B(disc.tables.mesh, disc.dofmap, psi, disc.tables, disc.config.flip_convention)
    return structural_sum(disc.A, B)


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
        assert (disc.A.data == 0).any()  # A keeps the exact zeros of cancelled slots
    if n == 12:
        assert 2 * n * n > BLOCK  # the convection stack crosses a block seam
    for flip in (False, True):
        disc = disc_for(n, flip=flip)
        rng = np.random.default_rng(n)
        for psi in (field(disc.dofmap, rng.standard_normal(disc.dofmap.num_free)),
                    field(disc.dofmap, 0.0), field(disc.dofmap, -0.0)):
            got = disc.operator(psi)
            assert_same_bytes(got, ref_operator(disc, psi))
    assert got.nnz == disc.A.nnz == disc.plan.nnz  # B(-0.0) is stored on the pattern too


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
    dm = unconstrained(enumerate_dofs(mesh, 3))
    q = rule(6)
    plan = ScatterPlan.build(mesh, dm)
    bases = build_all_bases(mesh)
    A = assemble_biharmonic(plan, q, 2.0, bases=bases)
    tables = assembly.ElementTables(mesh, q, bases)
    psi = np.random.default_rng(4).standard_normal(dm.total_dofs)
    for flip in (False, True):
        B = ref_B(mesh, dm, psi, tables, flip)
        got = assemble_convection(plan, tables, psi, flip_convention=flip, plus=A)
        assert_same_bytes(got, structural_sum(A, B))


# --- the plan's fused sum on arbitrary element matrices ----------------------------

@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 6), ordering=st.sampled_from((1, 2, 3)), reduced=st.booleans(),
       seed=st.integers(0, 2**32 - 1), chunk=st.sampled_from((3, 64, assembly.CHUNK)))
def test_plan_sum_matches_the_structural_coo_sum(n, ordering, reduced, seed, chunk):
    mesh = build_uniform_mesh(n)
    dm = enumerate_dofs(mesh, ordering)
    dm = dm if reduced else unconstrained(dm)
    plan = ScatterPlan.build(mesh, dm)
    rng = np.random.default_rng(seed)
    shape = (mesh.num_triangles, 21, 21)
    # palette sums cancel to +-0.0 in A, in B and in A + B, and carry NaN
    a_local = rng.choice(PALETTE, size=shape)
    A = plan.assemble(a_local.copy())
    local = rng.choice(PALETTE, size=shape)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(assembly, "CHUNK", chunk)
        got = plan.assemble(local.copy(), plus=A)
    want = structural_sum(_scatter(mesh, dm, a_local), _scatter(mesh, dm, local))
    assert_same_bytes(got, want)
    assert got.nnz == plan.nnz


def test_plan_sum_rejects_a_matrix_of_another_pattern():
    mesh = build_uniform_mesh(2)
    dm = enumerate_dofs(mesh, 1)
    small, full = ScatterPlan.build(mesh, dm), ScatterPlan.build(mesh, unconstrained(dm))
    A = small.assemble(np.ones((mesh.num_triangles, 21, 21)))
    with pytest.raises(ValueError, match="not assembled on this scatter plan"):
        full.assemble(np.ones((mesh.num_triangles, 21, 21)), plus=A)


def test_zero_free_sum_shares_the_plan_pattern():
    disc = disc_for(3)
    psi = field(disc.dofmap, np.random.default_rng(3).standard_normal(disc.dofmap.num_free))
    op = disc.operator(psi)
    assert op.nnz == disc.plan.nnz and op.data.all()
    assert np.shares_memory(op.indices, disc.plan.indices)
    assert np.shares_memory(op.indptr, disc.plan.indptr)


# --- memory ------------------------------------------------------------------------

def test_operator_holds_one_element_stack_and_no_second_csr():
    disc = disc_for(16)
    psi = field(disc.dofmap, np.random.default_rng(16).standard_normal(disc.dofmap.num_free))
    entries, slots = disc.tables.mesh.num_triangles * 441, disc.plan.nnz
    assert (disc.A.data == 0).any()  # A's stored zeros are added like its other entries
    # the element stack (8 B an entry) and the one block's cross table it is
    # formed through; summing its slots adds only the data (8 B a slot) and
    # a chunk's temporaries. Measured with numpy 2.4: 2.91 MB against a
    # bound of 2.97 MB; a new cross table per block (the next formed before
    # the last is freed) peaked at 3.79 MB, and keeping the stack through
    # B's zero drop and then summing A and B as two CSR matrices at 4.73 MB.
    bound = 8 * entries + 8 * 441 * BLOCK + 2**18
    peak, _ = traced_peak(lambda: disc.operator(psi))
    assert peak < bound, f"tracemalloc peak {peak} B, bound {bound} B"
    # the result holds its data and no index array of its own (4 B a slot)
    op, held = held_after(lambda: disc.operator(psi))
    assert held < 8 * slots + 2**14, (held, 8 * slots)
    assert np.shares_memory(op.indices, disc.plan.indices)


def zeros_and_ones(shape, rng):
    """A float64 stack of exact zeros and ones, allocated once."""
    stack = rng.random(shape)
    np.multiply(stack, 2.0, out=stack)
    return np.floor(stack, out=stack)


def test_a_stack_handed_over_is_freed_before_the_result_is_built(monkeypatch):
    plan = disc_for(16).plan
    shape = (plan.mesh.num_triangles, 21, 21)
    rng = np.random.default_rng(0)
    held = []

    def recording(csr, **kwargs):
        held.append(tracemalloc.get_traced_memory()[0])
        return SparseMatrix(csr, **kwargs)

    monkeypatch.setattr(assembly, "SparseMatrix", recording)
    peak, B = traced_peak(lambda: plan.assemble(zeros_and_ones(shape, rng)))
    assert B.nnz == plan.nnz and (B.data == 0).any()  # cancelled slots keep their zeros
    # the stack and the summed data, and a chunk's gathered values, slot data
    # and index made intp (8 B a slot each)
    bound = 8 * np.prod(shape) + 8 * plan.nnz + 24 * assembly.CHUNK + 2**16
    assert peak < bound, f"tracemalloc peak {peak} B, bound {bound} B"
    # when the result is built only the summed data is left: a stack still
    # held would add its 8 B an entry
    assert held[0] < 8 * plan.nnz + 2**14, (held, 8 * plan.nnz)


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
