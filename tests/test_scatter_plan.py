"""Plan-based assembly against the COO assembly it replaced, byte for byte.

``_scatter`` below is that COO assembly: every element matrix entry as a
(row, column, value) triple and scipy's COO -> CSR conversion, which sums
the duplicates and keeps the exact zeros of slots that cancel.
``ref_viscous`` is the whole-mesh table computation the streamed one
replaced. A :class:`ScatterPlan` and the streamed element matrices must give
the same indptr, indices and data, dtype and bytes, because the solvers'
iteration counts, and with them the criterion-3 ordering ranking, rest on
the last bit. ``ref_conversion`` is the plan build as it was, with the
entry numbers carried through scipy's conversion as float64 values; the
plan's int32 build must record the same order. ``ref_errors`` reads the
field per triangle, as its 21 shape tables times its local DOFs; the error
pass reads it from monomial coefficients, which sums in another order, so
the norms agree to 1e-12 relative, not bitwise.
"""

import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse._sparsetools import coo_tocsr, csr_has_sorted_indices, csr_sort_indices

from streamfem.analysis import VERIFICATION_RULE_POINTS, compute_errors
from streamfem.argyris import BLOCK, EVAL_ORDERS, build_all_bases
from streamfem.assembly import (
    EXACT,
    ElementTables,
    ScatterPlan,
    assemble_biharmonic,
    assemble_convection,
    dof_arrays,
    manufactured_rhs,
)
from streamfem.mesh import build_uniform_mesh, enumerate_dofs
from streamfem.picard import PicardConfig, discretize
from streamfem.quadrature import map_to_triangle, rule
from streamfem.solvers import from_coo

from fields import free_permutation, interpolate_field, unconstrained

RULES = (4, 6, 12, 25)


# --- references: the whole-mesh computations ------------------------------------

def _scatter(mesh, dofmap, local_blocks):
    """Accumulate (T, 21, 21) local matrices into the global CSR matrix over
    the free DOFs."""
    tri_dofs = dof_arrays(mesh, dofmap)
    nt = mesh.num_triangles
    r = dofmap.free_of_global[np.repeat(tri_dofs, 21, axis=1).ravel()]
    c = dofmap.free_of_global[np.tile(tri_dofs, (1, 21)).ravel()]
    keep = (r >= 0) & (c >= 0)
    return from_coo(dofmap.num_free, r[keep], c[keep], local_blocks.reshape(nt * 441)[keep])


def ref_conversion(mesh, dofmap):
    """(indptr, indices, entry numbers) of scipy's COO -> CSR conversion of
    the kept element-matrix entries, the numbers carried as float64."""
    dofs = dofmap.free_of_global[dof_arrays(mesh, dofmap)].astype(np.int32)
    n = dofmap.num_free
    keep = ((dofs[:, :, None] >= 0) & (dofs[:, None, :] >= 0)).ravel()
    rows = np.repeat(dofs, 21, axis=1).ravel()[keep]
    cols = np.tile(dofs, (1, 21)).ravel()[keep]
    numbers = np.flatnonzero(keep).astype(float)
    indptr = np.empty(n + 1, dtype=np.int32)
    indices = np.empty(len(rows), dtype=np.int32)
    entries = np.empty(len(rows))
    coo_tocsr(n, n, len(rows), rows, cols, numbers, indptr, indices, entries)
    if not csr_has_sorted_indices(n, indptr, indices):
        csr_sort_indices(n, indptr, indices, entries)
    return indptr, indices, entries.astype(np.int32)


def plan_conversion(plan):
    """The conversion a plan records: each slot's column once per entry it
    sums, and its entries in the order they are summed."""
    order = np.full((plan.nnz, len(plan.ranks) + 1), -1, dtype=np.int64)
    order[:, 0] = plan.first
    for r, (slots, entries) in enumerate(plan.ranks, 1):
        order[slots, r] = entries
    runs = (order >= 0).sum(axis=1)
    slot_rows = np.repeat(np.arange(plan.dimension), np.diff(plan.indptr))
    per_row = np.bincount(slot_rows, weights=runs, minlength=plan.dimension).astype(np.int64)
    return (np.concatenate([[0], np.cumsum(per_row)]), np.repeat(plan.indices, runs),
            order[order >= 0])


def ref_viscous(mesh, q, reynolds, bases):
    """Viscous element matrices from whole-mesh tables of the degree-6 rule."""
    tables = ElementTables(mesh, q if q.exact_degree >= 6 else rule(12), bases=bases)
    local = np.einsum("tq,tqi,tqj->tij", tables.weights, tables.lap, tables.lap)
    local /= reynolds
    return local


def ref_convection(mesh, dofmap, xi, tables, flip):
    """Convection element matrices from one whole-mesh cross table."""
    xi_local = xi[dof_arrays(mesh, dofmap)]
    lap_xi = np.einsum("tqk,tk->tq", tables.lap, xi_local)
    w = tables.weights * lap_xi
    cross = np.einsum("tq,tqi,tqj->tij", w, tables.dx, tables.dy)
    local = cross - np.transpose(cross, (0, 2, 1))
    return -local if flip else local


def ref_errors(mesh, dofmap, coefficients):
    """(l2, h1, h2) from whole-mesh (T, 25) fields, each triangle's read from
    its own tables and local DOFs."""
    bases = build_all_bases(mesh)
    points, w = map_to_triangle(rule(VERIFICATION_RULE_POINTS), bases.coords)
    fields = {name: np.empty(w.shape) for name, _ in EVAL_ORDERS}
    local = coefficients[dof_arrays(mesh, dofmap)]
    for t in range(mesh.num_triangles):
        for name, table in bases.evaluate(points[t:t + 1], EVAL_ORDERS, [t]).items():
            fields[name][t] = table[0] @ local[t]
    x, y = points[:, :, 0], points[:, :, 1]
    e = {name: fields[name] - EXACT[name](x, y) for name in fields}
    return (float(np.sqrt(np.sum(w * e["value"] ** 2))),
            float(np.sqrt(np.sum(w * (e["dx"] ** 2 + e["dy"] ** 2)))),
            float(np.sqrt(np.sum(w * (e["dxx"] ** 2 + e["dxy"] ** 2 + e["dyy"] ** 2)))))


def assert_same_bytes(got, want):
    assert got.dimension == want.dimension
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def random_xi(dofmap, seed):
    xi = np.random.default_rng(seed).standard_normal(dofmap.total_dofs)
    xi[dofmap.constrained] = 0.0
    return xi


# --- the plan on arbitrary element matrices ---------------------------------

# sums of these cancel exactly or depend on their order ((1e16 + 1) - 1e16 is
# 0, (1e16 - 1e16) + 1 is 1), and -0.0 + -0.0 stays -0.0
PALETTE = np.array([0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 3.0, 1e16, -1e16, 0.1, np.nan])


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 13), ordering=st.sampled_from((1, 2, 3)), minimal_bc=st.booleans(),
       reduced=st.booleans(), seed=st.integers(0, 2**32 - 1), with_nan=st.booleans())
def test_plan_matches_coo_reference_on_random_blocks(n, ordering, minimal_bc, reduced,
                                                     seed, with_nan):
    mesh = build_uniform_mesh(n)
    dm = enumerate_dofs(mesh, ordering, minimal_bc=minimal_bc)
    dm = dm if reduced else unconstrained(dm)
    palette = PALETTE if with_nan else PALETTE[:-1]
    local = np.random.default_rng(seed).choice(palette, size=(mesh.num_triangles, 21, 21))
    plan = ScatterPlan.build(mesh, dm)
    assert_same_bytes(plan.assemble(local), _scatter(mesh, dm, local))


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 16), ordering=st.sampled_from((1, 2, 3)), minimal_bc=st.booleans(),
       reduced=st.booleans())
def test_int32_build_records_the_float64_conversion_order(n, ordering, minimal_bc, reduced):
    mesh = build_uniform_mesh(n)
    dm = enumerate_dofs(mesh, ordering, minimal_bc=minimal_bc)
    dm = dm if reduced else unconstrained(dm)
    got = plan_conversion(ScatterPlan.build(mesh, dm))
    for a, b in zip(got, ref_conversion(mesh, dm)):
        assert np.array_equal(a, b)


def test_plan_arrays_are_int32_read_only_and_shared():
    mesh = build_uniform_mesh(4)
    plan = ScatterPlan.build(mesh, enumerate_dofs(mesh, 2))
    arrays = [plan.indptr, plan.indices, plan.first, *(a for pair in plan.ranks for a in pair)]
    assert all(a.dtype == np.int32 and not a.flags.writeable for a in arrays)
    assert 1 <= len(plan.ranks) <= 5  # a slot sums at most six entries
    A = plan.assemble(np.ones((mesh.num_triangles, 21, 21)))
    assert np.shares_memory(A.indices, plan.indices)  # no entry dropped: the pattern is shared
    assert A.nnz == plan.nnz and A._csr.has_canonical_format


def test_plan_rejects_other_shapes_and_meshes():
    mesh = build_uniform_mesh(3)
    dm = enumerate_dofs(mesh, 1)
    plan = ScatterPlan.build(mesh, dm)
    with pytest.raises(ValueError, match="element matrices must have shape"):
        plan.assemble(np.ones((mesh.num_triangles, 21, 20)))
    other = build_uniform_mesh(3)  # equal, but another object than the plan's
    tables = ElementTables(other, rule(6), build_all_bases(other))
    with pytest.raises(ValueError, match="element tables and scatter plan"):
        assemble_convection(plan, tables, np.zeros(dm.total_dofs))


# --- the assembled operators -------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 5, 12])
def test_operators_match_whole_mesh_reference(n):
    if n == 12:
        assert 2 * n * n > BLOCK  # the streamed tables cross a block seam
    mesh = build_uniform_mesh(n)
    bases = build_all_bases(mesh)
    for n_points, ordering in product(RULES, (1, 2, 3)):
        q = rule(n_points)
        tables = ElementTables(mesh, q, bases)
        dm = enumerate_dofs(mesh, ordering, minimal_bc=ordering == 2)
        plan = ScatterPlan.build(mesh, dm)
        reynolds = 300.0 if ordering == 3 else 1.0
        A = assemble_biharmonic(plan, q, reynolds, bases=bases)
        A_ref = _scatter(mesh, dm, ref_viscous(mesh, q, reynolds, bases))
        assert_same_bytes(A, A_ref)
        xi = random_xi(dm, n_points)
        for flip in (False, True):
            B = assemble_convection(plan, tables, xi, flip_convention=flip)
            B_ref = _scatter(mesh, dm, ref_convection(mesh, dm, xi, tables, flip))
            assert_same_bytes(B, B_ref)
            assert_same_bytes(A + B, A_ref + B_ref)


def test_unreduced_operators_and_new_bases_match_reference():
    mesh = build_uniform_mesh(5)
    dm = unconstrained(enumerate_dofs(mesh, 3))
    q = rule(6)
    plan = ScatterPlan.build(mesh, dm)
    got = assemble_biharmonic(plan, q, 2.0)
    want = _scatter(mesh, dm, ref_viscous(mesh, q, 2.0, build_all_bases(mesh)))
    assert_same_bytes(got, want)
    xi = random_xi(dm, 5)
    tables = ElementTables(mesh, q, build_all_bases(mesh))
    assert_same_bytes(assemble_convection(plan, tables, xi),
                      _scatter(mesh, dm, ref_convection(mesh, dm, xi, tables, False)))


@pytest.mark.parametrize("n", [3, 12])
def test_streamed_errors_match_whole_mesh_reference(n):
    mesh = build_uniform_mesh(n)
    dm = enumerate_dofs(mesh, 2)
    coeffs = interpolate_field(mesh, dm, EXACT)
    coeffs += 1e-4 * random_xi(dm, n)
    report = compute_errors(mesh, dm, coeffs, EXACT)
    # measured: at most 4e-15 relative
    np.testing.assert_allclose((report.l2, report.h1_semi, report.h2_semi),
                               ref_errors(mesh, dm, coeffs), rtol=1e-12, atol=0)


# --- the structural pattern ------------------------------------------------------

def pattern_keys(plan, perm=None):
    """Sorted row * N + column keys of the pattern of a plan or a matrix,
    optionally permuted."""
    rows = np.repeat(np.arange(plan.dimension), np.diff(plan.indptr))
    cols = plan.indices.astype(np.int64)
    if perm is not None:
        rows, cols = perm[rows], perm[cols]
    return np.sort(rows * plan.dimension + cols)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 6), orderings=st.tuples(*[st.sampled_from((1, 2, 3))] * 2),
       minimal_bc=st.booleans())
def test_free_permutation_maps_structural_pattern(n, orderings, minimal_bc):
    mesh = build_uniform_mesh(n)
    dm_a, dm_b = (enumerate_dofs(mesh, k, minimal_bc=minimal_bc) for k in orderings)
    plan_a, plan_b = ScatterPlan.build(mesh, dm_a), ScatterPlan.build(mesh, dm_b)
    assert plan_a.nnz == plan_b.nnz
    assert np.array_equal(pattern_keys(plan_a, free_permutation(dm_a, dm_b)),
                          pattern_keys(plan_b))


def test_structural_nnz_depends_on_neither_ordering_nor_reynolds():
    mesh = build_uniform_mesh(5)
    for ordering, reynolds in product((1, 2, 3), (1.0, 300.0)):
        disc = discretize(mesh, PicardConfig(reynolds=reynolds, ordering=ordering))
        assert disc.plan.nnz == disc.A.nnz == 5353
        # the stored A is the pattern, exact zeros included
        assert np.array_equal(pattern_keys(disc.A), pattern_keys(disc.plan))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 6), orderings=st.tuples(*[st.sampled_from((1, 2, 3))] * 2),
       reynolds=st.sampled_from((1.0, 300.0, 1000.0)), flip=st.booleans(),
       seed=st.none() | st.integers(0, 2**32 - 1))
def test_free_permutation_maps_stored_patterns_of_a_and_the_operator(n, orderings, reynolds,
                                                                    flip, seed):
    mesh = build_uniform_mesh(n)
    a, b = (discretize(mesh, PicardConfig(reynolds=reynolds, ordering=k, flip_convention=flip))
            for k in orderings)
    perm = free_permutation(a.dofmap, b.dofmap)
    # one field under both numberings; seed None draws psi = 0, so B(psi) = 0
    values = np.zeros(a.dofmap.num_free)
    if seed is not None:
        values = np.random.default_rng(seed).standard_normal(len(values))
    psi_a, psi_b = np.zeros(a.dofmap.total_dofs), np.zeros(b.dofmap.total_dofs)
    psi_a[a.dofmap.globals_of_free] = values
    psi_b[b.dofmap.globals_of_free[perm]] = values
    for got_a, got_b in ((a.A, b.A), (a.operator(psi_a), b.operator(psi_b))):
        assert got_a.nnz == got_b.nnz == a.plan.nnz
        assert np.array_equal(pattern_keys(got_a, perm), pattern_keys(got_b))


# --- memory: bounds from array shapes at n = 16 ----------------------------------
#
# T = 512 triangles, E = 441 T = 225,792 element matrix entries. Each bound is
# the arrays the step must hold, from their shapes, plus MARGIN, and lies
# less than one int64 copy of the E entries (8 E = 1.8 MB) above the peak
# measured with numpy 2.4 (5.36, 5.81 and 6.89 MB against bounds of 5.79,
# 7.18 and 8.16 MB). The COO assembly's index copies (four int64 arrays of
# E entries and more) and the whole-mesh error tables (seven (T, 25, 21)
# float64 arrays, 15 MB) therefore both fail them.

N_MEMORY = 16
MARGIN = 2**18  # per-triangle index arrays, the DOF maps, Python objects


def traced_peak(step):
    tracemalloc.start()
    try:
        result = step()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def memory_case():
    mesh = build_uniform_mesh(N_MEMORY)
    dm = enumerate_dofs(mesh, 1)
    bases = build_all_bases(mesh)
    return mesh, dm, ElementTables(mesh, rule(6), bases), ScatterPlan.build(mesh, dm), bases


def test_plan_build_memory(memory_case):
    mesh, dm, _, _, _ = memory_case
    free = dm.free_of_global[dof_arrays(mesh, dm)] >= 0
    kept = int((free.sum(axis=1) ** 2).sum())  # entries with a free row and column
    peak, plan = traced_peak(lambda: ScatterPlan.build(mesh, dm))
    # scipy's conversion holds the rows, columns and output indices and the
    # int32 entry numbers in and out (4 B each) of every kept entry; the keep
    # mask holds 1 B per entry
    bound = 20 * kept + mesh.num_triangles * 441 + MARGIN
    assert peak < bound, f"tracemalloc peak {peak} B, bound {bound} B"
    assert plan.nnz < kept


def test_assembly_memory(memory_case):
    mesh, dm, tables, plan, bases = memory_case
    xi = random_xi(dm, 1)
    peak, _ = traced_peak(lambda: (
        assemble_biharmonic(plan, rule(6), 1.0, bases=bases),
        assemble_convection(plan, tables, xi)))
    entries, slots = mesh.num_triangles * 441, plan.nnz
    # the element matrices (8 B an entry) and one block's cross table; per
    # slot, A's data and indices (12 B), the summed data (8 B) and at most
    # 28 B of one gather's or the zero drop's temporaries
    bound = 8 * entries + 8 * 441 * BLOCK + 48 * slots + MARGIN
    assert peak < bound, f"tracemalloc peak {peak} B, bound {bound} B"


def test_error_pass_memory(memory_case):
    mesh, dm, _, _, _ = memory_case
    nq = VERIFICATION_RULE_POINTS
    peak, _ = traced_peak(lambda: compute_errors(mesh, dm, np.zeros(dm.total_dofs), EXACT))
    # the bases' (T, 21, 21) coefficients; a block's derivative table, the
    # one before it and the monomial temporaries (five (BLOCK, nq, 21)
    # arrays); the weights and six differences, (T, nq) each
    bound = 8 * 441 * mesh.num_triangles + 5 * 8 * BLOCK * nq * 21 \
        + 7 * 8 * mesh.num_triangles * nq + MARGIN
    assert peak < bound < 7 * 8 * mesh.num_triangles * nq * 21, \
        f"tracemalloc peak {peak} B, bound {bound} B"
