import math
import sys
import threading

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from scipy.sparse._sparsetools import csr_matvec

from streamfem import solvers
from streamfem.argyris import build_all_bases
from streamfem.assembly import (
    ElementTables,
    ScatterPlan,
    assemble_biharmonic,
    assemble_load,
    dof_arrays,
    manufactured_rhs,
    viscous_element_matrices,
)
from streamfem.mesh import build_uniform_mesh, enumerate_dofs
from streamfem.quadrature import rule
from streamfem.solvers import (
    SPLIT_NNZ,
    _csr_matvec,
    _RowSplit,
    bandwidth_stats,
    bicgstab,
    finalize_csr,
    from_coo,
    pcg,
    SparseMatrix,
    read_matrix_market,
    write_matrix_market,
)


def identity(n):
    return finalize_csr(sp.eye(n, format="csr"))


@pytest.fixture(scope="module")
def biharmonic_system():
    mesh = build_uniform_mesh(3)
    dm = enumerate_dofs(mesh, 1)
    bases = build_all_bases(mesh)
    A = assemble_biharmonic(ScatterPlan.build(mesh, dm), rule(12), 1.0, bases=bases)
    ms = manufactured_rhs(1.0)
    ell = assemble_load(ElementTables(mesh, rule(4), bases), dm, ms.forcing)
    return A, ell


def test_matvec_identity():
    A = identity(4)
    x = np.array([1.0, -2.0, 3.0, 0.5])
    assert np.array_equal(A.matvec(x), x)


def test_matvec_small_dense():
    A = from_coo(2, [0, 0, 1], [0, 1, 1], [2.0, 1.0, 3.0])
    assert np.array_equal(A.matvec(np.array([1.0, 1.0])), np.array([3.0, 3.0]))


def test_matvec_dimension_mismatch():
    A = identity(3)
    with pytest.raises(ValueError):
        A.matvec(np.ones(4))


def test_matvec_deterministic(biharmonic_system):
    A, b = biharmonic_system
    y1 = A.matvec(b)
    y2 = A.matvec(b)
    assert np.array_equal(y1, y2)


def test_finalize_invariants(biharmonic_system):
    A, _ = biharmonic_system
    for i in range(A.dimension):
        row = A.indices[A.indptr[i]:A.indptr[i + 1]]
        assert np.all(np.diff(row) > 0)
    # the structural pattern, exact zeros of cancelled slots included:
    # bitwise scipy's COO -> CSR conversion, which sums duplicates, keeps zeros
    mesh = build_uniform_mesh(3)
    dm = enumerate_dofs(mesh, 1)
    dofs = dm.free_of_global[dof_arrays(mesh, dm)]
    rows, cols = np.repeat(dofs, 21, axis=1).ravel(), np.tile(dofs, (1, 21)).ravel()
    vals = viscous_element_matrices(mesh, rule(12), 1.0).ravel()
    free = (rows >= 0) & (cols >= 0)
    coo = sp.coo_matrix((vals[free], (rows[free], cols[free])), shape=(dm.num_free,) * 2)
    for M in (coo.tocsr(), finalize_csr(coo)):
        for name in ("indptr", "indices", "data"):
            got, want = getattr(A, name), getattr(M, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    assert (A.data == 0).any()  # n = 3 has cancelled slots


def test_bandwidth_stats_basics():
    assert bandwidth_stats(identity(5))["bandwidth"] == 0
    tri = from_coo(4, [0, 0, 1, 1, 1, 2, 2, 2, 3, 3],
                   [0, 1, 0, 1, 2, 1, 2, 3, 2, 3], np.ones(10))
    stats = bandwidth_stats(tri)
    assert stats["bandwidth"] == 1
    assert stats["nnz"] == 10
    assert stats["profile"] == 3


def _loop_stats(A):
    """Bandwidth, profile, nnz and l1 diagonal by the per-entry loops the
    vectorized properties replaced; the reference they must reproduce."""
    rows = np.repeat(np.arange(A.dimension), np.diff(A.indptr))
    bandwidth = int(np.abs(rows - A.indices).max()) if len(A.data) else 0
    profile = 0
    for i in range(A.dimension):
        lo, hi = A.indptr[i], A.indptr[i + 1]
        if hi > lo:
            profile += max(0, i - int(A.indices[lo]))
    l1 = np.zeros(A.dimension)
    np.add.at(l1, rows, np.abs(A.data))
    return bandwidth, profile, len(A.data), l1


# few distinct values, so duplicate entries often cancel to exact zeros
_entry_values = st.one_of(
    st.sampled_from([1.0, -1.0, 0.1, -0.1, 2.5, -2.5]),
    st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False),
)


@st.composite
def _square_matrices(draw):
    n = draw(st.integers(1, 12))
    entries = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), _entry_values), max_size=40,
    ))
    rows, cols, vals = zip(*entries) if entries else ((), (), ())
    return from_coo(n, np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64),
                    np.array(vals, dtype=float))


@settings(max_examples=200, deadline=None)
@given(_square_matrices(), _square_matrices())
def test_matrix_statistics_match_loop_formulas(A, B):
    assert A.data is A._csr.data and A.indices is A._csr.indices  # one copy
    for M in (A, B):
        bandwidth, profile, nnz, l1 = _loop_stats(M)
        assert (M.bandwidth, M.profile, M.nnz) == (bandwidth, profile, nnz)
        assert np.array_equal(M.l1_diagonal(), l1)  # bitwise, not approximately
    if A.dimension == B.dimension:
        S = A + B
        assert np.array_equal(S.toarray(), A.toarray() + B.toarray())
        assert np.all(S.data != 0.0)
        assert S.nnz == np.count_nonzero(A.toarray() + B.toarray())


@st.composite
def _raw_csr(draw):
    """A sorted, deduplicated CSR matrix with empty rows and stored zeros of
    both signs."""
    n = draw(st.integers(1, 10))
    rows = [sorted(draw(st.sets(st.integers(0, n - 1), max_size=6))) for _ in range(n)]
    indptr = np.cumsum([0, *map(len, rows)]).astype(np.int32)
    indices = np.array([c for row in rows for c in row], dtype=np.int32)
    values = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(allow_nan=False, allow_infinity=False))
    data = np.array(draw(st.lists(values, min_size=len(indices), max_size=len(indices))), dtype=float)
    return sp.csr_matrix((data, indices, indptr), shape=(n, n))


@settings(max_examples=300, deadline=None)
@given(_raw_csr())
def test_l1_diagonal_is_the_abs_copy_row_sum(csr):
    got = SparseMatrix(csr).l1_diagonal()
    expected = abs(csr) @ np.ones(csr.shape[0])
    assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


def test_bandwidth_ordering1_vs_ordering3():
    mesh = build_uniform_mesh(5)
    stats = {}
    for scheme in (1, 3):
        dm = enumerate_dofs(mesh, scheme)
        A = assemble_biharmonic(ScatterPlan.build(mesh, dm), rule(6), 1.0)
        stats[scheme] = bandwidth_stats(A)["bandwidth"]
    assert stats[1] < stats[3]


def test_pcg_identity():
    b = np.array([1.0, 2.0, 3.0])
    x, report = pcg(identity(3), b, tol=1e-12)
    assert report.converged and report.iterations == 1
    assert np.allclose(x, b, atol=1e-12)


def test_pcg_diagonal_system():
    A = from_coo(3, [0, 1, 2], [0, 1, 2], [1.0, 2.0, 4.0])
    b = np.array([1.0, 2.0, 4.0])
    x, report = pcg(A, b, tol=1e-12)
    assert report.converged and report.iterations <= 3
    assert np.allclose(x, np.ones(3), atol=1e-10)


def test_pcg_zero_rhs():
    x, report = pcg(identity(3), np.zeros(3))
    assert report.converged and report.iterations == 0
    assert np.all(x == 0.0)


def test_pcg_rejects_bad_input(biharmonic_system):
    A, b = biharmonic_system
    with pytest.raises(ValueError):
        pcg(A, b, tol=0.0)
    indefinite = from_coo(2, [0, 1], [0, 1], [1.0, -1.0])
    with pytest.raises(ValueError):
        pcg(indefinite, np.ones(2))


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
def test_solvers_reject_a_tolerance_not_positive_and_finite(tol):
    for solver in (pcg, bicgstab):
        with pytest.raises(ValueError, match="tolerance must be positive and finite"):
            solver(identity(3), np.ones(3), tol=tol)


def test_solvers_reject_mis_sized_rhs():
    for solver in (pcg, bicgstab):
        with pytest.raises(ValueError, match="dimension mismatch"):
            solver(identity(3), np.ones(1))


def test_pcg_biharmonic_iteration_count(biharmonic_system):
    """n=3, 4-point load: count comparable to the reference value 72."""
    A, b = biharmonic_system
    x, report = pcg(A, b, tol=1e-5)
    assert report.converged
    assert 0.5 * 72 <= report.iterations <= 1.5 * 72


def test_pcg_energy_monotone(biharmonic_system):
    """CG error decreases monotonically in the energy norm (the residual
    2-norm itself is oscillatory and is not asserted)."""
    A, b = biharmonic_system
    x_star, report = pcg(A, b, tol=1e-12, max_iter=10000)
    assert report.converged
    _, report = pcg(A, b, tol=1e-10)
    energies = []
    for k in range(1, int(report.iterations) + 1):
        # max_iter=k stops the same solve at its k-th iterate, bit for bit
        x, _ = pcg(A, b, tol=1e-10, max_iter=k)
        e = x - x_star
        energies.append(float(e @ A.matvec(e)))
    energies = np.array(energies)
    assert np.all(np.diff(energies) <= 1e-12 * energies[0])


def test_pcg_nonconvergence_reported(biharmonic_system):
    A, b = biharmonic_system
    x, report = pcg(A, b, tol=1e-12, max_iter=3)
    assert not report.converged
    assert report.iterations == 3


def test_pcg_report_invariants(biharmonic_system):
    A, b = biharmonic_system
    _, r1 = pcg(A, b, tol=1e-4)
    _, r2 = pcg(A, b, tol=1e-8)
    assert r1.converged and r2.converged
    assert r1.final_residual <= 1e-4 and r2.final_residual <= 1e-8
    assert r2.iterations > r1.iterations
    assert r2.flops > r1.flops


def test_bicgstab_identity_half_iteration():
    b = np.array([2.0, -1.0, 0.5])
    x, report = bicgstab(identity(3), b, tol=1e-10)
    assert report.converged
    assert report.iterations == 0.5
    assert np.allclose(x, b, atol=1e-12)


def test_bicgstab_matches_pcg_on_spd(biharmonic_system):
    """Both solvers land in the same residual ball, so the solutions agree
    to 2 tol in the residual norm and to 2 tol ||b|| / lambda_min in the
    coefficient norm (the biharmonic system is ill conditioned, so a plain
    10 tol coefficient agreement is not achievable by any solver pair)."""
    A, b = biharmonic_system
    tol = 1e-8
    x_cg, rep_cg = pcg(A, b, tol=tol)
    x_bi, rep_bi = bicgstab(A, b, tol=tol)
    assert rep_cg.converged and rep_bi.converged
    norm_b = np.linalg.norm(b)
    assert np.linalg.norm(A.matvec(x_cg - x_bi)) <= 2 * tol * norm_b
    lam_min = np.linalg.eigvalsh(A.toarray()).min()
    assert np.linalg.norm(x_cg - x_bi) <= 2 * tol * norm_b / lam_min


def test_bicgstab_instrumented_counts(biharmonic_system):
    """Exactly 2 matvecs and 4 inner products per full iteration; the extra
    matvecs are one convergence confirmation and one final report residual."""
    A, b = biharmonic_system
    x, report = bicgstab(A, b, tol=1e-6)
    assert report.converged
    full_iters = int(report.iterations)
    half = report.iterations - full_iters
    if half == 0.0:
        assert report.inner_products == 4 * full_iters
        assert report.matvecs == 2 * full_iters + 2
    else:
        assert report.inner_products == 4 * full_iters + 2
        assert report.matvecs == 2 * full_iters + 1 + 2


def test_bicgstab_breakdown_reported():
    # rotation: r_hat . v = 0; its l1 diagonal is all ones, so preconditioning is the identity
    A = from_coo(2, [0, 1], [1, 0], [1.0, -1.0])
    x, report = bicgstab(A, np.array([1.0, 0.0]), tol=1e-12)
    assert not report.converged
    assert report.breakdown is not None
    assert "breakdown" in report.breakdown


def test_bicgstab_nonconvergence_distinct_from_breakdown(biharmonic_system):
    A, b = biharmonic_system
    x, report = bicgstab(A, b, tol=1e-13, max_iter=2)
    assert not report.converged
    assert report.breakdown is None


def test_bicgstab_stops_at_the_first_residual_above_1e8():
    # without the stop this system ran 129 iterations, the residual climbing
    # to 6.0e12, until a rho breakdown ended it
    A = finalize_csr(sp.csr_matrix(np.array([[2, -2, -1], [-3, 3, 3], [-3, 3, 2]], float)))
    x, report = bicgstab(A, np.array([2.0, -1.0, 2.0]), tol=1e-8, max_iter=20000)
    history = report.residual_history
    assert history[-1] > 1e8 and max(history[:-1]) <= 1e8
    assert report.iterations == len(history) - 1 == 23
    assert not report.converged
    assert report.breakdown is None  # divergence is nonconvergence, not a breakdown


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_bicgstab_stops_on_a_non_finite_residual(bad):
    x, report = bicgstab(identity(3), np.array([1.0, bad, 0.0]), tol=1e-8)
    assert report.iterations <= 1 and not report.converged


def test_solver_determinism(biharmonic_system):
    A, b = biharmonic_system
    x1, r1 = pcg(A, b, tol=1e-6)
    x2, r2 = pcg(A, b, tol=1e-6)
    assert np.array_equal(x1, x2)
    assert (r1.iterations, r1.final_residual, r1.flops) == (r2.iterations, r2.final_residual, r2.flops)
    y1, s1 = bicgstab(A, b, tol=1e-6)
    y2, s2 = bicgstab(A, b, tol=1e-6)
    assert np.array_equal(y1, y2)
    assert (s1.iterations, s1.final_residual, s1.flops) == (s2.iterations, s2.final_residual, s2.flops)


def test_matrix_market_roundtrip(tmp_path, biharmonic_system):
    # assembled matrix: symmetric only to roundoff, round-trips via general
    A, _ = biharmonic_system
    path = tmp_path / "a.mtx"
    write_matrix_market(A, path)
    back = read_matrix_market(path)
    assert back.dimension == A.dimension
    assert np.array_equal(back.indptr, A.indptr)
    assert np.array_equal(back.indices, A.indices)
    assert np.array_equal(back.data, A.data)


def test_matrix_market_symmetric_encoding(tmp_path):
    A = from_coo(3, [0, 1, 1, 2, 0, 2], [0, 1, 0, 2, 1, 1],
                 [4.0, 5.0, -1.5, 6.0, -1.5, 2.5])
    dense = A.toarray()
    sym = finalize_csr(0.5 * (dense + dense.T))
    path = tmp_path / "s.mtx"
    write_matrix_market(sym, path)
    header = open(path).readline()
    assert "symmetric" in header
    assert np.array_equal(read_matrix_market(path).toarray(), sym.toarray())


def test_matrix_market_general_roundtrip(tmp_path):
    A = from_coo(3, [0, 1, 2, 0], [0, 1, 2, 2], [1.0, 2.0, 3.0, -4.0])
    path = tmp_path / "g.mtx"
    write_matrix_market(A, path)
    back = read_matrix_market(path)
    assert np.array_equal(back.toarray(), A.toarray())


def test_solve_report_text(biharmonic_system):
    A, b = biharmonic_system
    _, report = pcg(A, b, tol=1e-5)
    text = report.as_text()
    assert "method = pcg" in text
    assert "converged = true" in text


def test_matvec_integer_entries():
    A = from_coo(2, [0, 0, 1], [0, 1, 1], [2, 1, 3])
    assert np.array_equal(A.matvec(np.array([0.5, 0.25])), np.array([1.25, 0.75]))


@st.composite
def _split_cases(draw):
    """A square CSR matrix of 1 to 12 rows, stored zeros of both signs kept,
    with empty rows or with every entry in one row, and a vector of any
    floats, -0.0, infinities and NaN among them."""
    n = draw(st.integers(1, 12))
    if draw(st.booleans()):  # every entry in one row
        rows = [[]] * n
        rows[draw(st.integers(0, n - 1))] = sorted(draw(st.sets(st.integers(0, n - 1))))
    else:
        rows = [sorted(draw(st.sets(st.integers(0, n - 1), max_size=6))) for _ in range(n)]
    indptr = np.cumsum([0, *map(len, rows)]).astype(np.int32)
    indices = np.array([c for row in rows for c in row], dtype=np.int32)
    values = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e3, 1e3))
    data = np.array(draw(st.lists(values, min_size=len(indices), max_size=len(indices))))
    vector = st.one_of(st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan]), st.floats())
    v = np.array(draw(st.lists(vector, min_size=n, max_size=n)))
    return sp.csr_matrix((data, indices, indptr), shape=(n, n)), v


@settings(max_examples=300, deadline=None)
@given(_split_cases())
def test_the_row_split_product_is_bitwise_the_serial_one(case):
    csr, v = case
    expected = _csr_matvec(csr, v, np.empty(csr.shape[0])).tobytes()
    split = _RowSplit(csr)
    try:
        for _ in range(2):  # two handoffs, each into a buffer holding stale values
            assert split(v, np.full(csr.shape[0], 1.5)).tobytes() == expected
    finally:
        split.close()
    assert not split.worker.is_alive()


@pytest.fixture
def splits(monkeypatch):
    """Let solves see two CPUs on any host; the list records every split."""
    started = []

    class Recorded(solvers._RowSplit):
        def __init__(self, csr):
            super().__init__(csr)
            started.append(self)

    monkeypatch.setattr(solvers.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(solvers, "_RowSplit", Recorded)
    return started


@pytest.fixture
def split_everything(splits, monkeypatch):
    """Split the products of every solve with b != 0, however small its A."""
    monkeypatch.setattr(solvers, "SPLIT_NNZ", 0)
    return splits


def _serially(solve):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "SPLIT_NNZ", math.inf)
        return solve()


def _same_solve(got, expected):
    (x, report), (y, other) = got, expected
    assert x.tobytes() == y.tobytes() and report == other


def _bounded(run, timeout=60.0):
    """run() on a daemon thread, joined with a timeout: its result, or its error raised."""
    outcome = []

    def target():
        try:
            outcome.append((True, run()))
        except BaseException as exc:
            outcome.append((False, exc))

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), "the call hung"
    ok, value = outcome[0]
    if not ok:
        raise value
    return value


def _dense(rows, b):
    return finalize_csr(sp.csr_matrix(np.array(rows, float))), np.array(b, float)


_EXITS = {  # each exit a split solve can take, with the number of workers it starts
    "converged": (lambda A, b: pcg(A, b, tol=1e-6), 1),
    "max_iter": (lambda A, b: bicgstab(A, b, tol=1e-13, max_iter=2), 1),
    "b = 0": (lambda A, b: pcg(A, np.zeros_like(b)), 0),
    "alpha breakdown": (lambda A, b: bicgstab(*_dense([[1, -2], [-1, 0]], [0, -2])), 1),
    "omega breakdown": (lambda A, b: bicgstab(*_dense([[0, 2], [-1, -2]], [0, -2])), 1),
    "rho breakdown": (lambda A, b: bicgstab(
        *_dense([[0, -2, -1], [0, -1, -2], [0, 2, 1]], [-2, 1, -1]), tol=1e-8), 1),
    "diverged": (lambda A, b: bicgstab(
        *_dense([[2, -2, -1], [-3, 3, 3], [-3, 3, 2]], [2, -1, 2]), tol=1e-8), 1),
}


@pytest.mark.parametrize("exit", list(_EXITS))
def test_a_split_solve_ends_its_worker_on_every_exit(biharmonic_system, split_everything, exit):
    solve, workers = _EXITS[exit]
    expected = _serially(lambda: solve(*biharmonic_system))
    threads = threading.active_count()
    got = solve(*biharmonic_system)
    assert threading.active_count() == threads
    assert len(split_everything) == workers
    assert not any(split.worker.is_alive() for split in split_everything)
    _same_solve(got, expected)
    if "breakdown" in exit:
        assert got[1].breakdown == exit
    elif exit == "diverged":
        assert got[1].residual_history[-1] > 1e8


def test_pcg_rejects_a_non_positive_diagonal_before_any_worker_starts(split_everything):
    threads = threading.active_count()
    with pytest.raises(ValueError, match="positive diagonal"):
        pcg(from_coo(2, [0, 1], [0, 1], [1.0, -1.0]), np.ones(2))
    assert threading.active_count() == threads and split_everything == []


def test_an_error_in_the_worker_reaches_the_caller(biharmonic_system, split_everything,
                                                   monkeypatch):
    def kernel(*args):
        if any(threading.current_thread() is split.worker for split in split_everything):
            raise MemoryError("in the worker")
        return csr_matvec(*args)

    monkeypatch.setattr(solvers, "csr_matvec", kernel)
    threads = threading.active_count()
    with pytest.raises(MemoryError, match="in the worker"):
        _bounded(lambda: pcg(*biharmonic_system))
    assert threading.active_count() == threads
    assert len(split_everything) == 1 and not split_everything[0].worker.is_alive()


def test_split_solves_on_three_threads_at_once_are_bitwise_serial(biharmonic_system,
                                                                   split_everything):
    A, b = biharmonic_system
    solves = (lambda: pcg(A, b, tol=1e-8), lambda: bicgstab(A, b, tol=1e-8))
    expected = [_serially(solve) for solve in solves]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = [[] for _ in range(3)]
        threads = [threading.Thread(daemon=True, target=lambda out=out: out.extend(
            solve() for _ in range(3) for solve in solves)) for out in results]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    for out in results:
        assert len(out) == 6
        for got, want in zip(out, expected * 3):
            _same_solve(got, want)
    assert len(split_everything) == 18


def test_the_gate_splits_from_split_nnz_entries_on_two_cpus(splits, monkeypatch):
    for entries, cpus, started in ((SPLIT_NNZ - 1, 2, 0), (SPLIT_NNZ, 2, 1), (SPLIT_NNZ, 1, 0)):
        monkeypatch.setattr(solvers.os, "sched_getaffinity", lambda pid: set(range(cpus)))
        splits.clear()
        x, report = pcg(identity(entries), np.ones(entries))
        assert report.converged and len(splits) == started
