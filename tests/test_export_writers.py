"""Vectorized export writers against the per-entry formulas.

The reference below is the per-entry export code: a PBM written one
character per matrix entry from a dense N x N grid, one SVG ``<rect>`` and
one MatrixMarket line per stored entry, a contour CSV written one grid
point at a time, and marching squares visiting one cell at a time. The
row-block and chunked writers must reproduce their bytes exactly, and the
vectorized marching squares their segment lists bit for bit.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from streamfem import analysis, assembly
from streamfem.analysis import (
    ROW_BLOCK,
    _marching_squares,
    evaluate_field,
    export_contours,
    export_sparsity,
)
from streamfem.cli import main as cli_main
from streamfem.mesh import enumerate_dofs
from streamfem.quadrature import rule
from streamfem.solvers import (
    SparseMatrix,
    bandwidth_stats,
    finalize_csr,
    read_matrix_market,
    write_matrix_market,
)


# --- reference: the per-entry writers ----------------------------------------

def ref_export_sparsity(A, path_stem):
    stats = bandwidth_stats(A)
    n = A.dimension
    rows = np.repeat(np.arange(n), np.diff(A.indptr))
    cols = A.indices

    grid = np.zeros((n, n), dtype=np.uint8)
    grid[rows, cols] = 1
    with open(f"{path_stem}.pbm", "w") as f:
        f.write("P1\n")
        f.write(f"{n} {n}\n")
        for r in range(n):
            f.write("".join("1" if v else "0" for v in grid[r]) + "\n")

    cell = max(1, 600 // n)
    size = n * cell
    margin = 24
    with open(f"{path_stem}.svg", "w") as f:
        f.write(
            f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'width="{size}" height="{size + margin}" '
            f'viewBox="0 0 {size} {size + margin}">\n'
        )
        f.write(f'<rect width="{size}" height="{size}" fill="white" stroke="black"/>\n')
        for r, c in zip(rows, cols):
            f.write(
                f'<rect x="{int(c) * cell}" y="{int(r) * cell}" '
                f'width="{cell}" height="{cell}" fill="black"/>\n'
            )
        f.write(
            f'<text x="4" y="{size + margin - 8}" font-size="14" font-family="monospace">'
            f'n={n} nnz={stats["nnz"]} bandwidth={stats["bandwidth"]} '
            f'profile={stats["profile"]}</text>\n'
        )
        f.write("</svg>\n")


def ref_bitwise_symmetric(csr):
    t = csr.T.tocsr()
    t.sort_indices()
    return (
        np.array_equal(t.indptr, csr.indptr)
        and np.array_equal(t.indices, csr.indices)
        and np.array_equal(t.data, csr.data)
    )


def ref_write_matrix_market(A, path):
    with open(path, "w") as f:
        symmetric = A.is_symmetric and ref_bitwise_symmetric(A._csr)
        kind = "symmetric" if symmetric else "general"
        f.write(f"%%MatrixMarket matrix coordinate real {kind}\n")
        coo = A._csr.tocoo()
        if symmetric:
            keep = coo.row >= coo.col
            rows, cols, data = coo.row[keep], coo.col[keep], coo.data[keep]
        else:
            rows, cols, data = coo.row, coo.col, coo.data
        order = np.lexsort((rows, cols))
        f.write(f"{A.dimension} {A.dimension} {len(data)}\n")
        for k in order:
            f.write(f"{rows[k] + 1} {cols[k] + 1} {float(data[k])!r}\n")


def ref_contour_csv(path, xs, ys, grid):
    with open(path, "w") as f:
        f.write("x,y,psi\n")
        for j in range(len(ys)):
            for i in range(len(xs)):
                f.write(f"{float(xs[i])!r},{float(ys[j])!r},{float(grid[j, i])!r}\n")


def ref_marching_squares(grid, xs, ys, level):
    segments = []
    nj, ni = grid.shape

    def interp(pa, pb, va, vb):
        t = (level - va) / (vb - va)
        return (pa[0] + t * (pb[0] - pa[0]), pa[1] + t * (pb[1] - pa[1]))

    edges = {0: (0, 1), 1: (1, 2), 2: (2, 3), 3: (3, 0)}
    table = {
        1: [(3, 0)], 2: [(0, 1)], 3: [(3, 1)], 4: [(1, 2)],
        6: [(0, 2)], 7: [(3, 2)], 8: [(2, 3)], 9: [(2, 0)],
        11: [(2, 1)], 12: [(1, 3)], 13: [(1, 0)], 14: [(0, 3)],
    }
    for j in range(nj - 1):
        for i in range(ni - 1):
            v = [grid[j, i], grid[j, i + 1], grid[j + 1, i + 1], grid[j + 1, i]]
            p = [(xs[i], ys[j]), (xs[i + 1], ys[j]), (xs[i + 1], ys[j + 1]), (xs[i], ys[j + 1])]
            case = sum(1 << k for k in range(4) if v[k] > level)
            if case in (0, 15):
                continue

            def pt(edge):
                a, b = edges[edge]
                return interp(p[a], p[b], v[a], v[b])

            if case in (5, 10):
                center = 0.25 * sum(v)
                if case == 5:
                    pairs = [(3, 0), (1, 2)] if center <= level else [(0, 1), (2, 3)]
                else:
                    pairs = [(0, 1), (2, 3)] if center <= level else [(3, 0), (1, 2)]
            else:
                pairs = table[case]
            for ea, eb in pairs:
                segments.append((pt(ea), pt(eb)))
    return segments


# --- matrices ----------------------------------------------------------------

EXTREME_VALUES = (
    -0.0, 0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1e308, -1.7976931348623157e308,
    1.0, -1.5, 0.1, 1e-5, 1e16, 123456789.125,
)


def stored_matrix(n, entries, is_symmetric=False):
    """CSR with exactly ``entries`` ({(row, col): value}) stored.

    Unlike ``finalize_csr`` this keeps stored zeros (0.0 and -0.0), so the
    writers' formatting of them is compared too.
    """
    keys = sorted(entries)
    rows = np.array([r for r, _ in keys], dtype=np.int64)
    cols = np.array([c for _, c in keys], dtype=np.int32)
    data = np.array([entries[k] for k in keys], dtype=float)
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return SparseMatrix(sp.csr_matrix((data, cols, indptr), shape=(n, n)), is_symmetric)


values = st.one_of(
    st.sampled_from(EXTREME_VALUES),
    st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
)


@st.composite
def sparse_entries(draw, max_n=2 * ROW_BLOCK + 20, symmetric=False):
    n = draw(st.integers(1, max_n))
    index = st.integers(0, n - 1)
    entries = draw(st.dictionaries(st.tuples(index, index), values, max_size=3 * n))
    if symmetric:
        entries = {(max(r, c), min(r, c)): v for (r, c), v in entries.items()}
        entries.update({(c, r): v for (r, c), v in entries.items()})
    return n, entries


def assert_same_files(tmp_path, write, ref_write, A, suffixes):
    write(A, tmp_path / "new")
    ref_write(A, tmp_path / "ref")
    for suffix in suffixes:
        assert (tmp_path / f"new{suffix}").read_bytes() == (tmp_path / f"ref{suffix}").read_bytes()


def sparsity_files_equal(tmp_path, A):
    assert_same_files(tmp_path, export_sparsity, ref_export_sparsity, A, (".pbm", ".svg"))


def mtx_files_equal(tmp_path, A):
    def write(A, stem):
        write_matrix_market(A, f"{stem}.mtx")

    def ref_write(A, stem):
        ref_write_matrix_market(A, f"{stem}.mtx")

    assert_same_files(tmp_path, write, ref_write, A, (".mtx",))


# --- sparsity PBM/SVG --------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(sparse_entries())
def test_sparsity_files_match_reference(tmp_path_factory, case):
    n, entries = case
    sparsity_files_equal(tmp_path_factory.mktemp("sp"), stored_matrix(n, entries))


@pytest.mark.parametrize("n", [1, 2, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK + 3])
def test_sparsity_block_seams_and_empty_rows(tmp_path, n):
    # every third row empty, the last row full, one entry in the first column
    entries = {(r, (7 * r) % n): 1.0 for r in range(0, n, 3)}
    entries.update({(n - 1, c): -2.0 for c in range(n)})
    entries[(n // 2, 0)] = 3.0
    sparsity_files_equal(tmp_path, stored_matrix(n, entries))


def test_sparsity_empty_matrix(tmp_path):
    sparsity_files_equal(tmp_path, stored_matrix(5, {}))


def test_sparsity_assembled_matrix(tmp_path, mesh5):
    A = assembly.assemble_biharmonic(mesh5, enumerate_dofs(mesh5, 2), rule(6)).matrix
    sparsity_files_equal(tmp_path, A)


def test_sparsity_memory_has_no_dense_grid(tmp_path):
    n = 3000
    A = finalize_csr(sp.identity(n, format="csr"))
    tracemalloc.start()
    try:
        export_sparsity(A, tmp_path / "eye")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, f"tracemalloc peak {peak} B"  # the N x N grid alone is 9 MB
    pbm = (tmp_path / "eye.pbm").read_bytes().split(b"\n")
    assert pbm[:2] == [b"P1", b"3000 3000"]
    assert all(line.find(b"1") == r and line.count(b"1") == 1 for r, line in enumerate(pbm[2:-1]))


# --- MatrixMarket ------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(sparse_entries(), st.booleans())
def test_matrix_market_matches_reference(tmp_path_factory, case, is_symmetric):
    n, entries = case
    mtx_files_equal(tmp_path_factory.mktemp("mm"), stored_matrix(n, entries, is_symmetric))


@settings(max_examples=30, deadline=None)
@given(sparse_entries(max_n=40, symmetric=True))
def test_matrix_market_symmetric_matches_reference_and_round_trips(tmp_path_factory, case):
    n, entries = case
    tmp = tmp_path_factory.mktemp("mms")
    mtx_files_equal(tmp, stored_matrix(n, entries, is_symmetric=True))  # stored zeros too
    A = finalize_csr(stored_matrix(n, entries)._csr, is_symmetric=True)
    mtx_files_equal(tmp, A)
    with open(tmp / "new.mtx") as f:
        assert f.readline().split()[4] == "symmetric"
    back = read_matrix_market(tmp / "new.mtx")
    assert back.is_symmetric
    assert_bitwise_same(back, A)


@settings(max_examples=30, deadline=None)
@given(sparse_entries(max_n=60))
def test_matrix_market_general_round_trip_is_bitwise(tmp_path_factory, case):
    n, entries = case
    path = tmp_path_factory.mktemp("mmg") / "g.mtx"
    A = finalize_csr(stored_matrix(n, entries)._csr)
    write_matrix_market(A, path)
    assert_bitwise_same(read_matrix_market(path), A)


def assert_bitwise_same(got, want):
    assert got.dimension == want.dimension
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.data.view(np.int64), want.data.view(np.int64))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [1, 4])
def test_matrix_market_empty_matrix_round_trips(tmp_path, n):
    A = stored_matrix(n, {})
    write_matrix_market(A, tmp_path / "e.mtx")
    assert_bitwise_same(read_matrix_market(tmp_path / "e.mtx"), A)


def test_matrix_market_reader_rejects_short_body(tmp_path):
    path = tmp_path / "short.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n3 3 3\n1 1 1.0\n2 2 2.0\n")
    with pytest.raises(ValueError, match="declares 3 entries"):
        read_matrix_market(path)


def test_matrix_market_reader_rejects_bad_header_and_non_square(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_text("%%NotMatrixMarket\n1 1 1\n1 1 1.0\n")
    with pytest.raises(ValueError, match="not a Matrix Market file"):
        read_matrix_market(path)
    path.write_text("%%MatrixMarket matrix coordinate real general\n% note\n2 3 1\n1 1 1.0\n")
    with pytest.raises(ValueError, match="square"):
        read_matrix_market(path)


# --- marching squares --------------------------------------------------------

def hex_segments(segments):
    return [tuple(float(c).hex() for end in seg for c in end) for seg in segments]


def assert_same_segments(grid, level, xs=None, ys=None):
    grid = np.asarray(grid, dtype=float)
    xs = np.linspace(0.0, 1.0, grid.shape[1]) if xs is None else xs
    ys = np.linspace(0.0, 1.0, grid.shape[0]) if ys is None else ys
    got = _marching_squares(grid, xs, ys, level)
    want = ref_marching_squares(grid, xs, ys, level)
    assert hex_segments(got) == hex_segments(want)
    return got


def test_saddles_take_both_branches():
    grid = [[1.0, 0.0], [0.0, 1.0]]  # case 5; centre 0.5
    assert len(assert_same_segments(grid, 0.5)) == 2  # centre <= level
    assert len(assert_same_segments(grid, 0.4)) == 2  # centre > level
    grid = [[0.0, 1.0], [1.0, 0.0]]  # case 10
    assert len(assert_same_segments(grid, 0.5)) == 2
    assert len(assert_same_segments(grid, 0.4)) == 2
    # the centre is ((v0 + v1) + v2) + v3 = 0.775 <= level here, but summed as
    # (v0 + v1) + (v2 + v3) it would round to 0.7750000000000001 > level
    assert_same_segments([[3.1, -0.7], [-0.2, 0.9]], 0.775)


def test_constant_grids_give_no_segments():
    for value, level in ((0.0, 0.0), (1.0, 0.5), (-2.0, 3.0)):
        assert assert_same_segments(np.full((7, 5), value), level) == []


@pytest.mark.parametrize("level", [0.0, 1.0, 2.0, 0.5, 1.5])
def test_levels_equal_to_grid_values(level):
    grid = np.random.default_rng(3).integers(0, 4, size=(23, 19)).astype(float)
    assert assert_same_segments(grid, level)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 12), st.integers(2, 12), st.integers(0, 2**32 - 1),
    st.sampled_from(["int", "real"]), st.floats(-1.5, 2.5),
)
def test_marching_squares_matches_reference(nj, ni, seed, kind, level):
    rng = np.random.default_rng(seed)
    grid = rng.integers(-1, 3, size=(nj, ni)) if kind == "int" else rng.standard_normal((nj, ni))
    xs = np.sort(rng.random(ni))
    ys = np.sort(rng.random(nj))
    assert_same_segments(grid, level, xs, ys)
    assert_same_segments(grid, float(np.round(level)), xs, ys)


def test_contour_files_match_reference(tmp_path, mesh5, dofmap5, bases5, monkeypatch):
    coeffs = np.random.default_rng(0).standard_normal(dofmap5.total_dofs)
    new = export_contours(mesh5, dofmap5, coeffs, tmp_path / "new", grid_size=40, bases=bases5)
    monkeypatch.setattr(analysis, "_marching_squares", ref_marching_squares)
    export_contours(mesh5, dofmap5, coeffs, tmp_path / "ref", grid_size=40, bases=bases5)
    assert (tmp_path / "new.svg").read_bytes() == (tmp_path / "ref.svg").read_bytes()
    assert sum(len(lines) for lines in new["polylines"].values()) > 0

    xs = np.linspace(0.0, 1.0, 40)
    gx, gy = np.meshgrid(xs, xs, indexing="xy")
    grid = evaluate_field(mesh5, dofmap5, coeffs, np.column_stack([gx.ravel(), gy.ravel()]),
                          bases=bases5).reshape(40, 40)
    ref_contour_csv(tmp_path / "ref.csv", xs, xs, grid)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


# --- shared element tables ---------------------------------------------------

def test_export_sparsity_with_convection_builds_bases_twice(tmp_path, monkeypatch):
    calls = []
    build = assembly.build_all_bases

    def counting(mesh):
        calls.append(mesh.n)
        return build(mesh)

    monkeypatch.setattr(assembly, "build_all_bases", counting)
    monkeypatch.setattr(analysis, "build_all_bases", counting)
    argv = ["export-sparsity", "--n", "4", "--with-convection", "--out-dir", str(tmp_path)]
    assert cli_main(argv) == 0
    # one for the shared viscous/convection tables, one inside the Stokes solve
    assert calls == [4, 4]
