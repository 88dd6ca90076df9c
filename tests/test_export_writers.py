"""Vectorized export writers against the per-entry formulas.

The reference below is the per-entry export code: a PBM written one
character per matrix entry from a dense N x N grid, one SVG ``<rect>`` and
one MatrixMarket line per stored entry, a contour CSV written one grid
point at a time, marching squares visiting one cell at a time, and contour
segments chained with one rounded key computed per endpoint lookup. The
row-block and table-driven writers must reproduce their bytes exactly, for
every float including -0.0, NaN and inf, and the vectorized marching
squares and the chaining their segment lists and polylines bit for bit.
The one exception is the sparsity SVG, which draws each block of rows as
one ``<path>`` whose closed subpaths are the block's runs of consecutive
stored columns. The decoder reads both the reference's ``<rect>`` lines
and those paths, each subpath one cell high, on the grid and closed back by
its own width. The runs must cover exactly the cells the reference's rects
cover, one subpath per maximal run and none overlapping; the other lines
must be the reference's bytes, and the file must stay within a byte bound
per run that a rect per run (about 52 bytes) exceeds.
The ``ref_*`` writers are never edited to follow the package.
"""

import re
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from streamfem import analysis, assembly
from streamfem.analysis import (
    ROW_BLOCK,
    _chain_segments,
    _marching_squares,
    evaluate_field,
    export_contours,
    export_sparsity,
)
from streamfem.cli import main as cli_main
from streamfem.mesh import build_uniform_mesh, enumerate_dofs
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
        symmetric = ref_bitwise_symmetric(A._csr)
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


def ref_chain_segments(segments, tol=1e-9):
    """Polylines joined with one ``round`` key computed per endpoint lookup."""
    def key(pt):
        return (round(pt[0] / tol), round(pt[1] / tol))

    remaining = {}
    for idx, (a, b) in enumerate(segments):
        remaining.setdefault(key(a), []).append((idx, False))
        remaining.setdefault(key(b), []).append((idx, True))
    used = [False] * len(segments)
    polylines = []
    for start in range(len(segments)):
        if used[start]:
            continue
        used[start] = True
        a, b = segments[start]
        line = [a, b]
        for head in (True, False):
            while True:
                end = line[-1] if head else line[0]
                found = None
                for idx, reverse in remaining.get(key(end), []):
                    if not used[idx]:
                        found = (idx, reverse)
                        break
                if found is None:
                    break
                idx, reverse = found
                used[idx] = True
                sa, sb = segments[idx]
                nxt = sa if reverse else sb
                if head:
                    line.append(nxt)
                else:
                    line.insert(0, nxt)
        polylines.append(line)
    return polylines


# --- matrices ----------------------------------------------------------------

# quiet NaNs: the default one, a negative one and one with a payload; all
# print as "nan", but the writers key values by bit pattern
NANS = tuple(np.array([0x7FF8_0000_0000_0000, 0xFFF8_0000_0000_0000, 0x7FF8_0000_0000_0BAD],
                      dtype=np.uint64).view(float).tolist())
EXTREME_VALUES = (
    -0.0, 0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1e308, -1.7976931348623157e308,
    1.0, -1.5, 0.1, 1e-5, 1e16, 123456789.125, float("inf"), float("-inf"), *NANS,
)


def stored_matrix(n, entries):
    """CSR with exactly ``entries`` ({(row, col): value}) stored, zeros
    (0.0 and -0.0) included, so the writers' formatting of them is compared
    too.
    """
    keys = sorted(entries)
    rows = np.array([r for r, _ in keys], dtype=np.int64)
    cols = np.array([c for _, c in keys], dtype=np.int32)
    data = np.array([entries[k] for k in keys], dtype=float)
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return SparseMatrix(sp.csr_matrix((data, cols, indptr), shape=(n, n)))


# "nan" carries no sign or payload, so only non-NaN values round-trip bitwise
round_trip_values = st.one_of(
    st.sampled_from([v for v in EXTREME_VALUES if not np.isnan(v)]),
    st.floats(allow_nan=False, allow_subnormal=True),
)
values = st.one_of(st.sampled_from(EXTREME_VALUES), st.floats(allow_subnormal=True))


@st.composite
def sparse_entries(draw, max_n=2 * ROW_BLOCK + 20, symmetric=False, values=values, pool=False):
    """(n, {(row, col): value}); up to 3 n entries, so up to 1,596 (more
    than one WRITE_CHUNK) at the default size. With ``pool`` the values come
    from a few drawn ones, ±0.0 among them half the time, that most entries
    repeat: the MatrixMarket writer formats each distinct value of a chunk
    once."""
    n = draw(st.integers(1, max_n))
    index = st.integers(0, n - 1)
    if pool:
        values = st.sampled_from(draw(st.lists(values, min_size=1, max_size=6))
                                 + draw(st.sampled_from([[], [0.0, -0.0]])))
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


RECT = re.compile(r'<rect x="(\d+)" y="(\d+)" width="(\d+)" height="(\d+)" fill="black"/>')
PATH = re.compile(r'<path fill="black" d="((?:M\d+ \d+h\d+v\d+h-\d+z)+)"/>')
SUBPATH = re.compile(r"M(\d+) (\d+)h(\d+)v(\d+)h-(\d+)z")


def decode_svg(path):
    """(frame lines, the cells each black rect or path subpath covers, one
    list per rect or subpath).

    The frame is the header, the white frame and the annotation: every line
    that is neither a black rect nor a black path. Rects and subpaths must be
    one cell high and lie on the grid, and a subpath must close back by its
    own width.
    """
    lines = path.read_text().splitlines()
    cell = max(1, 600 // int(re.search(r"n=(\d+) ", lines[-2]).group(1)))
    frame, runs = [], []
    for line in lines:
        if m := RECT.fullmatch(line):
            boxes = [m.groups()]
        elif m := PATH.fullmatch(line):
            subpaths = SUBPATH.findall(m.group(1))
            assert all(back == w for _, _, w, _, back in subpaths), f"not closed: {line}"
            boxes = [subpath[:4] for subpath in subpaths]
        else:
            frame.append(line)
            continue
        for x, y, w, h in (map(int, box) for box in boxes):
            assert h == cell and x % cell == y % cell == w % cell == 0 and w > 0, line
            runs.append([(y // cell, x // cell + k) for k in range(w // cell)])
    return frame, runs


def stored_cells(A):
    rows = np.repeat(np.arange(A.dimension), np.diff(A.indptr))
    return set(zip(rows.tolist(), A.indices.tolist()))


def maximal_runs(A):
    """Runs of consecutive stored columns in a row, counted one entry at a time."""
    runs = 0
    for r in range(A.dimension):
        row = A.indices[A.indptr[r]:A.indptr[r + 1]].tolist()
        runs += sum(1 for k, c in enumerate(row) if k == 0 or c != row[k - 1] + 1)
    return runs


def assert_svg_covers_pattern(path, A, ref_path=None):
    """The SVG's runs cover exactly A's stored cells, one rect or subpath
    per maximal run and no two overlapping; with ``ref_path`` its other lines
    are the reference SVG's bytes."""
    frame, runs = decode_svg(path)
    covered = [cell for run in runs for cell in run]
    assert len(covered) == len(set(covered)), "overlapping runs"
    assert set(covered) == stored_cells(A)
    assert len(runs) == maximal_runs(A)
    if ref_path is not None:
        assert frame == decode_svg(ref_path)[0]
        assert path.read_bytes().endswith(frame[-2].encode() + b"\n</svg>\n")


def assert_svg_within_byte_bound(path, A):
    """At most the frame's bytes, 24 bytes per maximal run (the widest
    subpath, at N <= 40, is 22) and 32 per row block that stores entries (a
    path's opening and closing text is 26): a rect per run takes about 52."""
    frame, _ = decode_svg(path)
    blocks = len({r // ROW_BLOCK for r, _ in stored_cells(A)})
    bound = sum(len(line) + 1 for line in frame) + 24 * maximal_runs(A) + 32 * blocks
    assert path.stat().st_size <= bound


def sparsity_files_equal(tmp_path, A):
    """The PBM is the reference's bytes; the SVG draws the reference's cells."""
    assert_same_files(tmp_path, export_sparsity, ref_export_sparsity, A, (".pbm",))
    assert_svg_covers_pattern(tmp_path / "new.svg", A, tmp_path / "ref.svg")


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


@settings(max_examples=60, deadline=None)
@given(sparse_entries())
def test_bandwidth_matches_per_entry_formula(case):
    # the SVG annotation's bandwidth, read per row from the first and last entry
    n, entries = case
    A = stored_matrix(n, entries)
    assert A.bandwidth == max((abs(r - c) for r, c in entries), default=0)


def test_sparsity_empty_matrix(tmp_path):
    sparsity_files_equal(tmp_path, stored_matrix(5, {}))


def test_sparsity_assembled_matrix(tmp_path, mesh5):
    for ordering in (1, 2, 3):
        A = assembly.assemble_biharmonic(
            assembly.ScatterPlan.build(mesh5, enumerate_dofs(mesh5, ordering)), rule(6), 1.0)
        sparsity_files_equal(tmp_path, A)
        assert_svg_within_byte_bound(tmp_path / "new.svg", A)
        _, runs = decode_svg(tmp_path / "new.svg")
        assert len(runs) < A.nnz  # every ordering stores some runs of adjacent columns


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40), st.data())
def test_sparsity_svg_runs_cover_random_patterns(tmp_path_factory, n, data):
    # empty and full rows, lone entries and runs; N <= 40 draws each cell >= 15 units wide
    rows = data.draw(st.lists(st.one_of(
        st.just(set()), st.just(set(range(n))),
        st.sets(st.integers(0, n - 1), max_size=n),
        st.tuples(st.integers(0, n - 1), st.integers(0, n)).map(lambda a: set(range(a[0], a[1]))),
    ), min_size=n, max_size=n))
    A = stored_matrix(n, {(r, c): 1.0 for r, row in enumerate(rows) for c in row})
    tmp_path = tmp_path_factory.mktemp("runs")
    sparsity_files_equal(tmp_path, A)
    assert_svg_within_byte_bound(tmp_path / "new.svg", A)


def test_sparsity_svg_of_the_convection_operator(tmp_path):
    # A + B(psi), as the CLI exports it, against its own MatrixMarket and PBM
    argv = ["export-sparsity", "--n", "4", "--with-convection", "--out-dir", str(tmp_path)]
    for ordering in ("1", "2", "3"):
        assert cli_main([*argv, "--ordering", ordering]) == 0
        stem = tmp_path / f"sparsity_nse_n4_ordering{ordering}"
        with open(f"{stem}.mtx") as f:
            assert f.readline().split()[4] == "general"
        A = read_matrix_market(f"{stem}.mtx")
        assert_svg_covers_pattern(stem.with_suffix(".svg"), A)
        pbm = stem.with_suffix(".pbm").read_text().split()[3:]
        assert {(r, c) for r, line in enumerate(pbm) for c, v in enumerate(line) if v == "1"} \
            == stored_cells(A)


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


@pytest.fixture(scope="module", params=[16, 24], ids=["n16", "n24"])
def assembled(request):
    mesh = build_uniform_mesh(request.param)
    return assembly.assemble_biharmonic(assembly.ScatterPlan.build(mesh, enumerate_dofs(mesh, 1)),
                                        rule(6), 1.0)


def traced_peak(write) -> int:
    tracemalloc.start()
    try:
        write()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# The bounds below grow with the dimension N (tables of N strings, one PBM
# block) but not with nnz: text is built and written WRITE_CHUNK entries or
# one row at a time. A Python str or int per entry of the whole matrix would
# add >= 36 bytes an entry (3.2 MB at n = 16) and fail them.

def test_sparsity_memory_does_not_grow_with_nnz(tmp_path, assembled):
    n = assembled.dimension
    peak = traced_peak(lambda: export_sparsity(assembled, tmp_path / "a"))
    # one PBM block, plus the SVG's per-column heads and the row bounds
    bound = ROW_BLOCK * (n + 1) + 160 * n + 2**17
    assert peak < bound, f"tracemalloc peak {peak} B, bound {bound} B (nnz {assembled.nnz})"


def test_matrix_market_memory_grows_with_nnz_only_by_its_csc(tmp_path, assembled):
    n = assembled.dimension
    peak = traced_peak(lambda: write_matrix_market(assembled, tmp_path / "a.mtx"))
    # converting the entry numbers to CSC holds three int32 arrays at once:
    # the numbers, and the CSC's row index and entry order (12 B an entry,
    # within 10 B plus the N term at an assembled A's ~42 entries a row); the
    # index text table holds N strings. A sort index (8 B) more fails it.
    bound = 10 * assembled.nnz + 128 * n + 2**17
    assert peak < bound, f"tracemalloc peak {peak} B, bound {bound} B (nnz {assembled.nnz})"


# --- MatrixMarket ------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(sparse_entries())
def test_matrix_market_matches_reference(tmp_path_factory, case):
    n, entries = case
    mtx_files_equal(tmp_path_factory.mktemp("mm"), stored_matrix(n, entries))


@settings(max_examples=40, deadline=None)
@given(sparse_entries(pool=True))
def test_matrix_market_repeated_values_match_reference(tmp_path_factory, case):
    n, entries = case
    mtx_files_equal(tmp_path_factory.mktemp("mmp"), stored_matrix(n, entries))


def test_matrix_market_keeps_signed_zeros_and_nans_apart(tmp_path):
    # one chunk holding every special value twice: keyed by value instead of
    # bit pattern, 0.0 and -0.0 would share one text
    special = [0.0, -0.0, *NANS, float("inf"), float("-inf")]
    entries = {(k % 7, k // 7): special[k % len(special)] for k in range(2 * len(special))}
    A = stored_matrix(7, entries)
    mtx_files_equal(tmp_path, A)
    lines = (tmp_path / "new.mtx").read_text().splitlines()[2:]
    assert sorted({line.split()[2] for line in lines}) == ["-0.0", "-inf", "0.0", "inf", "nan"]


def test_matrix_market_prints_integer_and_float32_entries_as_python_does(tmp_path):
    # int and float32 data print as tolist() gives them, as the writer always has
    for data, want in (([1, -2], ["2 1 -2", "1 2 1"]),
                       (np.array([0.1, -0.0], np.float32), ["2 1 -0.0", "1 2 0.10000000149011612"])):
        csr = sp.csr_matrix((np.asarray(data), [1, 0], [0, 1, 2]), shape=(2, 2))
        write_matrix_market(SparseMatrix(csr), tmp_path / "m.mtx")
        assert (tmp_path / "m.mtx").read_text().splitlines()[2:] == want


def tridiagonal(n, last=1.0):
    """Symmetric but for entry (n - 1, n - 2), which is ``last``: 3 n - 2
    entries, so n = 600 puts it past the first WRITE_CHUNK."""
    entries = {(r, c): 1.0 + min(r, c) for r in range(n) for c in range(r - 1, r + 2) if 0 <= c < n}
    entries[(n - 1, n - 2)] = last
    return n, entries


@pytest.mark.parametrize("case, kind", [
    ((3, {(0, 1): 1.0, (1, 0): 1.0, (2, 2): 3.0}), "symmetric"),
    ((3, {(0, 1): 1.0, (1, 0): 2.0, (2, 2): 3.0}), "general"),
    ((2, {(0, 1): 0.0, (1, 0): -0.0}), "symmetric"),  # equal as numbers
    ((2, {(0, 1): NANS[0], (1, 0): NANS[0]}), "general"),  # NaN equals nothing
    # every row and every column holds one entry, but not the transposed one
    ((3, {(0, 1): 1.0, (1, 2): 1.0, (2, 0): 1.0}), "general"),
    (tridiagonal(600, last=599.0), "symmetric"),
    (tridiagonal(600), "general"),
], ids=["equal", "values differ", "signed zeros", "nan", "cycle", "long", "long, last differs"])
def test_matrix_market_symmetric_encoding_needs_a_bitwise_equal_transpose(tmp_path, case, kind):
    mtx_files_equal(tmp_path, stored_matrix(*case))
    with open(tmp_path / "new.mtx") as f:
        assert f.readline().split()[4] == kind


@settings(max_examples=30, deadline=None)
@given(sparse_entries(max_n=40, symmetric=True, values=round_trip_values))
def test_matrix_market_symmetric_matches_reference_and_round_trips(tmp_path_factory, case):
    n, entries = case
    tmp = tmp_path_factory.mktemp("mms")
    mtx_files_equal(tmp, stored_matrix(n, entries))  # stored zeros too
    A = finalize_csr(stored_matrix(n, entries)._csr)
    mtx_files_equal(tmp, A)
    with open(tmp / "new.mtx") as f:
        assert f.readline().split()[4] == "symmetric"
    assert_bitwise_same(read_matrix_market(tmp / "new.mtx"), A)


@settings(max_examples=30, deadline=None)
@given(sparse_entries(max_n=60, values=round_trip_values))
def test_matrix_market_general_round_trip_is_bitwise(tmp_path_factory, case):
    n, entries = case
    path = tmp_path_factory.mktemp("mmg") / "g.mtx"
    A = finalize_csr(stored_matrix(n, entries)._csr)
    write_matrix_market(A, path)
    assert_bitwise_same(read_matrix_market(path), A)


def test_assembled_matrix_round_trips_with_its_structural_zeros(tmp_path):
    mesh = build_uniform_mesh(16)
    A = assembly.assemble_biharmonic(assembly.ScatterPlan.build(mesh, enumerate_dofs(mesh, 1)),
                                     rule(6), 1.0)
    assert 0 < np.count_nonzero(A.data == 0) < 100  # slots that cancel, stored as zeros
    write_matrix_market(A, tmp_path / "a.mtx")
    export_sparsity(A, tmp_path / "a")
    back = read_matrix_market(tmp_path / "a.mtx")
    for name in ("indptr", "indices", "data"):  # bytes: +0.0 and -0.0 differ
        got, want = getattr(back, name), getattr(A, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    with open(tmp_path / "a.mtx") as f:
        f.readline()
        header_nnz = int(f.readline().split()[2])
    with open(tmp_path / "a.pbm") as f:
        f.readline(), f.readline()
        ones = sum(line.count("1") for line in f)
    assert header_nnz == ones == A.nnz


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


# endpoints on a coarse lattice, so that many coincide and chains branch,
# each moved by less than half of the 1e-9 key spacing or by -0.0, and
# points whose quotient by the spacing is a tie (k + 0.5 of it)
LATTICE = st.integers(-3, 3).map(lambda k: k / 4)
COORDINATE = st.one_of(
    st.tuples(LATTICE, st.sampled_from((0.0, -0.0, 3e-10, -4.9e-10, 1e-16))).map(sum),
    st.integers(-6, 6).map(lambda k: (k + 0.5) * 1e-9),
    st.floats(-1.0, 1.0),
)
SEGMENT = st.tuples(st.tuples(COORDINATE, COORDINATE), st.tuples(COORDINATE, COORDINATE))


@settings(max_examples=200, deadline=None)
@given(st.lists(SEGMENT, max_size=40))
def test_chain_segments_matches_reference(segments):
    got, want = _chain_segments(segments), ref_chain_segments(segments)
    assert [[(float(x).hex(), float(y).hex()) for x, y in line] for line in got] == \
        [[(float(x).hex(), float(y).hex()) for x, y in line] for line in want]


def test_contour_files_match_reference(tmp_path, mesh5, dofmap5, bases5, monkeypatch):
    coeffs = np.random.default_rng(0).standard_normal(dofmap5.total_dofs)
    new = export_contours(mesh5, dofmap5, coeffs, tmp_path / "new", bases5, grid_size=40)
    monkeypatch.setattr(analysis, "_marching_squares", ref_marching_squares)
    monkeypatch.setattr(analysis, "_chain_segments", ref_chain_segments)
    export_contours(mesh5, dofmap5, coeffs, tmp_path / "ref", bases5, grid_size=40)
    assert (tmp_path / "new.svg").read_bytes() == (tmp_path / "ref.svg").read_bytes()
    assert sum(len(lines) for lines in new["polylines"].values()) > 0

    xs = np.linspace(0.0, 1.0, 40)
    gx, gy = np.meshgrid(xs, xs, indexing="xy")
    grid = evaluate_field(mesh5, dofmap5, coeffs, np.column_stack([gx.ravel(), gy.ravel()]),
                          bases=bases5).reshape(40, 40)
    ref_contour_csv(tmp_path / "ref.csv", xs, xs, grid)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


# --- shared element tables ---------------------------------------------------

def test_export_sparsity_with_convection_builds_bases_once(tmp_path, bases_builds):
    argv = ["export-sparsity", "--n", "4", "--with-convection", "--out-dir", str(tmp_path)]
    assert cli_main(argv) == 0
    # the Stokes solve and both forms share one discretization
    assert bases_builds == [4]


@pytest.mark.parametrize("problem", ["nse", "biharmonic"])
def test_export_contours_builds_bases_once(tmp_path, bases_builds, problem):
    argv = ["export-contours", "--n", "3", "--problem", problem, "--grid-size", "16",
            "--out-dir", str(tmp_path)]
    assert cli_main(argv) == 0
    # the solve and the field evaluation share the bases
    assert bases_builds == [3]
