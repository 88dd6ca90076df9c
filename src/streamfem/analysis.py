"""Error norms, field evaluation and figure/table exports.

Error norms are always integrated with the degree-10 verification rule so
that reported errors measure the discretization, not the assembly
quadrature. The H2 seminorm uses the multi-index convention
(e_xx^2 + e_xy^2 + e_yy^2). Sparsity patterns are written as bit-exact PBM
plus an annotated SVG with one path per block of ``ROW_BLOCK`` matrix rows
and one closed subpath per run of stored columns; both are streamed by
those blocks, so no N x N grid is held in memory. Stream-function contours
come from marching squares, one vectorized pass over all cells of a uniform
sampling grid, and are written as SVG plus a full-precision CSV of the grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .argyris import EVAL_ORDERS, ElementBases, build_all_bases
from .assembly import dof_arrays, element_blocks
from .mesh import DofMap, Mesh
from .quadrature import rule as quad_rule
from .solvers import WRITE_CHUNK, SparseMatrix, bandwidth_stats

VERIFICATION_RULE_POINTS = 25


@dataclass(frozen=True)
class ErrorReport:
    """L2, H1/H2 seminorm and vertex-value errors against an exact field."""

    l2: float
    h1_semi: float
    h2_semi: float
    nodal_max: float

    def as_text(self) -> str:
        return (
            f"l2 = {self.l2:.6g}\n"
            f"h1_semi = {self.h1_semi:.6g}\n"
            f"h2_semi = {self.h2_semi:.6g}\n"
            f"nodal_max = {self.nodal_max:.6g}\n"
            f"error_quadrature_points = {VERIFICATION_RULE_POINTS}\n"
        )


def compute_errors(
    mesh: Mesh,
    dofmap: DofMap,
    coefficients: np.ndarray,
    exact: dict,
) -> ErrorReport:
    """Integrate (psi_h - psi)^2 and derivative differences elementwise.

    ``exact`` is the dict ``interpolate_field`` takes, e.g. ``assembly.EXACT``:
    a callable f(x, y) of the field's derivative per name of ``EVAL_ORDERS``.
    The field is read from the per-triangle monomial coefficients of its
    derivatives (:meth:`ElementBases.polynomials`, formed once) at the
    verification rule's points (:meth:`ElementBases.derivatives`),
    ``BLOCK`` triangles at a time, so only the six (T, nq) differences and
    the weights are held for the whole mesh; the norms then sum over those
    arrays.
    """
    coefficients = np.asarray(coefficients, dtype=float)
    if coefficients.shape != (dofmap.total_dofs,):
        raise ValueError(
            f"coefficient vector must have length {dofmap.total_dofs}, "
            f"got {coefficients.shape}"
        )
    q = quad_rule(VERIFICATION_RULE_POINTS)
    shape = (mesh.num_triangles, q.n_points)
    w = np.empty(shape)
    err = {name: np.empty(shape) for name, _ in EVAL_ORDERS}
    bases = build_all_bases(mesh)
    polys = bases.polynomials(coefficients[dof_arrays(mesh, dofmap)], EVAL_ORDERS)
    triangles = np.arange(len(bases))[:, None]  # each block's points lie in its own triangles
    for blk, points, weights in element_blocks(q, bases):
        w[blk] = weights
        x, y = points[:, :, 0], points[:, :, 1]
        for name, field in bases.derivatives(polys, points, triangles[blk]).items():
            np.subtract(field, exact[name](x, y), out=err[name][blk])

    l2 = float(np.sqrt(np.sum(w * err["value"] ** 2)))
    h1 = float(np.sqrt(np.sum(w * (err["dx"] ** 2 + err["dy"] ** 2))))
    h2 = float(np.sqrt(np.sum(w * (err["dxx"] ** 2 + err["dxy"] ** 2 + err["dyy"] ** 2))))

    vx, vy = mesh.vertices[:, 0], mesh.vertices[:, 1]
    nodal = coefficients[dofmap.vertex_dofs[:, 0]] - exact["value"](vx, vy)
    nodal_max = float(np.abs(nodal).max())

    return ErrorReport(l2=l2, h1_semi=h1, h2_semi=h2, nodal_max=nodal_max)


def _locate(mesh: Mesh, points: np.ndarray) -> np.ndarray:
    """Triangle index containing each point of the unit square."""
    x, y = points[:, 0], points[:, 1]
    inside = (x >= 0) & (x <= 1) & (y >= 0) & (y <= 1)  # false for NaN
    if not inside.all():
        raise ValueError(f"point {tuple(points[~inside][0])} is not in the closed unit square")
    n = mesh.n
    i = np.minimum((x * n).astype(np.int64), n - 1)
    j = np.minimum((y * n).astype(np.int64), n - 1)
    xi = x * n - i
    eta = y * n - j
    lower = eta <= xi  # cells split along the bottom-left/top-right diagonal
    return 2 * (j * n + i) + np.where(lower, 0, 1)


POINT_CHUNK = 2**9  # points per field evaluation: bounds its temporaries


def evaluate_field(
    mesh: Mesh,
    dofmap: DofMap,
    coefficients: np.ndarray,
    points,
    bases: ElementBases,
) -> np.ndarray:
    """Evaluate the Argyris field at given points.

    Points must lie in the closed unit square; points outside it or not
    finite are rejected. Each point is located in its triangle and the
    field read from that triangle's monomial coefficients in ``bases``, the
    element bases of ``mesh`` (:meth:`ElementBases.derivatives`),
    ``POINT_CHUNK`` points at a time.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    local = np.asarray(coefficients, dtype=float)[dof_arrays(mesh, dofmap)]
    polys = bases.polynomials(local, EVAL_ORDERS[:1])
    values = np.empty(len(pts))
    for lo in range(0, len(pts), POINT_CHUNK):
        chunk = pts[lo:lo + POINT_CHUNK]
        values[lo:lo + POINT_CHUNK] = bases.derivatives(polys, chunk, _locate(mesh, chunk))["value"]
    return values


# --- sparsity pattern export -------------------------------------------------

ROW_BLOCK = 256  # matrix rows per PBM write and per SVG run search


def pbm_bytes(dimension: int) -> int:
    """Size of the PBM :func:`export_sparsity` writes for a matrix of this
    dimension N: one byte per entry and a newline per row, N (N + 1) bytes,
    plus its header."""
    return len(f"P1\n{dimension} {dimension}\n") + dimension * (dimension + 1)


def export_sparsity(A: SparseMatrix, path_stem) -> dict:
    """Write the stored pattern as <stem>.pbm and <stem>.svg.

    The PBM has one pixel per matrix entry (1 = stored, an exact zero too)
    and is byte for byte what the per-entry reference writer in the tests
    writes. The SVG draws each block of ROW_BLOCK rows that stores entries
    as one black ``<path>``, whose closed subpaths
    ``M{x} {y}h{w}v{cell}h-{w}z`` are the block's runs of consecutive
    stored columns, one cell high and ``run length x cell`` wide, and adds a
    bandwidth annotation: the runs never overlap and cover exactly the
    stored entries, so the picture is the one a rect per entry draws, in a
    sixteenth to a seventh of the bytes on an assembled matrix, by ordering.
    Both files are written one block of ROW_BLOCK rows at a time. A block's
    runs start at its row starts and wherever a column is not its
    predecessor's plus one; each subpath joins a column's ``M{x} `` head,
    the row's y and the run's width text, all from tables formatted once, at
    most WRITE_CHUNK runs per write. The width table is no longer than the
    longest row, so memory grows with the dimension, not with nnz.
    Returns the written paths and the bandwidth statistics.
    """
    stats = bandwidth_stats(A)
    n = A.dimension
    indptr, cols = A.indptr, A.indices

    pbm_path = f"{path_stem}.pbm"
    with open(pbm_path, "wb") as f:
        f.write(f"P1\n{n} {n}\n".encode())
        buffer = np.empty((min(n, ROW_BLOCK), n + 1), dtype=np.uint8)  # reused per block
        for r0 in range(0, n, ROW_BLOCK):
            r1 = min(r0 + ROW_BLOCK, n)
            block = buffer[:r1 - r0]
            block[:, :n] = ord("0")
            block[:, n] = ord("\n")
            block_rows = np.repeat(np.arange(r1 - r0), np.diff(indptr[r0:r1 + 1]))
            block[block_rows, cols[indptr[r0]:indptr[r1]]] = ord("1")
            f.write(block)
    del buffer, block  # the SVG's run search needs no PBM block

    svg_path = f"{path_stem}.svg"
    cell = max(1, 600 // n)
    size = n * cell
    margin = 24
    with open(svg_path, "w") as f:
        f.write(
            f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'width="{size}" height="{size + margin}" '
            f'viewBox="0 0 {size} {size + margin}">\n'
        )
        f.write(f'<rect width="{size}" height="{size}" fill="white" stroke="black"/>\n')
        heads = [f"M{c * cell} " for c in range(n)]
        widths = [f"{w * cell}v{cell}h-{w * cell}z"
                  for w in range(int(np.diff(indptr).max(initial=0)) + 1)]
        for r0 in range(0, n, ROW_BLOCK):
            r1 = min(r0 + ROW_BLOCK, n)
            block = cols[indptr[r0]:indptr[r1]]
            if not len(block):
                continue  # a block without entries writes no path
            row_starts = indptr[r0:r1 + 1] - indptr[r0]
            # a run starts at every row start and at every break in the columns
            brk = np.ones(len(block) + 1, dtype=bool)
            np.not_equal(block[1:], block[:-1] + 1, out=brk[1:-1])
            brk[row_starts] = True
            starts = np.flatnonzero(brk)  # then len(block), closing the last run
            runs = np.diff(starts)
            starts = starts[:-1]
            # an empty row shares its start with the next row: take the last
            rows = np.searchsorted(row_starts, starts, side="right") - 1
            ys = [f"{r * cell}h" for r in range(r0, r1)]
            f.write('<path fill="black" d="')
            for lo in range(0, len(starts), WRITE_CHUNK):
                hi = lo + WRITE_CHUNK
                f.write("".join(chain.from_iterable(zip(
                    map(heads.__getitem__, block[starts[lo:hi]].tolist()),
                    map(ys.__getitem__, rows[lo:hi].tolist()),
                    map(widths.__getitem__, runs[lo:hi].tolist()),
                ))))
            f.write('"/>\n')
        f.write(
            f'<text x="4" y="{size + margin - 8}" font-size="14" font-family="monospace">'
            f'n={n} nnz={stats["nnz"]} bandwidth={stats["bandwidth"]} '
            f'profile={stats["profile"]}</text>\n'
        )
        f.write("</svg>\n")

    return {"pbm": pbm_path, "svg": svg_path, **stats}


# --- contour extraction ------------------------------------------------------

# corner k of cell (j, i) is grid[j + CORNER_DJ[k], i + CORNER_DI[k]]; edge e
# runs from corner e to corner (e + 1) % 4
CORNER_DJ = np.array([0, 0, 1, 1])
CORNER_DI = np.array([0, 1, 1, 0])
# (edge, edge) pairs per case code; saddles 5 and 10 are listed for a centre
# value <= level and swap codes (5 <-> 10) when the centre lies above it
CASE_PAIRS = {
    1: [(3, 0)], 2: [(0, 1)], 3: [(3, 1)], 4: [(1, 2)], 5: [(3, 0), (1, 2)],
    6: [(0, 2)], 7: [(3, 2)], 8: [(2, 3)], 9: [(2, 0)], 10: [(0, 1), (2, 3)],
    11: [(2, 1)], 12: [(1, 3)], 13: [(1, 0)], 14: [(0, 3)],
}
PAIR_COUNT = np.array([len(CASE_PAIRS.get(c, ())) for c in range(16)])
PAIR_EDGES = np.zeros((16, 2, 2), dtype=np.int64)  # [case, pair, end]
for _case, _pairs in CASE_PAIRS.items():
    PAIR_EDGES[_case, :len(_pairs)] = _pairs


def _marching_squares(grid: np.ndarray, xs: np.ndarray, ys: np.ndarray, level: float):
    """Segment soup of the iso-line ``grid == level`` (grid indexed [j, i]).

    Cells are visited row-major and each crossed edge is interpolated as
    ``p_a + t (p_b - p_a)`` with ``t = (level - v_a) / (v_b - v_a)``.
    """
    v = [grid[:-1, :-1], grid[:-1, 1:], grid[1:, 1:], grid[1:, :-1]]  # corners 0-3
    case = sum((v[k] > level).astype(np.int64) << k for k in range(4))
    saddle = (case == 5) | (case == 10)
    centre = 0.25 * (((v[0][saddle] + v[1][saddle]) + v[2][saddle]) + v[3][saddle])
    case[saddle] = np.where(centre <= level, case[saddle], 15 - case[saddle])

    case = case.ravel()
    # each cell has two pair slots; keep the used ones in cell, then pair order
    seg_cell, seg_pair = np.divmod(np.flatnonzero(np.arange(2) < PAIR_COUNT[case][:, None]), 2)
    edge = PAIR_EDGES[case[seg_cell], seg_pair]  # (segments, 2)
    j, i = np.divmod(seg_cell, grid.shape[1] - 1)
    ja, ia = j[:, None] + CORNER_DJ[edge], i[:, None] + CORNER_DI[edge]
    jb, ib = j[:, None] + CORNER_DJ[(edge + 1) % 4], i[:, None] + CORNER_DI[(edge + 1) % 4]
    va, vb = grid[ja, ia], grid[jb, ib]
    t = (level - va) / (vb - va)
    px = (xs[ia] + t * (xs[ib] - xs[ia])).tolist()
    py = (ys[ja] + t * (ys[jb] - ys[ja])).tolist()
    return [((xa, ya), (xb, yb)) for (xa, xb), (ya, yb) in zip(px, py)]


def _chain_segments(segments, tol=1e-9):
    """Join a segment soup into polylines by matching endpoints.

    Endpoint e = 2 k + r is end r of segment k; its key is its coordinates
    over ``tol`` rounded half to even, as Python's ``round`` rounds them.
    """
    keys = list(map(tuple, np.rint(np.reshape(segments, (-1, 2)) / tol).tolist()))
    remaining = {}
    for e, k in enumerate(keys):
        remaining.setdefault(k, []).append((e >> 1, bool(e & 1)))
    used = [False] * len(segments)
    polylines = []
    for start in range(len(segments)):
        if used[start]:
            continue
        used[start] = True
        line = list(segments[start])
        for head, end in ((True, 2 * start + 1), (False, 2 * start)):
            while True:
                found = next(((idx, reverse) for idx, reverse in remaining[keys[end]]
                              if not used[idx]), None)
                if found is None:
                    break
                idx, reverse = found
                used[idx] = True
                end = 2 * idx + (not reverse)  # the far end of the matched segment
                if head:
                    line.append(segments[idx][not reverse])
                else:
                    line.insert(0, segments[idx][not reverse])
        polylines.append(line)
    return polylines


MIN_GRID_SIZE = 16


def check_grid_size(grid_size: int) -> None:
    """Reject a contour sampling grid too coarse to trace the levels."""
    if grid_size < MIN_GRID_SIZE:
        raise ValueError(f"contour sampling grid must be at least {MIN_GRID_SIZE} x {MIN_GRID_SIZE}")


def export_contours(
    mesh: Mesh,
    dofmap: DofMap,
    coefficients: np.ndarray,
    path_stem,
    bases: ElementBases,
    grid_size: int = 64,
) -> dict:
    """Sample the field on a uniform grid and write contour SVG + grid CSV.

    The levels are 8 equally spaced values between 0 and the sampled
    maximum, none when it is not positive. Returns paths and the polylines
    per level.

    The CSV has one ``x,y,psi`` line per grid point with every float as its
    ``repr``, byte for byte what the per-point reference writer in the tests
    writes. The x texts are formatted once, each grid row's ``,y,`` text
    once per row, and each grid row is one write.
    """
    check_grid_size(grid_size)
    xs = np.linspace(0.0, 1.0, grid_size)
    ys = np.linspace(0.0, 1.0, grid_size)
    gx, gy = np.meshgrid(xs, ys, indexing="xy")
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    vals = evaluate_field(mesh, dofmap, coefficients, pts, bases)
    grid = vals.reshape(grid_size, grid_size)

    vmax = float(grid.max())
    levels = [vmax * (k + 1) / 9.0 for k in range(8)] if vmax > 0 else []

    csv_path = f"{path_stem}.csv"
    with open(csv_path, "w") as f:
        f.write("x,y,psi\n")
        x_text = [repr(x) for x in xs.tolist()]
        for y, row in zip(ys.tolist(), grid):
            # lines "x,y,psi": x from its table, the row's ",y," text once
            f.write("".join(chain.from_iterable(zip(
                x_text, repeat(f",{y!r},"), map(repr, row.tolist()), repeat("\n")))))

    per_level = {}
    for level in levels:
        segs = _marching_squares(grid, xs, ys, level)
        per_level[level] = _chain_segments(segs)

    svg_path = f"{path_stem}.svg"
    size = 600
    with open(svg_path, "w") as f:
        f.write(
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size + 30}" '
            f'viewBox="0 0 {size} {size + 30}">\n'
        )
        f.write(f'<rect width="{size}" height="{size}" fill="white" stroke="black"/>\n')

        def sx(x):
            return x * (size - 40) + 20

        def sy(y):
            return size - 20 - y * (size - 40)

        for li, level in enumerate(levels):
            for line in per_level[level]:
                pts_str = " ".join(f"{sx(px):.2f},{sy(py):.2f}" for px, py in line)
                f.write(
                    f'<polyline points="{pts_str}" fill="none" stroke="black" '
                    f'stroke-width="1"/>\n'
                )
            f.write(
                f'<text x="{8 + 120 * (li % 5)}" y="{size + 14 + 14 * (li // 5)}" '
                f'font-size="11" font-family="monospace">L{li}={level:.6g}</text>\n'
            )
        f.write("</svg>\n")

    return {"svg": svg_path, "csv": csv_path, "levels": levels, "polylines": per_level}


# --- tables ------------------------------------------------------------------


def format_table(headers: list[str], rows: list[list]) -> str:
    """Fixed-width text table with floats at 6 significant digits."""
    def fmt(v):
        if isinstance(v, float):
            return f"{v:.6g}"
        return str(v)

    str_rows = [[fmt(v) for v in row] for row in rows]
    widths = [
        max(len(headers[c]), *(len(r[c]) for r in str_rows)) if str_rows else len(headers[c])
        for c in range(len(headers))
    ]
    lines = ["  ".join(h.ljust(widths[c]) for c, h in enumerate(headers))]
    lines.append("  ".join("-" * widths[c] for c in range(len(headers))))
    for r in str_rows:
        lines.append("  ".join(r[c].ljust(widths[c]) for c in range(len(headers))))
    return "\n".join(lines) + "\n"


def write_csv(path, headers: list[str], rows: list[list]) -> None:
    """CSV with full-precision floats."""
    with open(path, "w") as f:
        f.write(",".join(headers) + "\n")
        for row in rows:
            f.write(",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row) + "\n")
