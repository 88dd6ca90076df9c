"""Error norms, field evaluation and figure/table exports.

Error norms are always integrated with the degree-10 verification rule so
that reported errors measure the discretization, not the assembly
quadrature. The H2 seminorm uses the multi-index convention
(e_xx^2 + e_xy^2 + e_yy^2). Sparsity patterns are written as bit-exact PBM
plus annotated SVG; the PBM is streamed by blocks of ``ROW_BLOCK`` matrix
rows, so no N x N grid is held in memory. Stream-function contours come
from marching squares, one vectorized pass over all cells of a uniform
sampling grid, and are written as SVG plus a full-precision CSV of the
grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .argyris import ElementBases, build_all_bases
from .assembly import ElementTables
from .mesh import DofMap, Mesh
from .quadrature import rule as quad_rule
from .solvers import WRITE_CHUNK, SparseMatrix

VERIFICATION_RULE_POINTS = 25


@dataclass(frozen=True)
class ErrorReport:
    """L2, H1/H2 seminorm and vertex-value errors against an exact field."""

    l2: float
    h1_semi: float
    h2_semi: float
    nodal_max: float
    n_quad_points: int = VERIFICATION_RULE_POINTS

    def as_text(self) -> str:
        return (
            f"l2 = {self.l2:.6g}\n"
            f"h1_semi = {self.h1_semi:.6g}\n"
            f"h2_semi = {self.h2_semi:.6g}\n"
            f"nodal_max = {self.nodal_max:.6g}\n"
            f"error_quadrature_points = {self.n_quad_points}\n"
        )


def compute_errors(
    mesh: Mesh,
    dofmap: DofMap,
    coefficients: np.ndarray,
    exact,
    tables: ElementTables | None = None,
) -> ErrorReport:
    """Integrate (psi_h - psi)^2 and derivative differences elementwise.

    ``exact`` provides exact, exact_dx, ..., exact_dyy callables (the
    manufactured-solution object or anything with the same attributes).
    """
    coefficients = np.asarray(coefficients, dtype=float)
    if coefficients.shape != (dofmap.total_dofs,):
        raise ValueError(
            f"coefficient vector must have length {dofmap.total_dofs}, "
            f"got {coefficients.shape}"
        )
    if tables is None:
        tables = ElementTables(
            mesh, quad_rule(VERIFICATION_RULE_POINTS), second_derivatives=True, values=True
        )
    if not hasattr(tables, "values") or not hasattr(tables, "dxy"):
        raise ValueError("error integration needs tables with values and second derivatives")

    tri_dofs = tables.dof_arrays(dofmap)
    local = coefficients[tri_dofs]  # (T, 21)

    x = tables.points[:, :, 0]
    y = tables.points[:, :, 1]
    w = tables.weights

    def field(tab):
        return np.einsum("tqk,tk->tq", tab, local)

    e_val = field(tables.values) - exact.exact(x, y)
    e_dx = field(tables.dx) - exact.exact_dx(x, y)
    e_dy = field(tables.dy) - exact.exact_dy(x, y)
    e_dxx = field(tables.dxx) - exact.exact_dxx(x, y)
    e_dxy = field(tables.dxy) - exact.exact_dxy(x, y)
    e_dyy = field(tables.dyy) - exact.exact_dyy(x, y)

    l2 = float(np.sqrt(np.sum(w * e_val ** 2)))
    h1 = float(np.sqrt(np.sum(w * (e_dx ** 2 + e_dy ** 2))))
    h2 = float(np.sqrt(np.sum(w * (e_dxx ** 2 + e_dxy ** 2 + e_dyy ** 2))))

    vx, vy = mesh.vertices[:, 0], mesh.vertices[:, 1]
    nodal = coefficients[dofmap.vertex_dofs[:, 0]] - exact.exact(vx, vy)
    nodal_max = float(np.abs(nodal).max())

    return ErrorReport(l2=l2, h1_semi=h1, h2_semi=h2, nodal_max=nodal_max,
                       n_quad_points=tables.rule.n_points)


def _locate(mesh: Mesh, points: np.ndarray) -> np.ndarray:
    """Triangle index containing each point of the unit square."""
    x, y = points[:, 0], points[:, 1]
    if np.any((x < 0) | (x > 1) | (y < 0) | (y > 1)):
        bad = points[(x < 0) | (x > 1) | (y < 0) | (y > 1)][0]
        raise ValueError(f"point {tuple(bad)} lies outside the unit square")
    n = mesh.n
    i = np.minimum((x * n).astype(np.int64), n - 1)
    j = np.minimum((y * n).astype(np.int64), n - 1)
    xi = x * n - i
    eta = y * n - j
    lower = eta <= xi  # cells split along the bottom-left/top-right diagonal
    return 2 * (j * n + i) + np.where(lower, 0, 1)


def evaluate_field(
    mesh: Mesh,
    dofmap: DofMap,
    coefficients: np.ndarray,
    points,
    bases: ElementBases | None = None,
    gradient: bool = False,
):
    """Evaluate the Argyris field (optionally its gradient) at given points.

    Points must lie in the closed unit square; points outside are rejected.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    coefficients = np.asarray(coefficients, dtype=float)
    if bases is None:
        bases = build_all_bases(mesh)
    tri = _locate(mesh, pts)
    values = np.empty(len(pts))
    grads = np.empty((len(pts), 2)) if gradient else None
    orders = (("value", (0, 0)), ("dx", (1, 0)), ("dy", (0, 1))) if gradient else (("value", (0, 0)),)
    for t in np.unique(tri):
        sel = np.flatnonzero(tri == t)
        tab = bases[t].evaluate(pts[sel], orders)
        local = coefficients[dofmap.triangle_dofs(mesh, t)]
        values[sel] = tab["value"] @ local
        if gradient:
            grads[sel, 0] = tab["dx"] @ local
            grads[sel, 1] = tab["dy"] @ local
    if gradient:
        return values, grads
    return values


# --- sparsity pattern export -------------------------------------------------

ROW_BLOCK = 256  # matrix rows per PBM write


def export_sparsity(A: SparseMatrix, path_stem) -> dict:
    """Write the nonzero pattern as <stem>.pbm and <stem>.svg.

    The PBM has one pixel per matrix entry (1 = stored nonzero) and is
    bit-exact reproducible; the SVG carries a bandwidth annotation.
    Returns the written paths and the bandwidth statistics.
    """
    from .solvers import bandwidth_stats

    stats = bandwidth_stats(A)
    n = A.dimension
    indptr, cols = A.indptr, A.indices
    rows = np.repeat(np.arange(n), np.diff(indptr))

    pbm_path = f"{path_stem}.pbm"
    with open(pbm_path, "wb") as f:
        f.write(f"P1\n{n} {n}\n".encode())
        for r0 in range(0, n, ROW_BLOCK):
            r1 = min(r0 + ROW_BLOCK, n)
            block = np.full((r1 - r0, n + 1), ord("0"), dtype=np.uint8)
            block[:, n] = ord("\n")
            lo, hi = indptr[r0], indptr[r1]
            block[rows[lo:hi] - r0, cols[lo:hi]] = ord("1")
            f.write(block.tobytes())

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
        for k in range(0, len(cols), WRITE_CHUNK):
            xs = (cols[k:k + WRITE_CHUNK] * cell).tolist()
            ys = (rows[k:k + WRITE_CHUNK] * cell).tolist()
            f.write("".join(
                f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" fill="black"/>\n'
                for x, y in zip(xs, ys)
            ))
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
    """Join a segment soup into polylines by matching endpoints."""
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


def export_contours(
    mesh: Mesh,
    dofmap: DofMap,
    coefficients: np.ndarray,
    path_stem,
    levels=None,
    grid_size: int = 64,
    bases: ElementBases | None = None,
) -> dict:
    """Sample the field on a uniform grid and write contour SVG + grid CSV.

    ``levels=None`` picks 8 equally spaced levels between 0 and the sampled
    maximum. Returns paths and the polylines per level.
    """
    if grid_size < 16:
        raise ValueError("contour sampling grid must be at least 16 x 16")
    xs = np.linspace(0.0, 1.0, grid_size)
    ys = np.linspace(0.0, 1.0, grid_size)
    gx, gy = np.meshgrid(xs, ys, indexing="xy")
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    vals = evaluate_field(mesh, dofmap, coefficients, pts, bases=bases)
    grid = vals.reshape(grid_size, grid_size)

    if levels is None:
        vmax = float(grid.max())
        levels = [vmax * (k + 1) / 9.0 for k in range(8)] if vmax > 0 else []
    levels = [float(l) for l in levels]

    csv_path = f"{path_stem}.csv"
    with open(csv_path, "w") as f:
        f.write("x,y,psi\n")
        x_text = [repr(x) for x in xs.tolist()]
        for y, row in zip(ys.tolist(), grid):
            f.write("".join(f"{x},{y!r},{psi!r}\n" for x, psi in zip(x_text, row.tolist())))

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

BIHARMONIC_TABLE_HEADERS = [
    "h", "nqp", "ordering", "status", "nco", "error_nodal_max", "l2",
    "pcg_itr", "cpu_s",
]
NSE_TABLE_HEADERS = [
    "h", "nqp", "ordering", "status", "nco", "l2", "h1_semi", "h2_semi",
    "bicgstab_itr_mean", "bicgstab_itr_total", "outer_iters", "cpu_s",
]


def run_tables(configs, problem: str = "biharmonic", load: str = "full"):
    """Solve one problem per (n, PicardConfig) pair and tabulate the results.

    Row layout mirrors the reference tables: mesh size, quadrature points,
    operation count, errors (both the vertex-value max and the L2 norm are
    emitted) and iteration counts, with wall time isolated in the last
    column. A failed solve marks its row and the run continues.

    Returns {'headers', 'rows', 'text'}.
    """
    import time as _time

    from .picard import PicardError, solve_biharmonic_problem, solve_linearized_nse

    if problem not in ("biharmonic", "nse"):
        raise ValueError(f"unknown problem '{problem}'")
    headers = BIHARMONIC_TABLE_HEADERS if problem == "biharmonic" else NSE_TABLE_HEADERS
    rows = []
    for mesh, config in configs:
        dofmap = None
        t0 = _time.perf_counter()
        scheme = config.ordering if isinstance(config.ordering, int) else config.ordering.value
        base = [f"1/{mesh.n}", config.n_quad_points, scheme]
        try:
            if problem == "biharmonic":
                coeffs, report = solve_biharmonic_problem(mesh, config, load=load)
                status = "ok" if report.converged else "not-converged"
            else:
                coeffs, trace = solve_linearized_nse(mesh, config)
                status = "ok" if trace.converged else "not-converged"
        except PicardError as exc:
            rows.append(base + [f"failed: {exc}"] + [""] * (len(headers) - 5)
                        + [_time.perf_counter() - t0])
            continue
        elapsed = _time.perf_counter() - t0
        from .assembly import manufactured_rhs
        from .mesh import enumerate_dofs

        dofmap = enumerate_dofs(mesh, config.ordering, minimal_bc=config.minimal_bc)
        ms = manufactured_rhs(config.reynolds, flip_convention=config.flip_convention)
        errors = compute_errors(mesh, dofmap, coeffs, ms)
        if problem == "biharmonic":
            rows.append(base + [status, report.flops, errors.nodal_max, errors.l2,
                                report.iterations, elapsed])
        else:
            rows.append(base + [status, trace.total_flops, errors.l2, errors.h1_semi,
                                errors.h2_semi, trace.mean_inner_iterations,
                                trace.total_inner_iterations, len(trace.iterations),
                                elapsed])
    return {"headers": headers, "rows": rows, "text": format_table(headers, rows)}


def format_table(headers: list[str], rows: list[list], sig: int = 6) -> str:
    """Fixed-width text table with floats at ``sig`` significant digits."""
    def fmt(v):
        if isinstance(v, float):
            return f"{v:.{sig}g}"
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
