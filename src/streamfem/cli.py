"""Command-line entry point.

Subcommands: mesh-info, solve-biharmonic, solve-nse, compare-orderings,
export-sparsity, export-contours, convergence-table. All file outputs land
under --out-dir with deterministic names; wall-clock times are isolated in
timings.csv so every other file is bitwise reproducible. A command whose
solve does not converge says so on stderr and exits 1; bad input exits 2.

Options may also come from a config file of key=value lines (--config);
precedence is defaults < config file < command-line flags.
"""

from __future__ import annotations

import argparse
import math
import pathlib
import sys
import time
from dataclasses import replace

import numpy as np

from .analysis import (
    check_grid_size,
    compute_errors,
    export_contours,
    export_sparsity,
    format_table,
    pbm_bytes,
    write_csv,
)
from .argyris import build_all_bases
from .assembly import EXACT, ScatterPlan, assemble_biharmonic
from .mesh import build_uniform_mesh, enumerate_dofs, export_mesh_csv
from .picard import PicardConfig, discretize, solve_biharmonic_problem, solve_linearized_nse
from .quadrature import SUPPORTED_POINT_COUNTS, rule as quad_rule
from .solvers import bandwidth_stats, write_matrix_market

PCG_FAILED = "PCG did not converge"
PICARD_FAILED = "fixed-point iteration did not converge"

# Size bounds: a run's largest allocation stays within MEMORY_BUDGET (see
# the README). For a mesh of n x n cells the bound is 58,800 n^2 bytes, the
# size of the seven (2 n^2, 25, 21) float64 tables the error pass held
# before it was streamed; kept as a conservative cap. The largest step is
# now the scatter plan build, 20 bytes per element-matrix entry with a free
# row and column, at most 17,640 n^2 bytes. It runs before the bases, tables
# and matrices exist: 16.0 MiB traced at n = 32, alone. The convection step,
# one element stack beside A, the plan and the tables, peaks at 26.7 MiB in
# all, and BiCGSTAB at 22.5 MiB: every matrix shares the plan's indices.
# For a G x G contour grid it is the field sampling, which peaked at 61-86
# bytes per grid point (tracemalloc, G = 128 to 1024), taken as 96. The same
# budget bounds the disk of export-sparsity's largest file, its PBM.
MEMORY_BUDGET = 2**30
MAX_N = math.isqrt(MEMORY_BUDGET // (7 * 2 * 25 * 21 * 8))
MAX_GRID_SIZE = math.isqrt(MEMORY_BUDGET // 96)


def _read_config_file(path) -> dict:
    values = {}
    with open(path) as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, val = (s.strip() for s in line.split("=", 1))
            values[key.replace("-", "_")] = val
    return values


_BOOLEANS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}
_CONFIG_TYPES = {
    "n": int,
    "reynolds": float,
    "tol": float,
    "linear_tol": float,
    "max_outer": int,
    "nqp": int,
    "ordering": int,
    "out_dir": str,
    "grid_size": int,
    "minimal_bc": lambda s: _BOOLEANS[s.lower()],
    "flip_sign_convention": lambda s: _BOOLEANS[s.lower()],
}


def _config_defaults(args: argparse.Namespace, parser: argparse.ArgumentParser) -> dict:
    """The config file's values, converted, for the options of the chosen subcommand."""
    try:
        raw = _read_config_file(args.config)
    except OSError as exc:
        parser.error(f"cannot read config file: {exc}")
    except ValueError as exc:
        parser.error(str(exc))
    defaults = {}
    for key, val in raw.items():
        if key not in _CONFIG_TYPES:
            parser.error(f"unknown config key '{key}'")
        try:
            value = _CONFIG_TYPES[key](val)
        except (KeyError, ValueError):
            parser.error(f"bad value for config key '{key}': {val!r}")
        if hasattr(args, key):  # keys of other subcommands are checked, not used
            defaults[key] = value
    return defaults


def _add_common(p):
    p.add_argument("--n", type=int, default=3, help="mesh subdivisions per side (h = 1/n)")
    p.add_argument("--re", "--reynolds", dest="reynolds", type=float, default=1.0)
    p.add_argument("--tol", type=float, default=1e-5, help="outer-iteration tolerance")
    p.add_argument("--linear-tol", dest="linear_tol", type=float, default=None,
                   help="linear solver tolerance (default: same as --tol)")
    p.add_argument("--max-outer", dest="max_outer", type=int, default=50)
    p.add_argument("--nqp", type=int, default=6, choices=SUPPORTED_POINT_COUNTS,
                   help="assembly quadrature points per triangle")
    p.add_argument("--ordering", type=int, default=1, choices=(1, 2, 3))
    p.add_argument("--out-dir", dest="out_dir", default="out")
    p.add_argument("--config", default=None, help="key=value config file")
    p.add_argument("--minimal-bc", dest="minimal_bc", action="store_true",
                   help="clamp only the mathematically required boundary DOFs")
    p.add_argument("--flip-sign-convention", dest="flip_sign_convention", action="store_true",
                   help="negate the convection form and the convective forcing term")


def _config_from_args(args) -> PicardConfig:
    return PicardConfig(
        reynolds=args.reynolds,
        tol=args.tol,
        max_outer=args.max_outer,
        n_quad_points=args.nqp,
        ordering=args.ordering,
        linear_tol=args.linear_tol,
        minimal_bc=args.minimal_bc,
        flip_convention=args.flip_sign_convention,
    )


def _mesh_sizes(args) -> list[int]:
    return [int(s) for s in args.mesh_sizes.split(",")]


def _check_sizes(args) -> None:
    """Reject a size out of its bounds before any mesh, table or grid exists."""
    sizes = [("--n", args.n, MAX_N)]
    if hasattr(args, "mesh_sizes"):
        sizes += [("--mesh-sizes", n, MAX_N) for n in _mesh_sizes(args)]
    if hasattr(args, "grid_size"):
        check_grid_size(args.grid_size)
        sizes.append(("--grid-size", args.grid_size, MAX_GRID_SIZE))
    for option, value, limit in sizes:
        if value > limit:
            raise ValueError(f"{option} {value} is above the limit {limit} "
                             f"(memory budget {MEMORY_BUDGET // 2**20} MiB)")


def _ensure_out_dir(args) -> pathlib.Path:
    """Make --out-dir just before the first write: a run that exits 2 makes none."""
    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_timings(out_dir, rows) -> None:
    write_csv(out_dir / "timings.csv", ["step", "seconds"], rows)


def cmd_mesh_info(args) -> int:
    mesh = build_uniform_mesh(args.n)
    dofmap = enumerate_dofs(mesh, args.ordering, minimal_bc=args.minimal_bc)
    print(mesh.summary())
    print(
        f"ordering scheme {args.ordering} ({dofmap.scheme.name}): "
        f"{dofmap.total_dofs} DOFs, {int(dofmap.constrained.sum())} constrained, "
        f"{dofmap.num_free} free"
    )
    if args.csv:
        out = _ensure_out_dir(args)
        paths = export_mesh_csv(mesh, dofmap, out)
        for p in paths:
            print(f"wrote {p}")
    return 0


def _fail(message) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _solve(disc, problem: str, load: str = "full"):
    """Solve the 'biharmonic' (PCG) or 'nse' (fixed-point) problem on ``disc``.

    Returns (full-DOF coefficients, SolveReport or PicardTrace, failure
    message or None); a failed solve still returns its last iterate.
    """
    if problem == "nse":
        coeffs, trace = solve_linearized_nse(disc)
        return coeffs, trace, trace.failure or (None if trace.converged else PICARD_FAILED)
    coeffs, report = solve_biharmonic_problem(disc, load=load)
    return coeffs, report, None if report.converged else PCG_FAILED


def cmd_solve(args) -> int:
    """solve-biharmonic or solve-nse, as ``args.problem`` selects; a failed
    solve writes the same files as a converged one."""
    config = _config_from_args(args)
    mesh = build_uniform_mesh(args.n)
    t0 = time.perf_counter()
    disc = discretize(mesh, config)
    coeffs, result, failure = _solve(disc, args.problem, args.load)
    elapsed = time.perf_counter() - t0
    dofmap = disc.dofmap
    del disc  # free its tables and A before the error pass builds its own tables
    errors = compute_errors(mesh, dofmap, coeffs, EXACT)
    out = _ensure_out_dir(args)
    if args.problem == "nse":
        result.export_csv(out / "picard_trace.csv")
        summary = (
            f"outer_iterations = {len(result.iterations)}\n"
            f"converged = {str(result.converged).lower()}\n"
            f"bicgstab_total_iterations = {result.total_inner_iterations:g}\n"
            f"bicgstab_mean_iterations = {result.mean_inner_iterations:g}\n"
            f"initial_pcg_iterations = {result.initial_report.iterations:g}\n"
            f"total_flops = {result.total_flops}\n"
        ) + (f"failure = {failure}\n" if failure else "")
        (out / "picard_summary.txt").write_text(summary)
        print(summary, end="")
    else:
        (out / "solve_report.txt").write_text(result.as_text())
        print(f"pcg iterations = {result.iterations:g}, converged = {result.converged}")
    (out / "error_report.txt").write_text(errors.as_text())
    np.save(out / "coefficients.npy", coeffs)
    _write_timings(out, [["solve", elapsed]])
    print(errors.as_text(), end="")
    return _fail(failure) if failure else 0


def cmd_compare_orderings(args) -> int:
    mesh = build_uniform_mesh(args.n)
    headers = [
        "ordering", "bandwidth", "profile", "nnz",
        "nco", "bicgstab_iter_mean", "bicgstab_iter_total", "outer_iters", "status",
    ]
    rows = []
    timing_rows = []
    failures = []
    base = _config_from_args(args)
    # the element bases do not depend on the ordering: built once, outside
    # the timed steps, and shared by the three discretizations
    bases = build_all_bases(mesh)
    for scheme in (1, 2, 3):
        t0 = time.perf_counter()
        disc = discretize(mesh, replace(base, ordering=scheme), bases)
        _, trace, failure = _solve(disc, "nse")
        if failure:
            failures.append(f"ordering {scheme}: {failure}")
        elapsed = time.perf_counter() - t0
        stats = bandwidth_stats(disc.A)
        del disc  # its plan and A are freed before the next ordering's are built
        rows.append([
            scheme, stats["bandwidth"], stats["profile"], stats["nnz"],
            trace.total_flops, trace.mean_inner_iterations,
            trace.total_inner_iterations, len(trace.iterations),
            "failed" if trace.failure else "converged" if trace.converged else "not converged",
        ])
        timing_rows.append([f"ordering_{scheme}", elapsed])
    table = format_table(headers, rows)
    out = _ensure_out_dir(args)
    (out / "ordering_study.txt").write_text(table)
    write_csv(out / "ordering_study.csv", headers, rows)
    _write_timings(out, timing_rows)
    print(table, end="")
    for failure in failures:
        print(f"error: {failure}", file=sys.stderr)
    return 1 if failures else 0


def cmd_export_sparsity(args) -> int:
    config = _config_from_args(args)
    mesh = build_uniform_mesh(args.n)
    dofmap = enumerate_dofs(mesh, config.ordering, minimal_bc=config.minimal_bc)
    size = pbm_bytes(dofmap.num_free)  # checked before any matrix or file exists
    if size > MEMORY_BUDGET:
        raise ValueError(f"--n {args.n}: the sparsity PBM would take {size:,} bytes, above "
                         f"the disk bound of {MEMORY_BUDGET // 2**20} MiB")
    if args.with_convection:
        disc = discretize(mesh, config)
        coeffs, _, failure = _solve(disc, "biharmonic")
        if failure:
            return _fail(failure)
        matrix = disc.operator(coeffs)
        name = f"sparsity_nse_n{args.n}_ordering{args.ordering}"
    else:
        # only A is needed: no n.q.p. tables, which would add to this op's peak
        # memory. The plan is built first, so its build peak comes before the
        # bases exist: peak RSS moves with the order of allocation
        plan = ScatterPlan.build(mesh, dofmap)
        matrix = assemble_biharmonic(plan, quad_rule(config.n_quad_points), config.reynolds)
        name = f"sparsity_biharmonic_n{args.n}_ordering{args.ordering}"
    stem = _ensure_out_dir(args) / name
    result = export_sparsity(matrix, stem)
    write_matrix_market(matrix, f"{stem}.mtx")
    print(
        f"wrote {result['pbm']}, {result['svg']}, {stem}.mtx "
        f"(bandwidth={result['bandwidth']}, profile={result['profile']}, nnz={result['nnz']})"
    )
    return 0


def cmd_export_contours(args) -> int:
    config = _config_from_args(args)
    mesh = build_uniform_mesh(args.n)
    bases = build_all_bases(mesh)  # kept for the field evaluation after the solve
    disc = discretize(mesh, config, bases=bases)
    coeffs, _, failure = _solve(disc, args.problem)
    if failure:
        return _fail(failure)
    stem = _ensure_out_dir(args) / f"contours_{args.problem}_n{args.n}"
    result = export_contours(mesh, disc.dofmap, coeffs, stem, bases, grid_size=args.grid_size)
    print(f"wrote {result['svg']} and {result['csv']} ({len(result['levels'])} levels)")
    return 0


BIHARMONIC_TABLE_HEADERS = [
    "h", "nqp", "ordering", "status", "nco", "error_nodal_max", "l2", "pcg_itr",
]
NSE_TABLE_HEADERS = [
    "h", "nqp", "ordering", "status", "nco", "l2", "h1_semi", "h2_semi",
    "bicgstab_itr_mean", "bicgstab_itr_total", "outer_iters",
]


def run_tables(configs, problem: str = "biharmonic", load: str = "full"):
    """Solve one problem per (mesh, PicardConfig) pair and tabulate the results.

    Row layout mirrors the reference tables: mesh size, quadrature points,
    operation count, errors (both the vertex-value max and the L2 norm are
    emitted) and iteration counts. A failed solve marks its row and the run
    continues. Wall times are kept apart from the rows, one ``n_<n>`` step
    per mesh, so the table is bitwise reproducible.

    Returns {'headers', 'rows', 'text', 'timings'}.
    """
    if problem not in ("biharmonic", "nse"):
        raise ValueError(f"unknown problem '{problem}'")
    headers = BIHARMONIC_TABLE_HEADERS if problem == "biharmonic" else NSE_TABLE_HEADERS
    rows, timings = [], []
    for mesh, config in configs:
        t0 = time.perf_counter()
        base = [f"1/{mesh.n}", config.n_quad_points, config.ordering.value]
        disc = discretize(mesh, config)
        coeffs, result, failure = _solve(disc, problem, load)
        timings.append([f"n_{mesh.n}", time.perf_counter() - t0])
        dofmap = disc.dofmap
        del disc  # free its tables and A before the error pass and the next mesh
        if problem == "nse" and result.failure:  # stopped early: the row names why
            rows.append(base + [f"failed: {failure}"] + [""] * (len(headers) - 4))
            continue
        status = "ok" if failure is None else "not-converged"
        errors = compute_errors(mesh, dofmap, coeffs, EXACT)
        if problem == "biharmonic":
            rows.append(base + [status, result.flops, errors.nodal_max, errors.l2,
                                result.iterations])
        else:
            rows.append(base + [status, result.total_flops, errors.l2, errors.h1_semi,
                                errors.h2_semi, result.mean_inner_iterations,
                                result.total_inner_iterations, len(result.iterations)])
    return {"headers": headers, "rows": rows, "text": format_table(headers, rows),
            "timings": timings}


def cmd_convergence_table(args) -> int:
    configs = [(build_uniform_mesh(n), _config_from_args(args)) for n in _mesh_sizes(args)]
    result = run_tables(configs, problem=args.problem, load=args.load)
    name = f"table_{args.problem}_nqp{args.nqp}"
    out = _ensure_out_dir(args)
    (out / f"{name}.txt").write_text(result["text"])
    write_csv(out / f"{name}.csv", result["headers"], result["rows"])
    _write_timings(out, result["timings"])
    print(result["text"], end="")
    failed = [row[0] for row in result["rows"] if row[3] != "ok"]
    return _fail(f"no converged solve at h = {', '.join(failed)}") if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="streamfem",
        description="Argyris stream-function solver on the unit square",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        p = sub.add_parser(name, help=help)
        _add_common(p)
        p.set_defaults(func=func, command_parser=p)
        return p

    p = command("mesh-info", cmd_mesh_info, "mesh and DOF numbering summary")
    p.add_argument("--csv", action="store_true", help="also write entity CSVs to --out-dir")

    p = command("solve-biharmonic", cmd_solve, "solve the biharmonic problem with PCG")
    p.add_argument("--load", choices=("full", "stokes", "zero"), default="full")
    p.set_defaults(problem="biharmonic")

    p = command("solve-nse", cmd_solve, "run the fixed-point iteration with BiCGSTAB")
    p.set_defaults(problem="nse", load="full")
    command("compare-orderings", cmd_compare_orderings,
            "bandwidth/ops study over the three orderings")

    p = command("export-sparsity", cmd_export_sparsity,
                "write the sparsity pattern (PBM/SVG/MatrixMarket)")
    p.add_argument("--with-convection", action="store_true",
                   help="pattern of the full linearized matrix instead of the viscous form")

    p = command("export-contours", cmd_export_contours,
                "stream-function contours (SVG + grid CSV)")
    p.add_argument("--problem", choices=("biharmonic", "nse"), default="nse")
    p.add_argument("--grid-size", dest="grid_size", type=int, default=64)

    p = command("convergence-table", cmd_convergence_table,
                "error/iteration tables over mesh sizes")
    p.add_argument("--problem", choices=("biharmonic", "nse"), default="biharmonic")
    p.add_argument("--mesh-sizes", dest="mesh_sizes", default="3,5,9",
                   help="comma-separated n values")
    p.add_argument("--load", choices=("full", "stokes", "zero"), default="full")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        # the file's values become the subcommand's defaults and the argv is
        # parsed again, so argparse ranks defaults < config file < flags
        args.command_parser.set_defaults(**_config_defaults(args, parser))
        args = parser.parse_args(argv)
    try:
        _check_sizes(args)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
