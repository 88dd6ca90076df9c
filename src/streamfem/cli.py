"""Command-line entry point.

Subcommands: mesh-info, solve-biharmonic, solve-nse, compare-orderings,
export-sparsity, export-contours, convergence-table. All file outputs land
under --out-dir with deterministic names; wall-clock times are isolated in
timings.csv so every other file is bitwise reproducible.

Options may also come from a config file of key=value lines (--config);
precedence is defaults < config file < command-line flags.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace

import numpy as np

from .analysis import (
    compute_errors,
    export_contours,
    export_sparsity,
    format_table,
    write_csv,
)
from .assembly import ElementTables, assemble_biharmonic, assemble_convection, manufactured_rhs
from .mesh import OrderingScheme, build_uniform_mesh, enumerate_dofs, export_mesh_csv
from .picard import PicardConfig, PicardError, solve_biharmonic_problem, solve_linearized_nse
from .quadrature import SUPPORTED_POINT_COUNTS, rule as quad_rule
from .solvers import bandwidth_stats, write_matrix_market


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
    "minimal_bc": lambda s: s.lower() in ("1", "true", "yes"),
    "flip_sign_convention": lambda s: s.lower() in ("1", "true", "yes"),
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
        if not hasattr(args, key):
            continue  # key not relevant to this subcommand
        try:
            defaults[key] = _CONFIG_TYPES[key](val)
        except ValueError:
            parser.error(f"bad value for config key '{key}': {val!r}")
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
        ordering=OrderingScheme.from_int(args.ordering),
        linear_tol=args.linear_tol,
        minimal_bc=args.minimal_bc,
        flip_convention=args.flip_sign_convention,
    )


def _ensure_out_dir(args) -> "pathlib.Path":
    import pathlib

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


def cmd_solve_biharmonic(args) -> int:
    out = _ensure_out_dir(args)
    config = _config_from_args(args)
    mesh = build_uniform_mesh(args.n)
    t0 = time.perf_counter()
    coeffs, report = solve_biharmonic_problem(mesh, config, load=args.load)
    elapsed = time.perf_counter() - t0

    dofmap = enumerate_dofs(mesh, config.ordering, minimal_bc=config.minimal_bc)
    ms = manufactured_rhs(config.reynolds, flip_convention=config.flip_convention)
    errors = compute_errors(mesh, dofmap, coeffs, ms)

    (out / "solve_report.txt").write_text(
        report.as_text().replace(f"wall_time_s = {report.wall_time:.6f}\n", "")
    )
    (out / "error_report.txt").write_text(errors.as_text())
    np.save(out / "coefficients.npy", coeffs)
    _write_timings(out, [["solve", elapsed]])
    print(f"pcg iterations = {report.iterations:g}, converged = {report.converged}")
    print(errors.as_text(), end="")
    if not report.converged:
        print("error: PCG did not converge", file=sys.stderr)
        return 1
    return 0


def cmd_solve_nse(args) -> int:
    out = _ensure_out_dir(args)
    config = _config_from_args(args)
    mesh = build_uniform_mesh(args.n)
    t0 = time.perf_counter()
    try:
        coeffs, trace = solve_linearized_nse(mesh, config)
    except PicardError as exc:
        elapsed = time.perf_counter() - t0
        exc.trace.export_csv(out / "picard_trace.csv")
        _write_timings(out, [["solve", elapsed]])
        print(f"error: {exc}", file=sys.stderr)
        return 1
    elapsed = time.perf_counter() - t0

    dofmap = enumerate_dofs(mesh, config.ordering, minimal_bc=config.minimal_bc)
    ms = manufactured_rhs(config.reynolds, flip_convention=config.flip_convention)
    errors = compute_errors(mesh, dofmap, coeffs, ms)

    trace.export_csv(out / "picard_trace.csv")
    (out / "error_report.txt").write_text(errors.as_text())
    summary = (
        f"outer_iterations = {len(trace.iterations)}\n"
        f"converged = {str(trace.converged).lower()}\n"
        f"bicgstab_total_iterations = {trace.total_inner_iterations:g}\n"
        f"bicgstab_mean_iterations = {trace.mean_inner_iterations:g}\n"
        f"initial_pcg_iterations = {trace.initial_report.iterations:g}\n"
        f"total_flops = {trace.total_flops}\n"
    )
    (out / "picard_summary.txt").write_text(summary)
    np.save(out / "coefficients.npy", coeffs)
    _write_timings(out, [["solve", elapsed]])
    print(summary, end="")
    print(errors.as_text(), end="")
    if not trace.converged:
        print("error: fixed-point iteration did not converge", file=sys.stderr)
        return 1
    return 0


def cmd_compare_orderings(args) -> int:
    out = _ensure_out_dir(args)
    mesh = build_uniform_mesh(args.n)
    headers = [
        "ordering", "bandwidth", "profile", "nnz",
        "nco", "bicgstab_iter_mean", "bicgstab_iter_total", "outer_iters",
    ]
    rows = []
    timing_rows = []
    base = _config_from_args(args)
    q = quad_rule(base.n_quad_points)
    tables = ElementTables(mesh, q)
    for scheme in (1, 2, 3):
        config = replace(base, ordering=OrderingScheme.from_int(scheme))
        dofmap = enumerate_dofs(mesh, scheme, minimal_bc=config.minimal_bc)
        A = assemble_biharmonic(mesh, dofmap, q, config.reynolds, tables=tables)
        stats = bandwidth_stats(A.matrix)
        t0 = time.perf_counter()
        coeffs, trace = solve_linearized_nse(mesh, config)
        elapsed = time.perf_counter() - t0
        rows.append([
            scheme, stats["bandwidth"], stats["profile"], stats["nnz"],
            trace.total_flops, trace.mean_inner_iterations,
            trace.total_inner_iterations, len(trace.iterations),
        ])
        timing_rows.append([f"ordering_{scheme}", elapsed])
    table = format_table(headers, rows)
    (out / "ordering_study.txt").write_text(table)
    write_csv(out / "ordering_study.csv", headers, rows)
    _write_timings(out, timing_rows)
    print(table, end="")
    return 0


def cmd_export_sparsity(args) -> int:
    out = _ensure_out_dir(args)
    config = _config_from_args(args)
    mesh = build_uniform_mesh(args.n)
    dofmap = enumerate_dofs(mesh, args.ordering, minimal_bc=args.minimal_bc)
    q = quad_rule(args.nqp)
    if args.with_convection:
        # solve first, so the solve's own tables are freed before the shared
        # ones are built; both forms then use one set of bases and tables
        coeffs, _ = solve_biharmonic_problem(mesh, config)
        tables = ElementTables(mesh, q)
        A = assemble_biharmonic(mesh, dofmap, q, config.reynolds, tables=tables)
        B = assemble_convection(mesh, dofmap, q, coeffs, tables=tables,
                                flip_convention=args.flip_sign_convention)
        matrix = A.matrix + B.matrix
        stem = out / f"sparsity_nse_n{args.n}_ordering{args.ordering}"
    else:
        matrix = assemble_biharmonic(mesh, dofmap, q, config.reynolds).matrix
        stem = out / f"sparsity_biharmonic_n{args.n}_ordering{args.ordering}"
    result = export_sparsity(matrix, stem)
    write_matrix_market(matrix, f"{stem}.mtx")
    print(
        f"wrote {result['pbm']}, {result['svg']}, {stem}.mtx "
        f"(bandwidth={result['bandwidth']}, profile={result['profile']}, nnz={result['nnz']})"
    )
    return 0


def cmd_export_contours(args) -> int:
    out = _ensure_out_dir(args)
    config = _config_from_args(args)
    mesh = build_uniform_mesh(args.n)
    if args.problem == "nse":
        try:
            coeffs, _ = solve_linearized_nse(mesh, config)
        except PicardError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    else:
        coeffs, report = solve_biharmonic_problem(mesh, config)
        if not report.converged:
            print("error: PCG did not converge", file=sys.stderr)
            return 1
    dofmap = enumerate_dofs(mesh, config.ordering, minimal_bc=config.minimal_bc)
    stem = out / f"contours_{args.problem}_n{args.n}"
    result = export_contours(mesh, dofmap, coeffs, stem, grid_size=args.grid_size)
    print(f"wrote {result['svg']} and {result['csv']} ({len(result['levels'])} levels)")
    return 0


def cmd_convergence_table(args) -> int:
    from .analysis import run_tables

    out = _ensure_out_dir(args)
    ns = [int(s) for s in args.mesh_sizes.split(",")]
    configs = [(build_uniform_mesh(n), _config_from_args(args)) for n in ns]
    result = run_tables(configs, problem=args.problem, load=args.load)
    name = f"table_{args.problem}_nqp{args.nqp}"
    (out / f"{name}.txt").write_text(result["text"])
    write_csv(out / f"{name}.csv", result["headers"], result["rows"])
    print(result["text"], end="")
    return 0


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

    p = command("solve-biharmonic", cmd_solve_biharmonic, "solve the biharmonic problem with PCG")
    p.add_argument("--load", choices=("full", "stokes", "zero"), default="full")

    command("solve-nse", cmd_solve_nse, "run the fixed-point iteration with BiCGSTAB")
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
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
