"""Output checks and exact work counters for one CLI op.

``check_op(argv, out_dir)`` reads what the op wrote and returns an
``OpCheck``: whether the outputs are correct, why not, the work counters
that must repeat exactly for the same argv, and the bytes written.

References:

* n in {3, 5, 9}: the published tables the acceptance suite also uses
  (TABLE_61 for ``solve-biharmonic --nqp 4``, TABLE_63 for
  ``solve-nse --nqp 6``), with the same factor-5 acceptance bands.
* Larger or other meshes: L2/H1/H2 errors recorded from this code, which
  must match within ``RECORDED_RTOL``. Across the three orderings and both
  sign conventions the recorded errors differ by at most 0.21% (L2 of the
  Stokes run at n = 6, where the error is near the PCG tolerance), so the
  tolerance is about five times that spread.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

# (vertex-value max error, PCG iterations) for solve-biharmonic --nqp 4
TABLE_61 = {3: (1.644e-4, 72), 5: (1.899e-4, 211), 9: (1.376e-4, 437)}
# (L2, H1, H2) errors for solve-nse --nqp 6 --re 1
TABLE_63 = {
    3: (2.589e-4, 1.294e-3, 1.692e-2),
    5: (2.148e-4, 1.062e-3, 1.048e-2),
    9: (1.423e-4, 6.986e-4, 6.016e-3),
}
TABLE_BAND = 5.0
ITERATION_BAND = (0.5, 1.5)

# (L2, H1, H2) errors recorded from this code (ordering 1)
RECORDED_ERRORS = {
    ("stokes", 4): (1.08458e-06, 2.60436e-05, 0.000795895),
    ("stokes", 6): (7.92432e-08, 3.13368e-06, 0.00015053),
    ("stokes", 8): (1.23808e-08, 6.83772e-07, 4.5202e-05),
    ("nse", 32): (2.39612e-05, 0.000109338, 0.00678081),
}
RECORDED_RTOL = 1e-2

# free DOFs with all boundary slots clamped (independent of the ordering)
FREE_DOFS = {12: 1134, 16: 2086}
MAX_OUTER = 50  # the CLI default; outer_iters below it means converged
# largest sampled stream function of export-contours, recorded from this code:
# (problem, n, grid size) -> max psi. The exact field peaks at 1/256; the
# n = 8 solutions sit 4.6% below it at the grid points nearest the centre.
RECORDED_PSI_MAX = {
    ("nse", 8, 128): 0.00372547,
    ("biharmonic", 8, 96): 0.00372472,
}

TIMING_FILE = "timings.csv"  # the only output holding wall-clock times


class CheckFailed(Exception):
    pass


@dataclass
class OpCheck:
    ok: bool
    reason: str | None = None
    counters: dict = field(default_factory=dict)
    out_bytes: int = 0
    bicgstab_iterations: float | None = None


def _opt(argv: list[str], flag: str, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def _kv(path: Path) -> dict[str, str]:
    out = {}
    for line in path.read_text().splitlines():
        if "=" in line:
            key, val = (s.strip() for s in line.split("=", 1))
            out[key] = val
    return out


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _errors(out: Path) -> tuple[float, float, float, float]:
    e = _kv(out / "error_report.txt")
    return float(e["l2"]), float(e["h1_semi"]), float(e["h2_semi"]), float(e["nodal_max"])


def _in_band(got: float, ref: float, label: str) -> None:
    _require(ref / TABLE_BAND <= got <= ref * TABLE_BAND,
             f"{label} {got:.4g} outside [{ref / TABLE_BAND:.4g}, {ref * TABLE_BAND:.4g}]")


def _matches_recorded(errors, key) -> None:
    _require(key in RECORDED_ERRORS, f"no reference errors for {key}")
    for got, ref, label in zip(errors, RECORDED_ERRORS[key], ("l2", "h1", "h2")):
        _require(abs(got - ref) <= RECORDED_RTOL * ref,
                 f"{label} {got:.6g} differs from recorded {ref:.6g} by more than "
                 f"{RECORDED_RTOL:g} relative")


def _check_biharmonic(argv, out, counters):
    rep = _kv(out / "solve_report.txt")
    _require(rep["converged"] == "true", "PCG did not converge")
    _require((out / "coefficients.npy").is_file(), "coefficients.npy missing")
    n = int(_opt(argv, "--n"))
    l2, h1, h2, nodal = _errors(out)
    iterations = float(rep["iterations"])
    if _opt(argv, "--load", "full") == "stokes":
        _matches_recorded((l2, h1, h2), ("stokes", n))
    else:
        _require(n in TABLE_61 and _opt(argv, "--nqp") == "4", f"no reference for {argv}")
        ref_err, ref_it = TABLE_61[n]
        _in_band(nodal, ref_err, "vertex-value error")
        lo, hi = ITERATION_BAND
        _require(lo * ref_it <= iterations <= hi * ref_it,
                 f"PCG iterations {iterations:g} outside [{lo * ref_it:g}, {hi * ref_it:g}]")
    counters.update(pcg_iterations=iterations, flops=int(rep["flops"]),
                    matvecs=int(rep["matvecs"]), inner_products=int(rep["inner_products"]))
    return None


def _check_nse(argv, out, counters):
    s = _kv(out / "picard_summary.txt")
    _require(s["converged"] == "true", "fixed-point iteration did not converge")
    _require((out / "coefficients.npy").is_file(), "coefficients.npy missing")
    _require((out / "picard_trace.csv").is_file(), "picard_trace.csv missing")
    n = int(_opt(argv, "--n"))
    l2, h1, h2, _ = _errors(out)
    if n in TABLE_63 and _opt(argv, "--nqp") == "6" and _opt(argv, "--re", "1") == "1":
        for got, ref, label in zip((l2, h1, h2), TABLE_63[n], ("l2", "h1", "h2")):
            _in_band(got, ref, label)
    else:
        _matches_recorded((l2, h1, h2), ("nse", n))
    bicg = float(s["bicgstab_total_iterations"])
    counters.update(outer_iterations=int(s["outer_iterations"]), bicgstab_iterations=bicg,
                    pcg_iterations=float(s["initial_pcg_iterations"]),
                    flops=int(s["total_flops"]))
    return bicg


def _check_orderings(argv, out, counters):
    with open(out / "ordering_study.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    _require([r["ordering"] for r in rows] == ["1", "2", "3"], "ordering study rows missing")
    for r in rows:
        _require(int(r["outer_iters"]) < MAX_OUTER,
                 f"ordering {r['ordering']}: fixed-point iteration did not converge")
        _require(float(r["bicgstab_iter_total"]) > 0 and int(r["nnz"]) > 0,
                 f"ordering {r['ordering']}: empty solve")
        for key in ("bandwidth", "profile", "nnz", "nco", "outer_iters"):
            counters[f"ordering{r['ordering']}.{key}"] = int(r[key])
        counters[f"ordering{r['ordering']}.bicgstab_iterations"] = float(r["bicgstab_iter_total"])
    return sum(float(r["bicgstab_iter_total"]) for r in rows)


def _check_sparsity(argv, out, counters):
    from streamfem.solvers import read_matrix_market

    n = int(_opt(argv, "--n"))
    kind = "nse" if "--with-convection" in argv else "biharmonic"
    stem = out / f"sparsity_{kind}_n{n}_ordering{_opt(argv, '--ordering', '1')}"
    with open(f"{stem}.mtx") as f:
        f.readline()
        header_nnz = int(f.readline().split()[2])
    matrix = read_matrix_market(f"{stem}.mtx")
    with open(f"{stem}.pbm") as f:
        magic, dims = f.readline().strip(), f.readline().split()
        ones = sum(line.count("1") for line in f)
    _require(magic == "P1", "PBM magic missing")
    _require(dims == [str(FREE_DOFS[n])] * 2,
             f"PBM header {dims} is not the free-DOF count {FREE_DOFS[n]}")
    _require(matrix.dimension == FREE_DOFS[n], "MatrixMarket dimension is not the free-DOF count")
    _require(matrix.nnz == header_nnz == ones,
             f"nnz disagree: mtx header {header_nnz}, round trip {matrix.nnz}, PBM {ones}")
    _require(Path(f"{stem}.svg").stat().st_size > 0, "SVG missing")
    counters.update(nnz=matrix.nnz, dimension=matrix.dimension)
    return None


def _check_contours(argv, out, counters):
    grid = int(_opt(argv, "--grid-size"))
    stem = out / f"contours_{_opt(argv, '--problem')}_n{_opt(argv, '--n')}"
    with open(f"{stem}.csv") as f:
        f.readline()
        psi = [float(line.rsplit(",", 1)[1]) for line in f]
    _require(len(psi) == grid * grid, f"contour grid has {len(psi)} values, expected {grid * grid}")
    key = (_opt(argv, "--problem"), int(_opt(argv, "--n")), grid)
    _require(key in RECORDED_PSI_MAX, f"no recorded max psi for {key}")
    top, ref = max(psi), RECORDED_PSI_MAX[key]
    _require(math.isfinite(top) and abs(top - ref) <= RECORDED_RTOL * ref,
             f"sampled max psi {top:.6g} differs from recorded {ref:.6g} by more than "
             f"{RECORDED_RTOL:g} relative")
    svg = Path(f"{stem}.svg").read_text()
    levels = svg.count("font-family")
    _require(levels == 8 and "<polyline" in svg, f"contour SVG has {levels} levels, expected 8")
    return None


_CHECKERS = {
    "solve-biharmonic": _check_biharmonic,
    "solve-nse": _check_nse,
    "compare-orderings": _check_orderings,
    "export-sparsity": _check_sparsity,
    "export-contours": _check_contours,
}


def check_op(argv: list[str], out_dir: Path, exit_code: int) -> OpCheck:
    """Check one op's outputs; the counters are empty when a check fails."""
    out_dir = Path(out_dir)
    files = [p for p in out_dir.rglob("*") if p.is_file()] if out_dir.is_dir() else []
    out_bytes = sum(p.stat().st_size for p in files)
    result = OpCheck(ok=False, out_bytes=out_bytes)
    if exit_code != 0:
        result.reason = f"exit code {exit_code}"
        return result
    counters = {"bytes": sum(p.stat().st_size for p in files if p.name != TIMING_FILE)}
    try:
        result.bicgstab_iterations = _CHECKERS[argv[0]](argv, out_dir, counters)
    except (CheckFailed, OSError, KeyError, ValueError, IndexError) as exc:
        result.reason = f"{type(exc).__name__}: {exc}"
        return result
    result.ok = True
    result.counters = counters
    return result
