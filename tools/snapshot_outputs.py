"""Run the benchmark's CLI argvs and keep every output, for a bitwise diff.

    python tools/snapshot_outputs.py OUT_DIR
    python tools/snapshot_outputs.py --compare BEFORE AFTER

Runs every argv of ``perfbench.workloads.Workload(name, 1).base`` for the
four workloads, plus the argvs of ``EXTRA`` (52 runs in all), through
``streamfem.cli.main`` of this checkout. ``EXTRA`` reaches what the
workloads do not: ``mesh-info --csv``, both ``convergence-table`` problems,
``solve-biharmonic --load zero``, the symmetric MatrixMarket encoding
(the empty matrix of ``export-sparsity --n 1``), ``compare-orderings``
under rules below and above the viscous form's degree, the 25-point
rule, and a mesh (n = 24) that is not dyadic, whose triangles share only
some element kinds; new argvs go at its end, so earlier runs keep their
directory names. Each run writes into its own directory ``OUT_DIR/NN-<command>``,
named by a relative path so the printed paths do not depend on where
OUT_DIR lives; its stdout goes to ``stdout.txt`` and its exit code to
``exit_code.txt`` in that directory.

Snapshot two checkouts and compare them with

    diff -r -x timings.csv before/ after/

``timings.csv`` holds the only wall-clock times, so a change that keeps the
outputs bitwise identical prints nothing. The script also writes
``OUT_DIR/SHA256SUMS``: the SHA-256 of every output but ``timings.csv``, in
sorted relative-path order, in the format of ``sha256sum``, and prints that
file's own SHA-256 last, followed by the total bytes of the files it lists
and then those bytes per file suffix, so a change in output volume, and the
kind of file it is in, shows without a benchmark run. Equal outputs give
equal digests, and

    cd OUT_DIR && sha256sum -c SHA256SUMS

re-checks a snapshot against its list.

``--compare BEFORE AFTER`` lists the outputs (all but ``timings.csv``) whose
SHA-256 differs between two snapshot directories: those only AFTER has
(``added``), those only BEFORE has (``removed``) and those in both that
differ (``changed``). Under each changed ``.csv`` it prints, per numeric
column, the largest |after - before| over the column's largest |value| in
either file. It exits 0 when no output differs and 1 otherwise, as ``diff``
does. Any other arguments, or a BEFORE or AFTER that is not a directory,
print this text and exit 2.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.workloads import WORKLOADS, Workload  # noqa: E402
from streamfem.cli import main  # noqa: E402

EXTRA = [
    ["compare-orderings", "--n", "5", "--nqp", "6"],
    ["mesh-info", "--n", "3", "--csv"],
    ["convergence-table", "--problem", "nse", "--mesh-sizes", "3,4"],
    ["solve-biharmonic", "--n", "3", "--load", "zero"],
    ["export-sparsity", "--n", "1"],
    ["convergence-table", "--mesh-sizes", "3,4"],
    ["compare-orderings", "--n", "5", "--nqp", "4"],
    ["compare-orderings", "--n", "5", "--nqp", "12"],
    ["solve-nse", "--n", "4", "--nqp", "25"],
    ["solve-biharmonic", "--n", "24", "--load", "stokes", "--minimal-bc", "--nqp", "12"],
]


def argv_lists() -> list[list[str]]:
    return [argv for name in WORKLOADS for argv in Workload(name, 1).base] + EXTRA


def snapshot(out_dir: Path) -> int:
    """Run every argv into ``out_dir``; return how many runs exited nonzero."""
    out_dir.mkdir(parents=True, exist_ok=True)
    os.chdir(out_dir)
    failed = 0
    for k, argv in enumerate(argv_lists()):
        run_dir = f"{k:02d}-{argv[0]}"
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main([*argv, "--out-dir", run_dir])
        Path(run_dir, "stdout.txt").write_text(stdout.getvalue())
        Path(run_dir, "exit_code.txt").write_text(f"{code}\n")
        failed += code != 0
        print(f"{run_dir}: exit {code}: {' '.join(argv)}", flush=True)
    return failed


def outputs(out_dir: Path) -> dict[str, str]:
    """Relative path -> SHA-256 of every output in ``out_dir`` but
    ``timings.csv`` and ``SHA256SUMS``, in sorted path order."""
    paths = sorted(
        path.relative_to(out_dir).as_posix() for path in out_dir.rglob("*")
        if path.is_file() and path.name != "timings.csv" and path != out_dir / "SHA256SUMS"
    )
    return {path: hashlib.sha256((out_dir / path).read_bytes()).hexdigest() for path in paths}


def write_digests(out_dir: Path) -> tuple[str, dict[str, int]]:
    """Write ``out_dir/SHA256SUMS``; return the SHA-256 of that file and the
    bytes of the files it lists per suffix (``""`` for none), in suffix
    order."""
    digests = outputs(out_dir)
    sums = "".join(f"{digest}  {path}\n" for path, digest in digests.items())
    (out_dir / "SHA256SUMS").write_text(sums)
    sizes = {}
    for path in digests:
        suffix = Path(path).suffix
        sizes[suffix] = sizes.get(suffix, 0) + (out_dir / path).stat().st_size
    return hashlib.sha256(sums.encode()).hexdigest(), dict(sorted(sizes.items()))


def summary(digest: str, sizes: dict[str, int]) -> str:
    """The digest line with the total bytes, then one line per suffix."""
    lines = [f"SHA256SUMS: {digest}  {sum(sizes.values())} bytes"]
    lines += [f"  {suffix or '(none)'}: {size} bytes" for suffix, size in sizes.items()]
    return "\n".join(lines)


def column_changes(before: Path, after: Path) -> list[str]:
    """``name: ratio`` per numeric column of two CSVs of one header and
    length, the ratio being the largest |after - before| over the largest
    |value| of the column in either file (0 for a column of zeros)."""
    with open(before, newline="") as b, open(after, newline="") as a:
        old, new = list(csv.reader(b)), list(csv.reader(a))
    if len(old) != len(new) or not old or old[0] != new[0]:
        return ["header or row count differs"]
    lines = []
    for k, name in enumerate(old[0]):
        try:
            pairs = [(float(o[k]), float(n[k])) for o, n in zip(old[1:], new[1:])]
        except ValueError:
            if any(o[k] != n[k] for o, n in zip(old[1:], new[1:])):
                lines.append(f"{name}: text differs")
            continue
        delta = max((abs(n - o) for o, n in pairs), default=0.0)
        scale = max((max(abs(o), abs(n)) for o, n in pairs), default=0.0)
        lines.append(f"{name}: {delta / scale if scale else 0.0:.3g} "
                     f"(max |delta| {delta:.3g}, max |value| {scale:.3g})")
    return lines


def compare(before: Path, after: Path) -> list[str]:
    """The report of ``--compare``: one ``added``, ``removed`` or ``changed``
    line per differing output, in path order, each changed CSV followed by
    its :func:`column_changes`, indented; empty when no output differs."""
    old, new = outputs(before), outputs(after)
    lines = []
    for path in sorted(old.keys() | new.keys()):
        if path not in old:
            lines.append(f"added: {path}")
        elif path not in new:
            lines.append(f"removed: {path}")
        elif old[path] != new[path]:
            lines.append(f"changed: {path}")
            if path.endswith(".csv"):
                lines += [f"  {line}" for line in column_changes(before / path, after / path)]
    return lines


if __name__ == "__main__":
    args = sys.argv[1:]
    if len(args) == 3 and args[0] == "--compare" and all(map(os.path.isdir, args[1:])):
        report = compare(Path(args[1]), Path(args[2]))
        print("\n".join(report) or "no output differs")
        sys.exit(1 if report else 0)
    if len(args) != 1 or args[0].startswith("-"):
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    out_dir = Path(args[0]).resolve()
    failed = snapshot(out_dir)
    print(summary(*write_digests(out_dir)))
    sys.exit(1 if failed else 0)
