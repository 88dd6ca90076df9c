"""Run the benchmark's CLI argvs and keep every output, for a bitwise diff.

    python tools/snapshot_outputs.py OUT_DIR

Runs every argv of ``perfbench.workloads.Workload(name, 1).base`` for the
four workloads, plus the argvs of ``EXTRA`` (48 runs in all), through
``streamfem.cli.main`` of this checkout. ``EXTRA`` reaches what the
workloads do not: ``mesh-info --csv``, both ``convergence-table`` problems,
``solve-biharmonic --load zero`` and the symmetric MatrixMarket encoding
(the empty matrix of ``export-sparsity --n 1``); new argvs go at its end, so
earlier runs keep their directory names. Each run writes into its own
directory ``OUT_DIR/NN-<command>``, named by a relative path so the printed
paths do not depend on where OUT_DIR lives; its stdout goes to
``stdout.txt`` and its exit code to ``exit_code.txt`` in that directory.

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
"""

from __future__ import annotations

import contextlib
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


def write_digests(out_dir: Path) -> tuple[str, dict[str, int]]:
    """Write ``out_dir/SHA256SUMS``; return the SHA-256 of that file and the
    bytes of the files it lists per suffix (``""`` for none), in suffix
    order."""
    paths = sorted(
        path.relative_to(out_dir).as_posix() for path in out_dir.rglob("*")
        if path.is_file() and path.name != "timings.csv" and path != out_dir / "SHA256SUMS"
    )
    sums = "".join(
        f"{hashlib.sha256((out_dir / path).read_bytes()).hexdigest()}  {path}\n" for path in paths
    )
    (out_dir / "SHA256SUMS").write_text(sums)
    sizes = {}
    for path in paths:
        suffix = Path(path).suffix
        sizes[suffix] = sizes.get(suffix, 0) + (out_dir / path).stat().st_size
    return hashlib.sha256(sums.encode()).hexdigest(), dict(sorted(sizes.items()))


def summary(digest: str, sizes: dict[str, int]) -> str:
    """The digest line with the total bytes, then one line per suffix."""
    lines = [f"SHA256SUMS: {digest}  {sum(sizes.values())} bytes"]
    lines += [f"  {suffix or '(none)'}: {size} bytes" for suffix, size in sizes.items()]
    return "\n".join(lines)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    out_dir = Path(sys.argv[1]).resolve()
    failed = snapshot(out_dir)
    print(summary(*write_digests(out_dir)))
    sys.exit(1 if failed else 0)
