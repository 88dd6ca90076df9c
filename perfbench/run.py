#!/usr/bin/env python3
"""streamfem benchmark: a closed loop with one client over seeded CLI workloads.

    python3 perfbench/run.py --workload solve-n32 --seed 1 --seconds 25 --trace 0

Run from the repository root. One op is one call of
``streamfem.cli.main(argv)`` in this process, with a fresh ``--out-dir``;
the next op starts only after the previous one and its output check are
done. Before timing, a run warms up with two small untimed ops. It then
repeats the workload's round (see ``workloads.py``) until the next op or op
pair would end past ``--seconds``, and runs at least one complete round.

``--trace 0`` reports the end-to-end metrics (tracing off), with every op's
time rescaled to a reference host speed: a fixed kernel is timed between
ops and every ``SAMPLE_EVERY_S`` during an op, and the op's wall time,
without the kernel's own time, is multiplied by ``REFERENCE_S`` over the
kernel's mean time over the op (see ``reference.py``). ``--trace 1``
runs every op twice in a row, untraced and traced, alternating which goes
first from one pair to the next, and reports the per-layer metrics of the
traced ops plus the tracing overhead (the median over pairs of traced minus
untraced op time). Both modes check every op's outputs
(``checks.py``) and require the exact work counters of an argv to repeat
whenever that argv runs again. Human-readable lines come first; the last
line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 5
SAMPLE_EVERY_S = 0.5   # reference kernel interval inside long ops
# untimed ops that load what the first timed op would otherwise load
WARMUP = (["solve-nse", "--n", "3", "--nqp", "6"],
          ["export-sparsity", "--n", "4", "--with-convection"])
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

sys.path.insert(0, str(HERE))
from checks import OpCheck, check_op  # noqa: E402
from reference import REFERENCE_S, ReferenceKernel  # noqa: E402
from spans import RoundStats, Tracer, per_layer_metrics  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_blas_threads() -> None:
    """Cap BLAS threads at the CPUs this process may use; call before numpy loads."""
    cap = nproc()
    for var in BLAS_THREAD_VARS:
        try:
            keep = 1 <= int(os.environ.get(var, "")) <= cap
        except ValueError:
            keep = False
        if not keep:
            os.environ[var] = str(cap)


def import_cli():
    """Import the checkout's own ``streamfem.cli``; exit 2 when it is missing."""
    if not (SRC / "streamfem" / "__init__.py").is_file():
        sys.exit(f"perfbench: no streamfem sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import streamfem.cli

    if Path(streamfem.cli.__file__).resolve().parent != SRC / "streamfem":
        sys.exit(f"perfbench: imported streamfem from {streamfem.cli.__file__}, not {SRC}")
    return streamfem.cli


def setup_probe(workload: str, seed: int) -> None:
    """Child side of a set-up measurement: import, make the inputs, report ready."""
    cap_blas_threads()
    import_cli()
    Workload(workload, seed).next_round()
    print("ready", flush=True)


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from process start to the first op being ready, per probe process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        samples.append(elapsed)
    return samples


def machine_info() -> dict:
    import numpy as np
    import scipy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    with contextlib.suppress(OSError):
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    return {
        "nproc": nproc(),
        "cpu": cpu,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "commit": commit,
    }


@dataclass
class Op:
    """One finished op: its argv, wall time and output check.

    ``unit_s`` adds the output check and clean-up to the op's time, and
    ``scale`` is ``REFERENCE_S`` over the reference kernel's mean time just
    before, during and just after the op (1 when no kernel is timed).
    Neither time includes the kernel's own.
    """

    argv: list[str]
    seconds: float
    check: OpCheck
    traced: bool
    unit_s: float
    scale: float = 1.0


class Runner:
    """Runs ops in this process and checks their outputs and counters.

    With a ``reference`` kernel, the kernel is timed before the first op,
    from a SIGALRM handler every ``SAMPLE_EVERY_S`` while an op runs, and
    after every op; the time after one op also serves as the time before
    the next. The handler's time is taken out of the op's.
    """

    def __init__(self, cli, work: Path, tracer=None, reference=None):
        self._cli = cli
        self.work, self.tracer, self.reference = work, tracer, reference
        self._ref_before = None
        self._samples: list[float] = []
        self._paused = 0.0
        self.ops: list[Op] = []
        self.failures: list[str] = []
        self.counters: dict[tuple, dict] = {}   # (argv, traced) -> first counters
        self.trace_records: list = []          # (argv, spans, counts) per traced op

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self._samples.append(self.reference.seconds())
        self._paused += time.perf_counter() - t0

    def run(self, argv: list[str], traced: bool = False) -> Op:
        sampling = self.reference is not None
        if sampling and self._ref_before is None:
            self._ref_before = self.reference.seconds()
        out = self.work / f"op{len(self.ops)}"
        shutil.rmtree(out, ignore_errors=True)
        full = [*argv, "--out-dir", str(out)]
        captured = io.StringIO()
        t_unit = time.perf_counter()
        gc.collect()
        if traced:
            self.tracer.begin_op(len(self.ops))
        self._samples, self._paused = [self._ref_before], 0.0
        if sampling:
            previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
                code = self._cli.main(full)
        except Exception:  # an op that raises is a failed op; the run goes on
            code = "exception"
            captured.write(traceback.format_exc())
        finally:
            if sampling:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        seconds = time.perf_counter() - t0 - self._paused
        spans_counts = self.tracer.end_op() if traced else None
        check = check_op(argv, out, code)
        shutil.rmtree(out, ignore_errors=True)
        unit_s = time.perf_counter() - t_unit - self._paused
        scale = 1.0
        if sampling:
            ref_after = self.reference.seconds()
            scale = REFERENCE_S / statistics.fmean([*self._samples, ref_after])
            self._ref_before = ref_after
        if traced:
            self.trace_records.append((argv, *spans_counts))
        if check.ok:
            counters = dict(check.counters)
            if traced:
                counters.update(("trace." + k, v) for k, v in sorted(spans_counts[1].items()))
            first = self.counters.setdefault((tuple(argv), traced), counters)
            if first != counters:
                check.ok = False
                check.reason = "work counters differ from an earlier run of this argv"
        if not check.ok:
            self.failures.append(f"{' '.join(argv)}: {check.reason}\n{captured.getvalue()[-2000:]}")
        op = Op(argv, seconds, check, traced, unit_s, scale)
        self.ops.append(op)
        return op


@dataclass
class Rounds:
    """When the complete rounds of a run ended, and the RSS after the first."""

    ends: list[float]        # seconds from the run's start to each round's end
    first_rss_mb: float      # ru_maxrss after the first complete round, MiB


def run_rounds(runner: Runner, workload: Workload, seconds: float, trace: bool) -> Rounds:
    """Repeat the workload's round until ``seconds`` are used up.

    A unit is one op, or with ``trace`` one untraced and one traced run of
    the op, alternating which goes first. The run stops before a unit that
    would end past ``seconds`` at the mean unit time so far, but not before
    its first round is complete.
    """
    start = time.perf_counter()
    rounds = Rounds(ends=[], first_rss_mb=0.0)
    units = 0
    while True:
        for argv in workload.next_round():
            elapsed = time.perf_counter() - start
            if rounds.ends and elapsed + elapsed / units > seconds:
                return rounds
            sides = ((False, True) if units % 2 == 0 else (True, False)) if trace else (False,)
            for traced in sides:
                runner.run(argv, traced=traced)
            units += 1
        rounds.ends.append(time.perf_counter() - start)
        if len(rounds.ends) == 1:
            rounds.first_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def round_means(ops: list[Op], k: int, scaled: bool = True) -> list[float]:
    """Mean op time of each complete round of ``k`` ops."""
    times = [op.seconds * (op.scale if scaled else 1.0) for op in ops]
    return [statistics.fmean(times[r * k:(r + 1) * k]) for r in range(len(ops) // k)]


def end_to_end(runner: Runner, workload: Workload, rounds: Rounds, setup: list[float]) -> dict:
    """End-to-end metrics over the ops of the complete rounds.

    Every complete round holds the same ops, so the last, partial round
    cannot shift a metric by changing the mix. op_s is the median over
    rounds of the round's mean op time: a median over the ops of a mixed
    round would jump between the clusters of its op kinds. ops_per_s
    divides by the time of the complete rounds' ops and their output
    checks, without the reference kernel. Both rescale every op to the
    reference host speed (``Op.scale``). peak_rss_mb is read after the
    first round, so it does not grow with the number of rounds a host's
    speed allows.
    """
    k, n = workload.round_len, len(rounds.ends)
    ops = runner.ops[:n * k]
    busy_s = sum(op.unit_s * op.scale for op in ops)
    return {
        "op_s": _metric(statistics.median(round_means(ops, k)), "s"),
        "ops_per_s": _metric(sum(op.check.ok for op in ops) / busy_s, "1/s"),
        "peak_rss_mb": _metric(rounds.first_rss_mb, "MiB"),
        "out_mb": _metric(sum(op.check.out_bytes for op in ops) / n / 2**20, "MiB"),
        "setup_s": _metric(statistics.median(setup), "s"),
    }


def report_end_to_end(runner: Runner, metrics: dict, rounds: int, round_len: int,
                      setup: list[float]) -> None:
    times = [op.seconds for op in runner.ops]
    n = len(times)
    failed = sum(not op.check.ok for op in runner.ops)
    complete = runner.ops[:rounds * round_len]
    samples = {"op_s": f"median of {rounds} rounds of {round_len} ops, rescaled",
               "ops_per_s": f"over {rounds * round_len} ops and their checks, rescaled",
               "peak_rss_mb": "1 process, after the first round",
               "out_mb": f"per round, mean of {rounds} rounds",
               "setup_s": f"median of {len(setup)} probe processes"}
    for name, m in metrics.items():
        print(f"{name:12s} {m['value']:.6g} {m['unit']}  ({samples[name]})")
    # over all ops: the highest percentile with at least ten samples beyond it
    p90 = statistics.quantiles(times, n=10)[-1] if n >= 100 else None
    print(f"{'op_s_p90':12s} " + (f"not reported: {n} ops < 100" if p90 is None
                                  else f"{p90:.6g} s  (n={n} ops)"))
    print(f"{'fail_frac':12s} {failed / n:.6g}  ({failed} of {n} ops failed)")
    scales = [op.scale for op in complete]
    wall = statistics.median(round_means(complete, round_len, scaled=False))
    print(f"{'op_s_wall':12s} {wall:.6g} s"
          f"  (as op_s, not rescaled); host speed REFERENCE_S/kernel: median "
          f"{statistics.median(scales):.4g}, range {min(scales):.4g}-{max(scales):.4g}")
    by_argv: dict[tuple, list] = {}
    for op in runner.ops:
        by_argv.setdefault(tuple(op.argv), []).append(op)
    per_argv = [{"argv": " ".join(argv), "ops": len(ops),
                 "op_s_median": statistics.median(o.seconds for o in ops),
                 "bicgstab_iterations": ops[0].check.bicgstab_iterations}
                for argv, ops in by_argv.items()]
    print("summary " + json.dumps({"ops": n, "rounds": rounds, "op_s_p90": p90,
                                   "op_s_wall": wall, "host_speed": statistics.median(scales),
                                   "fail_frac": failed / n, "per_argv": per_argv}))


def report_trace(runner: Runner, rounds: int, round_len: int) -> dict:
    stats = RoundStats()
    for argv, spans, counts in runner.trace_records[: rounds * round_len]:
        stats.add_op(spans, counts)
    untraced = [op.seconds for op in runner.ops if not op.traced]
    traced = [op.seconds for op in runner.ops if op.traced]
    pairs = zip(runner.ops[::2], runner.ops[1::2])
    # the ops of a pair share their argv, so the paired difference is free of
    # the spread between argvs that a difference of two medians would carry
    overhead = statistics.median((b.seconds - a.seconds) * (1 if b.traced else -1)
                                 for a, b in pairs)
    print(f"traced ops {len(traced)}, complete rounds {rounds} of {round_len} ops; "
          f"op_s traced {statistics.median(traced):.6g} s, untraced "
          f"{statistics.median(untraced):.6g} s; overhead (median of paired "
          f"differences) {overhead:.6g} s")
    print("self time per op by span (complete rounds), calls per round:")
    for name, own in sorted(stats.self_s.items(), key=lambda kv: -kv[1])[:25]:
        print(f"  {own / stats.ops:10.6f} s  {stats.calls[name] / rounds:10.1f}  {name}")
    return {k: _metric(v, u) for k, (v, u) in per_layer_metrics(stats, rounds, overhead).items()}


def warm_up(cli, out: Path) -> None:
    """Run the untimed ``WARMUP`` ops; their results are not used."""
    for argv in WARMUP:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            with contextlib.suppress(Exception):
                cli.main([*argv, "--out-dir", str(out)])
        shutil.rmtree(out, ignore_errors=True)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def run_benchmark(workload_name: str, seed: int, seconds: float, trace: bool,
                  work: Path) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    cap_blas_threads()
    cli = import_cli()
    setup = [] if trace else measure_setup(workload_name, seed)
    workload = Workload(workload_name, seed)
    print("machine " + json.dumps(machine_info(), sort_keys=True))

    work.mkdir(parents=True, exist_ok=True)
    warm_up(cli, work / "warmup")
    tracer = Tracer() if trace else None
    runner = Runner(cli, work, tracer, reference=None if trace else ReferenceKernel())
    if trace:
        with tracer:
            rounds = run_rounds(runner, workload, seconds, trace=True)
        metrics = report_trace(runner, len(rounds.ends), workload.round_len)
    else:
        rounds = run_rounds(runner, workload, seconds, trace=False)
        metrics = end_to_end(runner, workload, rounds, setup)
        report_end_to_end(runner, metrics, len(rounds.ends), workload.round_len, setup)

    counters = {" ".join(k[0]) + (" [traced]" if k[1] else ""): v
                for k, v in runner.counters.items()}
    print("counters " + json.dumps(counters, sort_keys=True))
    for failure in runner.failures:
        print("FAILED " + failure, file=sys.stderr)
    failed = sum(not op.check.ok for op in runner.ops)
    return {"correct": failed == 0, "attempted": len(runner.ops), "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    work = WORK / f"run-{os.getpid()}"
    try:
        result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            WORK.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
