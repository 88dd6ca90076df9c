#!/usr/bin/env python3
"""Repeat benchmark runs, report run-to-run spread, and record a baseline.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/BENCH_baseline.json

For every workload this runs ``run.py --trace 0`` once per seed, then the
first seed a second time, and ``run.py --trace 1`` twice on the first seed.
It reports each end-to-end metric's median, quartiles and spread (distance
between the quartiles as a share of the median, the figure the bounds in
BENCHMARK.json apply to), the same for ``op_s`` without the rescaling to
the reference host speed, checks that the exact work counters of the
repeated seed are identical in both runs, untraced and traced, and
cross-checks solve-n32 against the baseline table in ROADMAP.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
# ROADMAP.md baseline at n = 32, ordering 1
ROADMAP_N32 = {"pcg_iterations": 3894, "free_dofs": 8774, "nnz_A": 384952, "peak_rss_mb": 208}


def run_once(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=HERE.parent, timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    lines = proc.stdout.splitlines()
    out = {"result": json.loads(lines[-1])}
    for line in lines:
        key, _, rest = line.partition(" ")
        if key in ("machine", "counters", "summary"):
            out[key] = json.loads(rest)
    print(f"  {workload} seed {seed} trace {trace}: attempted {out['result']['attempted']}, "
          f"failed {out['result']['failed']}", flush=True)
    return out


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def spread_table(runs: list[dict]) -> dict:
    table = {}
    for m in BENCHMARK["end_to_end"]:
        values = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
        table[m["name"]] = {"unit": m["unit"], "bound": m["bound"], **spread(values)}
    return table


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=_seeds, default=_seeds("1-10"), help="e.g. 1-10")
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in BENCHMARK["workloads"]])
    p.add_argument("--out", type=Path, help="write the baseline JSON here")
    args = p.parse_args(argv)

    report = {"run_seconds": BENCHMARK["run_seconds"], "seeds": args.seeds, "workloads": {}}
    ok = True
    for name in args.workloads:
        print(name, flush=True)
        runs = [run_once(name, seed, 0) for seed in args.seeds]
        entry = {"end_to_end": spread_table(runs),
                 # op_s without the rescaling to the reference host speed
                 "op_s_wall": spread([r["summary"]["op_s_wall"] for r in runs]),
                 "attempted": [r["result"]["attempted"] for r in runs],
                 "failed": [r["result"]["failed"] for r in runs],
                 "correct": all(r["result"]["correct"] for r in runs),
                 "summary_first_seed": runs[0]["summary"],
                 "counters_first_seed": runs[0]["counters"]}
        report["machine"] = runs[0]["machine"]
        ok &= entry["correct"]
        for metric, row in entry["end_to_end"].items():
            flag = "" if metric == "setup_s" or row["spread"] <= row["bound"] / 3 else "  > bound/3"
            print(f"  {metric:12s} median {row['median']:.6g} {row['unit']:4s} spread "
                  f"{row['spread']:.4f} (bound {row['bound']}){flag}")
        print(f"  {'op_s_wall':12s} median {entry['op_s_wall']['median']:.6g} s    spread "
              f"{entry['op_s_wall']['spread']:.4f} (not rescaled, no bound)")
        seed = args.seeds[0]
        again = run_once(name, seed, 0)
        common = runs[0]["counters"].keys() & again["counters"].keys()
        same = all(runs[0]["counters"][k] == again["counters"][k] for k in common)
        traced = [run_once(name, seed, 1) for _ in range(2)]
        counts = [{k: v["value"] for k, v in t["result"]["metrics"].items()
                   if not v["unit"].startswith("s")} for t in traced]
        entry["repeat"] = {
            "seed": seed,
            "untraced_counters_identical": same,
            "argvs_compared": len(common),
            "traced_counts_identical": counts[0] == counts[1],
        }
        entry["per_layer"] = traced[0]["result"]["metrics"]
        entry["traced_counters_first_seed"] = {k: v for k, v in traced[0]["counters"].items()
                                               if k.endswith("[traced]")}
        ok &= same and counts[0] == counts[1] and all(t["result"]["correct"] for t in traced)
        print(f"  repeat: {entry['repeat']}")
        report["workloads"][name] = entry

    n32 = report["workloads"].get("solve-n32", {}).get("traced_counters_first_seed")
    if n32:
        (c,) = n32.values()
        measured = {"pcg_iterations": c["trace.pcg.iterations"],
                    "free_dofs": c["trace.pcg.dimension_max"], "nnz_A": c["trace.pcg.nnz_max"],
                    "peak_rss_mb": report["workloads"]["solve-n32"]["end_to_end"]
                    ["peak_rss_mb"]["median"]}
        report["roadmap_cross_check_n32"] = {"roadmap": ROADMAP_N32, "measured": measured}
        print(f"ROADMAP n=32 cross-check: {report['roadmap_cross_check_n32']}")
    if args.out:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
