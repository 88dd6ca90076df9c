"""Tests of the benchmark harness: seeded inputs, span arithmetic, tracing
installation, repeatable counters and a minimal run of every workload."""

import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

BENCHMARK = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())


def _rounds(name, seed, k=3):
    w = Workload(name, seed)
    return [w.next_round() for _ in range(k)]


@pytest.mark.parametrize("name", WORKLOADS)
def test_same_seed_gives_same_argv_lists(name):
    assert _rounds(name, 7) == _rounds(name, 7)


@pytest.mark.parametrize("name", [w for w in WORKLOADS if w != "solve-n32"])
def test_different_seeds_give_different_argv_lists(name):
    assert len({json.dumps(_rounds(name, seed)) for seed in range(10)}) > 1


@pytest.mark.parametrize("name", WORKLOADS)
def test_the_seed_only_orders_the_round(name):
    # the seed must not change how much work a run does
    assert sorted(Workload(name, 1).base) == sorted(Workload(name, 2).base)


@pytest.mark.parametrize("name", WORKLOADS)
def test_every_round_holds_the_same_argv_lists(name):
    first, *rest = _rounds(name, 3, k=4)
    assert all(sorted(r) == sorted(first) for r in rest)


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] -> a [1, 4], b [5, 9] -> c [6, 7]
    tree = [
        ["root", 0.0, 10.0, None, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 5.0, 9.0, 0, 0],
        ["c", 6.0, 7.0, 2, 0],
    ]
    assert spans.self_times(tree) == [3.0, 3.0, 3.0, 1.0]
    stats = spans.RoundStats()
    stats.add_op(tree, {})
    assert stats.self_s["root"] == 3.0 and stats.calls["c"] == 1
    assert stats.counts["spans"] == 4


def test_tracer_wraps_every_lookup_site_and_restores_them():
    import streamfem.analysis as analysis
    import streamfem.assembly as assembly
    import streamfem.cli as cli
    import streamfem.picard as picard
    import streamfem.solvers as solvers

    sites = [
        (picard, "pcg"), (picard, "bicgstab"), (picard, "assemble_convection"),
        (assembly, "build_all_bases"), (analysis, "build_all_bases"),
        (cli, "compute_errors"), (cli, "enumerate_dofs"), (cli, "main"),
        (picard, "solve_biharmonic_problem"), (picard, "solve_linearized_nse"),
        (solvers.SparseMatrix, "__add__"), (assembly.ElementTables, "__init__"),
    ]
    before = [getattr(owner, attr) for owner, attr in sites]
    with spans.Tracer():
        for owner, attr in sites:
            assert hasattr(getattr(owner, attr), "__perfbench_original__"), (owner, attr)
    assert [getattr(owner, attr) for owner, attr in sites] == before


def test_traced_op_records_nested_spans_and_counts(tmp_path):
    runner = run.Runner(run.import_cli(), tmp_path, spans.Tracer())
    argv = ["solve-nse", "--n", "3", "--nqp", "6"]
    with runner.tracer:
        runner.run(argv)
        runner.run(argv, traced=True)
    assert not runner.failures
    _, recorded, counts = runner.trace_records[0]
    assert recorded[0][spans.NAME] == "cli.main" and recorded[0][spans.PARENT] is None
    assert all(s[spans.PARENT] is not None for s in recorded[1:])
    names = {s[spans.NAME] for s in recorded}
    assert {"picard.solve_linearized_nse", "solvers.pcg", "solvers.bicgstab",
            "analysis.compute_errors", "argyris.build_all_bases"} <= names
    assert counts["bases_built"] == 2 * counts["triangles"]
    assert counts["bicgstab.iterations"] > 0 and counts["solves"] == counts["solves_converged"]


def test_counters_repeat_exactly_and_a_change_fails_the_op(tmp_path):
    runner = run.Runner(run.import_cli(), tmp_path)
    argv = ["solve-biharmonic", "--n", "3", "--nqp", "4"]
    runner.run(argv)
    runner.run(argv)
    assert not runner.failures
    runner.counters[(tuple(argv), False)]["pcg_iterations"] += 1
    assert not runner.run(argv).check.ok


def test_op_time_is_rescaled_by_the_reference_kernel_next_to_it(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SAMPLE_EVERY_S", 60.0)   # no samples inside these ops

    class Kernel:
        times = iter([0.01, 0.03, 0.02])

        def seconds(self):
            return next(self.times)

    runner = run.Runner(run.import_cli(), tmp_path, reference=Kernel())
    argv = ["solve-biharmonic", "--n", "3", "--nqp", "4"]
    a, b = runner.run(argv), runner.run(argv)
    assert a.scale == pytest.approx(run.REFERENCE_S / 0.02)
    assert b.scale == pytest.approx(run.REFERENCE_S / 0.025)
    assert a.unit_s > a.seconds
    assert run.round_means([a, b], 2) == [pytest.approx((a.seconds * a.scale
                                                         + b.seconds * b.scale) / 2)]
    assert run.round_means([a, b], 1, scaled=False) == [a.seconds, b.seconds]


def test_kernel_samples_inside_an_op_are_averaged_and_taken_out(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SAMPLE_EVERY_S", 0.01)

    class Kernel:
        def seconds(self):
            time.sleep(0.005)
            return 0.04

    runner = run.Runner(run.import_cli(), tmp_path, reference=Kernel())
    op = runner.run(["solve-nse", "--n", "3", "--nqp", "6"])
    assert op.check.ok and len(runner._samples) > 2
    assert op.scale == pytest.approx(run.REFERENCE_S / 0.04)
    assert runner._paused >= 0.005 * (len(runner._samples) - 1)


def test_reference_kernel_inputs_are_fixed():
    from reference import ReferenceKernel

    first, second = ReferenceKernel(), ReferenceKernel()
    assert (first._sparse != second._sparse).nnz == 0
    assert all((a == b).all() for a, b in zip(first._small, second._small))
    assert first.seconds() > 0


@pytest.mark.parametrize("name", WORKLOADS)
def test_smoke_run_untraced(name, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    result = run.run_benchmark(name, seed=1, seconds=0, trace=False, work=tmp_path / "run")
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(Workload(name, 1).base)
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_smoke_run_traced(tmp_path):
    result = run.run_benchmark("tables-small", seed=1, seconds=0, trace=True,
                               work=tmp_path / "run")
    assert result["correct"] and result["attempted"] == 2 * len(Workload("tables-small", 1).base)
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert result["metrics"]["argyris.bases_per_op"]["value"] == 2.0
