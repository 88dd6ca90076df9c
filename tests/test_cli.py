import csv
import os
import weakref
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from streamfem import cli, picard
from streamfem.analysis import MIN_GRID_SIZE, pbm_bytes
from streamfem.assembly import ScatterPlan, assemble_biharmonic
from streamfem.cli import main
from streamfem.mesh import build_uniform_mesh, enumerate_dofs
from streamfem.picard import PicardTrace
from streamfem.quadrature import SUPPORTED_POINT_COUNTS, rule
from streamfem.solvers import bandwidth_stats


def run_cli(args):
    return main(args)


def test_mesh_info_n1(capsys):
    assert run_cli(["mesh-info", "--n", "1"]) == 0
    out = capsys.readouterr().out
    assert "4 vertices" in out
    assert "2 triangles" in out
    assert "5 edges" in out
    assert "29 DOFs" in out


def test_mesh_info_csv(tmp_path, capsys):
    assert run_cli(["mesh-info", "--n", "2", "--csv", "--out-dir", str(tmp_path)]) == 0
    assert (tmp_path / "vertices.csv").exists()
    assert (tmp_path / "edges.csv").exists()
    assert (tmp_path / "triangles.csv").exists()


def test_solve_biharmonic_writes_reports(tmp_path, capsys):
    code = run_cli([
        "solve-biharmonic", "--n", "3", "--nqp", "4", "--tol", "1e-5",
        "--out-dir", str(tmp_path),
    ])
    assert code == 0
    assert (tmp_path / "error_report.txt").exists()
    assert (tmp_path / "solve_report.txt").exists()
    assert (tmp_path / "timings.csv").exists()
    report = (tmp_path / "solve_report.txt").read_text()
    assert "wall_time" not in report  # timing data is isolated in timings.csv


def test_solve_nse_table63_row(tmp_path, capsys):
    code = run_cli([
        "solve-nse", "--n", "3", "--re", "1", "--tol", "1e-5", "--nqp", "6",
        "--ordering", "1", "--out-dir", str(tmp_path),
    ])
    assert code == 0
    text = (tmp_path / "error_report.txt").read_text()
    l2 = float(next(l for l in text.splitlines() if l.startswith("l2")).split("=")[1])
    # reference value 2.589e-4, factor-5 agreement
    assert 2.589e-4 / 5 <= l2 <= 2.589e-4 * 5
    assert (tmp_path / "picard_trace.csv").exists()
    assert "failure" not in (tmp_path / "picard_summary.txt").read_text()


def test_compare_orderings_structure(tmp_path, capsys):
    code = run_cli([
        "compare-orderings", "--n", "3", "--nqp", "6", "--out-dir", str(tmp_path),
    ])
    assert code == 0
    rows = (tmp_path / "ordering_study.csv").read_text().splitlines()
    assert len(rows) == 4
    assert rows[0].startswith("ordering,bandwidth,profile,nnz,nco")
    assert [r.split(",")[-1] for r in rows[1:]] == ["converged"] * 3


def test_compare_orderings_builds_bases_once(tmp_path, bases_builds, monkeypatch):
    given = []
    discretize = cli.discretize
    monkeypatch.setattr(cli, "discretize", lambda mesh, config, bases:
                        given.append(bases) or discretize(mesh, config, bases))
    assert run_cli(["compare-orderings", "--n", "3", "--out-dir", str(tmp_path)]) == 0
    # one build, whose bases every ordering's discretization is given
    assert bases_builds == [3]
    assert len(given) == 3 and all(bases is given[0] for bases in given)


def test_ordering_study_matches_separate_assemblies(tmp_path):
    assert run_cli(["compare-orderings", "--n", "3", "--nqp", "6", "--out-dir", str(tmp_path)]) == 0
    mesh = build_uniform_mesh(3)
    with open(tmp_path / "ordering_study.csv") as f:
        rows = list(csv.DictReader(f))
    for scheme, row in zip((1, 2, 3), rows):
        plan = ScatterPlan.build(mesh, enumerate_dofs(mesh, scheme))
        A = assemble_biharmonic(plan, rule(6), 1.0)
        stats = bandwidth_stats(A)
        assert row["ordering"] == str(scheme)
        assert {k: int(row[k]) for k in stats} == stats


def test_solve_nse_builds_bases_twice(tmp_path, bases_builds):
    argv = ["solve-nse", "--n", "3", "--nqp", "6", "--out-dir", str(tmp_path)]
    assert run_cli(argv) == 0
    # the discretization's, then compute_errors' own: the benchmark pins two
    # builds per solve (bases_built == 2 * triangles and bases_per_op == 2.0
    # in perfbench/tests/test_harness.py), so the error pass does not share them
    assert bases_builds == [3, 3]


def _failing(solver, **fields):
    """``solver`` with its report marked as not converged and given ``fields``."""
    def solve(*args, **kwargs):
        x, report = solver(*args, **kwargs)
        return x, replace(report, converged=False, **fields)
    return solve


@pytest.mark.parametrize("target, fields, argv, message", [
    ("pcg", {}, [], "initial biharmonic PCG solve did not converge"),
    ("bicgstab", {"breakdown": "rho breakdown"}, [], "BiCGSTAB rho breakdown at outer iteration 1"),
    (None, {}, ["--max-outer", "1"], "fixed-point iteration did not converge"),
])
def test_failed_solve_nse_writes_every_output_and_names_the_failure(
        tmp_path, capsys, monkeypatch, target, fields, argv, message):
    if target:
        monkeypatch.setattr(picard, target, _failing(getattr(picard, target), **fields))
    assert run_cli(["solve-nse", "--n", "3", *argv, "--out-dir", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert sorted(os.listdir(tmp_path)) == [
        "coefficients.npy", "error_report.txt", "picard_summary.txt", "picard_trace.csv",
        "timings.csv",
    ]
    summary = (tmp_path / "picard_summary.txt").read_text()
    assert "converged = false\n" in summary and summary.endswith(f"\nfailure = {message}\n")


def test_ordering_out_of_range_in_config_file_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("ordering = 4\n")
    assert run_cli(["solve-nse", "--n", "2", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: ordering scheme must be 1, 2 or 3, got 4\n"


def test_compare_orderings_nonconvergence_exits_1(tmp_path, capsys):
    argv = ["compare-orderings", "--n", "3", "--max-outer", "1", "--out-dir", str(tmp_path)]
    assert run_cli(argv) == 1
    # the table is still written, then every failed ordering is named
    rows = (tmp_path / "ordering_study.csv").read_text().splitlines()
    assert len(rows) == 4 and rows[0].endswith(",outer_iters,status")
    assert [r.split(",")[-1] for r in rows[1:]] == ["not converged"] * 3
    table = (tmp_path / "ordering_study.txt").read_text().splitlines()
    assert table[0].split()[-1] == "status"
    assert all(line.endswith("not converged") for line in table[2:])
    err = capsys.readouterr().err
    for scheme in (1, 2, 3):
        assert f"error: ordering {scheme}: fixed-point iteration did not converge" in err


def test_compare_orderings_reports_picard_error(tmp_path, capsys, monkeypatch):
    solve = cli.solve_linearized_nse

    def failing_for_ordering_2(disc):
        if disc.config.ordering.value == 2:
            return None, PicardTrace(failure="initial biharmonic PCG solve did not converge")
        return solve(disc)

    monkeypatch.setattr(cli, "solve_linearized_nse", failing_for_ordering_2)
    assert run_cli(["compare-orderings", "--n", "3", "--out-dir", str(tmp_path)]) == 1
    rows = (tmp_path / "ordering_study.csv").read_text().splitlines()
    assert [r.split(",")[0] for r in rows[1:]] == ["1", "2", "3"]
    assert rows[2].split(",")[4:] == ["0", "0.0", "0", "0", "failed"]  # no work recorded
    assert [rows[1].split(",")[-1], rows[3].split(",")[-1]] == ["converged", "converged"]
    table = (tmp_path / "ordering_study.txt").read_text().splitlines()
    assert [line.split()[-1] for line in table[2:]] == ["converged", "failed", "converged"]
    err = capsys.readouterr().err
    assert err == "error: ordering 2: initial biharmonic PCG solve did not converge\n"


def test_export_contours_nonconvergence_exits_1(tmp_path, capsys):
    argv = ["export-contours", "--n", "3", "--problem", "nse", "--max-outer", "1",
            "--grid-size", "16", "--out-dir", str(tmp_path)]
    assert run_cli(argv) == 1
    assert capsys.readouterr().err == "error: fixed-point iteration did not converge\n"
    assert os.listdir(tmp_path) == []


def test_export_sparsity_nonconvergence_exits_1(tmp_path, capsys):
    argv = ["export-sparsity", "--n", "2", "--with-convection", "--linear-tol", "1e-30",
            "--out-dir", str(tmp_path)]
    assert run_cli(argv) == 1
    assert capsys.readouterr().err == "error: PCG did not converge\n"
    assert os.listdir(tmp_path) == []


def test_convergence_table_nonconvergence_exits_1(tmp_path, capsys):
    argv = ["convergence-table", "--problem", "nse", "--mesh-sizes", "2,3", "--max-outer", "1",
            "--out-dir", str(tmp_path)]
    assert run_cli(argv) == 1
    rows = (tmp_path / "table_nse_nqp6.csv").read_text().splitlines()
    assert [r.split(",")[3] for r in rows[1:]] == ["ok", "not-converged"]
    assert capsys.readouterr().err == "error: no converged solve at h = 1/3\n"


def test_convergence_table_marks_an_early_stop_failed(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(picard, "bicgstab", _failing(picard.bicgstab, breakdown="rho breakdown"))
    argv = ["convergence-table", "--problem", "nse", "--mesh-sizes", "2", "--out-dir", str(tmp_path)]
    assert run_cli(argv) == 1
    row = (tmp_path / "table_nse_nqp6.csv").read_text().splitlines()[1].split(",")
    assert row[3] == "failed: BiCGSTAB rho breakdown at outer iteration 1"
    assert row[4:] == [""] * 7  # no errors or counts
    assert capsys.readouterr().err == "error: no converged solve at h = 1/2\n"


def test_export_sparsity_files(tmp_path, capsys):
    code = run_cli([
        "export-sparsity", "--n", "3", "--nqp", "6", "--ordering", "1",
        "--out-dir", str(tmp_path),
    ])
    assert code == 0
    stem = tmp_path / "sparsity_biharmonic_n3_ordering1"
    assert stem.with_suffix(".pbm").exists()
    assert stem.with_suffix(".svg").exists()
    assert stem.with_suffix(".mtx").exists()


def test_export_contours_files(tmp_path, capsys):
    code = run_cli([
        "export-contours", "--n", "3", "--problem", "biharmonic",
        "--grid-size", "24", "--out-dir", str(tmp_path),
    ])
    assert code == 0
    assert (tmp_path / "contours_biharmonic_n3.svg").exists()
    assert (tmp_path / "contours_biharmonic_n3.csv").exists()


def test_convergence_table_biharmonic(tmp_path, capsys):
    code = run_cli([
        "convergence-table", "--problem", "biharmonic", "--mesh-sizes", "2,3",
        "--nqp", "4", "--out-dir", str(tmp_path),
    ])
    assert code == 0
    rows = (tmp_path / "table_biharmonic_nqp4.csv").read_text().splitlines()
    assert len(rows) == 3
    assert rows[0].split(",") == cli.BIHARMONIC_TABLE_HEADERS
    assert rows[0].split(",")[:5] == ["h", "nqp", "ordering", "status", "nco"]
    assert all(r.split(",")[3] == "ok" for r in rows[1:])
    # wall times go to timings.csv only, one step per mesh size
    timings = list(csv.reader(open(tmp_path / "timings.csv")))
    assert [row[0] for row in timings] == ["step", "n_2", "n_3"]
    assert all(float(row[1]) >= 0.0 for row in timings[1:])


@pytest.mark.parametrize("problem", ["biharmonic", "nse"])
def test_convergence_table_bitwise_deterministic(tmp_path, problem):
    args = ["convergence-table", "--problem", problem, "--mesh-sizes", "3,4"]
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert run_cli(args + ["--out-dir", str(d1)]) == 0
    assert run_cli(args + ["--out-dir", str(d2)]) == 0
    t1 = _tree_bytes(d1, skip={"timings.csv"})
    assert sorted(t1) == [f"table_{problem}_nqp6.{ext}" for ext in ("csv", "txt")]
    assert t1 == _tree_bytes(d2, skip={"timings.csv"})


@pytest.mark.parametrize("argv, want", [
    (["convergence-table", "--mesh-sizes", "3,4"], [[False], [False, False]]),
    (["solve-biharmonic", "--n", "3"], [[False]]),
])
def test_no_discretization_is_alive_at_an_error_pass(tmp_path, monkeypatch, argv, want):
    """Each discretization is freed before its error pass builds its own
    tables, and so before the next mesh size's is built."""
    build, errors = cli.discretize, cli.compute_errors
    refs, alive = [], []

    def discretize(*args, **kwargs):
        disc = build(*args, **kwargs)
        refs.append(weakref.ref(disc))
        return disc

    def compute_errors(*args):
        alive.append([ref() is not None for ref in refs])
        return errors(*args)

    monkeypatch.setattr(cli, "discretize", discretize)
    monkeypatch.setattr(cli, "compute_errors", compute_errors)
    assert run_cli([*argv, "--out-dir", str(tmp_path)]) == 0
    assert alive == want


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 2\nordering = 3\n")
    # config applies when the flag is absent
    assert run_cli(["mesh-info", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "9 vertices" in out and "ALTERNATING_VERTEX" in out
    # explicit flag wins over the config value
    assert run_cli(["mesh-info", "--config", str(cfg), "--n", "1"]) == 0
    out = capsys.readouterr().out
    assert "4 vertices" in out


@pytest.mark.parametrize("flag", [["--ord", "2"], ["--ordering", "2"], ["--ordering=2"]])
def test_config_file_loses_to_every_flag_spelling(tmp_path, capsys, flag):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("ordering = 3\n")
    assert run_cli(["mesh-info", "--config", str(cfg), *flag]) == 0
    assert "ordering scheme 2 " in capsys.readouterr().out
    # with no flag the file's value applies
    assert run_cli(["mesh-info", "--config", str(cfg)]) == 0
    assert "ordering scheme 3 " in capsys.readouterr().out


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bogus = 1\n")
    with pytest.raises(SystemExit) as exc:
        run_cli(["mesh-info", "--config", str(cfg)])
    assert exc.value.code == 2


@pytest.mark.parametrize("text", ["n = three\n", "n\n"])
def test_config_file_bad_value_exits_2(tmp_path, capsys, text):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    with pytest.raises(SystemExit) as exc:
        run_cli(["mesh-info", "--config", str(cfg), "--n", "2"])
    assert exc.value.code == 2


@pytest.mark.parametrize("text", ["grid_size = abc\n", "n = three\n"])
def test_config_file_bad_value_of_another_subcommand_exits_2(tmp_path, capsys, text):
    # mesh-info takes no --grid-size; its value is checked all the same
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    with pytest.raises(SystemExit) as exc:
        main(["mesh-info", "--n", "1", "--config", str(cfg)])
    assert exc.value.code == 2
    assert f"bad value for config key '{text.split()[0]}'" in capsys.readouterr().err
    # a good value for it is accepted and not used
    cfg.write_text("grid_size = 12\n")
    assert main(["mesh-info", "--n", "1", "--config", str(cfg)]) == 0
    assert "4 vertices" in capsys.readouterr().out


@pytest.mark.parametrize("key", ["minimal_bc", "flip-sign-convention"])
@pytest.mark.parametrize("text", ["maybe", "tru", "2", "on", ""])
def test_config_file_unknown_boolean_exits_2_naming_the_key(tmp_path, capsys, key, text):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {text}\n")
    with pytest.raises(SystemExit) as exc:
        run_cli(["mesh-info", "--config", str(cfg), "--n", "2"])
    assert exc.value.code == 2
    assert f"bad value for config key '{key.replace('-', '_')}'" in capsys.readouterr().err


def test_config_file_does_not_leak_into_the_next_call(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 2\nordering = 3\n")
    assert run_cli(["mesh-info", "--config", str(cfg)]) == 0
    assert "n=2 " in capsys.readouterr().out
    with pytest.raises(SystemExit):
        run_cli(["mesh-info", "--config", str(cfg), "--nqp", "5"])
    assert run_cli(["mesh-info"]) == 0
    out = capsys.readouterr().out
    assert "n=3 " in out and "ordering scheme 1 " in out


# option -> values drawn for it; export-contours takes every config key
ROUND_TRIP_OPTIONS = {
    "n": st.integers(1, cli.MAX_N),
    "reynolds": st.floats(1e-3, 1e4),
    "tol": st.floats(1e-14, 1e-1),
    "linear_tol": st.floats(1e-14, 1e-1),
    "max_outer": st.integers(1, 500),
    "nqp": st.sampled_from(SUPPORTED_POINT_COUNTS),
    "ordering": st.sampled_from((1, 2, 3)),
    "out_dir": st.text("abcXYZ019._/", min_size=1, max_size=12),
    "grid_size": st.integers(MIN_GRID_SIZE, 512),
    "minimal_bc": st.booleans(),
    "flip_sign_convention": st.booleans(),
}
TRUE_SPELLINGS, FALSE_SPELLINGS = ("1", "true", "yes", "True", "YES"), ("0", "false", "no", "No", "FALSE")


def _parsed_args(monkeypatch, argv) -> dict:
    """The options ``main(argv)`` hands to export-contours, which is not run."""
    seen = []
    monkeypatch.setattr(cli, "cmd_export_contours", lambda args: seen.append(vars(args)) or 0)
    assert main(["export-contours", *argv]) == 0
    return {k: v for k, v in seen[0].items() if k not in ("config", "func", "command_parser")}


@settings(max_examples=60, deadline=None)
@given(values=st.fixed_dictionaries({}, optional=ROUND_TRIP_OPTIONS), data=st.data())
def test_config_file_round_trips_to_the_flags(tmp_path_factory, values, data):
    """Key=value lines parse to the options the equivalent flags give."""
    lines, flags = [], []
    for key, value in values.items():
        spelled = data.draw(st.sampled_from((key, key.replace("_", "-"))))
        if isinstance(value, bool):
            text = data.draw(st.sampled_from(TRUE_SPELLINGS if value else FALSE_SPELLINGS))
            flags += [f"--{key.replace('_', '-')}"] if value else []
        else:
            text = repr(value) if isinstance(value, float) else str(value)
            flags.append(f"--{key.replace('_', '-')}={text}")
        comment = data.draw(st.sampled_from(("", "  # set by hand")))
        lines.append(f"{spelled} {data.draw(st.sampled_from(('=', ' = ')))}{text}{comment}")
    cfg = tmp_path_factory.mktemp("cfg") / "run.cfg"
    cfg.write_text("\n".join(["# drawn options", *lines, ""]))
    with pytest.MonkeyPatch.context() as mp:
        from_file = _parsed_args(mp, ["--config", str(cfg)])
        from_flags = _parsed_args(mp, flags)
    assert from_file == from_flags
    assert all(from_file[key] == value for key, value in values.items())


def test_replaced_command_function_is_the_one_run(monkeypatch, capsys):
    assert run_cli(["mesh-info", "--n", "1"]) == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_mesh_info", lambda args: seen.append(args.n) or 7)
    assert run_cli(["mesh-info", "--n", "2"]) == 7
    assert seen == [2]


@pytest.mark.parametrize("option", ["--re", "--tol", "--linear-tol"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_parameters_exit_2(tmp_path, capsys, option, value):
    code = run_cli(["solve-nse", "--n", "2", f"{option}={value}", "--out-dir", str(tmp_path)])
    assert code == 2
    assert "finite" in capsys.readouterr().err


OVERFLOW_ARGS = {"convergence-table": ["--mesh-sizes", "3"],
                 "export-sparsity": ["--with-convection"]}


@pytest.mark.parametrize("command", ["solve-nse", "solve-biharmonic", "compare-orderings",
                                     "convergence-table", "export-contours", "export-sparsity"])
def test_a_load_whose_norm_overflows_exits_2_and_writes_nothing(tmp_path, capsys, command):
    # the largest load entry at Re = 1e-160 is 3.2e159: its square overflows
    out = tmp_path / "out"
    argv = [command, "--n", "3", *OVERFLOW_ARGS.get(command, [])]
    assert run_cli([*argv, "--re", "1e-160", "--out-dir", str(out)]) == 2
    assert "error: the load vector's 2-norm overflows at Reynolds number 1e-160" in \
        capsys.readouterr().err
    assert not out.exists()
    assert run_cli([*argv, "--re", "1e-150", "--out-dir", str(out)]) == 0


def test_invalid_arguments_exit_nonzero(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["solve-biharmonic", "--nqp", "5"])
    assert exc.value.code != 0
    assert run_cli(["mesh-info", "--n", "0"]) == 2


def _tree_bytes(root, skip):
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            if name in skip:
                continue
            path = os.path.join(dirpath, name)
            out[os.path.relpath(path, root)] = open(path, "rb").read()
    return out


def test_solve_nse_bitwise_deterministic(tmp_path):
    args = ["solve-nse", "--n", "2", "--re", "1", "--tol", "1e-5", "--nqp", "6"]
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert run_cli(args + ["--out-dir", str(d1)]) == 0
    assert run_cli(args + ["--out-dir", str(d2)]) == 0
    t1 = _tree_bytes(d1, skip={"timings.csv"})
    t2 = _tree_bytes(d2, skip={"timings.csv"})
    assert t1.keys() == t2.keys()
    for name in t1:
        assert t1[name] == t2[name], f"{name} differs between identical runs"


def test_outputs_confined_to_out_dir(tmp_path, monkeypatch):
    workdir = tmp_path / "cwd"
    outdir = tmp_path / "results"
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    assert run_cli(["solve-nse", "--n", "2", "--nqp", "6", "--out-dir", str(outdir)]) == 0
    assert os.listdir(workdir) == []
    assert (outdir / "error_report.txt").exists()


class _MeshBuilt(Exception):
    pass


@pytest.fixture
def no_mesh(monkeypatch):
    """Make any mesh build raise, so a rejected size is seen to allocate nothing."""
    def build(n):
        raise _MeshBuilt(n)

    monkeypatch.setattr(cli, "build_uniform_mesh", build)


@pytest.mark.parametrize("argv, limit", [
    (["solve-nse", "--n", str(cli.MAX_N + 1)], cli.MAX_N),
    (["mesh-info", "--n", str(cli.MAX_N + 1)], cli.MAX_N),
    (["convergence-table", "--mesh-sizes", f"3,{cli.MAX_N + 1}"], cli.MAX_N),
    (["export-contours", "--n", "3", "--grid-size", str(cli.MAX_GRID_SIZE + 1)],
     cli.MAX_GRID_SIZE),
])
def test_sizes_above_their_bound_exit_2_before_any_mesh(tmp_path, capsys, no_mesh, argv, limit):
    assert run_cli([*argv, "--out-dir", str(tmp_path)]) == 2
    assert f"above the limit {limit} (memory budget 1024 MiB)" in capsys.readouterr().err


def test_grid_below_16_exits_2_before_any_mesh(tmp_path, capsys, no_mesh):
    assert run_cli(["export-contours", "--grid-size", "15", "--out-dir", str(tmp_path)]) == 2
    assert "at least 16 x 16" in capsys.readouterr().err


def test_sizes_at_their_bound_reach_the_mesh(tmp_path, no_mesh):
    for argv in (["solve-nse", "--n", str(cli.MAX_N)],
                 ["export-contours", "--n", "3", "--grid-size", str(cli.MAX_GRID_SIZE)]):
        with pytest.raises(_MeshBuilt):
            run_cli([*argv, "--out-dir", str(tmp_path)])


def test_size_bounds_follow_the_memory_budget():
    error_tables = 7 * (2 * cli.MAX_N**2) * 25 * 21 * 8  # seven (2 n^2, 25, 21) float64 arrays
    assert error_tables <= cli.MEMORY_BUDGET < 7 * (2 * (cli.MAX_N + 1)**2) * 25 * 21 * 8
    assert (cli.MAX_N, cli.MAX_GRID_SIZE) == (135, 3344)


def test_size_bound_applies_to_config_file_values(tmp_path, capsys, no_mesh):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"n = {cli.MAX_N + 1}\n")
    assert run_cli(["solve-biharmonic", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
    assert f"--n {cli.MAX_N + 1} is above the limit" in capsys.readouterr().err


def test_pbm_size_formula_matches_the_written_files(tmp_path):
    # the benchmark's n = 16 export: N = 2,086 free DOFs
    assert pbm_bytes(enumerate_dofs(build_uniform_mesh(16), 1).num_free) == 4_353_495
    for extra in ([], ["--minimal-bc"]):
        assert run_cli(["export-sparsity", "--n", "3", *extra, "--out-dir", str(tmp_path)]) == 0
        dimension = enumerate_dofs(build_uniform_mesh(3), 1, minimal_bc=bool(extra)).num_free
        pbm = tmp_path / "sparsity_biharmonic_n3_ordering1.pbm"
        assert pbm.stat().st_size == pbm_bytes(dimension)


@pytest.mark.parametrize("argv, size", [
    (["--n", "62"], 1_138_016_505),
    (["--n", "61", "--minimal-bc"], 1_081_193_057),
    (["--n", "61", "--minimal-bc", "--with-convection"], 1_081_193_057),
])
def test_export_sparsity_above_the_disk_bound_exits_2_and_writes_nothing(
        tmp_path, capsys, monkeypatch, argv, size):
    def no_assembly(*args, **kwargs):
        raise AssertionError("a matrix was assembled")

    monkeypatch.setattr(cli, "assemble_biharmonic", no_assembly)
    monkeypatch.setattr(cli, "discretize", no_assembly)
    out = tmp_path / "out"
    assert run_cli(["export-sparsity", *argv, "--out-dir", str(out)]) == 2
    assert f"the sparsity PBM would take {size:,} bytes, above the disk bound of 1024 MiB" in \
        capsys.readouterr().err
    assert not out.exists()


def test_export_sparsity_at_the_disk_bound_reaches_the_assembly(tmp_path, monkeypatch):
    class _Assembled(Exception):
        pass

    def assembled(*args, **kwargs):
        raise _Assembled

    monkeypatch.setattr(cli, "assemble_biharmonic", assembled)
    assert pbm_bytes(enumerate_dofs(build_uniform_mesh(61), 1).num_free) == 1_065_467_537
    with pytest.raises(_Assembled):
        run_cli(["export-sparsity", "--n", "61", "--out-dir", str(tmp_path)])
