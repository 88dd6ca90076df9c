"""The digest list of ``tools/snapshot_outputs.py``."""

import hashlib
import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "snapshot_outputs.py"


@pytest.fixture(scope="module")
def snapshot_tool():
    spec = importlib.util.spec_from_file_location("snapshot_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digests_cover_every_output_but_timings_in_sorted_order(tmp_path, snapshot_tool):
    files = {"b-run/stdout.txt": b"b\n", "a-run/x.mtx": b"1 1 0.5\n", "a-run/sub/y.npy": b"\0\1",
             "a-run/notes": b"abc", "a-run/timings.csv": b"step,seconds\n"}
    for name, data in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_bytes(data)
    (tmp_path / "SHA256SUMS").write_text("stale\n")

    digest, sizes = snapshot_tool.write_digests(tmp_path)

    sums = (tmp_path / "SHA256SUMS").read_text()
    assert digest == hashlib.sha256(sums.encode()).hexdigest()
    assert sizes == {"": 3, ".mtx": 8, ".npy": 2, ".txt": 2}
    # the printed per-suffix bytes add up to the printed total
    head, *per_suffix = snapshot_tool.summary(digest, sizes).splitlines()
    total = sum(len(data) for name, data in files.items() if "timings" not in name)
    assert head == f"SHA256SUMS: {digest}  {total} bytes"
    assert [line.split(":")[0] for line in per_suffix] == ["  (none)", "  .mtx", "  .npy", "  .txt"]
    assert sum(int(line.split()[1]) for line in per_suffix) == total
    assert sums == "".join(
        f"{hashlib.sha256(files[name]).hexdigest()}  {name}\n"
        for name in ("a-run/notes", "a-run/sub/y.npy", "a-run/x.mtx", "b-run/stdout.txt")
    )
    if shutil.which("sha256sum"):
        subprocess.run(["sha256sum", "--quiet", "-c", "SHA256SUMS"], cwd=tmp_path, check=True)


def test_compare_lists_added_removed_and_changed_outputs_and_csv_column_changes(tmp_path,
                                                                                snapshot_tool):
    before = {"a/t.csv": "h,n,psi\n1/3,4,2.0\n1/4,5,-4.0\n", "a/same.txt": "x\n",
              "a/gone.npy": "\0", "a/timings.csv": "step,seconds\nn_3,0.1\n",
              "b/text.csv": "h,status\n1/3,ok\n", "b/p.svg": "<svg/>"}
    after = {"a/t.csv": "h,n,psi\n1/3,4,2.0000000001\n1/4,5,-4.0\n", "a/same.txt": "x\n",
             "a/new.mtx": "%\n", "a/timings.csv": "step,seconds\nn_3,0.2\n",
             "b/text.csv": "h,status\n1/3,not-converged\n", "b/p.svg": "<svg />"}
    for root, files in (("before", before), ("after", after)):
        for name, text in files.items():
            (tmp_path / root / name).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / root / name).write_text(text)

    report = snapshot_tool.compare(tmp_path / "before", tmp_path / "after")

    assert report == [
        "removed: a/gone.npy",
        "added: a/new.mtx",
        "changed: a/t.csv",
        "  n: 0 (max |delta| 0, max |value| 5)",
        "  psi: 2.5e-11 (max |delta| 1e-10, max |value| 4)",
        "changed: b/p.svg",
        "changed: b/text.csv",
        "  status: text differs",
    ]
    assert snapshot_tool.compare(tmp_path / "before", tmp_path / "before") == []


@pytest.mark.parametrize("argv", [["--help"], ["-o"], ["--compare", "x"], ["a", "b"],
                                  ["--compare", ".", "missing"]])
def test_bad_arguments_print_the_usage_and_run_nothing(tmp_path, argv):
    done = subprocess.run([sys.executable, str(TOOL), *argv], cwd=tmp_path, capture_output=True,
                          text=True)
    assert done.returncode == 2
    assert "--compare BEFORE AFTER" in done.stderr and done.stdout == ""
    assert list(tmp_path.iterdir()) == []
