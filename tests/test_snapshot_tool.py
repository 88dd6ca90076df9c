"""The digest list of ``tools/snapshot_outputs.py``."""

import hashlib
import importlib.util
import shutil
import subprocess
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
