"""Every CLI output of the snapshot, bit for bit, against committed digests.

``golden/SHA256SUMS`` is the ``SHA256SUMS`` that ``tools/snapshot_outputs.py``
writes: the SHA-256 of each output of its 52 runs but ``timings.csv``. The
test reruns the tool in a subprocess under ``PIN``, the SIMD kernels an
AVX-only x86-64 host picks (OpenBLAS's Sandybridge kernels, numpy's
dispatch below X86_V3), so the digests do not depend on the wider kernels
a host may have. A change that moves an output fails here and names the
files that differ. A change meant to move outputs regenerates the sums
under the same pin,

    OPENBLAS_CORETYPE=Sandybridge \\
    NPY_DISABLE_CPU_FEATURES="X86_V3 X86_V4 AVX512_ICL AVX512_SPR" \\
        python tools/snapshot_outputs.py OUT && cp OUT/SHA256SUMS tests/golden/

and says so, with the ``--compare`` report, in CHANGES.md.
"""

import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "SHA256SUMS"
PIN = {"OPENBLAS_CORETYPE": "Sandybridge",
       "NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"}


def cpu_features() -> dict:
    """numpy's runtime CPU feature table: feature name -> available."""
    core = getattr(np, "_core", None) or np.core
    return core._multiarray_umath.__cpu_features__


def missing_feature() -> str | None:
    """What this host lacks to run the pinned kernels, or None."""
    if platform.machine().lower() not in ("x86_64", "amd64"):
        return f"an x86-64 CPU (this is {platform.machine() or 'unknown'})"
    if not cpu_features().get("AVX"):
        return "AVX"
    return None


def read_sums(path: Path) -> dict[str, str]:
    """Relative path -> SHA-256 of a ``sha256sum``-format list."""
    return {name: digest for digest, name in
            (line.split("  ", 1) for line in path.read_text().splitlines())}


def test_snapshot_outputs_match_the_committed_digests(tmp_path):
    missing = missing_feature()
    if missing:
        pytest.skip(f"the pinned kernels need {missing}")
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "snapshot_outputs.py"),
                          str(tmp_path / "out")], env={**os.environ, **PIN},
                         capture_output=True, text=True, timeout=900)
    assert run.returncode == 0, run.stdout[-2000:] + run.stderr[-2000:]
    want, got = read_sums(GOLDEN), read_sums(tmp_path / "out" / "SHA256SUMS")
    differ = [f"{'missing' if name not in got else 'added' if name not in want else 'changed'}: "
              f"{name}" for name in sorted(want.keys() | got.keys())
              if want.get(name) != got.get(name)]
    assert not differ, "\n".join(
        [f"{len(differ)} of {len(want)} outputs differ from the committed digests:", *differ])
