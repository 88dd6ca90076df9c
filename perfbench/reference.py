"""A fixed reference kernel that follows the host's speed.

The benchmark's host is a virtual machine on a shared server, and its speed
drifts by up to a third over seconds to minutes, whatever runs inside the
machine: the same op, repeated back to back in one process, takes 0.75 to
1.3 times its median depending on when it runs. The drift comes from
outside the program, so it is not part of what a change to streamfem does.
The benchmark times this kernel, which never changes and calls nothing from
streamfem, before, during and after every op, and rescales the op's wall
time by how fast the kernel ran meanwhile (``REFERENCE_S / kernel
seconds``); ``run.py`` does the timing and README.md gives the spreads with
and without it. In 5 s buckets of a 5 min run of ``tables-small`` the op
times and the kernel times moved together to within a few percent.

The kernel mixes what streamfem's ops spend their time on: a Python loop,
small dense solves and products (as in element bases and tables, most of
its time) and sparse matrix-vector products on a 20,000-row matrix (as in
the solvers). Its inputs are fixed, not drawn from the workload seed. A
variant with an added Krylov-style loop on a system of the ordering study's
size tracked no better: with it, ``solve-n32``'s rescaled spread over ten
seeds came out wider than its plain one (0.090 against 0.074).
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp

# about the median kernel time on the 2-vCPU Intel Xeon virtual machine of the baseline;
# rescaled op times are seconds at that machine's median speed
REFERENCE_S = 0.016


class ReferenceKernel:
    """Build the kernel's inputs once; ``seconds()`` times one pass."""

    def __init__(self):
        rng = np.random.default_rng(20040607)
        self._small = [rng.standard_normal((21, 21)) + 21 * np.eye(21) for _ in range(64)]
        self._rhs = rng.standard_normal(21)
        n, per_row = 20000, 12
        cols = rng.integers(0, n, size=(n, per_row))
        cols[:, 0] = np.arange(n)
        self._sparse = sp.csr_matrix(
            (rng.random(n * per_row), cols.ravel(), np.arange(0, n * per_row + 1, per_row)),
            shape=(n, n))
        self._x = rng.standard_normal(n)
        for _ in range(3):   # first passes fault in pages and fill caches
            self.seconds()

    def seconds(self) -> float:
        t0 = time.perf_counter()
        acc = 0
        for i in range(20000):
            acc += i * i % 7
        for _ in range(4):
            for m in self._small:
                np.linalg.solve(m, self._rhs)
                m @ self._rhs @ self._rhs
        y = self._x
        for _ in range(30):
            y = self._sparse @ y
            y /= np.abs(y).max()
        return time.perf_counter() - t0
