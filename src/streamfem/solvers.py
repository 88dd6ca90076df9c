"""CSR sparse kernel and the two Krylov solvers used by the runs.

The matrix wrapper holds one scipy CSR matrix (sorted, deduplicated,
stored zeros kept) and reads its bandwidth statistics straight off the CSR
arrays.

Both solvers carry a diagonal preconditioner of l1 type (row sums of
absolute values) rather than the plain matrix diagonal: the plain diagonal
converges a factor ~3 faster than the iteration counts this problem class
is known for, while the l1 diagonal reproduces them; both cost one vector
multiply per application. BiCGSTAB preconditions on the right, so the
recurrence residual is the residual of the original system, and converging
at the early check after the first of its two matvecs counts as half an
iteration, which is how fractional iteration counts arise.

Both solvers run on one frame, ``_Krylov``: it checks tol and b, holds
x, r, ||b||, the work vector ``tmp``, the residual history and the exact
work tallies, and owns what the loops share:

- b = 0 returns x = 0 as converged, with no iteration and no matvec;
- the stop rule of every full step: record ||r|| / ||b||; stop as diverged
  when it is not finite or above 1e8; at or below tol, confirm it against
  the true residual b - A x, or refresh r from that when it is above tol
  (BiCGSTAB's early check confirms the same way but never refreshes);
- the one ``SolveReport``, whose final residual is the true one at x.

The frame counts each matvec (2 nnz flops, one matvec), inner product
(2 n flops, one inner product), relative norm (2 n flops) and the n flops
of the subtraction in b - A x. A solver adds only the flops of its own
vector updates: 2 n per multiply-add, n per diagonal scaling.

The iterates, residual histories and counts are reproducible to the last
bit (the paper's iteration counts and the ordering study rest on them), and
the loops allocate nothing per iteration. Four rules keep both true:

- One kernel path. Every product with A sums each row with scipy's
  ``csr_matvec``, the kernel ``csr @ x`` runs, in storage order, into a
  caller-owned buffer. A solve whose A holds ``SPLIT_NNZ`` entries or more,
  in a process that may run on two CPUs, cuts the rows in two, one part per
  thread (``_RowSplit``); every other product is ``_csr_matvec``.
- Operand order kept. Each vector update is split into in-place ufunc
  calls on work vectors allocated once per solve, in the order the plain
  expression evaluates: ``x += alpha*p_hat + omega*s_hat`` is two products
  into two buffers, their sum, then the add into ``x``. ``dot(u, v)`` is
  ``u.dot(v)``, operands in the order the solver passes them.
- No fused multiply-add. Never BLAS ``axpy`` or anything else that may
  contract a multiply and an add: that rounds once where the update rounds
  twice.
- A 2-norm is ``sqrt(v.dot(v))``, which is what ``np.linalg.norm`` computes
  for a contiguous 1-D float64 vector; the frame makes b contiguous.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field
from itertools import chain

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matvec


def _csr_matvec(csr: sp.csr_matrix, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = csr @ x, bitwise, into the contiguous float64 buffer ``out``."""
    # private scipy kernel: `csr @ x` adds ~3-7 us of dispatch per call at n = 3-16
    out.fill(0.0)  # the kernel adds each row's sum into out
    csr_matvec(csr.shape[0], csr.shape[1], csr.indptr, csr.indices, csr.data, x, out)
    return out


# Stored entries from which a solve splits its products over two threads:
# n >= 28. Timed per Krylov iteration on 2 vCPUs, the split won 8 to 16 of
# 12 to 16 blocks at n = 28 (290,944 entries) and 32 (385,000), was mixed at
# n = 24 (210,040) and lost at n = 16 (87,688).
SPLIT_NNZ = 2**18


class _RowSplit:
    """out = A v, bitwise ``_csr_matvec``'s, with the rows cut once at half the
    stored entries: a worker thread runs ``csr_matvec`` on the first rows
    while the caller runs it on the rest (the kernel releases the GIL). The
    two hand off through a pair of locks; ``close`` ends the worker."""

    def __init__(self, csr: sp.csr_matrix):
        (n, cols), ptr = csr.shape, csr.indptr
        self.m = m = int(np.searchsorted(ptr, csr.nnz // 2))
        self.job = self.error = None
        self.head = (m, cols, ptr[:m + 1], csr.indices, csr.data)
        self.tail = (n - m, cols, ptr[m:], csr.indices, csr.data)
        self.go, self.done = threading.Lock(), threading.Lock()
        self.go.acquire()
        self.done.acquire()
        self.worker = threading.Thread(target=self._work, daemon=True)
        self.worker.start()

    def _work(self) -> None:
        while True:
            self.go.acquire()
            if self.job is None:
                return
            v, out = self.job
            try:
                out[:self.m] = 0.0  # each side zeroes only its own rows
                csr_matvec(*self.head, v, out[:self.m])
            except BaseException as exc:  # handed to the caller, which raises it
                self.error = exc
            self.done.release()

    def __call__(self, v: np.ndarray, out: np.ndarray) -> np.ndarray:
        self.job = v, out
        self.go.release()
        try:
            out[self.m:] = 0.0
            csr_matvec(*self.tail, v, out[self.m:])
        finally:
            self.done.acquire()
        if self.error is not None:
            raise self.error
        return out

    def close(self) -> None:
        self.job = None
        self.go.release()
        self.worker.join()


@dataclass(frozen=True)
class SparseMatrix:
    """Square CSR matrix with bandwidth statistics.

    The one copy of the entries is the wrapped scipy CSR matrix (sorted,
    deduplicated, stored zeros kept); ``indptr``, ``indices`` and ``data``
    are views of its arrays, not copies. Build it with ``finalize_csr`` or
    ``from_coo``, or assemble it with an ``assembly.ScatterPlan``. A plan
    sums each entry's duplicates in the order ``from_coo`` does, so both
    give the same arrays, byte for byte, and every plan-assembled matrix
    shares the plan's read-only ``indptr`` and ``indices``. nnz counts
    stored entries, exact zeros included.
    """

    _csr: sp.csr_matrix = field(repr=False)

    @property
    def dimension(self) -> int:
        return self._csr.shape[0]

    @property
    def indptr(self) -> np.ndarray:
        return self._csr.indptr

    @property
    def indices(self) -> np.ndarray:
        return self._csr.indices

    @property
    def data(self) -> np.ndarray:
        return self._csr.data

    @property
    def nnz(self) -> int:
        return len(self.data)

    @property
    def bandwidth(self) -> int:
        """Largest |row - col| over stored entries.

        Columns are sorted within a row, so each row's extreme is at its
        first or last entry: two reads per row, no per-entry array.
        """
        rows = np.flatnonzero(np.diff(self.indptr))  # nonempty rows
        if len(rows) == 0:
            return 0
        first = self.indices[self.indptr[rows]]
        last = self.indices[self.indptr[rows + 1] - 1]
        return int(max((rows - first).max(), (last - rows).max()))

    @property
    def profile(self) -> int:
        """Sum over rows of (row index - smallest column index in the row)."""
        rows = np.flatnonzero(np.diff(self.indptr))  # empty rows add nothing
        first = self.indices[self.indptr[rows]]
        return int(np.maximum(rows - first, 0).sum())

    def diagonal(self) -> np.ndarray:
        return self._csr.diagonal()

    def l1_diagonal(self) -> np.ndarray:
        """Row sums of absolute values (the l1 smoothing diagonal).

        The product with a ones vector adds each row's entries one by one in
        storage order. Keep that order: the solvers' iteration counts depend
        on these sums to the last bit, and a pairwise ``sum(axis=1)`` or
        ``np.add.reduceat`` rounds differently. The kernel runs over this
        matrix's own ``indptr`` and ``indices``: ``abs(csr)`` would copy them.
        """
        n = self.dimension
        out = np.zeros(n)
        csr_matvec(n, n, self.indptr, self.indices, np.abs(self.data), np.ones(n), out)
        return out

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """CSR product A @ x, as a new vector."""
        x = np.ascontiguousarray(x, dtype=float)
        if x.shape != (self.dimension,):
            raise ValueError(
                f"dimension mismatch: matrix is {self.dimension}x{self.dimension}, "
                f"vector has shape {x.shape}"
            )
        return _csr_matvec(self._csr, x, np.empty(self.dimension))

    def toarray(self) -> np.ndarray:
        return self._csr.toarray()

    # unused by the package; perfbench/spans.py traces it (solvers.matrix_sum)
    def __add__(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.dimension != other.dimension:
            raise ValueError("dimension mismatch in matrix sum")
        return finalize_csr(self._csr + other._csr)


def finalize_csr(matrix) -> SparseMatrix:
    """Wrap a scipy sparse matrix: dedupe and sort; stored zeros stay."""
    csr = sp.csr_matrix(matrix)
    csr.sum_duplicates()
    csr.sort_indices()
    n, m = csr.shape
    if n != m:
        raise ValueError(f"matrix must be square, got {n}x{m}")
    return SparseMatrix(csr)


def from_coo(dimension: int, rows, cols, values) -> SparseMatrix:
    coo = sp.coo_matrix((values, (rows, cols)), shape=(dimension, dimension))
    return finalize_csr(coo)


def bandwidth_stats(A: SparseMatrix) -> dict:
    """Bandwidth (max |i-j| over stored entries), nnz and profile of a matrix."""
    return {"bandwidth": A.bandwidth, "nnz": A.nnz, "profile": A.profile}


@dataclass
class SolveReport:
    """Outcome of one linear solve."""

    method: str
    iterations: float
    final_residual: float
    flops: int
    converged: bool
    residual_history: list
    matvecs: int
    inner_products: int
    breakdown: str | None = None

    def as_text(self) -> str:
        lines = [
            f"method = {self.method}",
            f"iterations = {self.iterations:g}",
            f"converged = {str(self.converged).lower()}",
            f"final_residual = {self.final_residual!r}",
            f"flops = {self.flops}",
            f"matvecs = {self.matvecs}",
            f"inner_products = {self.inner_products}",
        ]
        if self.breakdown:
            lines.append(f"breakdown = {self.breakdown}")
        return "\n".join(lines) + "\n"


class _Krylov:
    """The frame of one PCG or BiCGSTAB solve of A x = b, from x = 0 and
    r = b: every matvec, inner product and norm of the solve is taken and
    counted here."""

    __slots__ = ("csr", "split", "n", "mv", "b", "tol", "x", "r", "tmp", "norm_b", "history",
                 "converged", "flops", "matvecs", "inner_products")

    def __init__(self, A: SparseMatrix, b, tol: float):
        if not (math.isfinite(tol) and tol > 0):
            raise ValueError(f"tolerance must be positive and finite, got {tol}")
        b = np.ascontiguousarray(b, dtype=float)  # so its norm sums as np.linalg.norm's does
        if b.shape != (A.dimension,):
            raise ValueError(f"dimension mismatch: matrix is {A.dimension}x{A.dimension}, "
                             f"right-hand side has shape {b.shape}")
        self.csr, self.n, self.mv, self.b, self.tol = A._csr, A.dimension, 2 * A.nnz, b, tol
        self.split = None  # a _RowSplit while solve() runs, for a large A
        self.x, self.r, self.tmp = np.zeros(self.n), b.copy(), np.empty(self.n)
        self.norm_b = math.sqrt(b.dot(b))
        self.history, self.converged = [], False
        self.flops, self.matvecs, self.inner_products = 2 * self.n, 0, 0

    def matvec(self, v: np.ndarray, out: np.ndarray) -> np.ndarray:
        """out = A v."""
        self.flops += self.mv
        self.matvecs += 1
        return _csr_matvec(self.csr, v, out) if self.split is None else self.split(v, out)

    def dot(self, u: np.ndarray, v: np.ndarray) -> float:
        self.flops += 2 * self.n
        self.inner_products += 1
        return float(u.dot(v))

    def rel(self, v: np.ndarray) -> float:
        """||v|| / ||b||."""
        self.flops += 2 * self.n
        return math.sqrt(v.dot(v)) / self.norm_b

    def residual(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """out = b - A x."""
        self.flops += self.n
        return np.subtract(self.b, self.matvec(x, out), out=out)

    def true_rel(self, x: np.ndarray) -> float:
        """||b - A x|| / ||b||, formed in ``tmp``."""
        return self.rel(self.residual(x, self.tmp))

    def end_step(self) -> bool:
        """The stop rule of a full step, which has updated x and r.

        Records ||r|| / ||b|| in the history and returns True when it is not
        finite or above 1e8: the solve diverged and ends at once. At or
        below tol the true residual confirms convergence, or else replaces r.
        """
        rel = self.rel(self.r)
        self.history.append(rel)
        if not math.isfinite(rel) or rel > 1e8:
            return True
        if rel <= self.tol:
            if self.true_rel(self.x) <= self.tol:
                self.converged = True
            else:
                self.residual(self.x, self.r)
        return False

    def solve(self, method: str, iterate) -> tuple[np.ndarray, SolveReport]:
        """x and the report of the solve that ``iterate()`` runs.

        b = 0 is solved by x = 0 without iterating. Otherwise the history
        starts with ||b|| / ||b||, ``iterate`` returns (iterations, breakdown
        or None), and the report's final residual is the true one at x.
        """
        if self.norm_b == 0.0:
            self.history.append(0.0)
            iterations, breakdown, final = 0, None, 0.0
        else:
            if self.csr.nnz >= SPLIT_NNZ and hasattr(os, "sched_getaffinity") \
                    and len(os.sched_getaffinity(0)) >= 2:
                self.split = _RowSplit(self.csr)
            try:
                rel = self.rel(self.r)
                self.history.append(rel)
                self.converged = rel <= self.tol
                iterations, breakdown = iterate()
                final = self.true_rel(self.x)
            finally:
                if self.split is not None:
                    self.split.close()
                    self.split = None
        return self.x, SolveReport(
            method=method, iterations=iterations, final_residual=final, flops=self.flops,
            converged=bool(final <= self.tol), residual_history=self.history,
            matvecs=self.matvecs, inner_products=self.inner_products, breakdown=breakdown,
        )


def pcg(A: SparseMatrix, b: np.ndarray, tol: float = 1e-5, max_iter: int = 10000):
    """Diagonally preconditioned conjugate gradients for SPD systems.

    Convergence is declared on the relative 2-norm of the recurrence
    residual and confirmed against the recomputed true residual; the
    recurrence residual is refreshed from the true one every 10 iterations
    to guard against drift. Nonconvergence is reported, not raised.
    ``max_iter=k`` returns iterate k of a longer solve, bit for bit. The
    iterates are monotone in the energy norm of the error, which is what
    tests track (the residual 2-norm itself oscillates, as it does for any
    CG).
    """
    k = _Krylov(A, b, tol)
    if np.any(A.diagonal() <= 0):
        raise ValueError("PCG requires a positive diagonal (SPD matrix)")
    inv_diag = 1.0 / A.l1_diagonal()

    def iterate():
        n, x, r, tmp = k.n, k.x, k.r, k.tmp
        z = inv_diag * r
        p = z.copy()
        Ap = np.empty(n)
        rz = k.dot(r, z)
        k.flops += n
        iterations = 0
        while not k.converged and iterations < max_iter:
            alpha = rz / k.dot(p, k.matvec(p, Ap))
            x += np.multiply(alpha, p, out=tmp)
            k.flops += 2 * n
            iterations += 1
            if iterations % 10 == 0:
                k.residual(x, r)
            else:
                r -= np.multiply(alpha, Ap, out=tmp)
                k.flops += 2 * n
            if k.end_step():
                break  # diverged
            np.multiply(inv_diag, r, out=z)
            rz_new = k.dot(r, z)
            beta = rz_new / rz
            rz = rz_new
            np.add(z, np.multiply(beta, p, out=tmp), out=p)
            k.flops += n + 2 * n
        return iterations, None

    return k.solve("pcg", iterate)


BREAKDOWN_EPS = 1e-30


def bicgstab(A: SparseMatrix, b: np.ndarray, tol: float = 1e-5, max_iter: int = 10000):
    """Right-preconditioned BiCGSTAB (van der Vorst) with half-step counts.

    Each full iteration performs exactly 2 matvecs and 4 inner products;
    convergence at the early check after the first matvec adds 0.5 to the
    iteration count. Breakdown (vanishing rho or omega) is reported
    distinctly from plain nonconvergence. As in ``pcg``, a full step whose
    relative residual exceeds 1e8 (or is not finite) ends the solve, which
    is then reported as not converged.
    """
    k = _Krylov(A, b, tol)
    diag = A.l1_diagonal()
    if np.any(diag == 0):
        raise ValueError("diagonal preconditioning requires nonempty rows")
    inv_diag = 1.0 / diag

    def iterate():
        n, x, r, tmp, eps = k.n, k.x, k.r, k.tmp, BREAKDOWN_EPS * k.norm_b * k.norm_b
        r_hat = r.copy()
        rho_old = alpha = omega = 1.0
        p, p_hat, v, s, s_hat, t, tmp2 = (np.empty(n) for _ in range(7))
        iterations = 0.0
        while not k.converged and iterations < max_iter:
            rho = k.dot(r_hat, r)
            if abs(rho) < eps:
                return iterations, "rho breakdown"
            if iterations == 0.0:
                np.copyto(p, r)
            else:
                beta = (rho / rho_old) * (alpha / omega)
                np.subtract(p, np.multiply(omega, v, out=tmp), out=tmp)
                np.add(r, np.multiply(beta, tmp, out=tmp), out=p)
                k.flops += 4 * n
            np.multiply(inv_diag, p, out=p_hat)
            rhv = k.dot(r_hat, k.matvec(p_hat, v))
            k.flops += n
            if abs(rhv) < eps:
                return iterations, "alpha breakdown"
            alpha = rho / rhv
            np.subtract(r, np.multiply(alpha, v, out=s), out=s)
            k.flops += 2 * n
            rel = k.rel(s)
            if rel <= tol:  # the early check: confirmed, never refreshed
                x_half = np.add(x, np.multiply(alpha, p_hat, out=tmp2), out=tmp2)
                k.flops += 2 * n
                if k.true_rel(x_half) <= tol:
                    k.x = x_half
                    k.history.append(rel)
                    return iterations + 0.5, None
                # provisional convergence rejected; continue the full step
            np.multiply(inv_diag, s, out=s_hat)
            k.matvec(s_hat, t)
            tt = k.dot(t, t)
            k.flops += n
            if tt == 0.0:
                return iterations, "omega breakdown"
            omega = k.dot(t, s) / tt
            if abs(omega) < BREAKDOWN_EPS:
                return iterations, "omega breakdown"
            np.add(np.multiply(alpha, p_hat, out=tmp), np.multiply(omega, s_hat, out=tmp2), out=tmp)
            x += tmp
            np.subtract(s, np.multiply(omega, t, out=r), out=r)
            k.flops += 4 * n + 2 * n
            iterations += 1.0
            if k.end_step():
                break  # diverged
            rho_old = rho
        return iterations, None

    return k.solve("bicgstab", iterate)


WRITE_CHUNK = 1024  # entries per write; larger chunks raised peak RSS


def write_matrix_market(A: SparseMatrix, path) -> None:
    """Write the matrix in Matrix Market coordinate format (1-based).

    The compact symmetric encoding is used only when the stored matrix is
    bitwise symmetric; assembled matrices are symmetric only to roundoff
    and round-trip exactly only through the general encoding.

    Entries are written in column-major order as ``f"{row} {col} {value!r}"``
    lines, byte for byte what the per-entry reference writer in the tests
    writes. The order and each entry's row come from scipy's CSR -> CSC
    conversion of the entry numbers, 8 B per entry (12 B while converting)
    and no sort; that CSC is also the transpose the symmetry test compares
    with. Each write holds WRITE_CHUNK entries, and each distinct value of
    a chunk is formatted once, keyed by its bit pattern so that 0.0 and -0.0
    (and NaN payloads) stay distinct; each index 1..N comes from one table.
    """
    csr, data = A._csr, A._csr.data
    # a CSC of the entry numbers: its data is the column-major order
    csc = sp.csr_matrix((np.arange(len(data), dtype=np.int32), csr.indices, csr.indptr),
                        shape=csr.shape).tocsc()
    order, rows, col_starts = csc.data, csc.indices, csc.indptr
    chunks = [slice(k, k + WRITE_CHUNK) for k in range(0, len(order), WRITE_CHUNK)]
    # A equals its transpose when the CSC, A's transpose in CSR, is A's CSR
    symmetric = (np.array_equal(col_starts, csr.indptr) and np.array_equal(rows, csr.indices)
                 and all(np.array_equal(data[order[at]], data[at]) for at in chunks))

    def entries():  # (rows, cols, values) to write, a chunk at a time
        for at in chunks:
            cols = np.searchsorted(col_starts, np.arange(*at.indices(len(order))), "right") - 1
            keep = rows[at] >= cols if symmetric else slice(None)  # lower triangle per MM
            yield rows[at][keep], cols[keep], data[order[at][keep]]

    with open(path, "w") as f:
        kind = "symmetric" if symmetric else "general"
        f.write(f"%%MatrixMarket matrix coordinate real {kind}\n")
        count = sum(len(kept) for kept, _, _ in entries()) if symmetric else len(order)
        f.write(f"{A.dimension} {A.dimension} {count}\n")
        index_text = [f"{k} " for k in range(1, A.dimension + 1)]
        bit_pattern = np.dtype(f"i{data.itemsize}")  # an integer view of the values' bits
        for chunk_rows, chunk_cols, values in entries():
            # group the chunk's values by bit pattern (0.0 and -0.0 differ) and
            # format each distinct one once. A table over the whole matrix
            # raised the exports peak RSS, and so did np.unique: its quicksort
            # pages in code that a stable sort does not.
            bits = values.view(bit_pattern)
            by_bits = np.argsort(bits, kind="stable")
            sorted_bits = bits[by_bits]
            first = np.concatenate(([True], sorted_bits[1:] != sorted_bits[:-1]))
            value_of = np.empty(len(values), dtype=np.intp)
            value_of[by_bits] = np.cumsum(first) - 1
            value_text = [f"{v!r}\n" for v in values[by_bits[first]].tolist()]
            # one C-level join of table lookups: no Python code runs per entry
            f.write("".join(chain.from_iterable(zip(
                map(index_text.__getitem__, chunk_rows.tolist()),
                map(index_text.__getitem__, chunk_cols.tolist()),
                map(value_text.__getitem__, value_of.tolist()),
            ))))


MM_ENTRY = np.dtype([("row", np.int64), ("col", np.int64), ("value", float)])


def read_matrix_market(path) -> SparseMatrix:
    """Read a coordinate-format Matrix Market file written by this package."""
    with open(path) as f:
        header = f.readline().strip().split()
        if len(header) < 5 or header[0] != "%%MatrixMarket":
            raise ValueError(f"not a Matrix Market file: {path}")
        symmetric = header[4] == "symmetric"
        line = f.readline()
        while line.startswith("%"):
            line = f.readline()
        n, m, nnz = (int(v) for v in line.split())
        if n != m:
            raise ValueError("only square matrices are supported")
        # one C-level pass that makes no Python object per entry
        entries = np.empty(0, MM_ENTRY)
        if nnz:  # loadtxt warns when it reads no data
            entries = np.loadtxt(f, dtype=MM_ENTRY, max_rows=nnz, ndmin=1)
    if len(entries) < nnz:
        raise ValueError(
            f"{path}: the header declares {nnz} entries but the body holds {len(entries)}"
        )
    rows, cols, vals = entries["row"] - 1, entries["col"] - 1, entries["value"]
    if symmetric:
        off = rows != cols
        rows, cols, vals = (
            np.concatenate([rows, cols[off]]),
            np.concatenate([cols, rows[off]]),
            np.concatenate([vals, vals[off]]),
        )
    return from_coo(n, rows, cols, vals)
