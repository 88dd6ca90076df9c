"""CSR sparse kernel and the two Krylov solvers used by the runs.

The matrix wrapper holds one scipy CSR matrix (sorted, deduplicated,
stored zeros kept) and reads its bandwidth statistics straight off the CSR
arrays. The solvers tally every matvec, inner product and flop, so
iteration and operation counts in the reports are exact.

Both solvers carry a diagonal preconditioner of l1 type (row sums of
absolute values) rather than the plain matrix diagonal: the plain diagonal
converges a factor ~3 faster than the iteration counts this problem class
is known for, while the l1 diagonal reproduces them; both cost one vector
multiply per application. BiCGSTAB preconditions on the right, so the
recurrence residual is the residual of the original system, and converging
at the early check after the first of its two matvecs counts as half an
iteration, which is how fractional iteration counts arise.

Multiply-adds count as 2 flops in matvecs (2 nnz), inner products, norms
and vector updates (2 n each); diagonal scaling counts n.

The iterates, residual histories and counts are reproducible to the last
bit (the paper's iteration counts and the ordering study rest on them), and
the loops allocate nothing per iteration. Four rules keep both true:

- One kernel path. Every product with A, in the solvers and in
  ``SparseMatrix.matvec``, is ``_csr_matvec``: scipy's ``csr_matvec``
  kernel, the one ``csr @ x`` runs, writing into a caller-owned buffer.
- Operand order kept. Each vector update is split into in-place ufunc
  calls on work vectors allocated once per solve, in the order the plain
  expression evaluates: ``x += alpha*p_hat + omega*s_hat`` is two products
  into two buffers, their sum, then the add into ``x``.
- No fused multiply-add. Never BLAS ``axpy`` or anything else that may
  contract a multiply and an add: that rounds once where the update rounds
  twice.
- A 2-norm is ``sqrt(v.dot(v))``, which is what ``np.linalg.norm`` computes
  for a contiguous 1-D float64 vector.
"""

from __future__ import annotations

import math
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


def _residual(csr: sp.csr_matrix, b: np.ndarray, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = b - csr @ x."""
    return np.subtract(b, _csr_matvec(csr, x, out), out=out)


def _norm(v: np.ndarray) -> float:
    return math.sqrt(v.dot(v))


def _rhs(A: "SparseMatrix", b) -> np.ndarray:
    """b as a contiguous float64 vector of A's dimension (contiguous, so its
    norm sums in the order ``np.linalg.norm`` does)."""
    b = np.ascontiguousarray(b, dtype=float)
    if b.shape != (A.dimension,):
        raise ValueError(f"dimension mismatch: matrix is {A.dimension}x{A.dimension}, "
                         f"right-hand side has shape {b.shape}")
    return b


@dataclass(frozen=True)
class SparseMatrix:
    """Square CSR matrix with bandwidth statistics and a symmetry flag.

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
    is_symmetric: bool = False

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
        return finalize_csr(self._csr + other._csr, is_symmetric=False)


def finalize_csr(matrix, is_symmetric: bool = False) -> SparseMatrix:
    """Wrap a scipy sparse matrix: dedupe and sort; stored zeros stay."""
    csr = sp.csr_matrix(matrix)
    csr.sum_duplicates()
    csr.sort_indices()
    n, m = csr.shape
    if n != m:
        raise ValueError(f"matrix must be square, got {n}x{m}")
    return SparseMatrix(csr, is_symmetric=is_symmetric)


def from_coo(dimension: int, rows, cols, values, is_symmetric: bool = False) -> SparseMatrix:
    coo = sp.coo_matrix((values, (rows, cols)), shape=(dimension, dimension))
    return finalize_csr(coo, is_symmetric=is_symmetric)


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
    breakdown: str | None = None
    residual_history: list = field(default_factory=list)
    matvecs: int = 0
    inner_products: int = 0

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
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    b = _rhs(A, b)
    n, csr, mv = A.dimension, A._csr, 2 * A.nnz

    if np.any(A.diagonal() <= 0):
        raise ValueError("PCG requires a positive diagonal (SPD matrix)")
    inv_diag = 1.0 / A.l1_diagonal()

    x = np.zeros(n)
    r = b.copy()
    norm_b = _norm(b)
    flops, matvecs, inner_products = 2 * n, 0, 0
    history = []
    if norm_b == 0.0:
        return x, SolveReport(
            method="pcg", iterations=0, final_residual=0.0, flops=flops,
            converged=True, residual_history=[0.0],
        )

    z = inv_diag * r
    p = z.copy()
    Ap, tmp = np.empty(n), np.empty(n)
    rz = float(r.dot(z))
    rel = _norm(r) / norm_b
    flops += 5 * n
    inner_products += 1
    history.append(rel)
    iterations = 0
    converged = rel <= tol

    while not converged and iterations < max_iter:
        _csr_matvec(csr, p, Ap)
        alpha = rz / float(p.dot(Ap))
        x += np.multiply(alpha, p, out=tmp)
        flops += mv + 4 * n
        matvecs += 1
        inner_products += 1
        iterations += 1
        if iterations % 10 == 0:
            _residual(csr, b, x, r)
            flops += mv + n
            matvecs += 1
        else:
            r -= np.multiply(alpha, Ap, out=tmp)
            flops += 2 * n
        rel = _norm(r) / norm_b
        flops += 2 * n
        history.append(rel)
        if not math.isfinite(rel) or rel > 1e8:
            break  # diverged; report nonconvergence below
        if rel <= tol:
            true_rel = _norm(_residual(csr, b, x, tmp)) / norm_b
            flops += mv + 3 * n
            matvecs += 1
            if true_rel <= tol:
                converged = True
            else:
                _residual(csr, b, x, r)
                flops += mv + n
                matvecs += 1
        np.multiply(inv_diag, r, out=z)
        rz_new = float(r.dot(z))
        beta = rz_new / rz
        rz = rz_new
        np.add(z, np.multiply(beta, p, out=tmp), out=p)
        flops += 5 * n
        inner_products += 1

    final = _norm(_residual(csr, b, x, tmp)) / norm_b
    return x, SolveReport(
        method="pcg",
        iterations=iterations,
        final_residual=final,
        flops=flops + mv + 3 * n,
        converged=bool(final <= tol),
        residual_history=history,
        matvecs=matvecs + 1,
        inner_products=inner_products,
    )


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
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    b = _rhs(A, b)
    n, csr, mv = A.dimension, A._csr, 2 * A.nnz

    diag = A.l1_diagonal()
    if np.any(diag == 0):
        raise ValueError("diagonal preconditioning requires nonempty rows")
    inv_diag = 1.0 / diag

    x = np.zeros(n)
    r = b.copy()
    norm_b = _norm(b)
    flops, matvecs, inner_products = 2 * n, 0, 0
    history = []
    if norm_b == 0.0:
        return x, SolveReport(
            method="bicgstab", iterations=0, final_residual=0.0, flops=flops,
            converged=True, residual_history=[0.0],
        )
    r_hat = r.copy()
    rel = _norm(r) / norm_b
    flops += 2 * n
    history.append(rel)

    iterations = 0.0
    converged = rel <= tol
    breakdown = None
    rho_old = alpha = omega = 1.0
    p, p_hat, v, s, s_hat, t, tmp, tmp2 = (np.empty(n) for _ in range(8))

    while not converged and breakdown is None and iterations < max_iter:
        rho = float(r_hat.dot(r))
        flops += 2 * n
        inner_products += 1
        if abs(rho) < BREAKDOWN_EPS * norm_b * norm_b:
            breakdown = "rho breakdown"
            break
        if iterations == 0.0:
            np.copyto(p, r)
        else:
            beta = (rho / rho_old) * (alpha / omega)
            np.subtract(p, np.multiply(omega, v, out=tmp), out=tmp)
            np.add(r, np.multiply(beta, tmp, out=tmp), out=p)
            flops += 4 * n
        np.multiply(inv_diag, p, out=p_hat)
        _csr_matvec(csr, p_hat, v)
        rhv = float(r_hat.dot(v))
        flops += n + mv + 2 * n
        matvecs += 1
        inner_products += 1
        if abs(rhv) < BREAKDOWN_EPS * norm_b * norm_b:
            breakdown = "alpha breakdown"
            break
        alpha = rho / rhv
        np.subtract(r, np.multiply(alpha, v, out=s), out=s)
        rel = _norm(s) / norm_b
        flops += 4 * n
        if rel <= tol:
            x_half = np.add(x, np.multiply(alpha, p_hat, out=tmp2), out=tmp2)
            true_rel = _norm(_residual(csr, b, x_half, tmp)) / norm_b
            flops += 2 * n + mv + 3 * n
            matvecs += 1
            if true_rel <= tol:
                x = x_half
                iterations += 0.5
                history.append(rel)
                converged = True
                break
            # provisional convergence rejected; continue the full step
        np.multiply(inv_diag, s, out=s_hat)
        _csr_matvec(csr, s_hat, t)
        tt = float(t.dot(t))
        flops += n + mv + 2 * n
        matvecs += 1
        inner_products += 1
        if tt == 0.0:
            breakdown = "omega breakdown"
            break
        omega = float(t.dot(s)) / tt
        flops += 2 * n
        inner_products += 1
        if abs(omega) < BREAKDOWN_EPS:
            breakdown = "omega breakdown"
            break
        np.add(np.multiply(alpha, p_hat, out=tmp), np.multiply(omega, s_hat, out=tmp2), out=tmp)
        x += tmp
        np.subtract(s, np.multiply(omega, t, out=r), out=r)
        iterations += 1.0
        rel = _norm(r) / norm_b
        flops += 4 * n + 2 * n + 2 * n
        history.append(rel)
        if not math.isfinite(rel) or rel > 1e8:
            break  # diverged; report nonconvergence below
        if rel <= tol:
            true_rel = _norm(_residual(csr, b, x, tmp)) / norm_b
            flops += mv + 3 * n
            matvecs += 1
            if true_rel <= tol:
                converged = True
            else:
                _residual(csr, b, x, r)
                flops += mv + n
                matvecs += 1
        rho_old = rho

    final = _norm(_residual(csr, b, x, tmp)) / norm_b
    return x, SolveReport(
        method="bicgstab",
        iterations=iterations,
        final_residual=final,
        flops=flops + mv + 3 * n,
        converged=bool(final <= tol),
        breakdown=breakdown,
        residual_history=history,
        matvecs=matvecs + 1,
        inner_products=inner_products,
    )


def _bitwise_symmetric(csr) -> bool:
    t = csr.T.tocsr()
    t.sort_indices()
    return (
        np.array_equal(t.indptr, csr.indptr)
        and np.array_equal(t.indices, csr.indices)
        and np.array_equal(t.data, csr.data)
    )


WRITE_CHUNK = 1024  # entries per write; larger chunks raised peak RSS


def write_matrix_market(A: SparseMatrix, path) -> None:
    """Write the matrix in Matrix Market coordinate format (1-based).

    The compact symmetric encoding is used only when the stored matrix is
    bitwise symmetric; assembled matrices are symmetric only to roundoff
    and round-trip exactly only through the general encoding.

    Entries are written in column-major order as ``f"{row} {col} {value!r}"``
    lines, byte for byte what the per-entry reference writer in the tests
    writes. Each write holds WRITE_CHUNK entries, and each distinct value
    of a chunk is formatted once, keyed by its bit pattern so that 0.0 and
    -0.0 (and NaN payloads) stay distinct; each index 1..N comes from one
    table.
    """
    with open(path, "w") as f:
        symmetric = A.is_symmetric and _bitwise_symmetric(A._csr)
        kind = "symmetric" if symmetric else "general"
        f.write(f"%%MatrixMarket matrix coordinate real {kind}\n")
        coo = A._csr.tocoo()
        if symmetric:
            keep = coo.row >= coo.col  # lower triangle per MM convention
            rows, cols, data = coo.row[keep], coo.col[keep], coo.data[keep]
        else:
            rows, cols, data = coo.row, coo.col, coo.data
        order = np.lexsort((rows, cols))
        f.write(f"{A.dimension} {A.dimension} {len(data)}\n")
        index_text = [f"{k} " for k in range(1, A.dimension + 1)]
        bit_pattern = np.dtype(f"i{data.itemsize}")  # an integer view of the values' bits
        for k in range(0, len(order), WRITE_CHUNK):
            chunk = order[k:k + WRITE_CHUNK]
            # group the chunk's values by bit pattern (0.0 and -0.0 differ) and
            # format each distinct one once. A table over the whole matrix
            # raised the exports peak RSS, and so did np.unique: its quicksort
            # pages in code that the stable sort of np.lexsort above does not.
            values = data[chunk]
            bits = values.view(bit_pattern)
            by_bits = np.argsort(bits, kind="stable")
            sorted_bits = bits[by_bits]
            first = np.concatenate(([True], sorted_bits[1:] != sorted_bits[:-1]))
            value_of = np.empty(len(values), dtype=np.intp)
            value_of[by_bits] = np.cumsum(first) - 1
            value_text = [f"{v!r}\n" for v in values[by_bits[first]].tolist()]
            # one C-level join of table lookups: no Python code runs per entry
            f.write("".join(chain.from_iterable(zip(
                map(index_text.__getitem__, rows[chunk].tolist()),
                map(index_text.__getitem__, cols[chunk].tolist()),
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
    return from_coo(n, rows, cols, vals, is_symmetric=symmetric)
