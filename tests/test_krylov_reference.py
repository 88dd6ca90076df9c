"""The rewritten Krylov loops against the loops they replaced, bit for bit.

``ref_pcg`` and ``ref_bicgstab`` below are the loops ``solvers.pcg`` and
``solvers.bicgstab`` ran before the solvers moved to one CSR kernel call per
matvec into reused buffers. Their bodies are kept verbatim; the one
adaptation is ``_CountedMatrix``, which gives them the matrix interface they
were written against (``matvec(x, counter)`` returning ``csr.dot(x)``), and
the one later change is BiCGSTAB's divergence stop, made in both loops at
once so that the comparison keeps covering every branch.
The rewrite must return the same iterate, byte for byte, and the same
``SolveReport`` in every field, residual history included, on every branch
of the loops: the paper's iteration and operation counts rest on this.
"""

from __future__ import annotations

import dataclasses
import struct

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import event, example, given, settings, strategies as st

from streamfem import solvers
from streamfem.assembly import assemble_convection, assemble_load
from streamfem.mesh import build_uniform_mesh
from streamfem.picard import PicardConfig, _expand, discretize
from streamfem.solvers import BREAKDOWN_EPS, SolveReport, SparseMatrix, finalize_csr


class FlopCounter:
    """Mutable tally of arithmetic work and instrumented op counts."""

    __slots__ = ("flops", "matvecs", "inner_products")

    def __init__(self):
        self.flops = 0
        self.matvecs = 0
        self.inner_products = 0

    def add(self, n: int) -> None:
        self.flops += int(n)


class _CountedMatrix:
    """A ``SparseMatrix`` with the counting ``matvec`` of the old loops."""

    def __init__(self, A: SparseMatrix):
        self.A = A
        self.dimension = A.dimension

    def diagonal(self):
        return self.A.diagonal()

    def l1_diagonal(self):
        return self.A.l1_diagonal()

    def matvec(self, x, counter=None):
        x = np.asarray(x, dtype=float)
        if counter is not None:
            counter.add(2 * self.A.nnz)
            counter.matvecs += 1
        return self.A._csr.dot(x)


def _dot(a: np.ndarray, b: np.ndarray, counter: FlopCounter) -> float:
    counter.add(2 * len(a))
    counter.inner_products += 1
    return float(np.dot(a, b))


def _norm(a: np.ndarray, counter: FlopCounter) -> float:
    # norms are counted as flops but not as algorithmic inner products
    counter.add(2 * len(a))
    return float(np.linalg.norm(a))


def ref_pcg(A: SparseMatrix, b: np.ndarray, tol: float = 1e-5, max_iter: int = 10000,
        callback=None):
    """The parent loop of ``solvers.pcg``, verbatim."""
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    b = np.asarray(b, dtype=float)
    counter = FlopCounter()
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
            converged=True,
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
        converged=bool(final <= tol),
        residual_history=history,
        matvecs=counter.matvecs,
        inner_products=counter.inner_products,
    )


def ref_bicgstab(
    A: SparseMatrix,
    b: np.ndarray,
    tol: float = 1e-5,
    max_iter: int = 10000,
    precondition: bool = True,
):
    """The parent loop of ``solvers.bicgstab``, verbatim but for the
    divergence stop after the full step, which both loops gained together."""
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    b = np.asarray(b, dtype=float)
    counter = FlopCounter()
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
            converged=True,
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
        if not np.isfinite(rel) or rel > 1e8:
            break  # the divergence stop, added to both loops together
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
        converged=bool(final <= tol),
        breakdown=breakdown,
        residual_history=history,
        matvecs=counter.matvecs,
        inner_products=counter.inner_products,
    )


# --- systems -------------------------------------------------------------

def make_system(kind: str, n: int, seed: int, density: float, shift: float, zero_b: bool = False):
    """A sparse n x n system with no empty rows, and a right-hand side.

    ``spd`` is M^T M + shift I; ``indefinite`` is M + M^T with its diagonal
    replaced by |diagonal| + shift (positive, so PCG accepts it, but not
    definite); ``nonsymmetric`` is M + shift I. M has normal entries.
    """
    rng = np.random.default_rng(seed)
    M = sp.random(n, n, density=density, random_state=rng, data_rvs=rng.standard_normal,
                  format="csr")
    if kind == "spd":
        S = M.T @ M + shift * sp.eye(n)
    elif kind == "indefinite":
        S = M + M.T
        d = S.diagonal()
        S = S + sp.diags(np.abs(d) + shift - d)
    else:
        S = M + shift * sp.eye(n)
    b = np.zeros(n) if zero_b else rng.standard_normal(n)
    return finalize_csr(S), b


def small_system(rows, b):
    return finalize_csr(sp.csr_matrix(np.array(rows, dtype=float))), np.array(b, dtype=float)


ZERO_B = st.integers(0, 9).map(lambda k: k == 7)  # b = 0 in about one draw in ten


def systems(kinds):
    return st.builds(
        make_system, st.sampled_from(kinds), st.integers(1, 60), st.integers(0, 2**32 - 1),
        st.sampled_from([0.05, 0.15, 0.4]), st.sampled_from([1e-3, 1e-1, 1.0, 10.0]),
        ZERO_B,
    )


TOLS = st.sampled_from([1e-1, 1e-4, 1e-8, 1e-12, 1e-15, 1e-17])
MAX_ITERS = st.integers(1, 150)


# --- comparison ----------------------------------------------------------

def _bits(value):
    """A field value with every float replaced by its bytes, so that -0.0,
    0.0 and NaN payloads compare exactly."""
    if isinstance(value, list):
        return [_bits(v) for v in value]
    if isinstance(value, float):
        return (float, struct.pack("<d", value))
    return (type(value), value)


def run(solver, *args):
    try:
        return solver(*args)
    except ArithmeticError as exc:  # e.g. PCG on a singular system divides by zero
        return type(exc)


def assert_same(got, want):
    if isinstance(want, type):
        assert got is want
        return
    (x, report), (x_ref, report_ref) = got, want
    assert x.tobytes() == x_ref.tobytes()
    for f in dataclasses.fields(SolveReport):
        assert _bits(getattr(report, f.name)) == _bits(getattr(report_ref, f.name)), f.name


def branches(b, tol, max_iter, report) -> set:
    """The loop branches a solve took, read off its inputs and report."""
    h = report.residual_history
    taken = {report.breakdown} - {None}
    if not b.any():
        taken.add("b = 0")
    if any(rel <= tol for rel in h[:-1]):  # a check that accepts ends the loop
        taken.add("rejected convergence")
    if report.iterations % 1 == 0.5:
        taken.add("half step")
    if report.iterations == max_iter and tol < h[-1] <= 1e8:
        taken.add("max_iter")
    if not np.isfinite(h[-1]) or h[-1] > 1e8:
        taken.add("divergence")
    if report.method == "pcg":
        if report.converged and report.iterations and report.iterations % 10 == 0 and h[-1] <= tol:
            taken.add("refresh convergence")
    return taken


# --- reference equality ----------------------------------------------------

# one example per loop branch the random draws rarely or never reach; the
# test below checks that each still takes its branch under the reference
PCG_CASES = {
    "b = 0": (make_system("spd", 5, 1, 0.4, 1.0, zero_b=True), 1e-8, 50),
    "refresh convergence": (make_system("spd", 30, 189, 0.15, 1.0), 1e-12, 44),
    "rejected convergence": (make_system("spd", 13, 964, 0.05, 10.0), 1e-17, 91),
    "max_iter": (make_system("spd", 31, 7, 0.4, 1.0), 1e-15, 9),
    "divergence": (small_system([[5, -5, 1], [-5, 5, -1], [1, -1, 5]], [1, 0, 2]), 1e-12, 50),
}
BICGSTAB_CASES = {
    "b = 0": (make_system("nonsymmetric", 5, 1, 0.4, 1.0, zero_b=True), 1e-8, 50),
    "half step": (make_system("spd", 2, 0, 0.4, 1e-3), 1e-15, 6),
    "rejected convergence": (make_system("spd", 27, 737, 0.4, 1.0), 1e-17, 47),
    "max_iter": (make_system("nonsymmetric", 20, 3, 0.15, 1.0), 1e-8, 3),
    "rho breakdown": (small_system([[-3, 3, -2], [1, -3, 0], [0, 0, 1]], [0, 0, -2]), 1e-12, 50),
    "alpha breakdown": (small_system([[0, 1], [-1, 0]], [1, 0]), 1e-12, 50),
    "omega breakdown": (small_system([[0, -1], [2, 3]], [0, 1]), 1e-12, 50),
    "divergence": (small_system([[2, -2, -1], [-3, 3, 3], [-3, 3, 2]], [2, -1, 2]), 1e-8, 200),
}
# PCG on a singular system: p . Ap = 0 raises ZeroDivisionError in both loops
SINGULAR = (small_system([[1, -1], [-1, 1]], [0, 2]), 1e-12, 50)


def with_examples(cases):
    def decorate(test):
        for case in cases:
            test = example(*case)(test)
        return test
    return decorate


@pytest.mark.parametrize("method, cases, reference", [
    ("pcg", PCG_CASES, ref_pcg), ("bicgstab", BICGSTAB_CASES, ref_bicgstab),
], ids=["pcg", "bicgstab"])
def test_each_example_takes_its_branch(method, cases, reference):
    for name, ((A, b), tol, max_iter) in cases.items():
        _, report = reference(_CountedMatrix(A), b, tol, max_iter)
        assert name in branches(b, tol, max_iter, report), (method, name)
    if method == "pcg":
        assert run(reference, _CountedMatrix(SINGULAR[0][0]), SINGULAR[0][1], 1e-12, 50) \
            is ZeroDivisionError


@settings(max_examples=150, deadline=None)
@with_examples([*PCG_CASES.values(), SINGULAR])
@given(systems(["spd", "indefinite"]), TOLS, MAX_ITERS)
def test_pcg_matches_reference(system, tol, max_iter):
    A, b = system
    want = run(ref_pcg, _CountedMatrix(A), b, tol, max_iter)
    assert_same(run(solvers.pcg, A, b, tol, max_iter), want)
    if not isinstance(want, type):
        for branch in branches(b, tol, max_iter, want[1]):
            event(branch)


@settings(max_examples=150, deadline=None)
@with_examples(BICGSTAB_CASES.values())
@given(systems(["spd", "nonsymmetric"]), TOLS, MAX_ITERS)
def test_bicgstab_matches_reference(system, tol, max_iter):
    A, b = system
    want = run(ref_bicgstab, _CountedMatrix(A), b, tol, max_iter)
    assert_same(run(solvers.bicgstab, A, b, tol, max_iter), want)
    if not isinstance(want, type):
        for branch in branches(b, tol, max_iter, want[1]):
            event(branch)


@pytest.fixture(scope="module")
def picard_systems():
    """The n = 5 viscous system A psi = l and the first Picard system
    (A + B(psi_0)) psi = l, at Re = 1 with 6 quadrature points."""
    disc = discretize(build_uniform_mesh(5), PicardConfig(reynolds=1.0, n_quad_points=6))
    ell = assemble_load(disc.tables, disc.dofmap, disc.ms.forcing)
    x0, _ = solvers.pcg(disc.A, ell, tol=1e-8)
    B = assemble_convection(disc.plan, disc.tables, _expand(disc.dofmap, x0))
    return disc.A, disc.A + B, ell


def test_viscous_system_matches_reference(picard_systems):
    A, _, ell = picard_systems
    got = solvers.pcg(A, ell, tol=1e-8, max_iter=20000)
    assert_same(got, ref_pcg(_CountedMatrix(A), ell, tol=1e-8, max_iter=20000))
    assert got[1].converged and got[1].iterations > 10


def test_picard_system_matches_reference(picard_systems):
    _, system, ell = picard_systems
    got = solvers.bicgstab(system, ell, tol=1e-8, max_iter=20000)
    assert_same(got, ref_bicgstab(_CountedMatrix(system), ell, tol=1e-8, max_iter=20000))
    assert got[1].converged and got[1].iterations > 10


# --- the CSR kernel ----------------------------------------------------------

KERNEL_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e308, -1e308, 1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
)


@st.composite
def raw_csr_products(draw):
    """A CSR matrix built straight from its arrays (so it keeps empty rows
    and stored zeros) and a vector to multiply."""
    n_row, n_col = draw(st.integers(1, 20)), draw(st.integers(1, 20))
    rows = [sorted(draw(st.lists(st.integers(0, n_col - 1), unique=True, max_size=n_col)))
            for _ in range(n_row)]
    indptr = np.cumsum([0] + [len(r) for r in rows])
    indices = np.array([j for r in rows for j in r], dtype=np.int32)
    data = np.array(draw(st.lists(KERNEL_VALUES, min_size=len(indices), max_size=len(indices))),
                    dtype=float)
    x = np.array(draw(st.lists(KERNEL_VALUES, min_size=n_col, max_size=n_col)), dtype=float)
    return sp.csr_matrix((data, indices, indptr), shape=(n_row, n_col)), x


@settings(max_examples=150, deadline=None)
@given(raw_csr_products())
def test_kernel_matches_scipy_product_bitwise(product):
    csr, x = product
    out = np.full(csr.shape[0], np.nan)  # the helper must zero what it is given
    with np.errstate(all="ignore"):
        assert solvers._csr_matvec(csr, x, out).tobytes() == (csr @ x).tobytes()


def test_kernel_matches_scipy_product_on_the_n32_viscous_matrix():
    A = discretize(build_uniform_mesh(32), PicardConfig()).A
    rng = np.random.default_rng(32)
    for x in (rng.standard_normal(A.dimension), np.ones(A.dimension)):
        assert A.matvec(x).tobytes() == (A._csr @ x).tobytes()
        assert solvers._csr_matvec(A._csr, x, np.empty(A.dimension)).tobytes() \
            == (A._csr @ x).tobytes()


# --- properties of converged solves -------------------------------------------

def _matvec_rounding(dense, x):
    """A bound on the rounding error of dense @ x in float64."""
    n = dense.shape[1]
    eps = np.finfo(float).eps
    return 2 * n * eps / (1 - n * eps) * np.linalg.norm(np.abs(dense) @ np.abs(x))


def is_spd(A):
    """Symmetric to roundoff and positive definite: a system PCG applies to."""
    dense = A.toarray()
    asymmetry = np.abs(dense - dense.T).max()
    return asymmetry <= 1e-12 * np.abs(dense).max() and np.linalg.eigvalsh(dense).min() > 0


def check_solution(A, b, tol, x, report):
    """A breakdown never comes back converged; a converged solve has a true
    relative residual within tol and lies within tol ||b|| / sigma_min of
    the direct solution (plus the direct solve's own residual and the
    rounding of both residuals, over sigma_min)."""
    assert report.breakdown is None or not report.converged
    if not report.converged:
        return
    dense = A.toarray()
    norm_b = np.linalg.norm(b)
    assert np.linalg.norm(b - dense @ x) <= tol * norm_b + _matvec_rounding(dense, x)
    x_star = spla.spsolve(A._csr.tocsc(), b)
    sigma_min = np.linalg.svd(dense, compute_uv=False)[-1]
    slack = (np.linalg.norm(b - dense @ x_star) + _matvec_rounding(dense, x_star)
             + _matvec_rounding(dense, x))
    assert np.linalg.norm(x - x_star) <= (tol * norm_b + slack) / sigma_min


WELL_POSED = st.builds(
    make_system, st.sampled_from(["spd", "nonsymmetric"]), st.integers(1, 60),
    st.integers(0, 2**32 - 1), st.sampled_from([0.05, 0.15, 0.4]),
    st.sampled_from([1e-1, 1.0, 10.0]), ZERO_B,
)


@settings(max_examples=100, deadline=None)
@with_examples([(system, tol) for system, tol, _ in BICGSTAB_CASES.values()])
@given(WELL_POSED, st.sampled_from([1e-3, 1e-6, 1e-9]))
def test_converged_solves_are_solutions(system, tol):
    A, b = system
    check_solution(A, b, tol, *solvers.bicgstab(A, b, tol, max_iter=500))
    if is_spd(A):
        check_solution(A, b, tol, *solvers.pcg(A, b, tol, max_iter=500))
