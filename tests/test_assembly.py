import numpy as np
import pytest
import sympy

from streamfem.argyris import EVAL_ORDERS, interpolate_field
from streamfem.assembly import (
    EXACT,
    ElementTables,
    ScatterPlan,
    assemble_biharmonic,
    assemble_convection,
    assemble_load,
    manufactured_rhs,
    viscous_element_matrices,
)
from streamfem.mesh import build_uniform_mesh, enumerate_dofs, free_permutation
from streamfem.quadrature import rule
from streamfem.solvers import pcg

from test_argyris import sympy_derivatives
from test_scatter_plan import _scatter, assert_same_bytes, ref_convection


@pytest.fixture(scope="module")
def plan3(mesh3, dofmap3):
    return ScatterPlan.build(mesh3, dofmap3)


@pytest.fixture(scope="module")
def tables6(mesh3, bases3):
    return ElementTables(mesh3, rule(6), bases3)


@pytest.fixture(scope="module")
def tables25(mesh3, bases3):
    return ElementTables(mesh3, rule(25), bases3)


def test_biharmonic_symmetry(plan3, bases3):
    A = assemble_biharmonic(plan3, rule(25), 1.0, bases=bases3)
    dense = A.toarray()
    assert np.abs(dense - dense.T).max() <= 1e-10 * np.abs(dense).max()


def test_biharmonic_positive_definite(plan3, bases3):
    A = assemble_biharmonic(plan3, rule(25), 1.0, bases=bases3)
    eigs = np.linalg.eigvalsh(A.toarray())
    assert eigs.min() > 0


def test_reynolds_scaling(plan3, bases3):
    A1 = assemble_biharmonic(plan3, rule(25), 1.0, bases=bases3)
    A2 = assemble_biharmonic(plan3, rule(25), 2.0, bases=bases3)
    assert np.array_equal(A1.indices, A2.indices)
    assert np.array_equal(A1.data, 2.0 * A2.data)


def test_reynolds_must_be_positive(plan3):
    with pytest.raises(ValueError):
        assemble_biharmonic(plan3, rule(6), 0.0)
    with pytest.raises(ValueError):
        manufactured_rhs(-1.0)


@pytest.mark.parametrize("reynolds", [np.nan, np.inf, -np.inf])
def test_reynolds_must_be_finite(mesh3, plan3, reynolds):
    with pytest.raises(ValueError, match="positive and finite"):
        assemble_biharmonic(plan3, rule(6), reynolds)
    with pytest.raises(ValueError, match="positive and finite"):
        viscous_element_matrices(mesh3, rule(6), reynolds)
    with pytest.raises(ValueError, match="positive and finite"):
        manufactured_rhs(reynolds)


def test_energy_quadratic_form_matches_exact_integral():
    """The unreduced quadratic form of the interpolant approximates
    int (lap psi)^2 = 4/1225. The interpolation gap is 1.12e-5 on the
    h=1/3 mesh and falls below 1e-5 from h=1/5 on."""
    target = 4.0 / 1225.0
    for n, tol in ((3, 2e-5), (5, 1e-5)):
        mesh = build_uniform_mesh(n)
        dm = enumerate_dofs(mesh, 1)
        coeffs = interpolate_field(mesh, dm, EXACT)
        A = assemble_biharmonic(ScatterPlan.build(mesh, dm, reduced=False), rule(25), 1.0)
        energy = float(coeffs @ A.matvec(coeffs))
        assert energy == pytest.approx(target, abs=tol)


def test_convection_zero_field(mesh3, dofmap3, plan3, tables6):
    xi = np.zeros(dofmap3.total_dofs)
    B = assemble_convection(plan3, tables6, xi)
    # every slot sums to an exact zero and keeps it, on the structural pattern
    assert B.nnz == plan3.nnz and not B.data.any()
    local = ref_convection(mesh3, dofmap3, xi, tables6, False)
    assert_same_bytes(B, _scatter(mesh3, dofmap3, local))


def test_convection_antisymmetry(dofmap3, plan3, tables6, rng):
    xi = np.zeros(dofmap3.total_dofs)
    xi[dofmap3.globals_of_free] = rng.standard_normal(dofmap3.num_free)
    B = assemble_convection(plan3, tables6, xi)
    dense = B.toarray()
    assert np.abs(dense + dense.T).max() <= 1e-10 * np.abs(dense).max()
    psi = rng.standard_normal(dofmap3.num_free)
    quad = abs(psi @ B.matvec(psi))
    scale = np.abs(dense).max() * float(psi @ psi)
    assert quad <= 1e-10 * scale


def test_convection_flip_negates(dofmap3, plan3, tables6, rng):
    xi = np.zeros(dofmap3.total_dofs)
    xi[dofmap3.globals_of_free] = rng.standard_normal(dofmap3.num_free)
    B1 = assemble_convection(plan3, tables6, xi)
    B2 = assemble_convection(plan3, tables6, xi, flip_convention=True)
    assert np.abs(B1.toarray() + B2.toarray()).max() == 0.0


def test_convection_length_mismatch(plan3, tables6):
    with pytest.raises(ValueError, match="full DOF length"):
        assemble_convection(plan3, tables6, np.zeros(7))


def test_zero_load(dofmap3, tables6):
    ell = assemble_load(tables6, dofmap3, lambda x, y: (np.zeros_like(x), np.zeros_like(y)))
    assert np.all(ell == 0.0)


def test_gradient_load_vanishes(mesh3, dofmap3, tables25):
    """f = grad(x^3 + y^3) contributes nothing against curls of clamped
    fields; with the degree-10 rule the assembled entries are roundoff."""
    grad_p = assemble_load(tables25, dofmap3, lambda x, y: (3 * x ** 2, 3 * y ** 2))
    full = assemble_load(tables25, dofmap3, manufactured_rhs(1.0).forcing)
    scale = np.abs(full).max()
    assert np.abs(grad_p).max() <= 1e-8 * scale


def test_manufactured_forcing_against_finite_differences():
    """Recompute f = -Re^-1 lap(u) + (u.grad)u + grad p from psi and p
    samples by central differences."""
    h = 1e-5
    x0, y0 = 0.5, 0.3  # generic interior point

    def u(px, py):
        return np.array([EXACT["dy"](px, py), -EXACT["dx"](px, py)])

    def p(px, py):
        return px ** 3 + py ** 3 - 0.5

    lap_u = (u(x0 + h, y0) + u(x0 - h, y0) + u(x0, y0 + h) + u(x0, y0 - h)
             - 4 * u(x0, y0)) / h ** 2
    du_dx = (u(x0 + h, y0) - u(x0 - h, y0)) / (2 * h)
    du_dy = (u(x0, y0 + h) - u(x0, y0 - h)) / (2 * h)
    conv = u(x0, y0)[0] * du_dx + u(x0, y0)[1] * du_dy
    grad_p = np.array([
        (p(x0 + h, y0) - p(x0 - h, y0)) / (2 * h),
        (p(x0, y0 + h) - p(x0, y0 - h)) / (2 * h),
    ])
    fd = -lap_u + conv + grad_p
    f1, f2 = manufactured_rhs(1.0).forcing(np.array(x0), np.array(y0))
    got = np.array([float(f1), float(f2)])
    assert np.abs(got - fd).max() <= 1e-6 * max(1.0, np.abs(got).max())


def test_exact_table_matches_sympy_derivatives(rng):
    """Each entry of EXACT is the derivative of psi its (ax, ay) names, so a
    swapped pair of orders shows."""
    x, y = sympy.symbols("x y")
    want = sympy_derivatives(x ** 2 * (1 - x) ** 2 * y ** 2 * (1 - y) ** 2)
    px, py = rng.random(64), rng.random(64)
    assert list(EXACT) == [name for name, _ in EVAL_ORDERS]
    for name, _ in EVAL_ORDERS:
        np.testing.assert_allclose(EXACT[name](px, py), want[name](px, py),
                                   rtol=1e-12, atol=1e-16)


def test_exact_solution_values():
    assert EXACT["value"](0.5, 0.5) == pytest.approx((1 / 16) ** 2, abs=1e-15)
    assert EXACT["value"](0.5, 0.5) == pytest.approx(0.00390625)
    # psi and its normal slope vanish on the boundary
    t = np.linspace(0.0, 1.0, 17)
    for xs, ys, normal in (
        (t, np.zeros_like(t), (0, -1)),
        (t, np.ones_like(t), (0, 1)),
        (np.zeros_like(t), t, (-1, 0)),
        (np.ones_like(t), t, (1, 0)),
    ):
        assert np.abs(EXACT["value"](xs, ys)).max() == 0.0
        gx, gy = EXACT["dx"](xs, ys), EXACT["dy"](xs, ys)
        assert np.abs(gx * normal[0] + gy * normal[1]).max() == 0.0


@pytest.mark.parametrize("other_scheme", [2, 3])
def test_ordering_equivariance(mesh3, other_scheme):
    """A assembled under another ordering equals the permuted matrix."""
    dm1 = enumerate_dofs(mesh3, 1)
    dm2 = enumerate_dofs(mesh3, other_scheme)
    A1 = assemble_biharmonic(ScatterPlan.build(mesh3, dm1), rule(6), 1.0)
    A2 = assemble_biharmonic(ScatterPlan.build(mesh3, dm2), rule(6), 1.0)
    p = free_permutation(dm1, dm2)
    d1 = A1.toarray()
    d2 = A2.toarray()
    permuted = np.zeros_like(d1)
    permuted[np.ix_(p, p)] = d1
    assert np.abs(permuted - d2).max() <= 1e-12 * np.abs(d1).max()


def test_galerkin_orthogonality(dofmap3, plan3, bases3, tables25):
    A = assemble_biharmonic(plan3, rule(25), 1.0, bases=bases3)
    ell = assemble_load(tables25, dofmap3, manufactured_rhs(1.0).forcing)
    tol = 1e-9
    x, report = pcg(A, ell, tol=tol)
    assert report.converged
    residual = A.matvec(x) - ell
    assert np.abs(residual).max() <= tol * np.linalg.norm(ell)


def test_sparsity_respects_interaction_stencil(mesh3, dofmap3, plan3):
    A = assemble_biharmonic(plan3, rule(6), 1.0)
    allowed = np.zeros((dofmap3.num_free, dofmap3.num_free), dtype=bool)
    for t in range(mesh3.num_triangles):
        reduced = dofmap3.free_of_global[dofmap3.triangle_dofs(mesh3, t)]
        reduced = reduced[reduced >= 0]
        allowed[np.ix_(reduced, reduced)] = True
    rows = np.repeat(np.arange(A.dimension), np.diff(A.indptr))
    assert np.all(allowed[rows, A.indices])


def test_viscous_rule_promotion(plan3, bases3):
    """Low-order requested rules must not degrade the viscous form."""
    A4 = assemble_biharmonic(plan3, rule(4), 1.0, bases=bases3)
    A12 = assemble_biharmonic(plan3, rule(12), 1.0, bases=bases3)
    assert np.abs(A4.toarray() - A12.toarray()).max() == 0.0
