from dataclasses import fields, replace

import numpy as np
import pytest

from streamfem import assembly
from streamfem.analysis import evaluate_field
from streamfem.argyris import build_all_bases
from streamfem.assembly import (
    EXACT,
    ElementTables,
    ScatterPlan,
    assemble_biharmonic,
    assemble_convection,
    assemble_load,
    manufactured_rhs,
)
from streamfem.mesh import OrderingScheme, build_uniform_mesh, enumerate_dofs
from streamfem.picard import (
    Discretization,
    PicardConfig,
    discretize,
    solve_biharmonic_problem,
    solve_linearized_nse,
)
from streamfem.quadrature import rule


def test_config_validation():
    with pytest.raises(ValueError):
        PicardConfig(reynolds=0.0)
    with pytest.raises(ValueError):
        PicardConfig(tol=-1.0)
    with pytest.raises(ValueError):
        PicardConfig(max_outer=0)


def test_config_ordering_is_always_a_scheme():
    assert PicardConfig(ordering=2).ordering is OrderingScheme.FUNCTION_FIRST
    assert PicardConfig(ordering=OrderingScheme.ALTERNATING_VERTEX).ordering.value == 3
    assert replace(PicardConfig(), ordering=3).ordering is OrderingScheme.ALTERNATING_VERTEX
    with pytest.raises(ValueError, match="ordering scheme must be 1, 2 or 3, got 4"):
        PicardConfig(ordering=4)


@pytest.mark.parametrize("minimal_bc", [False, True])
@pytest.mark.parametrize("n_points", [4, 6, 12])
def test_shared_bases_give_each_ordering_its_own_discretization(n_points, minimal_bc):
    # the one input compare-orderings shares: given bases leave A and the
    # tables bit for bit those of bases built inside discretize
    mesh = build_uniform_mesh(4)
    bases = build_all_bases(mesh)
    for ordering in (1, 2, 3):
        config = PicardConfig(reynolds=7.0, n_quad_points=n_points, ordering=ordering,
                              minimal_bc=minimal_bc)
        shared, own = discretize(mesh, config, bases), discretize(mesh, config)
        assert shared.dofmap.scheme.value == ordering
        assert shared.tables.weights.shape[1] == rule(n_points).n_points
        for name in ("indptr", "indices", "data"):
            a, b = getattr(shared.A, name), getattr(own.A, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        for name in ("points", "weights", "dx", "dy", "lap"):
            assert getattr(shared.tables, name).tobytes() == getattr(own.tables, name).tobytes()


@pytest.mark.parametrize("n_points, viscous_points", [(4, 12), (6, 12), (12, 12), (25, 25)])
def test_discretize_tabulates_the_laplacians_from_the_bases_for_every_rule(n_points,
                                                                          viscous_points,
                                                                          monkeypatch):
    # A is tabulated at its rule (a weaker one promoted to 12 points), then
    # the tables at the n.q.p. rule, each from the bases, block by block
    mesh = build_uniform_mesh(12)  # 288 triangles: two blocks
    mapped = []
    original = assembly.map_to_triangle
    monkeypatch.setattr(assembly, "map_to_triangle",
                        lambda q, coords: mapped.append(q.n_points) or original(q, coords))
    disc = discretize(mesh, PicardConfig(n_quad_points=n_points, reynolds=3.0))
    assert mapped == [viscous_points] * 2 + [n_points] * 2
    want = assemble_biharmonic(disc.plan, rule(n_points), 3.0)
    for name in ("indptr", "indices", "data"):
        assert getattr(disc.A, name).tobytes() == getattr(want, name).tobytes()


def test_zero_load_gives_zero_solution(mesh3):
    coeffs, report = solve_biharmonic_problem(discretize(mesh3, PicardConfig()), load="zero")
    assert report.converged
    assert np.all(coeffs == 0.0)


def test_biharmonic_constrained_entries_zero(mesh3, dofmap3):
    coeffs, report = solve_biharmonic_problem(discretize(mesh3, PicardConfig(n_quad_points=4)))
    assert report.converged
    assert np.all(coeffs[dofmap3.constrained] == 0.0)


class _WithoutConvection(Discretization):
    """A discretization whose linearized operator is A alone."""

    def operator(self, psi):
        return self.A


def test_nse_without_convection_matches_biharmonic(mesh3, dofmap3, bases3):
    """With the convection form disabled, the fixed-point result and the
    direct biharmonic solve agree to solver tolerance: both residuals meet
    the tolerance, so their difference does in the residual norm."""
    config = PicardConfig(n_quad_points=6, linear_tol=1e-8)
    direct, report = solve_biharmonic_problem(discretize(mesh3, config))
    disc = discretize(mesh3, config)
    without_convection = _WithoutConvection(**{f.name: getattr(disc, f.name) for f in fields(disc)})
    via_picard, trace = solve_linearized_nse(without_convection)
    assert report.converged and trace.converged
    q = rule(6)
    ms = manufactured_rhs(1.0)
    A = assemble_biharmonic(ScatterPlan.build(mesh3, dofmap3), q, 1.0, bases=bases3)
    ell = assemble_load(ElementTables(mesh3, q, bases3), dofmap3, ms.forcing)
    free = dofmap3.globals_of_free
    residual_gap = np.linalg.norm(A.matvec(via_picard[free] - direct[free]))
    assert residual_gap <= 2 * config.inner_tol * np.linalg.norm(ell)
    scale = np.linalg.norm(direct[free])
    assert np.linalg.norm(via_picard - direct) <= 1e-4 * scale


def test_picard_converges_and_updates_decrease(mesh3):
    config = PicardConfig(n_quad_points=6)
    coeffs, trace = solve_linearized_nse(discretize(mesh3, config))
    assert trace.converged
    assert 1 <= len(trace.iterations) <= 5
    updates = [it.update_norm for it in trace.iterations]
    assert all(b < a for a, b in zip(updates, updates[1:]))


def test_one_convection_assembly_per_outer_iteration(mesh3, monkeypatch):
    """The residual's operator A + B(psi_k) is reused as the next system, so
    the form is assembled once up front and once per outer iteration."""
    import streamfem.picard

    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return assemble_convection(*args, **kwargs)

    monkeypatch.setattr(streamfem.picard, "assemble_convection", counting)
    _, trace = solve_linearized_nse(discretize(mesh3, PicardConfig(n_quad_points=6)))
    assert len(trace.iterations) >= 2
    assert len(calls) == len(trace.iterations) + 1


def test_converged_fixed_point_residual(mesh3, dofmap3, bases3):
    """The converged iterate satisfies the discrete equation to 10x tol."""
    config = PicardConfig(n_quad_points=6)
    coeffs, trace = solve_linearized_nse(discretize(mesh3, config))
    assert trace.converged
    q = rule(6)
    ms = manufactured_rhs(1.0)
    plan, tables = ScatterPlan.build(mesh3, dofmap3), ElementTables(mesh3, q, bases3)
    A = assemble_biharmonic(plan, q, 1.0, bases=bases3)
    B = assemble_convection(plan, tables, coeffs)
    ell = assemble_load(tables, dofmap3, ms.forcing)
    x = coeffs[dofmap3.globals_of_free]
    res = (A + B).matvec(x) - ell
    assert np.linalg.norm(res) <= 10 * config.tol * np.linalg.norm(ell)
    assert trace.iterations[-1].residual <= config.tol


def test_solution_invariant_across_orderings(mesh3, bases3, rng):
    fields = []
    pts = rng.random((25, 2))
    for scheme in (1, 2, 3):
        config = PicardConfig(n_quad_points=6, ordering=scheme)
        coeffs, trace = solve_linearized_nse(discretize(mesh3, config))
        assert trace.converged
        dm = enumerate_dofs(mesh3, scheme)
        fields.append(evaluate_field(mesh3, dm, coeffs, pts, bases3))
    tol = PicardConfig(n_quad_points=6).inner_tol
    for other in fields[1:]:
        assert np.abs(fields[0] - other).max() <= 10 * tol


def test_nonconvergence_flagged():
    mesh = build_uniform_mesh(3)
    config = PicardConfig(n_quad_points=6, tol=1e-14, linear_tol=1e-13, max_outer=2)
    coeffs, trace = solve_linearized_nse(discretize(mesh, config))
    assert not trace.converged
    assert len(trace.iterations) == 2


def test_flip_convention_leaves_field_unchanged(mesh3, dofmap3, bases3, rng):
    """Negating the convection form and the convective forcing together
    must reproduce the same stream function."""
    pts = rng.random((30, 2))
    c1, t1 = solve_linearized_nse(discretize(mesh3, PicardConfig(n_quad_points=6)))
    c2, t2 = solve_linearized_nse(discretize(mesh3, PicardConfig(n_quad_points=6, flip_convention=True)))
    assert t1.converged and t2.converged
    v1 = evaluate_field(mesh3, dofmap3, c1, pts, bases3)
    v2 = evaluate_field(mesh3, dofmap3, c2, pts, bases3)
    scale = max(np.abs(v1).max(), 1e-30)
    assert np.abs(v1 - v2).max() <= 1e-4 * scale


def test_trace_export(tmp_path, mesh3):
    config = PicardConfig(n_quad_points=6)
    _, trace = solve_linearized_nse(discretize(mesh3, config))
    path = tmp_path / "trace.csv"
    trace.export_csv(path)
    lines = open(path).read().splitlines()
    assert lines[0].startswith("outer,update_norm,residual")
    assert len(lines) == len(trace.iterations) + 1


def test_minimal_bc_reduces_error():
    """Releasing the over-clamped boundary DOF shrinks the H2 error."""
    from streamfem.analysis import compute_errors

    mesh = build_uniform_mesh(3)
    errs = {}
    for minimal in (False, True):
        config = PicardConfig(n_quad_points=25, minimal_bc=minimal, linear_tol=1e-10)
        coeffs, report = solve_biharmonic_problem(discretize(mesh, config), load="stokes")
        assert report.converged
        dm = enumerate_dofs(mesh, 1, minimal_bc=minimal)
        errs[minimal] = compute_errors(mesh, dm, coeffs, EXACT).h2_semi
    assert errs[True] < 0.2 * errs[False]


@pytest.mark.parametrize("breakdown", [False, True])
def test_early_stop_returns_the_initial_iterate_and_names_the_failure(mesh3, monkeypatch, breakdown):
    """A failed initial PCG, or a breakdown in the first outer iteration,
    ends the solve with the initial PCG iterate and the cause in the trace."""
    import streamfem.picard

    disc = discretize(mesh3, PicardConfig(n_quad_points=6))
    ell = assemble_load(disc.tables, disc.dofmap, disc.ms.forcing)
    x0, _ = streamfem.picard.pcg(disc.A, ell, tol=disc.config.inner_tol,
                                 max_iter=streamfem.picard.LINEAR_MAX_ITER)
    target = "bicgstab" if breakdown else "pcg"
    solver = getattr(streamfem.picard, target)

    def failing(*args, **kwargs):
        x, report = solver(*args, **kwargs)
        return x, replace(report, converged=False,
                          breakdown="omega breakdown" if breakdown else None)

    monkeypatch.setattr(streamfem.picard, target, failing)
    coeffs, trace = solve_linearized_nse(disc)
    assert not trace.converged and len(trace.iterations) == int(breakdown)
    assert trace.failure == ("BiCGSTAB omega breakdown at outer iteration 1" if breakdown
                             else "initial biharmonic PCG solve did not converge")
    assert np.array_equal(coeffs[disc.dofmap.globals_of_free], x0)
    assert not coeffs[disc.dofmap.constrained].any()
