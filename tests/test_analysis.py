import math
import warnings

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from streamfem.analysis import (
    _chain_segments,
    _locate,
    _marching_squares,
    compute_errors,
    evaluate_field,
    export_contours,
    export_sparsity,
    format_table,
    write_csv,
)
from streamfem.argyris import EVAL_ORDERS, build_all_bases
from streamfem.assembly import EXACT, ScatterPlan, assemble_biharmonic, dof_arrays
from streamfem.mesh import build_uniform_mesh, enumerate_dofs
from streamfem.quadrature import rule
from streamfem.solvers import bandwidth_stats, finalize_csr

from fields import interpolate_field
from test_argyris import sympy_derivatives


def test_errors_vanish_for_quintic_interpolant(mesh3, dofmap3):
    x, y = sympy.symbols("x y")
    exact = sympy_derivatives(x ** 3 * y ** 2 - 2 * x * y + x ** 5 / 4)
    coeffs = interpolate_field(mesh3, dofmap3, exact)
    report = compute_errors(mesh3, dofmap3, coeffs, exact)
    assert report.l2 <= 1e-9
    assert report.h1_semi <= 1e-9
    assert report.h2_semi <= 1e-8
    assert report.nodal_max <= 1e-12


def test_errors_reject_wrong_length(mesh3, dofmap3):
    with pytest.raises(ValueError):
        compute_errors(mesh3, dofmap3, np.zeros(5), EXACT)


def test_evaluate_field_clamped_corner(mesh3, dofmap3, bases3):
    from streamfem.picard import PicardConfig, discretize, solve_biharmonic_problem

    coeffs, _ = solve_biharmonic_problem(discretize(mesh3, PicardConfig(n_quad_points=6)))
    for corner in ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)):
        assert evaluate_field(mesh3, dofmap3, coeffs, [corner], bases3)[0] == pytest.approx(
            0.0, abs=1e-12)


def test_evaluate_field_center_value(mesh3, bases3):
    # (0.5, 0.5) is a vertex of the n=4 mesh, so the interpolant is exact there
    mesh = build_uniform_mesh(4)
    dm = enumerate_dofs(mesh, 1)
    coeffs = interpolate_field(mesh, dm, EXACT)
    val = evaluate_field(mesh, dm, coeffs, [(0.5, 0.5)], build_all_bases(mesh))[0]
    assert val == pytest.approx(0.00390625, abs=1e-12)
    # off-vertex evaluation matches to interpolation accuracy
    dm3 = enumerate_dofs(mesh3, 1)
    c3 = interpolate_field(mesh3, dm3, EXACT)
    val3 = evaluate_field(mesh3, dm3, c3, [(0.5, 0.5)], bases3)[0]
    assert val3 == pytest.approx(0.00390625, abs=1e-4)


def test_evaluate_field_continuous_on_edges(mesh3, dofmap3, bases3, rng):
    coeffs = interpolate_field(mesh3, dofmap3, EXACT)
    interior = np.flatnonzero(~mesh3.edge_on_boundary)
    for e in interior[:6]:
        a, b = mesh3.edges[e]
        s = rng.uniform(0.1, 0.9)
        p = mesh3.vertices[a] * (1 - s) + mesh3.vertices[b] * s
        got = evaluate_field(mesh3, dofmap3, coeffs, [p], bases3)[0]
        want = EXACT["value"](p[0], p[1])
        assert got == pytest.approx(want, abs=1e-6)


def test_evaluate_field_rejects_outside(mesh3, dofmap3, bases3):
    for point in ((1.5, 0.5), (0.5, -1e-300), (math.nan, 0.5), (0.5, math.nan), (math.inf, 0.5)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # rejected before it is located, with no warning
            with pytest.raises(ValueError, match="not in the closed unit square"):
                evaluate_field(mesh3, dofmap3, np.zeros(dofmap3.total_dofs), [(0.5, 0.5), point],
                               bases3)


def _on_diagonal(n):
    """Points on the cell diagonals of an n x n mesh, edges shared by two triangles."""
    return st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.floats(0.0, 1.0)).map(
        lambda ijs: ((ijs[0] + ijs[2]) / n, (ijs[1] + ijs[2]) / n))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 6), ordering=st.sampled_from((1, 2, 3)),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_field_evaluator_matches_the_per_triangle_reference(n, ordering, seed, data):
    """Value and all five derivatives against ``ElementBases.evaluate``'s
    tables times the local DOFs in the triangle the point is located in, to 1e-14 of that
    triangle's largest monomial coefficient, over diameter ** (ax + ay) for
    the (ax, ay) derivative (a derivative of the local coordinates). Points
    are drawn anywhere, on mesh lines x or y = k / n (vertices and shared
    edges), on cell diagonals and on the sides x or y = 1."""
    mesh = build_uniform_mesh(n)
    dm = enumerate_dofs(mesh, ordering)
    coeffs = np.random.default_rng(seed).standard_normal(dm.total_dofs)
    coordinate = st.one_of(st.floats(0.0, 1.0), st.integers(0, n).map(lambda k: k / n),
                           st.just(1.0))
    points = st.one_of(st.tuples(coordinate, coordinate), _on_diagonal(n))
    pts = np.array(data.draw(st.lists(points, min_size=1, max_size=30)))
    bases = build_all_bases(mesh)
    values = evaluate_field(mesh, dm, coeffs, pts, bases)
    located = _locate(mesh, pts)
    fields = bases.derivatives(bases.polynomials(coeffs[dof_arrays(mesh, dm)], EVAL_ORDERS), pts,
                               located)
    assert (fields["value"] == values).all()
    for k, (p, t) in enumerate(zip(pts, located)):
        # barycentric coordinates of p in its triangle: none below -1e-12
        bary = np.linalg.solve(np.vstack([bases.coords[t].T, np.ones(3)]), [*p, 1.0])
        assert bary.min() >= -1e-12
        local = coeffs[dof_arrays(mesh, dm)[t]]
        tables = bases.evaluate(p[None, None], EVAL_ORDERS, [t])
        tol = 1e-14 * np.abs(bases.coeffs[t].T @ local).max()
        for name, (ax, ay) in EVAL_ORDERS:
            want = tables[name][0, 0] @ local
            assert abs(fields[name][k] - want) <= tol / bases.diameter[t] ** (ax + ay), name


def test_export_sparsity_identity(tmp_path):
    import scipy.sparse as sp

    A = finalize_csr(sp.eye(8, format="csr"))
    result = export_sparsity(A, tmp_path / "eye")
    lines = open(result["pbm"]).read().splitlines()
    assert lines[0] == "P1"
    assert lines[1] == "8 8"
    for i, row in enumerate(lines[2:]):
        expected = ["0"] * 8
        expected[i] = "1"
        assert row == "".join(expected)
    assert result["bandwidth"] == 0
    svg = open(result["svg"]).read()
    assert "bandwidth=0" in svg


def test_export_sparsity_annotation_matches_stats(tmp_path, mesh5):
    dm = enumerate_dofs(mesh5, 1)
    A = assemble_biharmonic(ScatterPlan.build(mesh5, dm), rule(6), 1.0)
    stats = bandwidth_stats(A)
    result = export_sparsity(A, tmp_path / "bih")
    assert result["bandwidth"] == stats["bandwidth"]
    svg = open(result["svg"]).read()
    assert f"bandwidth={stats['bandwidth']}" in svg


def test_export_sparsity_ordering_comparison(tmp_path, mesh5):
    bws = {}
    for scheme in (1, 2):
        dm = enumerate_dofs(mesh5, scheme)
        A = assemble_biharmonic(ScatterPlan.build(mesh5, dm), rule(6), 1.0)
        result = export_sparsity(A, tmp_path / f"ord{scheme}")
        bws[scheme] = result["bandwidth"]
    assert bws[2] > bws[1]


def test_contours_zero_field(tmp_path, mesh3, dofmap3, bases3):
    result = export_contours(
        mesh3, dofmap3, np.zeros(dofmap3.total_dofs), tmp_path / "zero", bases3, grid_size=24,
    )
    assert result["levels"] == [] and result["polylines"] == {}
    xs = np.linspace(0.0, 1.0, 24)
    for level in (0.5, 0.9):
        assert _marching_squares(np.zeros((24, 24)), xs, xs, level) == []


def _polyline_closed(line, tol=1e-9):
    return np.hypot(line[0][0] - line[-1][0], line[0][1] - line[-1][1]) < tol


def test_contours_nested_closed_curves(tmp_path):
    mesh = build_uniform_mesh(4)
    dm = enumerate_dofs(mesh, 1)
    coeffs = interpolate_field(mesh, dm, EXACT)
    bases = build_all_bases(mesh)
    result = export_contours(mesh, dm, coeffs, tmp_path / "exact", bases, grid_size=64)
    assert len(result["levels"]) == 8 and result["levels"] == sorted(result["levels"])
    _assert_nested_closed_curves([result["polylines"][level] for level in result["levels"]])
    # explicit levels of the exact maximum, on the grid the export sampled
    vmax = (1 / 16) ** 2
    xs = np.linspace(0.0, 1.0, 64)
    gx, gy = np.meshgrid(xs, xs, indexing="xy")
    grid = evaluate_field(mesh, dm, coeffs, np.column_stack([gx.ravel(), gy.ravel()]), bases)
    grid = grid.reshape(64, 64)
    _assert_nested_closed_curves([_chain_segments(_marching_squares(grid, xs, xs, level))
                                  for level in (0.5 * vmax, 0.9 * vmax)])


def _assert_nested_closed_curves(polylines_by_level):
    """One closed curve per level, each around the center, each level's
    curve strictly inside the one of the level below it."""
    curves = []
    for lines in polylines_by_level:
        assert len(lines) == 1 and _polyline_closed(lines[0])
        arr = np.array(lines[0])
        assert arr[:, 0].min() < 0.5 < arr[:, 0].max()
        assert arr[:, 1].min() < 0.5 < arr[:, 1].max()
        curves.append(arr)
    for outer, inner in zip(curves, curves[1:]):
        assert inner[:, 0].min() > outer[:, 0].min() and inner[:, 0].max() < outer[:, 0].max()
        assert inner[:, 1].min() > outer[:, 1].min() and inner[:, 1].max() < outer[:, 1].max()


def test_contour_csv_matches_evaluate_field(tmp_path, mesh3, dofmap3, bases3):
    coeffs = interpolate_field(mesh3, dofmap3, EXACT)
    result = export_contours(mesh3, dofmap3, coeffs, tmp_path / "grid", bases3, grid_size=16)
    rows = open(result["csv"]).read().splitlines()[1:]
    xs = np.array([float(r.split(",")[0]) for r in rows])
    ys = np.array([float(r.split(",")[1]) for r in rows])
    vals = np.array([float(r.split(",")[2]) for r in rows])
    direct = evaluate_field(mesh3, dofmap3, coeffs, np.column_stack([xs, ys]), bases3)
    assert np.array_equal(vals, direct)


def test_contour_grid_size_validation(mesh3, dofmap3, bases3, tmp_path):
    with pytest.raises(ValueError):
        export_contours(mesh3, dofmap3, np.zeros(dofmap3.total_dofs),
                        tmp_path / "bad", bases3, grid_size=8)


def test_format_table_and_csv(tmp_path):
    headers = ["h", "value"]
    rows = [["1/3", 0.123456789], ["1/5", 4.0]]
    text = format_table(headers, rows)
    assert "0.123457" in text  # 6 significant digits
    path = tmp_path / "t.csv"
    write_csv(path, headers, rows)
    content = open(path).read()
    assert repr(0.123456789) in content  # full precision in CSV


def test_run_tables_biharmonic_rows():
    from streamfem.cli import run_tables
    from streamfem.picard import PicardConfig

    configs = [
        (build_uniform_mesh(3), PicardConfig(n_quad_points=4)),
        (build_uniform_mesh(3), PicardConfig(n_quad_points=6)),
    ]
    result = run_tables(configs, problem="biharmonic")
    assert len(result["rows"]) == 2
    row4 = result["rows"][0]
    assert row4[0] == "1/3" and row4[3] == "ok"
    nodal = row4[5]
    assert 1.644e-4 / 5 <= nodal <= 1.644e-4 * 5  # reference 0.1644e-3
    assert "1/3" in result["text"]


def test_run_tables_six_point_coarse_row():
    # reference row (1/9, nqp 6): pcg-itr 454
    from streamfem.cli import run_tables
    from streamfem.picard import PicardConfig

    result = run_tables(
        [(build_uniform_mesh(9), PicardConfig(n_quad_points=6))], problem="biharmonic"
    )
    iters = result["rows"][0][7]
    assert 0.5 * 454 <= iters <= 1.5 * 454


def test_run_tables_marks_failed_rows(monkeypatch):
    import streamfem.cli
    import streamfem.picard
    from streamfem.cli import run_tables
    from streamfem.picard import PicardConfig

    configs = [
        (build_uniform_mesh(3), PicardConfig(n_quad_points=4)),
        (build_uniform_mesh(2), PicardConfig(n_quad_points=4)),
    ]
    # one PCG iteration for the first row, the usual cap for the second
    caps = iter([1, streamfem.picard.LINEAR_MAX_ITER])
    solve = streamfem.picard.solve_biharmonic_problem

    def capped(*args, **kwargs):
        monkeypatch.setattr(streamfem.picard, "LINEAR_MAX_ITER", next(caps))
        return solve(*args, **kwargs)

    monkeypatch.setattr(streamfem.cli, "solve_biharmonic_problem", capped)
    result = run_tables(configs, problem="biharmonic")
    assert result["rows"][0][3] == "not-converged"
    assert result["rows"][1][3] == "ok"


def test_error_norms_insensitive_to_evaluation_rule():
    """Error norms move <= 0.1% when the degree-10 evaluation is replaced
    by the same rule composited over the 4-fold midpoint subdivision of
    every triangle (doubled integration precision)."""
    from streamfem.argyris import build_all_bases
    from streamfem.picard import PicardConfig, discretize, solve_biharmonic_problem

    mesh = build_uniform_mesh(3)
    dm = enumerate_dofs(mesh, 1)
    coeffs, report = solve_biharmonic_problem(discretize(mesh, PicardConfig(n_quad_points=6)))
    assert report.converged
    base = compute_errors(mesh, dm, coeffs, EXACT)

    q = rule(25)
    bases = build_all_bases(mesh)
    sums = {"l2": 0.0, "h1_semi": 0.0, "h2_semi": 0.0}
    for t in range(mesh.num_triangles):
        a, b, c = mesh.vertices[mesh.triangles[t]]
        ab, bc, ca = 0.5 * (a + b), 0.5 * (b + c), 0.5 * (c + a)
        local = coeffs[dof_arrays(mesh, dm)[t]]
        for child in ((a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)):
            p0, p1, p2 = child
            pts = p0[None, :] + np.outer(q.points[:, 0], p1 - p0) + np.outer(q.points[:, 1], p2 - p0)
            u, v = p1 - p0, p2 - p0
            w = q.weights * 0.5 * abs(u[0] * v[1] - u[1] * v[0])
            tab = bases.evaluate(pts[None], EVAL_ORDERS, [t])
            x, y = pts[:, 0], pts[:, 1]
            e = {name: tab[name][0] @ local - EXACT[name](x, y) for name in tab}
            sums["l2"] += float(w @ (e["value"] ** 2))
            sums["h1_semi"] += float(w @ (e["dx"] ** 2 + e["dy"] ** 2))
            sums["h2_semi"] += float(w @ (e["dxx"] ** 2 + e["dxy"] ** 2 + e["dyy"] ** 2))
    for field in ("l2", "h1_semi", "h2_semi"):
        refined = math.sqrt(sums[field])
        coarse = getattr(base, field)
        assert abs(coarse - refined) <= 1e-3 * refined
