"""Acceptance suite: each test prints one PASS/FAIL line for its criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete. Numeric references come from the published tables for this test
problem; tolerances are the wide factors fixed up front (unknown quadrature
rule, norm convention and preconditioner in the reference).
"""

import math
import time

import numpy as np
import pytest
import scipy.sparse.linalg as spl

from streamfem.analysis import compute_errors, evaluate_field
from streamfem.argyris import build_all_bases
from streamfem.assembly import (
    EXACT,
    ElementTables,
    ScatterPlan,
    assemble_biharmonic,
    assemble_convection,
    assemble_load,
    dof_arrays,
    manufactured_rhs,
)
from streamfem.mesh import build_uniform_mesh, enumerate_dofs
from streamfem.picard import (
    PicardConfig,
    discretize,
    solve_biharmonic_problem,
    solve_linearized_nse,
)
from streamfem.quadrature import rule
from streamfem.solvers import bandwidth_stats

from fields import free_permutation, interpolate_field, unconstrained

REPORT = []


def _record(line):
    REPORT.append(line)
    print(f"\n{line}", flush=True)


def check(criterion, ok, detail):
    _record(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


# --- criterion 1: biharmonic table, n.q.p. = 4 -------------------------------

TABLE_61 = {3: (1.644e-4, 72), 5: (1.899e-4, 211), 9: (1.376e-4, 437)}


def test_criterion_1_biharmonic_table():
    t0 = time.perf_counter()
    results = {}
    for n in (3, 5, 9):
        mesh = build_uniform_mesh(n)
        config = PicardConfig(reynolds=1.0, tol=1e-5, n_quad_points=4, ordering=1)
        coeffs, report = solve_biharmonic_problem(discretize(mesh, config))
        dm = enumerate_dofs(mesh, 1)
        errors = compute_errors(mesh, dm, coeffs, EXACT)
        results[n] = (errors.nodal_max, report.iterations, report.converged)
    elapsed = time.perf_counter() - t0

    ok = elapsed < 300.0
    details = [f"total {elapsed:.1f}s"]
    for n, (ref_err, ref_it) in TABLE_61.items():
        err, iters, converged = results[n]
        err_ok = ref_err / 5 <= err <= ref_err * 5
        it_ok = 0.5 * ref_it <= iters <= 1.5 * ref_it
        ok = ok and converged and err_ok and it_ok
        details.append(
            f"h=1/{n}: err {err:.3e} vs {ref_err:.3e} ({err / ref_err:.2f}x), "
            f"pcg {iters:g} vs {ref_it} [{0.5 * ref_it:.0f},{1.5 * ref_it:.0f}]"
        )
    check(1, ok, "; ".join(details))


# --- criterion 2: linearized table, n.q.p. = 6 -------------------------------

TABLE_63 = {
    3: (2.589e-4, 1.294e-3, 1.692e-2),
    5: (2.148e-4, 1.062e-3, 1.048e-2),
    9: (1.423e-4, 6.986e-4, 6.016e-3),
}


def test_criterion_2_linearized_table():
    measured = {}
    for n in (3, 5, 9):
        mesh = build_uniform_mesh(n)
        config = PicardConfig(reynolds=1.0, tol=1e-5, n_quad_points=6, ordering=1)
        coeffs, trace = solve_linearized_nse(discretize(mesh, config))
        dm = enumerate_dofs(mesh, 1)
        errors = compute_errors(mesh, dm, coeffs, EXACT)
        measured[n] = (errors.l2, errors.h1_semi, errors.h2_semi, trace.converged)

    ok = True
    details = []
    for n, refs in TABLE_63.items():
        vals = measured[n]
        ok = ok and vals[3]
        for got, ref, label in zip(vals[:3], refs, ("l2", "h1", "h2")):
            this_ok = ref / 5 <= got <= ref * 5
            ok = ok and this_ok
            details.append(f"h=1/{n} {label} {got:.3e} ({got / ref:.2f}x)")
    for k in range(3):
        ok = ok and measured[9][k] < measured[5][k]
    details.append(
        "decrease 1/5->1/9: "
        + ", ".join("yes" if measured[9][k] < measured[5][k] else "NO" for k in range(3))
    )
    check(2, ok, "; ".join(details))


# --- criterion 3: ordering study ---------------------------------------------

def test_criterion_3_ordering_study():
    mesh = build_uniform_mesh(5)
    bw = {}
    nco = {}
    for scheme in (1, 2, 3):
        dm = enumerate_dofs(mesh, scheme)
        A = assemble_biharmonic(ScatterPlan.build(mesh, dm), rule(6), 1.0)
        bw[scheme] = bandwidth_stats(A)["bandwidth"]
        config = PicardConfig(reynolds=1.0, tol=1e-5, n_quad_points=6, ordering=scheme)
        _, trace = solve_linearized_nse(discretize(mesh, config))
        assert trace.converged
        nco[scheme] = trace.total_flops
    bw_ok = bw[1] < bw[2] and bw[1] < bw[3]
    nco_ok = nco[1] < nco[2] < nco[3]
    check(
        3,
        bw_ok and nco_ok,
        f"bandwidth {bw[1]}/{bw[2]}/{bw[3]} (1 smallest: {bw_ok}); "
        f"n.c.o. {nco[1]}/{nco[2]}/{nco[3]} (order 1<2<3: {nco_ok})",
    )


# --- criterion 4: property suite ----------------------------------------------

def test_criterion_4a_duality():
    mesh = build_uniform_mesh(9)
    worst = build_all_bases(mesh).duality_residual.max()
    check("4a", worst < 1e-8, f"max duality residual {worst:.3e} on h=1/9")


def test_criterion_4b_c1_conformity():
    mesh = build_uniform_mesh(4)
    dm = enumerate_dofs(mesh, 1)
    bases = build_all_bases(mesh)
    coeffs = interpolate_field(mesh, dm, EXACT)
    rng = np.random.default_rng(7)
    interior = np.flatnonzero(~mesh.edge_on_boundary)
    edge_tris = {e: [] for e in interior}
    for t, te in enumerate(mesh.triangle_edges):
        for e in te:
            if e in edge_tris:
                edge_tris[e].append(t)
    scale = max(abs(coeffs[dm.vertex_dofs[:, 0]]).max(), 1e-30)
    local = coeffs[dof_arrays(mesh, dm)]
    orders = (("value", (0, 0)), ("dx", (1, 0)), ("dy", (0, 1)))
    worst_v = worst_g = 0.0
    for _ in range(100):
        e = int(rng.choice(interior))
        a, b = mesh.edges[e]
        s = rng.uniform(0.02, 0.98)
        p = mesh.vertices[a] * (1 - s) + mesh.vertices[b] * s
        n = bases.edge_normals[mesh.triangle_edges == e][0]
        t1, t2 = edge_tris[e]
        tab = bases.evaluate(np.stack([p, p])[:, None], orders, [t1, t2])
        v, gx, gy = (np.einsum("tpi,ti->t", tab[name], local[[t1, t2]]) for name, _ in orders)
        g = gx * n[0] + gy * n[1]
        worst_v = max(worst_v, abs(float(v[0] - v[1])))
        worst_g = max(worst_g, abs(float(g[0] - g[1])))
    ok = worst_v <= 1e-9 * scale and worst_g <= 1e-8 * scale
    check("4b", ok, f"value jump {worst_v:.2e}, normal-slope jump {worst_g:.2e} (scale {scale:.2e})")


def test_criterion_4c_p5_reproduction():
    import sympy

    bases = build_all_bases(build_uniform_mesh(3))
    coords = bases.coords[7]
    x, y = sympy.symbols("x y")
    monos = [x ** i * y ** j for i in range(6) for j in range(6 - i)]
    rng = np.random.default_rng(11)
    pts = np.vstack([
        coords,
        bases.centroid[7][None, :],
        0.5 * (coords[0] + coords[1])[None, :],
    ])
    worst = 0.0
    for _ in range(10):
        c = rng.standard_normal(len(monos))
        expr = sum(ci * m for ci, m in zip(c, monos))
        fns = {}
        for name, (ax, ay) in (("value", (0, 0)), ("dx", (1, 0)), ("dy", (0, 1)),
                               ("dxx", (2, 0)), ("dxy", (1, 1)), ("dyy", (0, 2))):
            fns[name] = sympy.lambdify((x, y), sympy.diff(expr, x, ax, y, ay), "numpy")
        dof_vals = np.empty(21)
        for v in range(3):
            px, py = coords[v]
            for k, name in enumerate(("value", "dx", "dy", "dxx", "dxy", "dyy")):
                dof_vals[6 * v + k] = float(fns[name](px, py))
        for m in range(3):
            (px, py), normal = bases.midpoints[7, m], bases.edge_normals[7, m]
            dof_vals[18 + m] = (normal[0] * float(fns["dx"](px, py))
                                + normal[1] * float(fns["dy"](px, py)))
        vals = bases.evaluate(pts[None], (("value", (0, 0)),), [7])["value"][0] @ dof_vals
        exact_vals = np.array([float(fns["value"](px, py)) for px, py in pts])
        scale = max(1.0, np.abs(exact_vals).max())
        worst = max(worst, np.abs(vals - exact_vals).max() / scale)
    check("4c", worst <= 1e-9, f"worst interpolation error {worst:.2e} over 10 random quintics")


def test_criterion_4d_quadrature_exactness():
    def mean(q, p, s):
        return float(np.sum(q.weights * q.points[:, 0] ** p * q.points[:, 1] ** s))

    def exact_mean(p, s):
        return 2.0 * math.factorial(p) * math.factorial(s) / math.factorial(p + s + 2)

    ok = True
    details = []
    for n_points, degree in ((4, 3), (6, 4), (25, 10)):
        q = rule(n_points)
        worst = max(
            abs(mean(q, p, d - p) - exact_mean(p, d - p))
            for d in range(degree + 1)
            for p in range(d + 1)
        )
        beyond = max(
            abs(mean(q, p, degree + 1 - p) - exact_mean(p, degree + 1 - p))
            for p in range(degree + 2)
        )
        ok = ok and worst < 1e-12 and beyond > 1e-10
        details.append(f"{n_points}pt: exact@{degree} to {worst:.1e}, misses degree {degree + 1} by {beyond:.1e}")
    check("4d", ok, "; ".join(details))


def test_criterion_4e_form_structure():
    mesh = build_uniform_mesh(3)
    dm = enumerate_dofs(mesh, 1)
    bases = build_all_bases(mesh)
    tab = ElementTables(mesh, rule(6), bases)
    plan = ScatterPlan.build(mesh, dm)
    A = assemble_biharmonic(plan, rule(6), 1.0, bases=bases).toarray()
    sym = np.abs(A - A.T).max() / np.abs(A).max()
    rng = np.random.default_rng(3)
    xi = np.zeros(dm.total_dofs)
    xi[dm.globals_of_free] = rng.standard_normal(dm.num_free)
    B = assemble_convection(plan, tab, xi)
    Bd = B.toarray()
    anti = np.abs(Bd + Bd.T).max() / np.abs(Bd).max()
    psi = rng.standard_normal(dm.num_free)
    quad = abs(psi @ B.matvec(psi)) / (np.abs(Bd).max() * float(psi @ psi))
    ok = sym <= 1e-10 and anti <= 1e-10 and quad <= 1e-10
    check("4e", ok, f"symmetry {sym:.1e}, antisymmetry {anti:.1e}, psi'B psi {quad:.1e} (rel)")


def test_criterion_4f_gradient_load():
    mesh = build_uniform_mesh(3)
    dm = enumerate_dofs(mesh, 1)
    tab = ElementTables(mesh, rule(25), build_all_bases(mesh))
    grad_p = assemble_load(tab, dm, lambda x, y: (3 * x ** 2, 3 * y ** 2))
    full = assemble_load(tab, dm, manufactured_rhs(1.0).forcing)
    ratio = np.abs(grad_p).max() / np.abs(full).max()
    check("4f", ratio <= 1e-8, f"gradient load / manufactured load = {ratio:.2e}")


def test_criterion_4g_ordering_invariance():
    mesh = build_uniform_mesh(3)
    dm1 = enumerate_dofs(mesh, 1)
    ok = True
    details = []
    bases = build_all_bases(mesh)
    # matrix equivariance
    A1 = assemble_biharmonic(ScatterPlan.build(mesh, dm1), rule(6), 1.0, bases=bases).toarray()
    for scheme in (2, 3):
        dm2 = enumerate_dofs(mesh, scheme)
        A2 = assemble_biharmonic(ScatterPlan.build(mesh, dm2), rule(6), 1.0,
                                 bases=bases).toarray()
        p = free_permutation(dm1, dm2)
        permuted = np.zeros_like(A1)
        permuted[np.ix_(p, p)] = A1
        rel = np.abs(permuted - A2).max() / np.abs(A1).max()
        ok = ok and rel <= 1e-12
        details.append(f"P A P' (scheme {scheme}): {rel:.1e}")
    # field invariance
    config = PicardConfig(reynolds=1.0, tol=1e-5, n_quad_points=6)
    rng = np.random.default_rng(9)
    pts = rng.random((30, 2))
    fields = []
    for scheme in (1, 2, 3):
        cfg = PicardConfig(reynolds=1.0, tol=1e-5, n_quad_points=6, ordering=scheme)
        coeffs, trace = solve_linearized_nse(discretize(mesh, cfg))
        assert trace.converged
        dm = enumerate_dofs(mesh, scheme)
        fields.append(evaluate_field(mesh, dm, coeffs, pts, bases))
    worst = max(np.abs(fields[0] - f).max() for f in fields[1:])
    field_ok = worst <= 10 * config.inner_tol
    ok = ok and field_ok
    details.append(f"field spread {worst:.1e} vs 10x linear tol {10 * config.inner_tol:.0e}")
    check("4g", ok, "; ".join(details))


def test_criterion_4h_energy_oracle():
    mesh = build_uniform_mesh(5)
    dm = enumerate_dofs(mesh, 1)
    coeffs = interpolate_field(mesh, dm, EXACT)
    A = assemble_biharmonic(ScatterPlan.build(mesh, unconstrained(dm)), rule(25), 1.0)
    energy = float(coeffs @ A.matvec(coeffs))
    target = 4.0 / 1225.0
    check("4h", abs(energy - target) <= 1e-5,
          f"interpolant energy {energy:.8f} vs 4/1225 = {target:.8f} (diff {abs(energy - target):.2e})")


# --- criterion 5: refinement study with the verification rule -----------------

def test_criterion_5_convergence():
    """Mesh convergence of the biharmonic discretization, isolated from
    every other error source: degree-10 assembly, the forcing whose exact
    solution is the manufactured field (no convective term), the minimal
    H2-conforming boundary constraints, and a direct sparse solve."""
    errs = {}
    for n in (3, 5, 9):
        mesh = build_uniform_mesh(n)
        dm = enumerate_dofs(mesh, 1, minimal_bc=True)
        bases = build_all_bases(mesh)
        tab = ElementTables(mesh, rule(25), bases)
        A = assemble_biharmonic(ScatterPlan.build(mesh, dm), rule(25), 1.0, bases=bases)
        ell = assemble_load(tab, dm, manufactured_rhs(1.0).forcing_linear)
        x = spl.spsolve(A._csr.tocsc(), ell)
        full = np.zeros(dm.total_dofs)
        full[dm.globals_of_free] = x
        errs[n] = compute_errors(mesh, dm, full, EXACT).l2
    o1 = math.log(errs[3] / errs[5]) / math.log(5 / 3)
    o2 = math.log(errs[5] / errs[9]) / math.log(9 / 5)
    monotone = errs[3] > errs[5] > errs[9]
    ok = monotone and o1 >= 3.0 and o2 >= 3.0
    check(5, ok,
          f"l2 errors {errs[3]:.2e} > {errs[5]:.2e} > {errs[9]:.2e} (monotone: {monotone}); "
          f"observed orders {o1:.2f}, {o2:.2f} (need >= 3)")


# --- criterion 6: determinism --------------------------------------------------

def test_criterion_6_determinism(tmp_path):
    import os

    from streamfem.cli import main

    args = ["solve-nse", "--n", "3", "--re", "1", "--tol", "1e-5", "--nqp", "6",
            "--ordering", "1"]
    dirs = [tmp_path / "run1", tmp_path / "run2"]
    for d in dirs:
        assert main(args + ["--out-dir", str(d)]) == 0

    differing = []
    names = sorted(os.listdir(dirs[0]))
    assert names == sorted(os.listdir(dirs[1]))
    for name in names:
        if name == "timings.csv":
            continue
        b1 = (dirs[0] / name).read_bytes()
        b2 = (dirs[1] / name).read_bytes()
        if b1 != b2:
            differing.append(name)
    check(6, not differing,
          f"{len(names) - 1} outputs bitwise-identical across runs"
          + (f"; differing: {differing}" if differing else ""))


def test_zzz_print_summary():
    print("\n" + "=" * 72)
    for line in REPORT:
        print(line)
    print("=" * 72)
