"""In-memory span tracing of streamfem, installed from outside the package.

``Tracer.install()`` wraps the functions in ``SPANS`` (the calls that cross
from one layer module into another, plus the CLI's ``cmd_*`` commands) and
the two methods in ``METHODS`` at every place they are looked up. The
modules import each other's functions by name, so a function is replaced in
each ``streamfem`` module whose attribute is that same object, e.g.
``streamfem.picard.pcg`` as well as ``streamfem.solvers.pcg``. Functions
imported lazily inside a function body (``analysis.run_tables`` imports
``picard.solve_*``) read the module attribute at call time and so see the
module-level wrapper. Helpers a layer calls inside itself, such as
``argyris.build_element_basis``, get no span: their time is the self time
of the boundary call that ran them.

A span is (name, start, end, parent index, op id). Wrappers record spans
only between ``begin_op`` and ``end_op``, so the benchmark's own output
checks, which call into streamfem, are never traced. A few wrappers also
read the call's arguments or result to count work (solver iterations,
bases built, bytes written); those counts land in ``Tracer.counts``.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import Counter, defaultdict

LAYERS = ("mesh", "argyris", "quadrature", "assembly", "solvers", "picard", "analysis", "cli")
SPANS = (
    "cli.main",
    "mesh.build_uniform_mesh", "mesh.enumerate_dofs",
    "argyris.build_all_bases",
    "quadrature.map_to_triangle",
    "assembly.assemble_biharmonic", "assembly.assemble_convection", "assembly.assemble_load",
    "solvers.from_coo", "solvers.bandwidth_stats", "solvers.pcg", "solvers.bicgstab",
    "solvers.write_matrix_market",
    "picard.solve_biharmonic_problem", "picard.solve_linearized_nse",
    "analysis.compute_errors", "analysis.evaluate_field", "analysis.export_sparsity",
    "analysis.export_contours",
)
# methods traced as spans of their own: span name -> (module, class, method)
METHODS = {
    "assembly.ElementTables": ("assembly", "ElementTables", "__init__"),
    "solvers.matrix_sum": ("solvers", "SparseMatrix", "__add__"),
}

NAME, START, END, PARENT, OP = range(5)


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans of one thread nest, so the children of a span never overlap and
    their summed durations are the part of the span they cover.
    """
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] is not None:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def _solver_counts(counts, args, result):
    matrix, (_, report) = args[0], result
    counts[f"{report.method}.iterations"] += report.iterations
    counts["solves"] += 1
    counts["solves_converged"] += int(report.converged)
    counts["matvecs"] += report.matvecs
    counts["flops"] += report.flops
    # computed, not measured: a CSR matvec reads 8+4 bytes per stored entry
    # plus the input vector and writes the output vector (8 bytes each)
    counts["matvec_bytes_computed"] += report.matvecs * (12 * matrix.nnz + 16 * matrix.dimension)
    for key, value in (("nnz_max", matrix.nnz), (f"{report.method}.nnz_max", matrix.nnz),
                       (f"{report.method}.dimension_max", matrix.dimension)):
        counts[key] = max(counts[key], value)


def _file_bytes(*paths) -> int:
    return sum(os.path.getsize(p) for p in paths)


OBSERVERS = {
    "solvers.pcg": _solver_counts,
    "solvers.bicgstab": _solver_counts,
    "argyris.build_all_bases":
        lambda c, a, r: c.update(bases_built=len(r)),
    "mesh.build_uniform_mesh":
        lambda c, a, r: c.update(triangles=r.num_triangles),
    "picard.solve_linearized_nse":
        lambda c, a, r: c.update(outer_iterations=len(r[1].iterations)),
    "analysis.export_sparsity":
        lambda c, a, r: c.update(bytes_written=_file_bytes(r["pbm"], r["svg"])),
    "analysis.export_contours":
        lambda c, a, r: c.update(bytes_written=_file_bytes(r["svg"], r["csv"])),
    "solvers.write_matrix_market":
        lambda c, a, r: c.update(bytes_written=_file_bytes(a[1])),
}


class Tracer:
    """Spans and counts of the op in progress; see the module docstring."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op = None
        self._patches: list[tuple] = []

    # --- recording -------------------------------------------------------

    def begin_op(self, op_id) -> None:
        self.spans, self.counts, self._stack, self._op = [], Counter(), [], op_id

    def end_op(self):
        """Stop recording; return the op's (spans, counts)."""
        self._op = None
        return self.spans, self.counts

    def _wrap(self, fn, name: str):
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            spans, stack = self.spans, self._stack
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self._op]
            spans.append(span)
            stack.append(index)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if observe is not None:
                observe(self.counts, args, result)
            return result

        wrapper.__perfbench_original__ = fn
        return wrapper

    # --- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap the traced functions at every lookup site in streamfem."""
        modules = {layer: importlib.import_module(f"streamfem.{layer}") for layer in LAYERS}
        names = [*SPANS, *(f"cli.{a}" for a in vars(modules["cli"]) if a.startswith("cmd_"))]
        wrappers = {}  # id(original) -> (original, wrapper)
        for name in names:
            layer, attr = name.split(".")
            fn = getattr(modules[layer], attr)
            wrappers[id(fn)] = (fn, self._wrap(fn, name))
        for mod in (importlib.import_module("streamfem"), *modules.values()):
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        for name, (layer, cls_name, meth) in METHODS.items():
            cls = getattr(modules[layer], cls_name)
            original = cls.__dict__[meth]
            self._patches.append((cls, meth, original))
            setattr(cls, meth, self._wrap(original, name))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


def _merge_counts(dst: Counter, src: Counter) -> None:
    """Add ``src`` into ``dst``, except that keys ending in ``_max`` keep the maximum."""
    for key, value in src.items():
        dst[key] = max(dst[key], value) if key.endswith("_max") else dst[key] + value


class RoundStats:
    """Self times, call counts and work counts summed over traced ops."""

    def __init__(self):
        self.ops = 0
        self.self_s = defaultdict(float)   # span name -> summed self time
        self.calls = Counter()             # span name -> calls
        self.counts = Counter()

    def add_op(self, spans, counts) -> None:
        self.ops += 1
        for span, own in zip(spans, self_times(spans)):
            self.self_s[span[NAME]] += own
            self.calls[span[NAME]] += 1
        _merge_counts(self.counts, counts)
        self.counts["spans"] += len(spans)

    def layer_self_s(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.split(".", 1)[0] == layer)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer_metrics(stats: RoundStats, rounds: int, overhead_s: float) -> dict:
    """The per-layer metrics: times per op, counts per complete round."""
    ops = stats.ops

    def per_op(name):
        return _ratio(stats.self_s[name], ops), "s/op"

    def per_round(value, unit):
        return _ratio(value, rounds), unit

    c = stats.counts
    m = {
        "cli.main.s": per_op("cli.main"),
        "mesh.build_uniform_mesh.s": per_op("mesh.build_uniform_mesh"),
        "mesh.enumerate_dofs.s": per_op("mesh.enumerate_dofs"),
        "mesh.enumerate_dofs.calls": per_round(stats.calls["mesh.enumerate_dofs"], "calls/round"),
        "argyris.build_all_bases.s": per_op("argyris.build_all_bases"),
        "argyris.build_all_bases.calls":
            per_round(stats.calls["argyris.build_all_bases"], "calls/round"),
        "argyris.bases_per_op": (_ratio(c["bases_built"], c["triangles"]), "bases/triangle"),
        "quadrature.map_to_triangle.s": per_op("quadrature.map_to_triangle"),
        "quadrature.map_to_triangle.calls":
            per_round(stats.calls["quadrature.map_to_triangle"], "calls/round"),
        "assembly.ElementTables.s": per_op("assembly.ElementTables"),
        "assembly.ElementTables.calls":
            per_round(stats.calls["assembly.ElementTables"], "calls/round"),
        "assembly.assemble_biharmonic.s": per_op("assembly.assemble_biharmonic"),
        "assembly.assemble_load.s": per_op("assembly.assemble_load"),
        "assembly.assemble_convection.s": per_op("assembly.assemble_convection"),
        "assembly.assemble_convection.calls":
            per_round(stats.calls["assembly.assemble_convection"], "calls/round"),
        "solvers.matrix_sum.s": per_op("solvers.matrix_sum"),
        "solvers.pcg.s": per_op("solvers.pcg"),
        "solvers.pcg.iterations": per_round(c["pcg.iterations"], "iters/round"),
        "solvers.bicgstab.s": per_op("solvers.bicgstab"),
        "solvers.bicgstab.iterations": per_round(c["bicgstab.iterations"], "iters/round"),
        "solvers.bicgstab.s_per_iter":
            (_ratio(stats.self_s["solvers.bicgstab"], c["bicgstab.iterations"]), "s/iter"),
        "solvers.matvecs": per_round(c["matvecs"], "matvecs/round"),
        "solvers.flops": per_round(c["flops"], "flops/round"),
        "solvers.nnz": (c["nnz_max"], "nnz"),
        "solvers.matvec_bytes_computed": per_round(c["matvec_bytes_computed"], "B/round"),
        "solvers.converged_ratio": (_ratio(c["solves_converged"], c["solves"]), "ratio"),
        "solvers.write_matrix_market.s": per_op("solvers.write_matrix_market"),
        "picard.outer_iterations": per_round(c["outer_iterations"], "iters/round"),
        "analysis.compute_errors.s": per_op("analysis.compute_errors"),
        "analysis.evaluate_field.s": per_op("analysis.evaluate_field"),
        "analysis.export_sparsity.s": per_op("analysis.export_sparsity"),
        "analysis.export_contours.s": per_op("analysis.export_contours"),
        "analysis.bytes_written": per_round(c["bytes_written"], "B/round"),
        "trace.overhead_s": (overhead_s, "s/op"),
        "trace.spans": per_round(c["spans"], "spans/round"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (_ratio(stats.layer_self_s(layer), ops), "s/op")
    return m
