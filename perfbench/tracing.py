"""Spans around the program's public functions, for the traced run only.

The wrappers are installed where the jobs look the functions up: the
``graphlse.cli`` namespace (CLI jobs) and the package namespace (direct jobs),
plus the ``GraphState.sample`` classmethod.  Calls that one library module
makes to another through its own imports are not wrapped, so a wrapped
function's self time includes them.

A span is ``[name, start, end, parent_index, job_id, size, raised]``.  Spans
are kept in memory and written out when the run ends.
"""
from __future__ import annotations

import functools
import inspect
import os
import statistics
import sys
from time import perf_counter

# module -> public functions the jobs call
TRACED = {
    "cli": ("run_config", "emit_plots"),
    "carleman": ("sample_zcomp", "alpha_vectors", "carleman_sides"),
    "kernels": ("solve_negative_halfline",),
    "exppoly": ("invert_E", "layer_params", "write_series_csv"),
    "evolution": ("evolve_graph", "evolve_graph_potential", "evolve_line_sigma", "write_checkpoint"),
    "graphs": ("build_star", "build_regular_tree", "GraphState.sample", "kirchhoff_residual", "weighted_l2_norm"),
    "reduction": ("reduction_map", "averaged_sums", "fold_to_line", "write_reduction_report"),
    "uncertainty": ("fit_gaussian_decay", "classify_threshold", "sharp_example_star", "sharp_example_two_step"),
    "_report": ("write_csv",),
}


def _atoms(args, out) -> int:
    return len(out.poly.terms)


def _pairs(args, out) -> int:
    return len(args["x_grid"]) * len(args["u0"][0])


def _bytes(args, out) -> int:
    return os.path.getsize(args["path"])


# size counts observed at the call boundary: (module, function) -> (metric, unit, fn)
SIZES = {
    ("exppoly", "invert_E"): ("atoms", "count", _atoms),
    ("kernels", "solve_negative_halfline"): ("pairs", "count", _pairs),
    ("_report", "write_csv"): ("bytes", "B", _bytes),
}


def layer(module: str) -> str:
    """Metric prefix of a module (metric names may not start with '_')."""
    return module.lstrip("_")


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    names = []
    for module, funcs in TRACED.items():
        for func in funcs:
            base = f"{layer(module)}.{func}"
            names += [(f"{base}.calls", "count"), (f"{base}.s", "s"), (f"{base}.self_s", "s")]
            if (module, func) in SIZES:
                metric, unit, _ = SIZES[module, func]
                names.append((f"{base}.{metric}", unit))
        names.append((f"{layer(module)}.errors", "count"))
    return names


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.active = False
        self.job: str | None = None
        self.unwrapped: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name: str, fn, size):
        sig = inspect.signature(fn) if size else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.job, None, False]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span[6] = True
                raise
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if size:
                span[5] = size(sig.bind(*args, **kwargs).arguments, out)
            return out

        return traced

    def install(self, pkg, cli) -> None:
        for module, funcs in TRACED.items():
            mod = sys.modules.get(f"graphlse.{module}")
            for func in funcs:
                name = f"{layer(module)}.{func}"
                size = SIZES.get((module, func), (None, None, None))[2]
                if "." in func:
                    cls_name, meth = func.split(".")
                    cls = getattr(mod, cls_name, None)
                    orig = cls.__dict__.get(meth) if cls is not None else None
                    if not isinstance(orig, classmethod):
                        self.unwrapped.append(name)
                        continue
                    self._saved.append((cls, meth, orig))
                    setattr(cls, meth, classmethod(self._wrap(name, orig.__func__, size)))
                    continue
                orig = getattr(mod, func, None)
                targets = [ns for ns in (cli, pkg) if orig is not None and getattr(ns, func, None) is orig]
                if not targets:
                    self.unwrapped.append(name)
                    continue
                wrapped = self._wrap(name, orig, size)
                for ns in targets:
                    self._saved.append((ns, func, orig))
                    setattr(ns, func, wrapped)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()


def layer_metrics(tracer: Tracer, passes: list[list[tuple[str, float]]]) -> dict[str, float]:
    """Per-layer metrics: the median over traced passes of each per-pass total.

    ``passes`` holds, per traced pass, the (job_id, wall seconds) of its jobs.
    ``unattributed_s`` is job wall time outside every top-level span.
    """
    child_s: dict[int, float] = {}
    for start, end, parent in ((s[1], s[2], s[3]) for s in tracer.spans):
        if parent is not None:
            child_s[parent] = child_s.get(parent, 0.0) + (end - start)
    size_metric = {f"{layer(m)}.{f}": f"{layer(m)}.{f}.{metric}" for (m, f), (metric, _, _) in SIZES.items()}
    per_pass = []
    for jobs in passes:
        ids = {j for j, _ in jobs}
        tot = dict.fromkeys((n for n, _ in metric_names()), 0.0)
        covered = 0.0
        for i, (name, start, end, parent, job, size, raised) in enumerate(tracer.spans):
            if job not in ids:
                continue
            tot[f"{name}.calls"] += 1
            tot[f"{name}.s"] += end - start
            tot[f"{name}.self_s"] += end - start - child_s.get(i, 0.0)
            if size is not None:
                tot[size_metric[name]] += size
            if raised:
                tot[f"{name.split('.')[0]}.errors"] += 1
            if parent is None:
                covered += end - start
        wall = sum(w for _, w in jobs)
        tot["unattributed_s"] = wall - covered
        tot["span_coverage"] = covered / wall
        per_pass.append(tot)
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
