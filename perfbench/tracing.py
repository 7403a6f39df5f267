"""Traced run: spans around the public functions of each pompeiu layer.

`install` wraps those functions from outside the package, for one traced
run only: every module (and module-level table) of the package that holds a
wrapped function gets the wrapper, because `from .kernels import c3` binds
the name in each importer.  `restore` puts every original back.

Spans are kept in memory, appended under a lock because the grid fan-out
runs targets on worker threads.  Each span records its name, start, end,
parent span and thread.  A span's self time is its duration minus the part
of it that its child spans cover; `layer_metrics` turns the spans of the
traced passes into the per-layer metrics, per pass.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import RectBivariateSpline

from pompeiu import (cli, expressions, geometry, kernels, operators, oracle,
                     quadrature, solver)


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    work: int


class Tracer:
    """In-memory span recorder; safe to call from several threads."""

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1][0] if stack else None

    def call(self, name: str, fn, args, kwargs, work: int = 1, parent: int | None = None):
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1][0]
        with self._lock:
            sid = next(self._ids)
        stack.append((sid, name))
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            span = Span(sid, name, start, end, parent, threading.get_ident(), int(work))
            with self._lock:
                self.spans.append(span)

    def wrap(self, name: str, fn, work=None, reentrant: bool = False):
        """`fn` recorded as span `name`; `work(args, kwargs)` counts its work.

        With `reentrant`, a call made while this thread's innermost span is
        already `name` (a recursive call) runs unrecorded.
        """
        def wrapper(*args, **kwargs):
            if reentrant:
                stack = self._stack()
                if stack and stack[-1][1] == name:
                    return fn(*args, **kwargs)
            count = work(args, kwargs) if work is not None else 1
            return self.call(name, fn, args, kwargs, count)
        return wrapper


def _pairs(args, kwargs) -> int:
    """Number of (a, b) point pairs a kernel call evaluates."""
    return int(np.broadcast(np.asarray(args[0]), np.asarray(args[1])).size)


def _samples(args, kwargs) -> int:
    return int(np.broadcast(*[np.asarray(z) for z in args[1]]).size)


def _rule_nodes(args, kwargs) -> int:
    return int(args[0].nodes.size)


def _points(args, kwargs) -> int:
    return int(np.size(args[1]))   # RectBivariateSpline.ev(self, xi, yi)


def _threads(args, kwargs) -> int:
    return operators.worker_count()


# (module or class, attribute, span name, work counter)
_PLAIN = [
    (cli, "run_command", "cli.run_command", None),
    (kernels, "log_term", "kernels.log_term", _pairs),
    (kernels, "c1", "kernels.c1", _pairs),
    (kernels, "c2", "kernels.c2", _pairs),
    (kernels, "c3", "kernels.c3", _pairs),
    (kernels, "g_mixed", "kernels.g_mixed", _pairs),
    (kernels, "g_diag", "kernels.g_diag", _pairs),
    (quadrature, "build_area_rule", "quadrature.rule_build", None),
    (quadrature, "build_half_rule", "quadrature.rule_build", None),
    (quadrature, "build_contour_rule", "quadrature.rule_build", None),
    (quadrature, "integrate", "quadrature.integrate", _rule_nodes),
    (operators, "apply_polydisc", "operators.polydisc", None),
    (operators.GridField, "to_csv_text", "operators.grid_emit", None),
    (operators.GridField, "to_json_text", "operators.grid_emit", None),
    (solver, "fd_residual", "solver.fd_residual", None),
    (geometry.WirtingerStencil, "apply", "geometry.stencil", None),
    (oracle.NestedOracle, "evaluate", "oracle.nested", None),
    (oracle, "lemma_lhs_quadrature", "oracle.lemma", None),
    (oracle, "check_norm_bound", "oracle.norm_check", None),
    (RectBivariateSpline, "ev", "oracle.interp", _points),
] + [(operators, name, "operators.apply", None)
     for name in ("apply_T", "apply_Tbar", "apply_2T", "apply_2Tbar", "apply_S", "apply_Sbar",
                  "apply_T_power", "apply_Tbar_power", "apply_mixed", "apply_conjugate_dual")]


class Installation:
    """Wrappers in place; `restore` undoes every replacement, newest first."""

    def __init__(self):
        self._undo: list = []

    def _set(self, owner, attr, value) -> None:
        if isinstance(owner, dict):
            old = owner[attr]
            self._undo.append(lambda: owner.__setitem__(attr, old))
            owner[attr] = value
        elif isinstance(owner, type):
            if attr in owner.__dict__:
                old = owner.__dict__[attr]
                self._undo.append(lambda: setattr(owner, attr, old))
            else:   # inherited: shadow it, then remove the shadow
                self._undo.append(lambda: delattr(owner, attr))
            setattr(owner, attr, value)
        else:
            old = getattr(owner, attr)
            self._undo.append(lambda: setattr(owner, attr, old))
            setattr(owner, attr, value)

    def replace_everywhere(self, original, wrapper) -> None:
        """Swap `original` for `wrapper` in every pompeiu module and its tables."""
        for name, module in list(sys.modules.items()):
            if name != "pompeiu" and not name.startswith("pompeiu."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if item is original:
                            self._set(value, key, wrapper)

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()


def install(tracer: Tracer) -> Installation:
    inst = Installation()
    try:
        for owner, attr, name, work in _PLAIN:
            original = getattr(owner, attr)
            wrapper = tracer.wrap(name, original, work)
            if isinstance(owner, type):
                inst._set(owner, attr, wrapper)
            else:
                inst.replace_everywhere(original, wrapper)

        evaluate = expressions.evaluate
        inst.replace_everywhere(evaluate, tracer.wrap("expressions.eval", evaluate, _samples,
                                                      reentrant=True))

        grid = operators.evaluate_on_grid

        def traced_grid(func, *args, **kwargs):
            parent = tracer.current()   # the grid span; targets may run on workers

            def target(z):
                return tracer.call("operators.target", func, (z,), {}, 1, parent)
            return grid(target, *args, **kwargs)
        inst.replace_everywhere(grid, tracer.wrap("operators.grid", traced_grid, _threads))

        for solve in (solver.solve_pde, solver.solve_biharmonic):
            def traced_solve(*args, _solve=solve, **kwargs):
                u = _solve(*args, **kwargs)
                return lambda z: tracer.call("solver.point", u, (z,), {})
            inst.replace_everywhere(solve, traced_solve)
    except BaseException:
        inst.restore()
        raise
    return inst


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for lo, hi in sorted(children.get(s.id, ())):
            lo, hi = max(lo, reach), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = (s.end - s.start) - covered
    return out


#: per-layer metric -> (unit, better)
LAYER_METRICS = {
    "kernels.log_term_s": ("s", "lower"),
    "kernels.c1_s": ("s", "lower"),
    "kernels.c2_s": ("s", "lower"),
    "kernels.c3_self_s": ("s", "lower"),
    "kernels.node_evals": ("count", "lower"),
    "kernels.ns_per_node_eval": ("ns", "lower"),
    "quadrature.rule_build_s": ("s", "lower"),
    "quadrature.rules_built": ("count", "lower"),
    "quadrature.integrate_s": ("s", "lower"),
    "quadrature.nodes_integrated": ("count", "lower"),
    "operators.rule_cache_hits": ("count", "higher"),
    "operators.rule_cache_misses": ("count", "lower"),
    "operators.rule_cache_hit_ratio": ("ratio", "higher"),
    "operators.target_ms.p50": ("ms", "lower"),
    "operators.target_ms.p99": ("ms", "lower"),
    "operators.fanout_efficiency": ("ratio", "higher"),
    "operators.polydisc_s": ("s", "lower"),
    "operators.grid_emit_s": ("s", "lower"),
    "expressions.eval_s": ("s", "lower"),
    "expressions.samples": ("count", "lower"),
    "solver.point_ms.p50": ("ms", "lower"),
    "solver.point_ms.p99": ("ms", "lower"),
    "solver.self_s": ("s", "lower"),
    "geometry.stencil_s": ("s", "lower"),
    "geometry.stencil_evals": ("count", "lower"),
    "oracle.nested_s": ("s", "lower"),
    "oracle.interp_s": ("s", "lower"),
    "oracle.interp_points": ("count", "lower"),
    "oracle.lemma_s": ("s", "lower"),
    "oracle.norm_check_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


def _percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(spans: list[Span], passes: int, cache_hits: int, cache_misses: int,
                  overhead_ratio: float) -> dict[str, float]:
    """Per-pass layer metrics from the spans of `passes` traced passes.

    `*_s` metrics are self times, except oracle.nested_s, oracle.lemma_s and
    oracle.norm_check_s, which time those oracle entry points whole.
    """
    own = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def self_s(*names):
        return sum(own[s.id] for n in names for s in by_name[n]) / passes

    def total_s(name):
        return sum(s.end - s.start for s in by_name[name]) / passes

    def work(name):
        return sum(s.work for s in by_name[name]) / passes

    def durations_ms(name):
        return [(s.end - s.start) * 1e3 for s in by_name[name]]

    kernel_names = [n for n in by_name if n.startswith("kernels.")]
    node_evals = work("kernels.c3") + work("kernels.g_diag")
    grid_busy = sum((s.end - s.start) * s.work for s in by_name["operators.grid"])
    target_busy = sum(s.end - s.start for s in by_name["operators.target"])
    lookups = cache_hits + cache_misses
    return {
        "kernels.log_term_s": self_s("kernels.log_term"),
        "kernels.c1_s": self_s("kernels.c1"),
        "kernels.c2_s": self_s("kernels.c2"),
        "kernels.c3_self_s": self_s("kernels.c3"),
        "kernels.node_evals": node_evals,
        "kernels.ns_per_node_eval":
            self_s(*kernel_names) / node_evals * 1e9 if node_evals else 0.0,
        "quadrature.rule_build_s": self_s("quadrature.rule_build"),
        "quadrature.rules_built": len(by_name["quadrature.rule_build"]) / passes,
        "quadrature.integrate_s": self_s("quadrature.integrate"),
        "quadrature.nodes_integrated": work("quadrature.integrate"),
        "operators.rule_cache_hits": cache_hits / passes,
        "operators.rule_cache_misses": cache_misses / passes,
        "operators.rule_cache_hit_ratio": cache_hits / lookups if lookups else 0.0,
        "operators.target_ms.p50": _percentile(durations_ms("operators.target"), 50),
        "operators.target_ms.p99": _percentile(durations_ms("operators.target"), 99),
        "operators.fanout_efficiency": target_busy / grid_busy if grid_busy else 0.0,
        "operators.polydisc_s": self_s("operators.polydisc"),
        "operators.grid_emit_s": self_s("operators.grid_emit"),
        "expressions.eval_s": self_s("expressions.eval"),
        "expressions.samples": work("expressions.eval"),
        "solver.point_ms.p50": _percentile(durations_ms("solver.point"), 50),
        "solver.point_ms.p99": _percentile(durations_ms("solver.point"), 99),
        "solver.self_s": self_s(*[n for n in by_name if n.startswith("solver.")]),
        "geometry.stencil_s": self_s("geometry.stencil"),
        "geometry.stencil_evals": len(by_name["geometry.stencil"]) / passes,
        "oracle.nested_s": total_s("oracle.nested"),
        "oracle.interp_s": self_s("oracle.interp"),
        "oracle.interp_points": work("oracle.interp"),
        "oracle.lemma_s": total_s("oracle.lemma"),
        "oracle.norm_check_s": total_s("oracle.norm_check"),
        "cli.self_s": self_s("cli.run_command"),
        "trace.overhead_ratio": overhead_ratio,
    }


def layer_self_times(spans: list[Span], passes: int) -> dict[str, float]:
    """Self seconds per pass for every layer, for the record's split."""
    own = self_times(spans)
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.name.split(".")[0]] += own[s.id] / passes
    return dict(out)
