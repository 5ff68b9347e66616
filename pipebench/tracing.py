"""Spans around calls into hgtensor's modules, recorded from outside.

``Tracer.install`` replaces every public function of the layer modules,
and every method defined in their classes, with a wrapper that records a
span when the call enters the layer from another layer (or from the
benchmark).  Calls inside one layer run the original function without a
span, so a span marks a layer boundary.  Spans stay in memory until the
run writes them out.  The per-layer metrics are computed from the spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path
from time import perf_counter

LAYERS = ("cli", "fileio", "hypergraph", "uniformise", "polynomial", "tensor",
          "spectral", "kernels")
PACKAGE = "hgtensor"


@dataclass
class Span:
    id: int
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    op: int
    counts: dict[str, int] = field(default_factory=dict)


def _counts(name: str, args: tuple, result) -> dict[str, int]:
    """Work counted at the boundary, for the spans that have it."""
    if name == "kernels.apply_coords":
        indices, values, x = args
        return {"entries": int(indices.shape[0]), "order": int(indices.shape[1]),
                "bytes": int(indices.nbytes + values.nbytes + x.nbytes
                             + result.nbytes)}
    if name == "spectral.largest_h_eigenvalue":
        return {"iterations": int(result.iterations)}
    return {}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.op = -1
        # Calls that passed through a wrapper inside their own layer.
        self.passes = 0
        self._undo: list[tuple[object, str, object]] = []

    def start_op(self, op: int) -> None:
        """Tag the spans that follow with operation id ``op``."""
        self.op = op

    def _wrap(self, layer: str, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            caller = self.stack[-1] if self.stack else None
            if caller is not None and caller.layer == layer:
                self.passes += 1
                return fn(*args, **kwargs)
            span = Span(len(self.spans), name, layer, perf_counter(), 0.0,
                        caller.id if caller else None, self.op)
            self.spans.append(span)
            self.stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self.stack.pop()
            span.counts = _counts(name, args, result)
            return result
        return wrapper

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}")
                   for layer in LAYERS}
        wrappers: dict[int, object] = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and _owner(obj, layer) == layer:
                    wrappers[id(obj)] = self._wrap(layer, f"{layer}.{attr}", obj)
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    self._wrap_methods(layer, obj)
        loaded = [m for name, m in sys.modules.items()
                  if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for ns in loaded:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrappers:
                    self._undo.append((ns, attr, obj))
                    setattr(ns, attr, wrappers[id(obj)])

    def _wrap_methods(self, layer: str, cls: type) -> None:
        source = inspect.getsourcefile(cls)
        for attr, obj in list(vars(cls).items()):
            private = attr.startswith("_") and not attr.endswith("__")
            if (private or not inspect.isfunction(obj)
                    or obj.__code__.co_filename != source):
                continue
            self._undo.append((cls, attr, obj))
            setattr(cls, attr, self._wrap(layer, f"{layer}.{cls.__name__}.{attr}", obj))

    def uninstall(self) -> None:
        for target, attr, obj in reversed(self._undo):
            setattr(target, attr, obj)
        self._undo.clear()

    def write(self, path: Path, header: dict) -> None:
        path.write_text(json.dumps(
            {**header, "spans": [asdict(s) for s in self.spans]}))


def wrapper_costs(calls: int = 20_000, repeats: int = 5) -> tuple[float, float]:
    """Seconds a wrapper adds to a call that records a span, and to one
    that passes through inside its own layer: a wrapped no-op against a
    bare one, the median of ``repeats`` timings of ``calls`` calls."""
    def noop(*args):
        return None

    def per_call(fn, outer: Tracer | None) -> float:
        times = []
        for _ in range(repeats):
            if outer is not None:
                outer.spans.clear()
            start = perf_counter()
            for _ in range(calls):
                fn(1, 2)
            times.append((perf_counter() - start) / calls)
        return statistics.median(times)

    tracer = Tracer()
    wrapped = tracer._wrap("x", "x.noop", noop)
    bare = per_call(noop, None)
    span = per_call(wrapped, tracer) - bare
    tracer.stack.append(Span(0, "x.outer", "x", 0.0, 0.0, None, -1))
    passing = per_call(wrapped, tracer) - bare
    return max(span, 0.0), max(passing, 0.0)


def _owner(fn, binding_layer: str) -> str:
    """Layer a function belongs to: where it is defined, if that is a
    layer module, else the layer that exports it (kernels re-exports its
    backend's function)."""
    defined = fn.__module__.rpartition(".")[2]
    return defined if defined in LAYERS else binding_layer


# --- per-layer metrics ------------------------------------------------------


def _busy(spans: list[Span]) -> float:
    """Length of the union of the spans' intervals."""
    total, reach = 0.0, float("-inf")
    for s in sorted(spans, key=lambda s: s.start):
        if s.end > reach:
            total += s.end - max(s.start, reach)
            reach = s.end
    return total


METRICS = {
    # name: (unit, span names whose busy time it is)
    "fileio.parse_hypergraph_s": ("s", ["fileio.parse_hypergraph"]),
    "fileio.write_tensor_s": ("s", ["fileio.write_tensor"]),
    "fileio.parse_tensor_s": ("s", ["fileio.parse_tensor"]),
    "hypergraph.layers_s": ("s", ["hypergraph.Hypergraph.layers"]),
    "hypergraph.degrees_s": ("s", ["hypergraph.Hypergraph.degrees"]),
    "uniformise.uniformise_iterative_s": ("s", ["uniformise.uniformise_iterative"]),
    "tensor.php_polynomials_s": ("s", ["tensor.php_polynomials"]),
    "tensor.polynomial_to_tensor_s": ("s", ["tensor.polynomial_to_tensor"]),
    "tensor.build_e_adjacency_s": ("s", ["tensor.build_e_adjacency"]),
    "tensor.edge_count_from_handshake_s": ("s", ["tensor.edge_count_from_handshake"]),
    "tensor.reconstruct_s": ("s", ["tensor.reconstruct"]),
    "spectral.degrees_from_tensor_s": ("s", ["spectral.degrees_from_tensor"]),
    "spectral.largest_h_eigenvalue_s": ("s", ["spectral.largest_h_eigenvalue"]),
    "kernels.apply_coords_s": ("s", ["kernels.apply_coords"]),
}

UNITS = {
    "cli.self_s": "s",
    "polynomial.s": "s",
    **{name: unit for name, (unit, _) in METRICS.items()},
    "spectral.solver_setup_s": "s",
    "spectral.iterations": "count",
    "spectral.s_per_iteration": "s",
    "kernels.apply_coords_calls": "count",
    "kernels.apply_coords_entries_per_s": "entries/s",
    "kernels.apply_coords_bytes": "bytes",
    "trace.overhead_pct": "%",
    "run.wall_edges_per_s": "edges/s",
    "run.wall_per_reference": "ratio",
}


def layer_metrics(spans: list[Span], rounds: int) -> dict[str, float]:
    """Per-layer figures per round of operations.

    A round is the same operations in every run, so per-round figures
    compare across runs of any length; totals would grow with the number
    of rounds a faster program fits into the run.
    """
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    out = {name: _busy([s for n in names for s in by_name.get(n, [])])
           for name, (_, names) in METRICS.items()}
    cli_spans = [s for s in spans if s.layer == "cli"]
    out["cli.self_s"] = sum(
        (s.end - s.start) - _busy(children.get(s.id, [])) for s in cli_spans)
    out["polynomial.s"] = _busy([s for s in spans if s.layer == "polynomial"])

    setup = loop = 0.0
    iterations = 0
    for s in by_name.get("spectral.largest_h_eigenvalue", []):
        kernel = [c for c in children.get(s.id, []) if c.layer == "kernels"]
        first = min((c.start for c in kernel), default=s.end)
        setup += first - s.start
        loop += s.end - first
        iterations += s.counts["iterations"]
    out["spectral.solver_setup_s"] = setup
    out["spectral.iterations"] = iterations
    out["spectral.s_per_iteration"] = loop / iterations if iterations else 0.0

    kernel = by_name.get("kernels.apply_coords", [])
    out["kernels.apply_coords_calls"] = len(kernel)
    entries = sum(s.counts["entries"] for s in kernel)
    busy = out["kernels.apply_coords_s"]
    out["kernels.apply_coords_entries_per_s"] = entries / busy if busy else 0.0
    out["kernels.apply_coords_bytes"] = sum(s.counts["bytes"] for s in kernel)

    per_round = {name: value / rounds for name, value in out.items()}
    per_round["kernels.apply_coords_entries_per_s"] = out[
        "kernels.apply_coords_entries_per_s"]
    per_round["spectral.s_per_iteration"] = out["spectral.s_per_iteration"]
    return per_round
