"""Span recorders wrapped around coronakit's layer boundaries from outside.

Each layer is one module of the package.  Installing a ``Tracer`` replaces
every function that one layer imported from another (for example
``coronakit.cli.closed_form_resistance_matrix``) with a wrapper that records
a span, plus the entry points the benchmark calls and the few calls inside
one module that the per-layer figures need.  Spans nest; a span's self time
is its duration minus the time of the spans opened inside it.  Spans are
aggregated by name as they close, so the memory they take does not grow
with the number of operations.
"""
from __future__ import annotations

import functools
import inspect
import time
import weakref

LAYERS = ("graphs", "linalg", "one_inverse", "metrics", "verify", "cli")

# Functions wrapped in their defining module as well, because the benchmark
# calls them there or another function of the same module calls them.
OWN_MODULE = {
    "cli": ("main", "render_json"),
    "metrics": (
        "resistance_vertex_corona",
        "resistance_edge_corona",
        "kf_vertex_corona",
        "kf_vertex_corona_regular",
        "kf_edge_corona_regular",
        "kirchhoff_oracle",
        "resistance_oracle",
    ),
    "one_inverse": ("one_inverse_vertex_corona", "one_inverse_edge_corona"),
    "verify": ("run_verification",),
}

KF = ("metrics.kf_vertex_corona", "metrics.kf_vertex_corona_regular", "metrics.kf_edge_corona_regular")
PAIR = ("metrics.resistance_vertex_corona", "metrics.resistance_edge_corona")
ASSEMBLY = ("one_inverse.one_inverse_vertex_corona", "one_inverse.one_inverse_edge_corona")

# name -> unit; the README maps each to the end-to-end metric it should move
PER_LAYER = {
    "cli.render_json_s": "s",
    "cli.json_mb": "MB",
    "cli.self_s": "s",
    "graphs.parse_s": "s",
    "graphs.corona_s": "s",
    "graphs.self_s": "s",
    "linalg.group_inverse_product_s": "s",
    "linalg.group_inverse_factor_s": "s",
    "linalg.inverse_s": "s",
    "linalg.self_s": "s",
    "one_inverse.assemble_s": "s",
    "one_inverse.matrix_mb": "MB",
    "one_inverse.self_s": "s",
    "metrics.closed_form_self_s": "s",
    "metrics.resistance_oracle_s": "s",
    "metrics.pair_query_us": "us",
    "metrics.pair_queries": "count",
    "metrics.kirchhoff_oracle_s": "s",
    "metrics.kf_self_s": "s",
    "metrics.neighbor_identity_s": "s",
    "metrics.metric_violation_s": "s",
    "metrics.self_s": "s",
    "verify.self_s": "s",
    "trace.overhead_pct": "%",
}


class Tracer:
    def __init__(self) -> None:
        self.totals: dict[str, list[float]] = {}  # name -> [count, total_s, self_s]
        self.json_bytes = 0
        self.matrix_bytes = 0
        self._stack: list[list[float]] = []  # [start, child time]
        self._saved: list[tuple[object, str, object]] = []
        self._wrappers: dict = {}  # original function -> its wrapper
        self._products: weakref.WeakValueDictionary = weakref.WeakValueDictionary()

    # -- installation -------------------------------------------------------

    def install(self, modules: dict) -> None:
        """Wrap the cross-layer bindings of ``modules`` (layer name -> module)."""
        if self._saved:
            return
        names = {m.__name__ for m in modules.values()}
        for layer, mod in modules.items():
            own = OWN_MODULE.get(layer, ())
            for attr, value in list(vars(mod).items()):
                if not inspect.isfunction(value) or value.__module__ not in names:
                    continue
                if value.__module__ != mod.__name__ or attr in own:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, self._wrapper(value))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()

    def reset(self) -> None:
        self.totals = {}
        self.json_bytes = 0
        self.matrix_bytes = 0

    def _wrapper(self, fn):
        wrapper = self._wrappers.get(fn)
        if wrapper is not None:
            return wrapper
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - frame[0]
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                self._close(name, args, elapsed, frame[1])
            self._observe(name, args, result)
            return result

        self._wrappers[fn] = wrapper
        return wrapper

    # -- recording ----------------------------------------------------------

    def _close(self, name: str, args, elapsed: float, children: float) -> None:
        if name == "linalg.group_inverse_laplacian":
            # product-size or factor-size: is the argument a product's Laplacian?
            lap = args[0] if args else None
            kind = "product" if self._products.get(id(lap)) is lap else "factor"
            name = f"{name}[{kind}]"
        acc = self.totals.get(name)
        if acc is None:
            acc = self.totals[name] = [0, 0.0, 0.0]
        acc[0] += 1
        acc[1] += elapsed
        acc[2] += elapsed - children

    def _observe(self, name: str, args, result) -> None:
        if name in ("graphs.corona_vertex", "graphs.corona_edge"):
            self._products[id(result.product)] = result.product
        elif name == "graphs.laplacian" and self._products.get(id(args[0])) is args[0]:
            self._products[id(result)] = result
        elif name == "cli.render_json":
            self.json_bytes += len(result)
        elif name in ASSEMBLY:
            n = result.layout.product.vertex_count
            self.matrix_bytes = max(self.matrix_bytes, n * n * 8)

    # -- figures ------------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "totals": {k: list(v) for k, v in self.totals.items()},
            "json_bytes": self.json_bytes,
            "matrix_bytes": self.matrix_bytes,
        }


def per_layer(setup: dict, round_: dict, overhead_pct: float) -> dict[str, float]:
    """Figures for one set-up plus one round, from two ``Tracer.snapshot()``s."""
    totals: dict[str, list[float]] = {}
    for snap in (setup, round_):
        for k, values in snap["totals"].items():
            acc = totals.setdefault(k, [0, 0.0, 0.0])
            for i, v in enumerate(values):
                acc[i] += v

    def total(*names: str) -> float:
        return sum(totals.get(n, (0, 0.0, 0.0))[1] for n in names)

    def own(*names: str) -> float:
        return sum(totals.get(n, (0, 0.0, 0.0))[2] for n in names)

    def layer_self(layer: str) -> float:
        return sum(v[2] for k, v in totals.items() if k.split(".", 1)[0] == layer)

    pair_count = sum(totals.get(n, (0, 0.0, 0.0))[0] for n in PAIR)
    json_bytes = setup["json_bytes"] + round_["json_bytes"]
    return {
        "cli.render_json_s": total("cli.render_json"),
        "cli.json_mb": json_bytes / 1e6,
        "cli.self_s": layer_self("cli"),
        "graphs.parse_s": total("graphs.parse_edge_list"),
        "graphs.corona_s": total("graphs.corona_vertex", "graphs.corona_edge"),
        "graphs.self_s": layer_self("graphs"),
        "linalg.group_inverse_product_s": total("linalg.group_inverse_laplacian[product]"),
        "linalg.group_inverse_factor_s": total("linalg.group_inverse_laplacian[factor]"),
        "linalg.inverse_s": total("linalg.inverse"),
        "linalg.self_s": layer_self("linalg"),
        "one_inverse.assemble_s": total(*ASSEMBLY),
        "one_inverse.matrix_mb": max(setup["matrix_bytes"], round_["matrix_bytes"]) / 1e6,
        "one_inverse.self_s": layer_self("one_inverse"),
        "metrics.closed_form_self_s": own("metrics.closed_form_resistance_matrix"),
        "metrics.resistance_oracle_s": total("metrics.resistance_oracle"),
        "metrics.pair_query_us": total(*PAIR) / pair_count * 1e6 if pair_count else 0.0,
        "metrics.pair_queries": pair_count,
        "metrics.kirchhoff_oracle_s": total("metrics.kirchhoff_oracle"),
        "metrics.kf_self_s": own(*KF),
        "metrics.neighbor_identity_s": total("metrics.neighbor_identity_check"),
        "metrics.metric_violation_s": total("metrics.metric_violation"),
        "metrics.self_s": layer_self("metrics"),
        "verify.self_s": layer_self("verify"),
        "trace.overhead_pct": overhead_pct,
    }
