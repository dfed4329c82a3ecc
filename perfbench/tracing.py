"""Opt-in tracer for one benchmark worker.

Wraps public functions and kernel methods of the bzk layers from outside the
package: every module namespace (and class) that binds the original object
gets the wrapper, since zeta, heat and cli import by name.  Spans (name,
start, end, parent) and counts stay in memory and are written out once, by
`Tracer.finish`.  Self time is a span's duration minus its direct children's.
The span stack is shared, so the traced code must run on one thread, as bzk
does with BZK_THREADS unset.
"""

import functools
import json
import sys
import time

# span name -> (module, attribute path) of the wrapped callable
WRAPPED = {
    "series.operator_poly_mul": ("bzk.series", "OperatorPoly.__mul__"),
    "series.operator_series_mul": ("bzk.series", "OperatorSeries.__mul__"),
    "series.useries_mul": ("bzk.series", "USeries.__mul__"),
    "series.useries_exp": ("bzk.series", "USeries.exp"),
    "series.useries_log": ("bzk.series", "USeries.log"),
    "operators.cm_sequence": ("bzk.operators", "cm_sequence"),
    "operators.r_values": ("bzk.operators", "r_values"),
    "operators.delta_diag": ("bzk.operators", "delta_diag"),
    "operators.check_series_inverse": ("bzk.operators", "check_series_inverse_identity"),
    "operators.check_no_tail": ("bzk.operators", "check_no_tail_identity"),
    "operators.check_cyclic_bump": ("bzk.operators", "check_cyclic_bump_identity"),
    "operators.check_r_generating": ("bzk.operators", "check_r_generating_identity"),
    "paths.rooted_closed_tallies": ("bzk.paths", "rooted_closed_tallies"),
    "paths.primitive_rooted_closed_paths": ("bzk.paths", "primitive_rooted_closed_paths"),
    "zeta.log_route": ("bzk.zeta", "zeta_log_series"),
    "zeta.formula_route": ("bzk.zeta", "zeta_formula_series"),
    "zeta.euler_route": ("bzk.zeta", "euler_product_series"),
    "zeta.cbc_entries": ("bzk.zeta", "cbc_entries"),
    "zeta.spectral_point": ("bzk.zeta", "zeta_spectral_report"),
    "zeta.local_spectrum": ("bzk.zeta", "local_spectrum"),
    "zeta.charpoly_exact": ("bzk.zeta", "charpoly_exact"),
    "zeta.isolate_real_roots": ("bzk.zeta", "isolate_real_roots"),
    "heat.bessel_point": ("bzk.heat", "heat_kernel_bessel"),
    "heat.bessel_i": ("bzk.heat", "bessel_i"),
    "graphs.generate": ("bzk.graphs", "generate"),
}

# metric stem -> (module, name) of an lru_cache read through cache_info()
CACHES = {
    "zeta.f_power_table": ("bzk.zeta", "_f_power_table"),
    "zeta.eigh": ("bzk.zeta", "_eigh_cached"),
    "heat.walk_matrix_table": ("bzk.heat", "_walk_matrix_table"),
}

# the routes whose returned series are kept for the reference check
ROUTES = {"zeta.log_route": "log", "zeta.formula_route": "formula",
          "zeta.euler_route": "euler"}

METRICS = (
    [(f"{name}_{kind}", unit) for name in WRAPPED
     for kind, unit in (("calls", "count"), ("s", "s"))]
    + [(f"{name}_{kind}", "count") for name in CACHES for kind in ("hits", "misses")]
    + [("paths.primitive_walks", "count"), ("cli.import_s", "s")]
)


def _resolve(path):
    module, attr = path
    obj = sys.modules[module]
    owner = None
    for part in attr.split("."):
        owner, obj = obj, getattr(obj, part)
    return owner, obj


class Tracer:
    def __init__(self):
        self.names = list(WRAPPED)
        self.spans = []  # (name index, start, end, parent span index or -1)
        self.primitive_walks = 0
        self.routes = []  # (route, graph label, root, order, series JSON)
        self._stack = []  # slots of the spans still open

    def _wrap(self, index, fn):
        spans = self.spans
        clock = time.perf_counter
        name = self.names[index]
        route = ROUTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            slot = len(spans)
            spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(slot)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self._stack.pop()
                spans[slot] = (index, start, end, parent)
            if name == "paths.primitive_rooted_closed_paths":
                self.primitive_walks += len(result)
            elif route is not None:
                self.routes.append((route, args[0].label, args[1], args[-1],
                                    result.to_json()))
            return result

        return traced

    def install(self):
        """Replace every binding of each wrapped callable under bzk."""
        modules = [m for key, m in sys.modules.items()
                   if key == "bzk" or key.startswith("bzk.")]
        for index, name in enumerate(self.names):
            owner, original = _resolve(WRAPPED[name])
            wrapper = self._wrap(index, original)
            for target in [owner] if isinstance(owner, type) else modules:
                for key, value in list(vars(target).items()):
                    if value is original:
                        setattr(target, key, wrapper)

    def finish(self, path, import_s):
        """Write the spans to path and return the per-layer metrics."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        metrics = {}
        for name in self.names:
            metrics[f"{name}_calls"] = 0
            metrics[f"{name}_s"] = 0.0
        for slot, (index, start, end, _) in enumerate(self.spans):
            name = self.names[index]
            metrics[f"{name}_calls"] += 1
            metrics[f"{name}_s"] += end - start - child[slot]
        for stem, source in CACHES.items():
            info = _resolve(source)[1].cache_info()
            metrics[f"{stem}_hits"] = info.hits
            metrics[f"{stem}_misses"] = info.misses
        metrics["paths.primitive_walks"] = self.primitive_walks
        metrics["cli.import_s"] = import_s
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "fields": ["name", "start", "end", "parent"],
                       "spans": self.spans, "metrics": metrics}, fh)
        return metrics
