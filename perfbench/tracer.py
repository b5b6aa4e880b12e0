"""Span tracer for hyperhodge, installed from outside the package.

``install()`` wraps the public functions of each hyperhodge layer by
rebinding module (and class) attributes: every module of the package that
binds a target function under any name gets the wrapper instead, so
``identities.gen_product``, ``kernels.poly_mul`` and ``values.base_value``
are all traced without editing the package.

Each call through a wrapper records one span (name, parent span, start and
end in nanoseconds) in compact in-memory arrays.  Counts are kept at the
same boundary: calls, total time, self time (span time minus the time of
its child spans, accumulated as spans close), exceptions that leave a
layer, coefficient multiplies computed from kernel argument lengths, the
largest coefficient bit length a kernel returns, and values returned by the
value oracles.  The traced process writes the spans and the summary when
it ends.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array

# layer -> public functions wrapped; "Class.method" entries wrap methods and
# are named by the method without underscores (DensePolynomial.__mul__ and
# its alias __rmul__ both become "algebra.DensePolynomial.mul").
TARGETS = {
    "cli": ("main", "run_identity_suite", "run_cross_oracle_suite",
            "run_localization_suite"),
    "identities": ("P_poly", "Q_poly", "eqn_check", "hat_root_values",
                   "hat_transform", "product_vanishing_sum",
                   "alternating_power_sum"),
    "symmetric": ("gen_product", "elementary", "signed_convolution"),
    "kernels": ("linear_product", "poly_mul"),
    "algebra": ("laurent_sum", "DensePolynomial.__mul__",
                "DensePolynomial.__add__"),
    "values": ("closed_D", "closed_d", "base_value", "recursive_D",
               "recursive_d", "table"),
    "localization": ("enumerate_family", "vertex_moduli_of",
                     "vertex_integral", "contribution_template",
                     "graph_contribution", "auxiliary_integral",
                     "localization_D", "localization_d"),
}


def _linear_product_mults(args, kwargs):
    # prod_j (1 + c_j t) truncated at degree cap: factor j updates
    # min(j + 1, cap + 1) coefficients.
    n = len(args[0])
    max_degree = args[1] if len(args) > 1 else kwargs.get("max_degree")
    cap = n if max_degree is None else min(max_degree, n)
    if cap < 0:
        return 0
    full = min(n, cap + 1)
    return full * (full + 1) // 2 + (n - full) * (cap + 1)


def _poly_mul_mults(args, kwargs):
    return len(args[0]) * len(args[1])


def _max_pair_bits(pairs):
    if not pairs:
        return 0
    return max(max(abs(n).bit_length(), d.bit_length()) for n, d in pairs)


class Tracer:
    """In-memory spans and per-name counters for the wrapped functions."""

    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self.calls: list[int] = []
        self.total_ns: list[int] = []
        self.self_ns: list[int] = []
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.raised: list[int] = []  # span indices that ended in an exception
        # open spans; the sentinel at index 0 collects top-level span time
        self._open = [-1]
        self._child_ns = [0]
        self.mults: dict[str, int] = {}
        self.max_coeff_bits = 0
        self.values_returned = 0
        self.closed_caches = []

    def wrap(self, name: str, layer: str, fn, after=None):
        nid = len(self.names)
        self.names.append(name)
        self.layers.append(layer)
        self.calls.append(0)
        self.total_ns.append(0)
        self.self_ns.append(0)
        calls, total_ns, self_ns = self.calls, self.total_ns, self.self_ns
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        open_, child_ns, raised = self._open, self._child_ns, self.raised
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(span_name)
            span_name.append(nid)
            span_parent.append(open_[-1])
            span_end.append(0)
            open_.append(idx)
            child_ns.append(0)
            start = clock()
            span_start.append(start)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised.append(idx)
                raise
            finally:
                end = clock()
                span_end[idx] = end
                open_.pop()
                duration = end - start
                child_ns[-2] += duration
                self_ns[nid] += duration - child_ns.pop()
                total_ns[nid] += duration
                calls[nid] += 1
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    def _kernel_hook(self, name, mults_of):
        self.mults[name] = 0

        def after(args, kwargs, result):
            self.mults[name] += mults_of(args, kwargs)
            bits = _max_pair_bits(result)
            if bits > self.max_coeff_bits:
                self.max_coeff_bits = bits
        return after

    def _count_values(self, size_of):
        def after(args, kwargs, result):
            self.values_returned += size_of(result)
        return after

    def summary(self) -> dict:
        """Per-name counters plus the layer failures and cache statistics."""
        ops_failed = {layer: 0 for layer in TARGETS}
        for idx in self.raised:
            layer = self.layers[self.span_name[idx]]
            parent = self.span_parent[idx]
            # an exception counts once, where it leaves its layer
            if parent < 0 or self.layers[self.span_name[parent]] != layer:
                ops_failed[layer] += 1
        hits = misses = 0
        for cache in self.closed_caches:
            info = cache.cache_info()
            hits += info.hits
            misses += info.misses
        return {
            "names": self.names,
            "calls": self.calls,
            "total_ns": self.total_ns,
            "self_ns": self.self_ns,
            "spans": len(self.span_name),
            "top_level_ns": self._child_ns[0],
            "ops_failed": ops_failed,
            "mults": self.mults,
            "max_coeff_bits": self.max_coeff_bits,
            "values_returned": self.values_returned,
            "closed_hits": hits,
            "closed_misses": misses,
        }

    def write_spans(self, path: str) -> None:
        """Write the spans: one JSON header line, then the raw arrays.

        The header lists the span names and, in file order, each array's
        label, ``array`` typecode and item size.
        """
        arrays = (("name", self.span_name), ("parent", self.span_parent),
                  ("start_ns", self.span_start), ("end_ns", self.span_end))
        header = {"names": self.names, "count": len(self.span_name),
                  "byteorder": sys.byteorder,
                  "arrays": [[label, a.typecode, a.itemsize]
                             for label, a in arrays]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for _, a in arrays:
                a.tofile(fh)


def install() -> Tracer:
    """Wrap every target function of hyperhodge and return the tracer."""
    layers = {layer: importlib.import_module(f"hyperhodge.{layer}")
              for layer in TARGETS}
    package = [module for name, module in sys.modules.items()
               if name == "hyperhodge" or name.startswith("hyperhodge.")]
    tracer = Tracer()
    hooks = {
        "kernels.linear_product":
            tracer._kernel_hook("kernels.linear_product",
                                _linear_product_mults),
        "kernels.poly_mul":
            tracer._kernel_hook("kernels.poly_mul", _poly_mul_mults),
        "values.table": tracer._count_values(len),
        "values.recursive_D": tracer._count_values(lambda _: 1),
        "values.recursive_d": tracer._count_values(lambda _: 1),
    }
    for layer, targets in TARGETS.items():
        module = layers[layer]
        for target in targets:
            if "." in target:
                class_name, method = target.split(".")
                owners = [getattr(module, class_name)]
                original = getattr(owners[0], method)
                name = f"{layer}.{class_name}.{method.strip('_')}"
            else:
                owners = package
                original = getattr(module, target)
                name = f"{layer}.{target}"
            if layer == "values" and target in ("closed_D", "closed_d"):
                tracer.closed_caches.append(original)
            wrapped = tracer.wrap(name, layer, original, hooks.get(name))
            for owner in owners:
                for attr, value in list(vars(owner).items()):
                    if value is original:
                        setattr(owner, attr, wrapped)
    return tracer
