"""Spans around calls into the library's layers, recorded from outside.

`Tracer.install()` replaces every public function of the layer modules,
and the public methods of `MultTensor` and `WedgeTensor`, by a wrapper
that records a span (name, start, end, parent).  The wrapper is bound in
every `grasspoly` module namespace that held the original, so calls that
go through module globals are seen; calls through references taken at
definition time (a default argument, for instance) are not.  Spans stay in
memory until `dump()`.  Nothing the library returns is touched.

`summarize()` turns spans, counters and the `lru_cache` statistics into
the per-layer metrics listed in BENCHMARK.json.
"""

import functools
import inspect
import json
import sys
import time
from array import array

LAYERS = ("configurations", "tensors", "aomoto", "elements", "forms",
          "iterint", "polylogs")
METHOD_CLASSES = ("MultTensor", "WedgeTensor")
OPERATORS = ("__init__", "__add__", "__sub__", "__neg__", "__mul__",
             "__rmul__", "__eq__")


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_of = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counts = {}
        self._stack = []
        self.originals = {}

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, on_result=None):
        nid = self._id(name)
        stack, clock = self._stack, time.perf_counter
        name_of, parent, start, end = (self.name_of, self.parent,
                                       self.start, self.end)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_of)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result, args, end[idx] - start[idx])
            return result

        return traced

    def count(self, key, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    # -- installation -----------------------------------------------------

    def install(self):
        import grasspoly
        modules = {layer: sys.modules[f"grasspoly.{layer}"]
                   for layer in LAYERS}
        namespaces = [grasspoly] + [m for name, m in sys.modules.items()
                                    if name.startswith("grasspoly.")]
        hooks = self._hooks()
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    if attr in METHOD_CLASSES:
                        self._wrap_methods(layer, obj)
                    continue
                if inspect.isgeneratorfunction(obj):
                    continue
                name = f"{layer}.{attr}"
                self.originals[name] = obj
                traced = self.wrap(name, obj, hooks.get(name))
                for ns in namespaces:
                    for key, val in list(vars(ns).items()):
                        if val is obj:
                            setattr(ns, key, traced)

    def _wrap_methods(self, layer, cls):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in OPERATORS:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self.wrap(name, raw.__func__)))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self.wrap(name, raw))

    def _hooks(self):
        def build(result, args, seconds):
            self.count("elements.build_element.terms",
                       result.tensor.term_count)

        def expand(result, args, seconds):
            self.count("aomoto.expand_to_tensor.terms_out", result.term_count)

        def words(result, args, seconds):
            self.count("iterint.words", len(args[0]))
            self.count("iterint.panels", result[0].panels)
            self.count("iterint.returned_s", seconds)

        def li(result, args, seconds):
            self.count("polylogs.li_n.panels", result.panels)

        return {"elements.build_element": build,
                "aomoto.expand_to_tensor": expand,
                "iterint.iterate_words": words,
                "polylogs.li_n": li}

    # -- output -----------------------------------------------------------

    def caches(self):
        """lru_cache statistics of the library's memoised functions."""
        o = self.originals
        cop = [o["aomoto.coproduct_weight2"].cache_info(),
               o["aomoto.coproduct_higher"].cache_info()]
        return {
            "tensors.perms_with_signs.cache_entries":
                o["tensors.perms_with_signs"].cache_info().currsize,
            "aomoto.coproduct.cache_hits": sum(c.hits for c in cop),
            "aomoto.coproduct.cache_misses": sum(c.misses for c in cop),
            "aomoto.cache_entries": sum(c.currsize for c in cop)
                + o["aomoto.cross_ratio_monomial"].cache_info().currsize,
        }

    def dump(self, path):
        """Write the spans: a JSON header line, then the four arrays."""
        with open(path, "wb") as fh:
            fh.write(json.dumps({"names": self.names,
                                 "spans": len(self.name_of)}).encode()
                     + b"\n")
            for arr in (self.name_of, self.parent, self.start, self.end):
                arr.tofile(fh)

    def summarize(self):
        return summarize(self.names, self.name_of, self.parent, self.start,
                         self.end, dict(self.counts, **self.caches()))


# Metrics read from spans: total time of a function's outermost calls,
# self time of its own layer inside its calls, and number of calls.
OUTER_S = {
    "elements.build_element": "elements.build_element.s",
    "elements.omission_residues": "elements.omission_residues.s",
    "aomoto.expand_to_tensor": "aomoto.expand_to_tensor.s",
    "aomoto.pairing_element_labels": "aomoto.pairing_element_labels.s",
    "forms.wedge_eval_graded": "forms.wedge_eval_graded.s",
    "iterint.iterate_words": "iterint.s",
    "polylogs.li_n": "polylogs.li_n.s",
    "polylogs.bloch_wigner": "polylogs.bloch_wigner.s",
    "polylogs.rogers_l2": "polylogs.rogers_l2.s",
}
INSIDE_SELF_S = {
    "elements.check_integrability": "elements.check_integrability.self_s",
    "polylogs.grassmannian_tate": "polylogs.grassmannian_tate.self_s",
}
CALLS = {
    "forms.wedge_eval_graded": "forms.wedge_eval_graded.calls",
    "forms.dlog_eval": "forms.dlog_eval.calls",
    "iterint.iterate_words": "iterint.calls",
}
# Counters kept by the result hooks and the cache statistics.
COUNTS = ("elements.build_element.terms", "aomoto.expand_to_tensor.terms_out",
          "iterint.words", "iterint.panels", "iterint.returned_s",
          "polylogs.li_n.panels", "tensors.perms_with_signs.cache_entries",
          "aomoto.coproduct.cache_hits", "aomoto.coproduct.cache_misses",
          "aomoto.cache_entries")


def summarize(names, name_of, parent, start, end, counts):
    """Per-layer metrics from one process's spans.

    Self time of a span is its duration minus that of its direct children;
    a layer's self time sums its spans' self times.  OUTER_S sums the
    outermost calls of a function; INSIDE_SELF_S sums the self time of
    spans of the function's own layer inside its calls.
    `configurations.exact_det.*` count only calls made from `forms`.
    """
    layer = [n.split(".")[0] for n in names]
    nspans = len(name_of)
    dur = [end[i] - start[i] for i in range(nspans)]
    own = list(dur)
    for i in range(nspans):
        if parent[i] >= 0:
            own[parent[i]] -= dur[i]

    out = {f"{lay}.self_s": 0.0 for lay in LAYERS}
    out.update({m: 0.0 for m in OUTER_S.values()})
    out.update({m: 0.0 for m in INSIDE_SELF_S.values()})
    out.update({m: 0 for m in CALLS.values()})
    out.update({"configurations.exact_det.calls": 0,
                "configurations.exact_det.s": 0.0, "trace.spans": nspans})
    # For each span, the innermost INSIDE_SELF_S function it runs in.
    within = array("l", [-1]) * nspans
    for i in range(nspans):
        nid, p = name_of[i], parent[i]
        name = names[nid]
        out[f"{layer[nid]}.self_s"] += own[i]
        if name in CALLS:
            out[CALLS[name]] += 1
        if name in OUTER_S and not _nested(name_of, parent, i):
            out[OUTER_S[name]] += dur[i]
        up = nid if name in INSIDE_SELF_S else (within[p] if p >= 0 else -1)
        within[i] = up
        if up >= 0 and layer[nid] == layer[up]:
            out[INSIDE_SELF_S[names[up]]] += own[i]
        if (name == "configurations.exact_det" and p >= 0
                and layer[name_of[p]] == "forms"):
            out["configurations.exact_det.calls"] += 1
            out["configurations.exact_det.s"] += dur[i]
    out.update({key: counts.get(key, 0) for key in COUNTS})
    return out


def _nested(name_of, parent, i):
    """True when span i has an ancestor span of the same function."""
    p = parent[i]
    while p >= 0:
        if name_of[p] == name_of[i]:
            return True
        p = parent[p]
    return False
