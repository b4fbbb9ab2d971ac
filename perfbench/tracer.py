"""Tracing from outside the package, for the per-layer metrics.

install() replaces every public function of the traced modules (and the
FieldElement arithmetic methods) by a wrapper, in every module namespace
that holds a reference to it, so calls between modules are seen too.
Each wrapped call is a span: name, start, end and the span that caused
it. A layer's self time is its spans' durations minus the time covered
by their child spans. Spans of the scalar layer are only aggregated
(there are millions); all others are kept in memory, up to a cap, and
written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict

LAYERS = ("scalars", "fieldmatrix", "lattice", "torus", "pairing", "csa",
          "quadform", "bounds", "replay", "cli")
FIELD_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
             "__rmul__", "__truediv__", "__rtruediv__", "__neg__", "__pow__",
             "inverse")
FIELD_KINDS = ("rationals", "cyclotomic", "prime_field", "finite_field",
               "function_field")
# inclusive-time metrics: outermost calls only, so recursion and nesting
# inside one metric are not counted twice
INCLUSIVE = {
    "lattice.smith_normal_form": "lattice.snf_s",
    "lattice.h1_of_theta_module": "lattice.h1_s",
    "csa.reduced_norm": "csa.reduced_norm_s",
    "quadform.arf_normal_form": "quadform.arf_s",
    "pairing.validate_pairing": "pairing.validate_s",
    "pairing.isotropic_subgroup": "pairing.isotropic_s",
}
SPAN_CAP = 100_000


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.stack: list[list] = []   # open spans: [span id, child time]
        self.spans: list[tuple] = []  # (id, parent id, name, start, end)
        self.dropped = 0
        self.next_id = 1
        self.patched: list[tuple] = []
        self.new_round()

    def new_round(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.inclusive: defaultdict = defaultdict(float)
        self.depth: Counter = Counter()
        self.counters: Counter = Counter()
        self.snf_seen: set = set()

    # ------------------------------------------------------------ spans
    def _enter(self):
        frame = [self.next_id, 0.0]
        self.next_id += 1
        parent = self.stack[-1][0] if self.stack else 0
        self.stack.append(frame)
        return frame, parent

    def _exit(self, frame, parent, name, layer, start, end, keep):
        self.stack.pop()
        dur = end - start
        if self.stack:
            self.stack[-1][1] += dur
        self.self_s[layer] += dur - frame[1]
        if keep:
            if len(self.spans) < SPAN_CAP:
                self.spans.append((frame[0], parent, name, start, end))
            else:
                self.dropped += 1

    def operation(self, label: str, call):
        """Root span around one benchmark operation."""
        frame, parent = self._enter()
        start = self.clock()
        try:
            return call()
        finally:
            self._exit(frame, parent, "op " + label, "bench", start, self.clock(), True)

    def _wrap(self, layer: str, name: str, fn, keep: bool = True, before=None, after=None):
        tracer = self
        clock = self.clock
        metric = INCLUSIVE.get(name)
        if metric is None and name.startswith("quadform.pfister_"):
            metric = "quadform.pfister_s"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            frame, parent = tracer._enter()
            if metric:
                tracer.depth[metric] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                tracer.calls[name] += 1
                if metric:
                    tracer.depth[metric] -= 1
                    if not tracer.depth[metric]:
                        tracer.inclusive[metric] += end - start
                tracer._exit(frame, parent, name, layer, start, end, keep)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    # ------------------------------------------------------------ hooks
    def _count_kind(self, args):
        self.counters["scalars.ops." + args[0].descriptor.kind] += 1

    def _snf_seen(self, args):
        matrix = args[0]
        self.counters["lattice.snf_max_rows"] = max(
            self.counters["lattice.snf_max_rows"], matrix.rows)
        key = hash(matrix.entries)
        if key in self.snf_seen:
            self.counters["lattice.snf_repeats"] += 1
        self.snf_seen.add(key)

    def _closure_size(self, args, result):
        self.counters["lattice.closure_elements"] += len(result)

    # ------------------------------------------------------------ install
    def install(self):
        modules = {layer: importlib.import_module("aniso." + layer) for layer in LAYERS}
        originals = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                before = self._snf_seen if name == "lattice.smith_normal_form" else None
                after = self._closure_size if name == "lattice.group_closure" else None
                originals[id(obj)] = (obj, self._wrap(layer, name, obj, True, before, after))
        # rebind every reference, so `from .lattice import kernel_mod_d` is seen
        for mod in list(modules.values()) + [importlib.import_module("aniso")]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in originals and originals[id(obj)][0] is obj:
                    self._patch(mod, attr, originals[id(obj)][1])
        element = modules["scalars"].FieldElement
        for attr in FIELD_OPS:
            fn = element.__dict__[attr]
            self._patch(element, attr, self._wrap(
                "scalars", f"scalars.FieldElement.{attr}", fn, False, self._count_kind))
        group = modules["pairing"].FiniteAbelianGroup
        enumerate_all = group.__dict__["elements"]
        tracer = self

        @functools.wraps(enumerate_all)
        def elements(group_self):
            for x in enumerate_all(group_self):
                tracer.counters["pairing.elements_enumerated"] += 1
                yield x

        self._patch(group, "elements", elements)

    def _patch(self, owner, attr, value):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self.patched.append((owner, attr, original))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)
        self.patched.clear()

    # ------------------------------------------------------------ results
    def round_metrics(self) -> dict:
        calls, incl, counters = self.calls, self.inclusive, self.counters

        def count(prefix):
            return sum(v for k, v in calls.items() if k.startswith(prefix + "."))

        snf_calls = calls["lattice.smith_normal_form"]
        out = {
            "lattice.snf_calls": snf_calls,
            "lattice.snf_s": incl["lattice.snf_s"],
            "lattice.snf_max_rows": counters["lattice.snf_max_rows"],
            "lattice.snf_repeat_ratio": (counters["lattice.snf_repeats"] / snf_calls
                                         if snf_calls else 0.0),
            "lattice.closure_elements": counters["lattice.closure_elements"],
            "lattice.h1_s": incl["lattice.h1_s"],
            "torus.calls": count("torus"),
            "scalars.ops": sum(counters["scalars.ops." + k] for k in FIELD_KINDS),
            "fieldmatrix.calls": count("fieldmatrix"),
            "csa.reduced_norm_s": incl["csa.reduced_norm_s"],
            "csa.multiply_calls": calls["csa.algebra_multiply"],
            "quadform.arf_s": incl["quadform.arf_s"],
            "quadform.pfister_s": incl["quadform.pfister_s"],
            "cli.requests": calls["cli.main"],
            "pairing.validate_s": incl["pairing.validate_s"],
            "pairing.isotropic_s": incl["pairing.isotropic_s"],
            "pairing.elements_enumerated": counters["pairing.elements_enumerated"],
        }
        for kind in FIELD_KINDS:
            out["scalars.ops." + kind] = counters["scalars.ops." + kind]
        for layer in LAYERS:
            out[layer + ".self_s"] = self.self_s[layer]
        return out

    def write(self, path, extra: dict):
        """Spans and counters as JSON; names are interned in a table."""
        names = sorted({s[2] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        data = {"names": names,
                "spans": [[s[0], s[1], index[s[2]], s[3], s[4]] for s in self.spans],
                "dropped_spans": self.dropped, **extra}
        with open(path, "w") as fh:
            json.dump(data, fh)
