"""Span tracing for the benchmark's traced run, from outside the program.

`Tracer.install` wraps the public functions listed in LAYERS at every name
their callers look them up by: a module-level function is replaced in each
`unirat` module that binds it (so `unirat.cli.certify_smooth_mod_p` and
`unirat.certify.certify_smooth_mod_p` both record), a method is replaced on
its class.  Each call appends one span (name, start and end from
`perf_counter_ns`, parent span) to flat in-memory arrays; nothing is written
until the run ends.  A layer's self time is its spans' time minus the time
of their direct child spans.

The untraced run never imports this module, so end-to-end timings carry no
wrapper cost.
"""

import functools
import importlib
import json
import time
from array import array

# (module, attribute path) of each traced public entry point
LAYERS = [
    ("groebner", "buchberger"),
    ("certify", "certify_smooth_mod_p"),
    ("certify", "certify_positive_on_hyperplane"),
    ("certify", "check_on_variety"),
    ("certify", "check_dominant"),
    ("certify", "replay_certificate"),
    ("certify", "singular_dimension_experiment"),
    ("pipeline", "load_instance"),
    ("pipeline", "solve_quadric_system"),
    ("pipeline", "decompose_cone"),
    ("pipeline", "ci23_parametrize"),
    ("pipeline", "parametrize_Y4"),
    ("pipeline", "parametrize_H4"),
    ("pipeline", "reverse_build"),
    ("slp", "SlpMap.eval"),
    ("slp", "SlpMap.jacobian"),
    ("slp", "SlpMap.from_json"),
    ("exactcore", "kernel_basis"),
    ("exactcore", "rank"),
    ("exactcore", "det_fraction_free"),
    ("mpoly", "MPoly.evaluate"),
    ("mpoly", "MPoly.__mul__"),
    ("mpoly", "parse_poly"),
    ("mpoly", "format_poly"),
    ("geom", "stereographic_param"),
    ("geom", "project_from_point"),
    ("cli", "main"),
]

MODULES = ("exactcore", "mpoly", "groebner", "slp", "geom", "pipeline",
           "certify", "cli")

# Gröbner counters read from the stats of each basis `buchberger` returns
GB_COUNTERS = ("s_pairs_processed", "s_pairs_skipped", "reductions_to_zero")

# span names whose call count is reported next to their self time
COUNTED_CALLS = ("groebner.buchberger", "certify.check_on_variety",
                 "certify.replay_certificate", "pipeline.solve_quadric_system",
                 "pipeline.ci23_parametrize", "slp.SlpMap.eval",
                 "slp.SlpMap.jacobian", "exactcore.kernel_basis",
                 "mpoly.MPoly.evaluate")
# the one span of the set-up that is reported, per set-up, not per op
SETUP_SPANS = ("pipeline.reverse_build",)


def per_layer_metrics():
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for mod, path in LAYERS:
        label = "%s.%s" % (mod, path)
        unit = "s/setup" if label in SETUP_SPANS else "s/op"
        out.append((label + ".self_s", unit, "lower"))
        if label in COUNTED_CALLS:
            out.append((label + ".calls", "calls/op", "lower"))
        if label == "groebner.buchberger":
            out += [("groebner." + key, "count/op", "lower") for key in GB_COUNTERS]
            out += [("groebner.useful_pair_ratio", "ratio", "higher"),
                    ("groebner.basis_size", "count/op", "lower"),
                    ("groebner.max_degree", "degree", "lower"),
                    ("groebner.early_stops", "count/op", "higher")]
        if label == "slp.SlpMap.from_json":
            out.append(("slp.nodes", "nodes/op", "lower"))
    return out


class Tracer:
    """Spans and counters of one traced run.

    Spans are stored column-wise, one array per field; `roots` maps the
    index of each root span (a set-up or an op, opened by the benchmark) to
    its kind.
    """

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.roots = {}
        # counters keyed by the root span they happened under
        self.counters = {}

    def _name_id(self, name):
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def open(self, name):
        idx = len(self.start)
        self.name.append(self._name_id(name))
        self.parent.append(self._stack[-1])
        self.start.append(time.perf_counter_ns())
        self.end.append(0)
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def root(self, kind):
        """Open a root span for one set-up or one op; close it with close()."""
        if len(self._stack) != 1:
            raise RuntimeError("a root span opened inside another span")
        idx = self.open(kind)
        self.roots[idx] = kind
        self.counters[idx] = {}
        return idx

    def _bag(self):
        """Counters of the root span now open, or None outside any."""
        if len(self._stack) < 2:
            return None
        return self.counters.get(self._stack[1])

    def count(self, key, value):
        bag = self._bag()
        if bag is not None:
            bag[key] = bag.get(key, 0) + value

    def note_max(self, key, value):
        bag = self._bag()
        if bag is not None:
            bag[key] = max(bag.get(key, 0), value)

    def _wrap(self, label, fn):
        tracer = self
        if label == "groebner.buchberger":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                idx = tracer.open(label)
                try:
                    gb = fn(*args, **kwargs)
                finally:
                    tracer.close(idx)
                for key in GB_COUNTERS:
                    tracer.count("groebner." + key, gb.stats[key])
                tracer.count("groebner.basis_size", len(gb))
                tracer.count("groebner.early_stops", int(gb.stats["early_stop"]))
                tracer.note_max("groebner.max_degree", gb.stats["max_degree"])
                return gb
        elif label in ("slp.SlpMap.eval", "slp.SlpMap.jacobian"):
            @functools.wraps(fn)
            def wrapper(self, *args, **kwargs):
                tracer.count("slp.nodes", len(self.nodes))
                idx = tracer.open(label)
                try:
                    return fn(self, *args, **kwargs)
                finally:
                    tracer.close(idx)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                idx = tracer.open(label)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.close(idx)
        return wrapper

    def install(self):
        """Wrap every entry point of LAYERS; return a callable that undoes it."""
        mods = {m: importlib.import_module("unirat." + m) for m in MODULES}
        undo = []
        for mod_name, path in LAYERS:
            label = "%s.%s" % (mod_name, path)
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(mods[mod_name], cls_name)
                orig = cls.__dict__[meth]
                if isinstance(orig, classmethod):
                    wrapped = classmethod(self._wrap(label, orig.__func__))
                else:
                    wrapped = self._wrap(label, orig)
                setattr(cls, meth, wrapped)
                undo.append((cls, meth, orig))
                continue
            orig = getattr(mods[mod_name], path)
            wrapped = self._wrap(label, orig)
            for mod in mods.values():
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapped)
                        undo.append((mod, attr, orig))

        def uninstall():
            for owner, attr, orig in reversed(undo):
                setattr(owner, attr, orig)
        return uninstall

    def self_times(self):
        """{(root kind, span name): (self seconds, calls)} over the spans
        under each root span."""
        n = len(self.start)
        child = [0] * n
        root_of = [-1] * n
        for i in range(n):
            par = self.parent[i]
            if par < 0:
                root_of[i] = i if i in self.roots else -1
                continue
            child[par] += self.end[i] - self.start[i]
            root_of[i] = root_of[par]
        out = {}
        for i in range(n):
            if root_of[i] < 0 or i in self.roots:
                continue
            key = (self.roots[root_of[i]], self.names[self.name[i]])
            self_ns = self.end[i] - self.start[i] - child[i]
            s, c = out.get(key, (0, 0))
            out[key] = (s + self_ns, c + 1)
        return {k: (ns / 1e9, c) for k, (ns, c) in out.items()}

    def totals(self, kind):
        """Counters summed over the root spans of one kind."""
        out = {}
        for idx, k in self.roots.items():
            if k != kind:
                continue
            for key, value in self.counters[idx].items():
                if key == "groebner.max_degree":
                    out[key] = max(out.get(key, 0), value)
                else:
                    out[key] = out.get(key, 0) + value
        return out

    def metrics(self, n_ops, n_setups):
        """Every per-layer metric: spans of the timed phase per op, the
        set-up spans per set-up, the Gröbner ratio over the whole phase and
        the largest degree reached."""
        spans = self.self_times()
        counters = self.totals("op")
        out = {}
        for name, unit, _ in per_layer_metrics():
            label, _, kind = name.rpartition(".")
            if kind == "self_s" and label in SETUP_SPANS:
                value = spans.get(("setup", label), (0.0, 0))[0] / n_setups
            elif kind == "self_s":
                value = spans.get(("op", label), (0.0, 0))[0] / n_ops
            elif kind == "calls":
                value = spans.get(("op", label), (0.0, 0))[1] / n_ops
            elif name == "groebner.useful_pair_ratio":
                done = counters.get("groebner.s_pairs_processed", 0)
                zero = counters.get("groebner.reductions_to_zero", 0)
                value = (done - zero) / done if done else 0.0
            elif name == "groebner.max_degree":
                value = counters.get(name, 0)
            else:
                value = counters.get(name, 0) / n_ops
            out[name] = {"value": value, "unit": unit}
        return out

    def dump(self, path):
        """Write every span as one JSON line: name, start, end, parent."""
        with open(path, "w") as fh:
            for i in range(len(self.start)):
                fh.write(json.dumps([self.names[self.name[i]], self.start[i],
                                     self.end[i], self.parent[i]]))
                fh.write("\n")
