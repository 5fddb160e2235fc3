"""Per-layer tracing from outside the library.

``Tracer.install()`` replaces every module attribute in the toricpush
package that binds one of the layers' public functions with a wrapper that
records a span (name, start, end, parent) and the counters below.  A
function imported into another module (``fans.is_feasible``,
``divisors.variable_bounds``, ``cox.coset_representatives``, ...) is a
separate binding and is replaced too.  ``uninstall()`` restores every
binding, so untraced passes run the library exactly as shipped.

Spans stay in memory; a layer's self time is its spans' durations minus the
time their child spans cover.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from math import comb
from time import perf_counter_ns

LAYERS = ("lattice", "feasibility", "fans", "divisors", "endos",
          "pushforward", "cox", "io", "cli")

# functions whose self time makes up each "<group>.self_s" metric
SELF_GROUPS = {
    "feasibility": ("feasibility.*",),
    "fans.validate": ("fans.validate_fan",),
    "divisors.h0": ("divisors.h0",),
    "divisors.kleiman": ("divisors.kleiman_forms", "divisors.positivity"),
    "cox.graded_dimension": ("cox.graded_dimension",),
    "lattice.snf": ("lattice.smith_normal_form",),
    "lattice.cosets": ("lattice.coset_representatives",),
    "pushforward.decompose": ("pushforward.decompose_pushforward",),
    "pushforward.verify": ("pushforward.verify_decomposition",),
    "pushforward.iterate": ("pushforward.iterate_coherence",),
    "endos.build": ("endos.build_endo", "endos.multiplication_endo",
                    "endos.compose"),
    "endos.intamp": ("endos.is_int_amplified",),
    "io.parse": ("io.parse_fan", "io.parse_endo"),
    "cli.run_command": ("cli.*",),
}

# feasibility problems handed to the FM engine: the first argument is the
# constraint list (or, for solve_rational, the matrix rows)
FM_SOLVERS = ("is_feasible", "feasible_point", "variable_bounds",
              "solve_rational")
FM_DECISIONS = ("is_feasible", "feasible_point")

# (layer, function) -> (calls counter, total counter, measure of the result)
RESULT_COUNTERS = {
    ("divisors", "h0"): ("divisors.h0.calls", "divisors.h0.points", int),
    ("lattice", "smith_normal_form"): ("lattice.snf.calls", None, None),
    ("lattice", "coset_representatives"): (None, "lattice.cosets.reps", len),
    ("pushforward", "decompose_pushforward"): (
        None, "pushforward.decompose.summands", lambda dec: len(dec.summands)),
    ("pushforward", "verify_decomposition"): (
        None, "pushforward.verify.checks", lambda rep: rep.checks),
    ("endos", "is_int_amplified"): ("endos.intamp.calls", None, None),
}


def package_modules(package="toricpush"):
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None
            and (name == package or name.startswith(package + "."))]


def layer_functions(package="toricpush"):
    """{"layer.name": function} for the public functions of every layer."""
    out = {}
    for layer in LAYERS:
        mod = sys.modules.get("%s.%s" % (package, layer))
        if mod is None:
            continue
        for name, obj in vars(mod).items():
            if (not name.startswith("_") and callable(obj)
                    and not isinstance(obj, type)
                    and getattr(obj, "__module__", None) == mod.__name__):
                out["%s.%s" % (layer, name)] = obj
    return out


def lru_caches(package="toricpush"):
    """{"layer.name": cache} for every lru_cache in the package."""
    out = {}
    for mod in package_modules(package):
        short = mod.__name__.rpartition(".")[2]
        for name, obj in vars(mod).items():
            if (hasattr(obj, "cache_clear") and hasattr(obj, "cache_info")
                    and getattr(obj, "__module__", None) == mod.__name__):
                out["%s.%s" % (short, name)] = obj
    return out


class Tracer:
    def __init__(self, package="toricpush"):
        self.package = package
        self.functions = layer_functions(package)
        self.names = sorted(self.functions)
        self._layer_of = [n.partition(".")[0] for n in self.names]
        self._saved = []
        self.spans = []  # [name index, parent index, start ns, end ns]
        self._stack = [-1]
        self.counts = defaultdict(int)

    def reset(self):
        self.spans.clear()
        self._stack[:] = [-1]
        self.counts.clear()

    # ------------------------------------------------------------ patching
    def install(self):
        wrappers = {id(fn): self._wrap(i, fn)
                    for i, fn in enumerate(self.functions[n]
                                           for n in self.names)}
        for mod in package_modules(self.package):
            for attr, obj in list(vars(mod).items()):
                w = wrappers.get(id(obj))
                if w is not None:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, w)

    def uninstall(self):
        for mod, attr, obj in self._saved:
            setattr(mod, attr, obj)
        self._saved = []

    def _wrap(self, index, fn):
        name = self.names[index]
        layer, _, short = name.partition(".")
        pre = self._pre_hook(layer, short, fn)
        post = self._post_hook(layer, short, fn)
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if pre is not None:
                pre(parent, args, kwargs)
            rec = [index, parent, 0, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter_ns()
                stack.pop()
            if post is not None:
                post(parent, args, result)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def _entry(self, parent, layer):
        return parent < 0 or self._layer_of[self.spans[parent][0]] != layer

    def _pre_hook(self, layer, short, fn):
        if layer == "feasibility" and short in FM_SOLVERS:
            def pre(parent, args, kwargs):
                if self._entry(parent, layer):
                    self.counts["feasibility.calls"] += 1
                    self.counts["feasibility.input_rows"] += len(args[0])
            return pre
        if (layer, short) == ("fans", "validate_fan"):
            def pre(parent, args, kwargs):
                cones = args[2] if len(args) > 2 else kwargs["max_cones"]
                self.counts["fans.validate.calls"] += 1
                self.counts["fans.validate.cone_pairs"] += comb(len(cones), 2)
            return pre
        if (layer, short) == ("cox", "graded_dimension"):
            def pre(parent, args, kwargs):
                self._gd_misses = fn.cache_info().misses
            return pre
        return None

    def _post_hook(self, layer, short, fn):
        if layer == "feasibility" and short in FM_DECISIONS:
            def post(parent, args, result):
                if self._entry(parent, layer):
                    self.counts["feasibility.decisions"] += 1
                    if result is None or result is False:
                        self.counts["feasibility.infeasible"] += 1
            return post
        if (layer, short) in RESULT_COUNTERS:
            calls, total, measure = RESULT_COUNTERS[(layer, short)]

            def post(parent, args, result):
                if calls:
                    self.counts[calls] += 1
                if total:
                    self.counts[total] += measure(result)
            return post
        if (layer, short) == ("cox", "graded_dimension"):
            def post(parent, args, result):
                if fn.cache_info().misses > self._gd_misses:
                    self.counts["cox.graded_dimension.monomials"] += result
            return post
        return None

    # ------------------------------------------------------------- results
    def self_times(self):
        """{"layer.name": self seconds} over the recorded spans."""
        covered = [0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = defaultdict(int)
        for (name, _, start, end), child in zip(self.spans, covered):
            out[self.names[name]] += end - start - child
        return {k: v / 1e9 for k, v in out.items()}

    def group_self_times(self):
        per_fn = self.self_times()
        out = {}
        for group, patterns in SELF_GROUPS.items():
            total = 0.0
            for fn_name, secs in per_fn.items():
                for pat in patterns:
                    if (fn_name == pat or (pat.endswith(".*") and
                                           fn_name.startswith(pat[:-1]))):
                        total += secs
                        break
            out[group] = total
        return out

    def dump(self):
        return {"names": self.names,
                "spans": [[n, p, s, e] for n, p, s, e in self.spans]}
