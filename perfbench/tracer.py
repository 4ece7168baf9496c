"""Outside-in tracing of locring's layers.

The tracer replaces each layer's entry points by wrappers while it is
installed and puts the originals back when it is removed; no file of the
library changes.  A module-level function is replaced under every name that
a ``locring`` module binds to it, because ``from .x import f`` makes a second
binding that patching ``x.f`` alone would miss.  Methods are replaced on
their class.

Three kinds of wrapper, chosen by how often the name is called:

* ``SPAN``: a span record (id, parent id, name, start, end, self time) kept
  in memory, plus call count and total and self time.
* ``TIMED``: call count and total and self time, but no record; for names
  called up to a few hundred thousand times per pass.
* ``COUNT``: call count only; for the innermost helpers called millions of
  times, where even reading the clock would dominate.

Self time is a call's duration minus the time spent in wrapped calls it made.
"""

import functools
import itertools
import json
import sys
import time

from locring import cli

SPAN, TIMED, COUNT = "span", "timed", "count"

# (module, attribute, metric stem, kind); "Class.method" patches the class.
TARGETS = (
    ("locring.poly", "mono_div", "poly.mono_div", COUNT),
    ("locring.groebner", "_spoly_dict", "groebner.spairs", COUNT),
    ("locring.groebner", "_nf_dict", "groebner.nf", TIMED),
    ("locring.groebner", "normal_form", "groebner.normal_form", TIMED),
    ("locring.groebner", "buchberger", "groebner.buchberger", SPAN),
    ("locring.ideal", "Ideal.groebner", "ideal.groebner", SPAN),
    ("locring.ideal", "Ideal.member", "ideal.member", TIMED),
    ("locring.ideal", "Ideal.vector_space_dim", "ideal.vector_space_dim",
     SPAN),
    ("locring.ideal", "Ideal.intersect", "ideal.intersect", SPAN),
    ("locring.ideal", "Ideal.quotient_element", "ideal.quotient_element",
     SPAN),
    ("locring.ideal", "Ideal.quotient", "ideal.quotient", SPAN),
    ("locring.localring", "LocalRing.colength_local",
     "localring.colength_local", SPAN),
    ("locring.localring", "LocalRing.local_model", "localring.local_model",
     SPAN),
    ("locring.localring", "LocalRing.multiplicity", "localring.multiplicity",
     SPAN),
    ("locring.localring", "LocalRing.delta_via_mu", "localring.delta_via_mu",
     SPAN),
    ("locring.localring", "LocalRing.delta_one_test",
     "localring.delta_one_test", SPAN),
    ("locring.subalgebra", "kernel", "subalgebra.kernel", SPAN),
)


def _ratio(num, den):
    return num / den if den else 0.0


def _bindings(module_name, attr):
    """Every (owner, name) in a loaded locring module bound to the target."""
    module = sys.modules[module_name]
    if "." in attr:
        cls_name, meth = attr.split(".")
        return [(getattr(module, cls_name), meth)]
    original = getattr(module, attr)
    return [(mod, name)
            for mod_name, mod in sorted(sys.modules.items())
            if mod is not None and (mod_name == "locring"
                                    or mod_name.startswith("locring."))
            for name, value in list(vars(mod).items())
            if value is original]


def _original(owner, name):
    # vars() on a class sees the plain function, not a bound method
    return vars(owner)[name]


class Tracer:
    """Wraps the layers on install(), restores them on remove().

    Use as a context manager around one workload pass."""

    def __init__(self):
        self.spans = []      # (id, parent id, stem, start, end, self_s)
        self.timed = {}      # stem -> [calls, total_s, self_s]
        self.counts = {}     # stem -> [calls]
        self.max_basis_len = 0
        self.spair_reductions = 0
        self.spair_zero = 0
        self.gb_cache_hits = 0
        self.delta_keys = set()
        self._last_spoly = [None]   # S-polynomial awaiting its reduction
        self._stack = [[0, 0.0]]   # frames: [enclosing span id, child time]
        self._ids = itertools.count(1)
        self._patched = []         # (owner, name, original)

    # -- wrappers -----------------------------------------------------------

    def _counted(self, stem, fn):
        cell = self.counts.setdefault(stem, [0])

        def wrapper(*args):
            cell[0] += 1
            return fn(*args)
        return wrapper

    def _timed(self, stem, fn, keep_span):
        stats = self.timed.setdefault(stem, [0, 0.0, 0.0])
        stack = self._stack
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [next(ids) if keep_span else parent[0], 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                self_s = dur - frame[1]
                parent[1] += dur
                stats[0] += 1
                stats[1] += dur
                stats[2] += self_s
                if keep_span:
                    spans.append((frame[0], parent[0], stem, start, end,
                                  self_s))
        return wrapper

    # Observers for the ratio metrics; each wraps the original before the
    # timing or counting wrapper goes around it.

    def _observe(self, stem, fn):
        if stem == "groebner.spairs":
            last = self._last_spoly

            def spoly(*args):
                last[0] = fn(*args)
                return last[0]
            return spoly
        if stem == "groebner.nf":
            last = self._last_spoly

            def nf(terms, *args):
                result = fn(terms, *args)
                if terms is last[0]:
                    last[0] = None
                    self.spair_reductions += 1
                    if not result:
                        self.spair_zero += 1
                return result
            return nf
        if stem == "groebner.buchberger":
            def buchberger(*args, **kwargs):
                gb = fn(*args, **kwargs)
                self.max_basis_len = max(self.max_basis_len, len(gb))
                return gb
            return buchberger
        if stem == "ideal.groebner":
            runs = self.timed["groebner.buchberger"]

            def groebner(*args, **kwargs):
                before = runs[0]
                gb = fn(*args, **kwargs)
                if runs[0] == before:
                    self.gb_cache_hits += 1
                return gb
            return groebner
        if stem == "localring.delta_one_test":
            def delta_one_test(ring, x, n, *args, **kwargs):
                self.delta_keys.add((id(ring), x.to_str(), n))
                return fn(ring, x, n, *args, **kwargs)
            return delta_one_test
        return fn

    # -- install / remove ---------------------------------------------------

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        try:
            for module_name, attr, stem, kind in TARGETS:
                bindings = _bindings(module_name, attr)
                fn = _original(*bindings[0])
                inner = self._observe(stem, fn)
                if kind == COUNT:
                    wrapper = self._counted(stem, inner)
                else:
                    wrapper = self._timed(stem, inner, kind == SPAN)
                functools.update_wrapper(wrapper, fn)
                for owner, name in bindings:
                    self._patched.append((owner, name,
                                          _original(owner, name)))
                    setattr(owner, name, wrapper)
        except (KeyError, AttributeError):
            # a target was renamed or removed: leave the library as it was
            self.remove()
            raise

    def remove(self):
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    # -- results ------------------------------------------------------------

    def layer_metrics(self):
        """Per-layer metrics keyed by their BENCHMARK.json names."""
        out = {}
        for stem, (calls, total, self_s) in self.timed.items():
            out[f"{stem}.calls"] = calls
            out[f"{stem}.s"] = total
            out[f"{stem}.self_s"] = self_s
        for stem, (calls,) in self.counts.items():
            out[f"{stem}.calls"] = calls
        out["groebner.spairs"] = self.counts["groebner.spairs"][0]
        out["groebner.spair_zero_ratio"] = _ratio(self.spair_zero,
                                                  self.spair_reductions)
        out["groebner.buchberger.max_basis_len"] = self.max_basis_len
        out["ideal.groebner.cache_hit_ratio"] = _ratio(
            self.gb_cache_hits, out["ideal.groebner.calls"])
        out["localring.delta_one_test.distinct_ratio"] = _ratio(
            len(self.delta_keys), out["localring.delta_one_test.calls"])
        return out

    def write_spans(self, path):
        """One JSON object per span, in completion order."""
        with open(path, "w") as fh:
            for span_id, parent, stem, start, end, self_s in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent,
                                     "name": stem, "start": start,
                                     "end": end, "self_s": self_s}) + "\n")


class CheckTimer:
    """Times each scenario check (``cli.Runner.run``) at full precision.

    One wrapped call per check, so a pass timed with it stays untraced."""

    def __init__(self):
        self.seconds = {}
        self._original = None

    def __enter__(self):
        original = self._original = vars(cli.Runner)["run"]
        seconds = self.seconds

        @functools.wraps(original)
        def run(runner, name, expected, fn):
            start = time.perf_counter()
            try:
                return original(runner, name, expected, fn)
            finally:
                seconds[name] = seconds.get(name, 0.0) + (
                    time.perf_counter() - start)
        cli.Runner.run = run
        return self

    def __exit__(self, *exc):
        cli.Runner.run = self._original
        return False
