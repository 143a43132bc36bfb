"""In-memory spans around the public functions of phasespin's modules.

The tracer wraps functions from outside the package: every module attribute
(and class attribute) that holds a wrapped function is replaced by a wrapper
that records a span (name, start, end, parent, failed, count).  Spans stay in
memory; the per-layer metrics are computed from them when the run ends.  A
span's self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

LAYERS = ("cli", "scattering", "quantizer", "distributions", "continuity",
          "star", "grids", "states", "verify")

# the exact Q(sqrt d) arithmetic is part of the scattering layer
_MODULE_LAYER = {"exactalg": "scattering"}

# class-only modules: the methods that do the work
_METHODS = {
    "grids": {"WignerField": ("marginal_x", "total_integral")},
    "states": {"SpinorWaveState": ("evaluate", "derivative", "sampled_on")},
}

# extra work counts recorded on a span, from (args, kwargs, result)
_COUNTS = {
    "scattering.klein_scan": lambda a, kw, out: len(out),
    "quantizer.wigner_distributional": lambda a, kw, out: len(out.terms),
    "star.evolve": lambda a, kw, out: out.times[-1] - out.times[0],
}


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent, failed, count]
        self._stack = []
        self.active = False

    def wrap(self, name, fn):
        count = _COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [name, time.perf_counter(), 0.0,
                    self._stack[-1] if self._stack else -1, False, 0]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
                if count is not None:
                    span[5] = count(args, kwargs, out)
                return out
            except Exception:
                span[4] = True
                raise
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
        return traced

    def install(self, package):
        """Wrap the public functions of every phasespin module, everywhere
        they are referenced inside the package."""
        modules = [m for name, m in vars(package).items()
                   if getattr(m, "__name__", "").startswith(package.__name__ + ".")
                   and type(m).__name__ == "module"]
        replace = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if callable(fn) and not isinstance(fn, type) \
                        and getattr(fn, "__module__", None) == mod.__name__:
                    replace[id(fn)] = (fn, self.wrap(f"{short}.{attr}", fn))
            for cls_name, methods in _METHODS.get(short, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    fn = getattr(cls, meth)
                    setattr(cls, meth, self.wrap(f"{short}.{cls_name}.{meth}", fn))
        for ns in [vars(package)] + [vars(m) for m in modules]:
            for attr, value in list(ns.items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    ns[attr] = hit[1]

    def summary(self, first_round_span: int, rounds: int) -> dict:
        """Per-function totals.  Means use every span; per-round totals use
        the spans recorded from ``first_round_span`` on."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, failed, count in self.spans:
            if parent >= 0:
                child[parent] += end - start
        stats = defaultdict(lambda: {"calls": 0, "time": 0.0, "round_calls": 0,
                                     "round_time": 0.0, "round_self": 0.0,
                                     "self": 0.0, "failed": 0, "count": 0.0})
        for i, (name, start, end, parent, failed, count) in enumerate(self.spans):
            s = stats[name]
            dur = end - start
            s["calls"] += 1
            s["time"] += dur
            s["self"] += dur - child[i]
            if i >= first_round_span:
                s["round_calls"] += 1
                s["round_time"] += dur
                s["round_self"] += dur - child[i]
                s["failed"] += failed
                s["count"] += count
        out = {}
        for name, s in stats.items():
            out[name] = dict(s)
            for key in ("round_calls", "round_time", "round_self", "failed", "count"):
                out[name][key] = s[key] / rounds
        return out


def layer_of(name: str) -> str:
    module = name.split(".", 1)[0]
    return _MODULE_LAYER.get(module, module)
