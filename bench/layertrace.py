"""Per-layer tracing installed from outside the engine.

`LayerTracer.install()` wraps the public functions of every
`featherline.<module>` in a span recorder, plus the methods in `METHODS`.
A module-level function is replaced in every featherline namespace that binds
it (modules import functions by name, e.g. `multiline` binds
`iset_remove_point`), so calls through any alias are counted.  `uninstall()`
puts every original object back.

A span's self time is its duration minus the time of the spans it directly
encloses.  Spans sharing a name (the `separable` method of each space class)
are summed.
"""

from __future__ import annotations

import functools
import sys
import time
import types

MODULES = ("rationals", "intervals", "feather", "multiline", "certificates",
           "kernel", "separation", "syntax", "cli")

# (module, class, attribute) -> span name.
METHODS = {
    ("multiline", "Wave", "__post_init__"): "multiline.wave_init",
    ("multiline", "Wave", "lift_map"): "multiline.lift_map",
    ("multiline", "Wave", "contains"): "multiline.wave_contains",
    ("multiline", "Wave", "down_projection"): "multiline.down_projection",
    ("intervals", "IntervalSet", "contains"): "intervals.contains",
    ("feather", "FeatherInterval", "__post_init__"): "feather.interval_init",
    ("feather", "FeatherInterval", "contains"): "feather.interval_contains",
}
SPACE_CLASSES = ("FeatherSpace", "MultiLineSpace", "BranchSpace", "CofiniteSpace")
SPACE_METHODS = ("separable", "meet", "meet_is_empty", "member", "dense",
                 "canonical_neighborhood", "non_separable_pair")
for _cls in SPACE_CLASSES:
    for _m in SPACE_METHODS:
        METHODS["kernel", _cls, _m] = "kernel." + _m

# Calls of the first span made while the second is open.
NESTED = (("feather.fp_chart", "kernel.separable"),
          ("kernel.meet_is_empty", "kernel.bounded_refuter"))


def _outcome_separable(result):
    return "true" if result[0] else None


def _outcome_verify(result):
    return None if result else "rejected"


# Span name -> function of the result naming an extra counter to bump.
OUTCOMES = {"kernel.separable": _outcome_separable,
            "kernel.verify_certificate": _outcome_verify}


class LayerTracer:
    def __init__(self):
        self.calls = {}
        self.self_ns = {}
        self.outer_ns = {}  # inclusive time of outermost spans only
        self.counters = {}
        self.installed = []  # (owner, attribute, original)
        self._stack = []
        self._open = {}

    def reset(self):
        for d in (self.calls, self.self_ns, self.outer_ns, self.counters):
            for k in d:
                d[k] = 0

    def snapshot(self) -> dict:
        return {"calls": dict(self.calls), "self_ns": dict(self.self_ns),
                "outer_ns": dict(self.outer_ns), "counters": dict(self.counters)}

    # -- installation -------------------------------------------------------

    def install(self):
        if self.installed:
            raise RuntimeError("tracer already installed")
        mods = {name: sys.modules["featherline." + name] for name in MODULES
                if "featherline." + name in sys.modules}
        namespaces = list(mods.values())
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not isinstance(obj, types.FunctionType)
                        or obj.__module__ != mod.__name__):
                    continue
                wrapper = self._wrap("%s.%s" % (short, attr), obj)
                for ns in namespaces:
                    for alias, value in list(vars(ns).items()):
                        if value is obj:
                            self._replace(ns, alias, obj, wrapper)
        for (short, cls_name, attr), span in METHODS.items():
            mod = mods.get(short)
            cls = getattr(mod, cls_name, None) if mod else None
            if cls is None or attr not in vars(cls):
                continue
            original = vars(cls)[attr]
            self._replace(cls, attr, original, self._wrap(span, original))

    def uninstall(self):
        for owner, attr, original in reversed(self.installed):
            setattr(owner, attr, original)
        self.installed = []

    def _replace(self, owner, attr, original, wrapper):
        self.installed.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, name, fn):
        for d in (self.calls, self.self_ns, self.outer_ns):
            d.setdefault(name, 0)
        nested = [("%s<%s" % (child, parent), parent)
                  for child, parent in NESTED if child == name]
        for key, _ in nested:
            self.counters.setdefault(key, 0)
        outcome = OUTCOMES.get(name)
        if outcome:
            self.counters.setdefault(name + ".true", 0)
            self.counters.setdefault(name + ".rejected", 0)
        stack, opened = self._stack, self._open
        calls, self_ns, outer_ns, counters = (self.calls, self.self_ns,
                                              self.outer_ns, self.counters)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for key, parent in nested:
                if opened.get(parent):
                    counters[key] += 1
            depth = opened.get(name, 0)
            opened[name] = depth + 1
            frame = [0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                opened[name] = depth
                calls[name] += 1
                self_ns[name] += dt - frame[0]
                if not depth:
                    outer_ns[name] += dt
                if stack:
                    stack[-1][0] += dt
            if outcome:
                key = outcome(result)
                if key:
                    counters["%s.%s" % (name, key)] += 1
            return result

        wrapper.span_name = name
        return wrapper
