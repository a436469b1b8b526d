"""Outside-in tracing of the iontrap layers for the benchmark's traced run.

``Tracer.install`` replaces every public function of the seven package
modules by a recording wrapper, both on its own module and on every
package module that bound the same object with ``from ... import`` (so
``iontrap.experiments.exact_eigs`` is traced too), plus the values of
``experiments.EXPERIMENTS``.  ``numpy.linalg.eigh`` is wrapped as
``kernel.eigh``: every eigendecomposition in the package goes through it.
The closures returned by ``hamiltonians.ith_fn`` are wrapped on return as
``hamiltonians.h_of_t``.  ``uninstall`` puts every original back.

A span is ``[name, parent, start, end]`` kept in a list in memory; self
time is a span's duration minus the durations of its direct children.
Work the tracer itself does inside a span (hashing a matrix to detect a
repeated factorization) is recorded as a ``trace.hook`` child, so it is
charged to no layer.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import math
import time
from collections import defaultdict

import numpy as np

LAYERS = ("operators", "hamiltonians", "engine", "closedforms", "oracle",
          "experiments", "cli")
HOOK = "trace.hook"


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._restore = []
        self.wrapped = set()
        self.reset_counters()

    def reset_counters(self):
        self.eigh_flop = 0.0
        self.digests = set()
        self.repeats = 0
        self.steps = 0

    # -- installation ---------------------------------------------------------

    def install(self):
        import iontrap
        mods = {layer: importlib.import_module(f"iontrap.{layer}")
                for layer in LAYERS}
        wrappers = {}
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for ns in [iontrap, *mods.values()]:
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._rebind(ns, attr, wrappers[obj])
        table = mods["experiments"].EXPERIMENTS
        for key, fn in list(table.items()):
            if fn in wrappers:
                self._restore.append((table.__setitem__, key, fn))
                table[key] = wrappers[fn]
        self._rebind(np.linalg, "eigh", self._wrap("kernel.eigh", np.linalg.eigh))

    def uninstall(self):
        while self._restore:
            setter, key, original = self._restore.pop()
            setter(key, original)

    def _rebind(self, ns, attr, new):
        self._restore.append(
            (lambda key, value, ns=ns: setattr(ns, key, value), attr,
             getattr(ns, attr)))
        setattr(ns, attr, new)

    # -- spans ----------------------------------------------------------------

    def _open(self, name):
        span = [name, self._stack[-1] if self._stack else -1,
                time.perf_counter(), 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span):
        span[3] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn):
        self.wrapped.add(name)
        hook = _HOOKS.get(name)
        returns_closure = name == "hamiltonians.ith_fn"

        def wrapper(*args, **kwargs):
            if hook is not None:
                span = self._open(HOOK)
                try:
                    hook(self, fn, args, kwargs)
                finally:
                    self._close(span)
            span = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(span)
            if returns_closure:
                out = self._wrap("hamiltonians.h_of_t", out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def take(self) -> list:
        spans, self.spans = self.spans, []
        return spans


def _eigh_hook(tracer, fn, args, kwargs):
    a = np.asarray(args[0] if args else kwargs["a"])
    n = a.shape[-1]
    # computed, not counted: about 9 n^3 flops for a real symmetric
    # eigendecomposition with vectors, four times that in complex arithmetic
    tracer.eigh_flop += (36.0 if np.iscomplexobj(a) else 9.0) * n ** 3


def _exact_eigs_hook(tracer, fn, args, kwargs):
    h = args[0] if args else kwargs["h"]
    digest = hashlib.blake2b(np.ascontiguousarray(h.mat).tobytes(),
                             digest_size=16).digest()
    if digest in tracer.digests:
        tracer.repeats += 1
    tracer.digests.add(digest)


def _time_ordered_hook(tracer, fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    t = bound.arguments["t"]
    tracer.steps += max(1, math.ceil(bound.arguments["steps_per_unit"] * abs(t)))


_HOOKS = {
    "kernel.eigh": _eigh_hook,
    "oracle.exact_eigs": _exact_eigs_hook,
    "oracle.time_ordered_propagator": _time_ordered_hook,
}


def self_times(spans) -> tuple[dict, dict, dict]:
    """Per span name: call count, self seconds, inclusive seconds."""
    child = [0.0] * len(spans)
    for name, parent, t0, t1 in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    calls, self_s, incl_s = defaultdict(int), defaultdict(float), defaultdict(float)
    for i, (name, parent, t0, t1) in enumerate(spans):
        calls[name] += 1
        self_s[name] += (t1 - t0) - child[i]
        incl_s[name] += t1 - t0
    return calls, self_s, incl_s
