"""Span tracer wrapped around lossylab's public functions from outside.

Nothing in ``src/`` changes: the tracer replaces each public function of
each layer module with a wrapper, everywhere the function is bound by
name, so ``from .fock import tensor`` in another module is traced too.
Spans (name, start, end, parent, op id) stay in memory; self time is a
span's duration minus the time its direct children cover. A function the
per-layer metrics name but the package no longer has simply never appears
in the summary.
"""

from __future__ import annotations

import importlib
import os
import sys
from time import perf_counter

import numpy as np

LAYERS = ("cli", "fock", "loss", "purity", "qcs", "phasespace", "inequalities",
          "conjectures", "reports")
CONSTRUCT = "fock.construct"
CONSTRUCTED = ("PureState", "DensityOperator")
CACHED = ("fock.beam_splitter_unitary", "loss.kraus_set")


class Tracer:
    def __init__(self):
        self.active = False
        self.op_id = -1
        self.names: list[str] = []
        self.span_name: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.span_parent: list[int] = []
        self.span_op: list[int] = []
        self._stack: list[int] = []
        self.counters: dict[str, dict[str, float]] = {}
        self.distinct: dict[str, set] = {}
        self.cache_less: set[str] = set()
        self.overhead_s = 0.0

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        originals = {}
        for layer in LAYERS:
            # import by module path: ``lossylab.purity`` as an attribute is the
            # re-exported function purity(), not the module
            mod = importlib.import_module(f"lossylab.{layer}")
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                originals[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        fock = sys.modules["lossylab.fock"]
        for cls_name in CONSTRUCTED:
            cls = getattr(fock, cls_name, None)
            if cls is not None:
                cls.__init__ = self._wrap(CONSTRUCT, cls.__init__)
        for name, mod in list(sys.modules.items()):
            if name != "lossylab" and not name.startswith("lossylab."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        before, after = self._hooks(name, fn)
        tracer = self
        span_name, span_start, span_end = self.span_name, self.span_start, self.span_end
        span_parent, span_op, stack = self.span_parent, self.span_op, self._stack

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            w0 = perf_counter()
            idx = len(span_name)
            span_name.append(nid)
            span_parent.append(stack[-1] if stack else -1)
            span_op.append(tracer.op_id)
            span_start.append(0.0)
            span_end.append(0.0)
            stack.append(idx)
            token = before() if before else None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                span_start[idx] = t0
                span_end[idx] = t1
            if after:
                after(args, kwargs, token)
            tracer.overhead_s += perf_counter() - w0 - (t1 - t0)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- counters -------------------------------------------------------------

    def _count(self, name, key, value):
        bucket = self.counters.setdefault(name, {})
        bucket[key] = bucket.get(key, 0.0) + value

    def _hooks(self, name, fn):
        """(before, after) callables run around each traced call, or None.
        ``before()`` returns a token that ``after(args, kwargs, token)`` gets.
        Their cost counts as tracing overhead."""
        if name in ("phasespace.quasi_prob", "phasespace.char_fn"):
            def points(args, kwargs, _):
                alpha = args[1] if len(args) > 1 else kwargs.get("alpha")
                self._count(name, "points", np.size(alpha))
            return None, points
        if name.startswith(("phasespace.write_", "reports.write_")):
            def written(args, kwargs, _):
                size = os.path.getsize(args[0] if args else kwargs.get("path"))
                self._count(name, "bytes", size)
                self._count(name.split(".")[0] + ".bytes", "bytes", size)
            return None, written
        if name in CACHED:
            info = getattr(fn, "cache_info", None)
            if info is None:
                self.cache_less.add(name)
                return None, None

            def cached(args, kwargs, before):
                if info().misses > before.misses:
                    self._count(name, "misses", 1)
                    if name == "fock.beam_splitter_unitary":
                        # computed, not measured: one dense complex (c1 c2)^2 matrix
                        self._count(name, "bytes_computed", (args[0] * args[1]) ** 2 * 16)
                else:
                    self._count(name, "hits", 1)
            return info, cached
        if name == "conjectures.beamsplit_pair":
            seen = self.distinct.setdefault(name, set())

            def distinct(args, kwargs, _):
                seen.add(b"".join(np.ascontiguousarray(a.matrix).tobytes() for a in args[:2]))
            return None, distinct
        return None, None

    # -- results --------------------------------------------------------------

    def summary(self) -> dict:
        """Per-function calls and self time, and the hook counters, summed
        over every recorded span."""
        n = len(self.span_name)
        start = np.array(self.span_start)
        dur = np.array(self.span_end) - start
        parent = np.array(self.span_parent, dtype=int)
        names = np.array(self.span_name, dtype=int)
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        calls = np.bincount(names, minlength=len(self.names))
        self_by_name = np.bincount(names, weights=self_time, minlength=len(self.names))
        functions = {}
        for nid, name in enumerate(self.names):
            entry = functions.setdefault(name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += int(calls[nid])
            entry["self_s"] += float(self_by_name[nid])
        return {
            "spans": n,
            "overhead_s": self.overhead_s,
            "root_s": float(np.sum(dur[~has_parent])),
            "functions": functions,
            "counters": self.counters,
            "distinct": {k: len(v) for k, v in self.distinct.items()},
            "cache_less": sorted(self.cache_less),
        }

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("name\tstart_s\tend_s\tparent\top\n")
            t0 = self.span_start[0] if self.span_start else 0.0
            for i in range(len(self.span_name)):
                fh.write(f"{self.names[self.span_name[i]]}\t{self.span_start[i] - t0:.9f}\t"
                         f"{self.span_end[i] - t0:.9f}\t{self.span_parent[i]}\t"
                         f"{self.span_op[i]}\n")
