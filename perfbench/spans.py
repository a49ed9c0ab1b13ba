"""Per-layer spans recorded from outside the program.

The tracer replaces public callables where their callers look them up (a
module attribute such as coxdesc.oracle.charpoly_mod, or a method on a class)
with a wrapper that records a span: name, start, end, parent span and op
index.  Spans stay in memory until the run ends.  A span's self time is its
duration minus the durations of its direct children, so the self times of
all spans of an op add up to the op's wall time.
"""

from __future__ import annotations

import functools
import time
import weakref

import coxdesc.cache
import coxdesc.cli
import coxdesc.coxeter
import coxdesc.descent
import coxdesc.oracle

_C = coxdesc.coxeter
# (owner, attribute, span name): where each layer is entered.
HOOKS = (
    (coxdesc.cli, "build_group", "coxeter.build_group"),
    (_C.CoxeterSystem, "__init__", "coxeter.enumerate"),
    (_C.CoxeterSystem, "conj_gen", "coxeter.conj_gen"),
    (_C.ParabolicAtlas, "__init__", "coxeter.atlas"),
    (_C.ParabolicAtlas, "closure_class_counts", "coxeter.closure_counts"),
    (coxdesc.cache, "load", "cache.load"),
    (coxdesc.cache, "save", "cache.save"),
    (coxdesc.descent.StructureConstants, "table", "descent.structure"),
    (coxdesc.descent, "ajkk_formula", "descent.ajkk_formula"),
    (coxdesc.cli, "spectrum", "descent.spectrum"),
    (coxdesc.oracle, "spectrum", "descent.spectrum"),
    (coxdesc.cli, "verify_spectrum", "oracle.verify"),
    (coxdesc.oracle, "expand", "oracle.expand"),
    (coxdesc.oracle, "charpoly_mod", "modular.charpoly"),
    (coxdesc.oracle, "primes_below", "modular.prime_search"),
)


class Tracer:
    def __init__(self):
        self.spans = []           # [name, start, end, parent index, op index]
        self.counts = {"cache.hits": 0, "cache.misses": 0,
                       "modular.charpoly_n3_sum": 0, "oracle.primes_checked": 0,
                       "descent.structure_repeats": 0}
        self._stack = []
        self._op = -1
        self._seen = weakref.WeakKeyDictionary()
        self._saved = []

    # -- recording -------------------------------------------------------------

    def span(self, name: str, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), 0.0, parent, self._op]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def op(self, index: int, fn, *args):
        """Run one CLI call as the root span "cli" of op `index`."""
        self._op = index
        return self.span("cli", fn, *args)

    def _note(self, name, args, result):
        if name == "cache.load":
            self.counts["cache.hits" if result is not None else "cache.misses"] += 1
        elif name == "modular.charpoly":
            self.counts["modular.charpoly_n3_sum"] += len(args[0]) ** 3
        elif name == "oracle.verify":
            self.counts["oracle.primes_checked"] += len(result.primes)
        elif name == "descent.structure":
            seen = self._seen.setdefault(args[0], set())
            key = args[1:3]
            self.counts["descent.structure_repeats"] += key in seen
            seen.add(key)

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            self._note(name, args, result)
            return result
        return wrapper

    # -- install / remove ------------------------------------------------------

    def install(self):
        for owner, attr, name in HOOKS:
            orig = owner.__dict__[attr]
            if isinstance(orig, property):
                new = property(self._wrap(name, orig.fget))
            else:
                new = self._wrap(name, orig)
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, new)

    def remove(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    # -- summaries -------------------------------------------------------------

    def self_times(self) -> dict:
        """name -> (total self seconds, calls)."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        out = {}
        for s, t in zip(self.spans, own):
            tot, calls = out.get(s[0], (0.0, 0))
            out[s[0]] = (tot + t, calls + 1)
        return out
