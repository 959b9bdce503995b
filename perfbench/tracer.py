"""Spans and counters recorded around symodes' public functions.

Nothing in symodes is edited: the tracer swaps a function, as its caller
looks it up (a module global such as ``symodes.dynamics.gp_smooth_series``
or a class attribute such as ``FunctionLibrary.evaluate``), for a wrapper
that records a span (name, start, end, parent) or bumps a counter, and puts
the original back when the ``patched`` block ends.

Spans are kept in flat arrays in memory.  Their clock is the process's
CPU time (time.process_time): the benchmark is serial with one BLAS thread,
so that is its busy time, without the time a shared host takes the CPU
away.  A span's self time is its duration minus the durations of its direct
children, so the self times of every span under one root add up to the
root's duration.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager

import numpy as np


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.errors = {}
        self.counters = {}
        self._stack = [-1]

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def counter(self, name):
        """One-element list that wrappers add to; read it with counts()."""
        return self.counters.setdefault(name, [0])

    def span(self, fn, name, name_of=None, count=None, on_result=None):
        """Wrapper of fn that records one span per call.

        name_of(args, kwargs) may choose the span name per call; count is
        (counter name, f(args, kwargs)) to add a per-call amount; on_result
        sees every return value.  Exceptions are counted per span name and
        re-raised.
        """
        start, end, names, parent = self.start, self.end, self.name, self.parent
        stack, clock = self._stack, time.process_time
        fixed = self._id(name)
        errors = self.errors
        cnt = self.counter(count[0]) if count else None
        amount = count[1] if count else None

        def traced(*args, **kwargs):
            nid = self._id(name_of(args, kwargs)) if name_of else fixed
            if cnt is not None:
                cnt[0] += amount(args, kwargs)
            i = len(start)
            names.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                end[i] = clock()
                stack.pop()
                errors[nid] = errors.get(nid, 0) + 1
                raise
            end[i] = clock()
            stack.pop()
            if on_result is not None:
                on_result(out)
            return out

        traced.__wrapped__ = fn
        return traced

    def count_calls(self, fn, name):
        """Wrapper of fn (positional arguments only) that counts its calls.

        For hot paths such as the recursive Expr.node_count, where a span
        per call would cost more than the call.
        """
        cnt = self.counter(name)

        def counted(*args):
            cnt[0] += 1
            return fn(*args)

        counted.__wrapped__ = fn
        return counted

    # -- results ---------------------------------------------------------------

    def arrays(self):
        """(names, name ids, parent index, start, end) as numpy arrays."""
        return (list(self.names), np.array(self.name, dtype=np.int64),
                np.array(self.parent, dtype=np.int64),
                np.array(self.start), np.array(self.end))

    def summary(self):
        """{span name: {"calls", "total_s", "self_s", "errors"}}."""
        names, nid, parent, start, end = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_s = dur - child
        k = len(names)
        calls = np.bincount(nid, minlength=k)
        total = np.bincount(nid, weights=dur, minlength=k)
        selfs = np.bincount(nid, weights=self_s, minlength=k)
        return {n: {"calls": int(calls[j]), "total_s": float(total[j]),
                    "self_s": float(selfs[j]),
                    "errors": int(self.errors.get(j, 0))}
                for j, n in enumerate(names)}

    def counts(self):
        return {k: v[0] for k, v in self.counters.items()}

    def save(self, path):
        names, nid, parent, start, end = self.arrays()
        np.savez(path, names=np.array(names), name=nid, parent=parent,
                 start=start, end=end)


class Overlay:
    """Stand-in for a module: the given attributes, then the module's own."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, attr):
        return getattr(self._target, attr)


@contextmanager
def patched(replacements):
    """Set (owner, attribute, value) triples; restore the originals after."""
    saved = [(owner, attr, owner.__dict__[attr])
             for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)
