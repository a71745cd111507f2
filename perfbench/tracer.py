"""Span tracer that wraps package functions by patching module attributes.

Inside ``with tracer:`` every module of the package that holds a reference
to a wrapped function (for example ``discrimination.eig_hermitian``, bound
by ``from .qmath import eig_hermitian``) sees the wrapper; on exit the
originals are put back.  The CLI is single-threaded, so spans nest strictly and a span's self
time is its duration minus the durations of the wrapped calls made directly
inside it.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict


class Tracer:
    """Per-function call, self-time and error counters plus stored spans.

    ``clock`` returns seconds; tests pass a scripted clock.  Spans are
    stored whole operation by whole operation until MAX_SPANS is reached,
    so memory stays bounded; the counters cover every call.
    """

    MAX_SPANS = 100_000

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.errors = defaultdict(int)
        self.counters = defaultdict(int)
        self.pair_calls = defaultdict(int)  # (parent name, child name) -> calls
        self.spans = []  # (id, parent id, op id, name, start, end)
        self.spans_dropped = 0
        self.absent = []
        self._stack = []  # open spans: [id, name, time covered by children]
        self._next_id = 0
        self._op = None
        self._keep = True
        self._patches = []  # (module, attribute, original, wrapper)

    def begin_op(self, op_id):
        """Tag the following spans with ``op_id``."""
        self._op = op_id
        self._keep = len(self.spans) < self.MAX_SPANS

    def wrap(self, name, fn, observe=None):
        """Return ``fn`` wrapped in a span named ``name``.

        ``observe(tracer, args, result)`` runs after each successful call and
        may add to ``tracer.counters``.
        """
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            frame = [self._next_id, name, 0.0]
            self._next_id += 1
            self._stack.append(frame)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[name] += 1
                raise
            finally:
                end = self.clock()
                self._stack.pop()
                duration = end - start
                self.calls[name] += 1
                self.self_s[name] += duration - frame[2]
                if parent is not None:
                    parent[2] += duration
                    self.pair_calls[(parent[1], name)] += 1
                if self._keep:
                    self.spans.append((frame[0], parent[0] if parent else None,
                                       self._op, name, start, end))
                else:
                    self.spans_dropped += 1
            if observe is not None:
                observe(self, args, result)
            return result

        return wrapper

    def prepare(self, targets):
        """Build wrappers for each ``"module.function"`` of the pnsqkd
        package in ``targets`` (a mapping to an observer or None); ``with
        tracer:`` then patches them in.  A target that does not exist is
        recorded in ``absent``."""
        package = "pnsqkd"
        originals = {}
        for name in targets:
            module_name, attr = name.rsplit(".", 1)
            try:
                module = importlib.import_module(f"{package}.{module_name}")
            except ImportError:
                module = None
            original = getattr(module, attr, None)
            if callable(original):
                originals[name] = original
            else:
                self.absent.append(name)
        loaded = [m for key, m in list(sys.modules.items())
                  if m is not None and (key == package or key.startswith(package + "."))]
        for name, original in originals.items():
            wrapper = self.wrap(name, original, targets[name])
            for m in loaded:
                for key in [k for k, v in vars(m).items() if v is original]:
                    self._patches.append((m, key, original, wrapper))

    def __enter__(self):
        for module, key, _, wrapper in self._patches:
            setattr(module, key, wrapper)
        return self

    def __exit__(self, *exc):
        for module, key, original, _ in self._patches:
            setattr(module, key, original)
        return False

    def write_spans(self, path):
        """Write the stored spans as JSON lines."""
        with open(path, "w") as fh:
            for sid, parent, op, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op, "name": name,
                                     "start": start, "end": end}) + "\n")
