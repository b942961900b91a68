"""Span recorder that times the softaccess layers from outside.

`Tracer.install` rebinds every public function of the traced modules (the
names in each module's `__all__` that the module defines) to a wrapper,
in every softaccess module that holds a reference to it, so calls between
modules are caught as well as calls from the benchmark. Each call becomes
one span: name, start, end, parent span and thread. Spans live in compact
arrays until the benchmark ends; self time and the per-layer metrics are
computed from them afterwards.

Each thread keeps its own stack of open spans. A pool thread starts with
an empty stack; its spans take as parent the innermost span open on the
thread that installed the tracer, which is blocked waiting for the pool
(in the CLI that span is `cli.sweep_rows`).
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from array import array

import numpy as np

LAYERS = ("model", "rates", "optimize", "chain", "simulate", "cli")


class Tracer:
    def __init__(self, hooks=None):
        # hooks: span name -> f(args, kwargs, result or None) -> note dict
        self.hooks = dict(hooks or {})
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._threads = 0
        self._saved: list = []
        self._root_stack: list = []
        self.reset()

    def reset(self):
        self.name = array("H")
        self.thread = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.errors: list[int] = []
        self.notes: dict[int, dict] = {}

    # -- installation -------------------------------------------------
    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        pkg_modules = [m for n, m in sorted(sys.modules.items())
                       if n == "softaccess" or n.startswith("softaccess.")]
        for layer in LAYERS:
            mod = importlib.import_module(f"softaccess.{layer}")
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if not (inspect.isfunction(fn) and fn.__module__ == mod.__name__):
                    continue
                wrapped = self._wrap(f"{layer}.{attr}", fn)
                for holder in pkg_modules:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            self._saved.append((holder, key, fn))
                            setattr(holder, key, wrapped)
        self._root_stack = self._frame()[0]

    def uninstall(self):
        for holder, key, fn in reversed(self._saved):
            setattr(holder, key, fn)
        self._saved = []

    # -- recording ----------------------------------------------------
    def _frame(self):
        tls = self._tls
        try:
            return tls.stack, tls.index
        except AttributeError:
            with self._lock:
                tls.stack = []
                tls.index = self._threads
                self._threads += 1
            return tls.stack, tls.index

    def _wrap(self, span_name: str, fn):
        if span_name not in self._ids:
            self._ids[span_name] = len(self.names)
            self.names.append(span_name)
        nid = self._ids[span_name]
        hook = self.hooks.get(span_name)
        lock = self._lock
        clock = time.perf_counter_ns
        frame = self._frame

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, tidx = frame()
            if stack:
                parent = stack[-1]
            else:
                try:
                    parent = self._root_stack[-1]
                except IndexError:
                    parent = -1
            with lock:
                idx = len(self.name)
                self.name.append(nid)
                self.thread.append(tidx)
                self.parent.append(parent)
                self.end.append(0)
                self.start.append(clock())
            stack.append(idx)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                self.errors.append(idx)
                raise
            finally:
                self.end[idx] = clock()
                stack.pop()
                if hook is not None:
                    self.notes[idx] = hook(args, kwargs, result)

        return traced

    # -- analysis -----------------------------------------------------
    def arrays(self) -> dict:
        """Spans as numpy arrays plus each span's self time in seconds.

        Self time is the span's duration minus the union of its children's
        intervals. Children on the parent's own thread run one after
        another, so their union is their sum; only parents with children
        on other threads (the CLI's pool) need the intervals merged.
        """
        name = np.frombuffer(self.name, dtype=np.uint16)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        thread = np.frombuffer(self.thread, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        n = name.size
        dur = (end - start) / 1e9
        child = np.flatnonzero(parent >= 0)
        child_sum = np.bincount(parent[child], weights=dur[child], minlength=n)
        union = child_sum.copy()
        pool = child[thread[child] != thread[parent[child]]]
        for p in np.unique(parent[pool]):
            kids = child[parent[child] == p]
            order = np.argsort(start[kids], kind="stable")
            s, e = start[kids][order], end[kids][order]
            reach = np.maximum.accumulate(e)
            prev = np.concatenate([[s[0]], reach[:-1]])
            union[p] = float(np.maximum(0, e - np.maximum(s, prev)).sum()) / 1e9
        return {
            "name": name, "parent": parent, "thread": thread, "start": start, "end": end,
            "dur_s": dur, "self_s": dur - union,
            "child_sum_s": child_sum, "child_union_s": union,
        }

    def dump(self, path):
        """Write the spans (times in ns from the first span) as a compressed npz."""
        start = np.frombuffer(self.start, dtype=np.int64)
        t0 = int(start.min()) if start.size else 0
        np.savez_compressed(
            path, names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            thread=np.frombuffer(self.thread, dtype=np.int32),
            start_ns=start - t0, end_ns=np.frombuffer(self.end, dtype=np.int64) - t0,
        )
