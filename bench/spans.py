"""Span tracer and sample statistics for the benchmark.

The tracer wraps public functions of the eegnn modules from outside the
package. `from .x import f` copies the name, so one function can be bound
under several module attributes (`sas_step` lives in `cells`, `training`,
`exits` and `diagnostics`; `autodiff` binds `graphs.spmm` as `_spmm_value`).
`Tracer.install` therefore rebinds every module attribute that holds a
traced function object, and `Tracer.restore` puts the originals back.

Spans are kept in flat arrays (name id, parent index, start, end, and one
computed amount such as bytes or flops) and written out once, at the end.
"""

from __future__ import annotations

import functools
import json
from array import array
from time import perf_counter

import numpy as np


def median(values):
    xs = sorted(values)
    if not xs:
        raise ValueError("median of no samples")
    mid = len(xs) // 2
    return xs[mid] if len(xs) % 2 else 0.5 * (xs[mid - 1] + xs[mid])


def tail_percentile(values, beyond: int = 10):
    """Highest integer percentile that still has `beyond` samples ranked above it.

    Uses the nearest-rank definition: percentile p picks the sample of rank
    ceil(p * n / 100), and the samples of higher rank are the ones beyond it.
    Returns (p, value), or None when fewer than beyond + 1 samples exist.
    """
    xs = sorted(values)
    n = len(xs)
    if n < beyond + 1:
        return None
    p = (100 * (n - beyond)) // n
    rank = -(-p * n // 100)
    return p, xs[rank - 1]


def covered_length(lo: float, hi: float, intervals) -> float:
    """Length of [lo, hi] covered by the union of (start, end) intervals."""
    total = 0.0
    reach = lo
    for s, e in sorted(intervals):
        s, e = max(s, reach), min(e, hi)
        if e > s:
            total += e - s
            reach = e
    return total


def self_times(start, end, parent):
    """Per-span duration minus the part of it covered by the span's children."""
    children: dict[int, list] = {}
    for i, p in enumerate(parent):
        if p >= 0:
            children.setdefault(p, []).append((start[i], end[i]))
    out = [end[i] - start[i] for i in range(len(start))]
    for p, kids in children.items():
        out[p] -= covered_length(start[p], end[p], kids)
    return out


def rebind(modules, original, replacement) -> int:
    """Point every module attribute bound to `original` at `replacement`."""
    hits = 0
    for mod in modules:
        for attr, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, attr, replacement)
                hits += 1
    return hits


class Tracer:
    """In-memory span recorder over rebinding wrappers."""

    def __init__(self, modules):
        self.modules = list(modules)
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.amount = array("d")
        self._stack = [-1]
        self._installed: list[tuple] = []
        self.results: dict[str, object] = {}

    def name_index(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self.amount.append(0.0)
        self._stack.append(idx)
        self.start[idx] = perf_counter()
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def wrap(self, fn, name, amount=None, keep_result=False):
        """Traced stand-in for fn; `name` is a string or a function of the call."""
        fixed = None if callable(name) else self.name_index(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nid = fixed if fixed is not None else tracer.name_index(name(args, kwargs))
            idx = tracer._open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if amount is not None:
                tracer.amount[idx] = amount(args, kwargs, out)
            if keep_result:
                tracer.results[fn.__name__] = out
            return out

        return traced

    def install(self, module, attr, name=None, amount=None, keep_result=False) -> int:
        """Trace module.attr under every binding; returns the number rebound."""
        original = getattr(module, attr)
        traced = self.wrap(original, name or f"{module.__name__.split('.')[-1]}.{attr}",
                           amount, keep_result)
        hits = rebind(self.modules, original, traced)
        self._installed.append((original, traced))
        return hits

    def restore(self) -> None:
        for original, traced in reversed(self._installed):
            rebind(self.modules, traced, original)
        self._installed.clear()

    def __len__(self):
        return len(self.start)

    def save(self, path) -> None:
        np.savez(path, name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 amount=np.frombuffer(self.amount),
                 names=np.array(json.dumps(self.names)))


def round_table(tracer: Tracer, lo: int, hi: int, selfs) -> dict:
    """Per-name calls, self seconds and summed amount over spans [lo, hi)."""
    table: dict[str, list] = {}
    for i in range(lo, hi):
        row = table.setdefault(tracer.names[tracer.name_id[i]], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += selfs[i]
        row[2] += tracer.amount[i]
    return table
