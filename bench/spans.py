"""Call spans recorded from outside the program by wrapping its functions.

A Tracer replaces a function with a wrapper that records one span per call
(name, start, end, parent) into flat in-memory arrays; nothing is written
until the run ends. Because stochfp modules import functions by name
(`from .linalg import norm`), a function is patched in every module dict that
binds it, not only where it is defined. Methods are patched on their class.
`restore` puts every original binding back.
"""

from __future__ import annotations

import functools
import time
from array import array
from dataclasses import dataclass, field

import numpy as np

ROOT = -1  # parent index of a span with no enclosing span


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [ROOT]
        self._patches: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.name_id)

    def _wrap(self, fn, name: str):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()

        return wrapper

    def patch_function(self, fn, name: str, modules) -> int:
        """Replace every binding of fn in the given modules; returns how many."""
        wrapper = self._wrap(fn, name)
        count = 0
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is fn:
                    self._patches.append((mod, key, fn))
                    setattr(mod, key, wrapper)
                    count += 1
        return count

    def patch_method(self, cls, attr: str, name: str):
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self._wrap(original, name))

    def restore(self):
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def save(self, path):
        """Write the spans as arrays: names[name_id[i]], start[i], end[i], parent[i]."""
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
        )


def self_times(start, end, parent) -> list[float]:
    """Per span: its duration minus the part of it that its children cover.

    Child intervals are clipped to the parent's and merged before they are
    subtracted, so overlapping children are not counted twice.
    """
    start_a = np.asarray(start, dtype=np.float64)
    parent_a = np.asarray(parent, dtype=np.int64)
    order = np.lexsort((start_a, parent_a))
    order = order[parent_a[order] != ROOT].tolist()
    start, end, parent = start_a.tolist(), list(end), parent_a.tolist()
    covered = [0.0] * len(start)
    cur_parent, cur_lo, cur_hi = ROOT, 0.0, 0.0
    for i in order:
        p = parent[i]
        lo, hi = max(start[i], start[p]), min(end[i], end[p])
        if hi <= lo:
            continue
        if p != cur_parent or lo > cur_hi:
            if cur_parent != ROOT:
                covered[cur_parent] += cur_hi - cur_lo
            cur_parent, cur_lo, cur_hi = p, lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_parent != ROOT:
        covered[cur_parent] += cur_hi - cur_lo
    return [e - s - c for s, e, c in zip(start, end, covered)]


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    durations_s: list[float] = field(default_factory=list)  # kept for kernels only


def layer_stats(tracer: Tracer, kernels=()) -> dict[str, LayerStats]:
    """Calls and summed self time per span name; per-call inclusive durations for kernels."""
    stats = {name: LayerStats() for name in tracer.names}
    keep = {tracer.names.index(k) for k in kernels if k in tracer.names}
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    for nid, s, e, own in zip(tracer.name_id, tracer.start, tracer.end, selfs):
        st = stats[tracer.names[nid]]
        st.calls += 1
        st.self_s += own
        if nid in keep:
            st.durations_s.append(e - s)
    return stats
