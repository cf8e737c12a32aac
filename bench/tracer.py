"""In-memory span recorder for the traced benchmark run.

A span is one call of a wrapped function: its name, start, end and the span
that was open when it began (its parent).  Spans live in flat arrays while the
run goes on and are summarised or written out when it ends.  Functions are
wrapped by rebinding the name in the namespace of the module that calls them,
so the program itself is not edited; `restore()` puts every original back.
"""

from __future__ import annotations

from array import array
from collections import Counter
from time import perf_counter

import numpy as np

NO_PARENT = -1


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [NO_PARENT]
        self.counts: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, observe=None):
        """Return fn recording a span per call; observe(args, result) sees each result."""
        name_id = self._intern(name)
        stack, ids, parents, starts, ends = (
            self._stack, self.name_id, self.parent, self.start, self.end)

        def traced(*args, **kwargs):
            index = len(starts)
            ids.append(name_id)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[index] = t0
                ends[index] = t1
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def patch(self, owner, attr: str, replacement) -> None:
        """Rebind owner.attr (a module global or class attribute) until restore()."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def patch_span(self, owner, attr: str, name: str, observe=None) -> None:
        self.patch(owner, attr, self.wrap(name, getattr(owner, attr), observe))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @property
    def n_spans(self) -> int:
        return len(self.start)

    def summarise(self, lo: int, hi: int) -> dict[str, dict]:
        """Per-name calls, total time, self time and call durations of spans [lo, hi).

        Self time is a span's duration minus the durations of its direct
        children; children of one parent never overlap on a single thread.
        """
        ids = np.frombuffer(self.name_id, dtype=np.int32)[lo:hi]
        parent = np.frombuffer(self.parent, dtype=np.int32)[lo:hi]
        dur = (np.frombuffer(self.end)[lo:hi] - np.frombuffer(self.start)[lo:hi])
        inside = parent >= lo
        child_time = np.bincount(parent[inside] - lo, weights=dur[inside],
                                 minlength=hi - lo)
        self_time = dur - child_time
        out = {}
        for name_id in np.unique(ids):
            mask = ids == name_id
            out[self.names[name_id]] = {
                "calls": int(mask.sum()),
                "total_s": float(dur[mask].sum()),
                "self_s": float(self_time[mask].sum()),
                "durations": dur[mask],
            }
        return out

    def write_csv(self, path) -> None:
        """All spans as name,start_s,end_s,parent rows, index = row number."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            for i in range(self.n_spans):
                fh.write(f"{i},{self.names[self.name_id[i]]},{self.start[i]!r},"
                         f"{self.end[i]!r},{self.parent[i]}\n")
