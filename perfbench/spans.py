"""In-memory spans and counters recorded around calls into a library.

A span is (parent, name, start, end); spans are kept in flat arrays so a
traced run of a few million calls stays small, and are written out as TSV
when the run ends.  Wrappers are installed by replacing attributes and are
removed again by `restore`, so an untraced pass runs the library unchanged.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Sequence

Hook = Callable[[Dict[str, int], tuple, object], None]


class Tracer:
    def __init__(self) -> None:
        self.parent = array("q")
        self.name = array("q")
        self.start = array("d")
        self.end = array("d")
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.counters: Dict[str, int] = defaultdict(int)
        self._stack = [-1]
        self._patches: list = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn: Callable, after: Optional[Hook] = None) -> Callable:
        """`fn` recording one span per call; `after(counters, args, result)`
        adds work counts once the call has returned."""
        nid = self.name_id(name)
        parent, names, start, end = self.parent, self.name, self.start, self.end
        stack, counters, clock = self._stack, self.counters, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            parent.append(stack[-1])
            names.append(nid)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(counters, args, result)
            return result

        return traced

    def count(self, key: str, fn: Callable) -> Callable:
        """`fn` counting its calls under `key`, without a span."""
        counters = self.counters

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def span(self, name: str):
        """A span around a block, such as one benchmark item."""
        idx = len(self.name)
        self.parent.append(self._stack[-1])
        self.name.append(self.name_id(name))
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()

    def patch(self, owner: object, attr: str, replacement: object) -> None:
        """Set `owner.attr`, remembering the original (taken from the class
        dict for classes, so descriptors such as classmethod come back)."""
        original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def self_times(self) -> List[float]:
        return self_times(self.parent, self.start, self.end)

    def write_tsv(self, path) -> None:
        with open(path, "w") as out:
            out.write("id\tparent\tname\tstart\tend\n")
            for i in range(len(self.name)):
                out.write(f"{i}\t{self.parent[i]}\t{self.names[self.name[i]]}\t"
                          f"{self.start[i]:.9f}\t{self.end[i]:.9f}\n")


def self_times(parent: Sequence[int], start: Sequence[float], end: Sequence[float]) -> List[float]:
    """Each span's duration minus the time its child spans cover.  Children
    of one span run one after another in a single thread, so the time they
    cover is the sum of their durations."""
    covered = [0.0] * len(start)
    for i, p in enumerate(parent):
        if p >= 0:
            covered[p] += end[i] - start[i]
    return [end[i] - start[i] - covered[i] for i in range(len(start))]
