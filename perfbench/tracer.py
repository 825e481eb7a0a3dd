"""In-memory span recording around calls into the program.

The benchmark never edits the program to trace it. It wraps the public
functions it calls, and for the two calls made inside
`generate_candidates` it shadows the bound methods on the vectorizer and
index instances. Spans stay in a list until the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Callable

ROOT = None


class Tracer:
    """Records (id, parent id, name, item id, start, end) per wrapped call."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.kept: dict[int, object] = {}   # span id -> return value
        self.item: object = None            # doc or mention id of new spans
        self._stack: list[int | None] = [ROOT]

    def wrap(self, fn: Callable, name: str, keep: bool = False) -> Callable:
        """`fn` with a span around each call; `keep` stores its result."""
        spans, stack, kept, clock = self.spans, self._stack, self.kept, time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (sid, parent, name, self.item, t0, t1)
            if keep:
                kept[sid] = out
            return out

        return traced

    def attach(self, index) -> None:
        """Trace `encode` and `nearest_aliases` as `generate_candidates`
        calls them, by shadowing the bound methods on these instances."""
        index.vectorizer.encode = self.wrap(
            index.vectorizer.encode, "vectorizer.encode", keep=True)
        index.nearest_aliases = self.wrap(
            index.nearest_aliases, "index.nearest_aliases", keep=True)

    @staticmethod
    def detach(index) -> None:
        for obj, attr in ((index.vectorizer, "encode"), (index, "nearest_aliases")):
            obj.__dict__.pop(attr, None)

    def by_name(self) -> dict[str, list[tuple[int, float, float]]]:
        """name -> [(span id, duration s, self time s)]; self time is the
        duration minus the time covered by child spans (children of one
        span never overlap: one thread)."""
        child_time: dict[int, float] = defaultdict(float)
        for sid, parent, _, _, t0, t1 in self.spans:
            if parent is not ROOT:
                child_time[parent] += t1 - t0
        out: dict[str, list] = defaultdict(list)
        for sid, _, name, _, t0, t1 in self.spans:
            out[name].append((sid, t1 - t0, t1 - t0 - child_time[sid]))
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fp:
            for sid, parent, name, item, t0, t1 in self.spans:
                fp.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "item": item, "start": t0, "end": t1}))
                fp.write("\n")
