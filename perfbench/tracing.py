"""Span recording from outside the program.

The benchmark wraps calls into each layer's public functions — registry
kernels, ``SweepCache`` methods, the membership table's ``heartbeat`` and
query methods, detectors' ``observe`` — with :meth:`Tracer.wrap`, so the
program itself carries no tracing code.  Each span has a name, start,
end, the span that caused it and the root span of its request.  Per-name
call counts, inclusive time and self time (duration minus the time of
child spans) are aggregated for every span; raw span records are kept in
memory up to ``keep`` and written out when the run ends.

A span costs about a microsecond of bookkeeping, which lands in its
parent's self time (or outside every span, for a root span).
"""

from __future__ import annotations

import itertools
import json
import time
from pathlib import Path


class Tracer:
    """In-memory span recorder (single-threaded: one stack per tracer)."""

    def __init__(self, keep: int = 20_000):
        self.keep = keep
        self.spans: list[tuple[int, int | None, int, str, float, float]] = []
        self._agg: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self._stack: list[list] = []
        self._ids = itertools.count(1)
        self._dropped = [0]

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span called ``name``."""
        stack = self._stack
        ids = self._ids
        clock = time.perf_counter
        spans = self.spans
        keep = self.keep
        dropped = self._dropped
        agg = self._agg.setdefault(name, [0, 0.0, 0.0])

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            # [seconds covered by child spans, span id, root id]; ids are
            # drawn only while raw spans are still being kept.
            frame = [0.0, 0, 0]
            if len(spans) < keep:
                frame[1] = sid = next(ids)
                frame[2] = parent[2] if parent is not None else sid
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                if parent is not None:
                    parent[0] += dt
                agg[0] += 1
                agg[1] += dt
                agg[2] += dt - frame[0]
                if not frame[1]:
                    dropped[0] += 1
                elif len(spans) < keep:
                    spans.append((frame[1], parent[1] if parent else None,
                                  frame[2], name, t0, t1))
                else:
                    dropped[0] += 1

        traced.__wrapped__ = fn
        return traced

    @property
    def calls(self) -> dict[str, int]:
        return {name: a[0] for name, a in self._agg.items()}

    @property
    def total_s(self) -> dict[str, float]:
        return {name: a[1] for name, a in self._agg.items()}

    @property
    def self_s(self) -> dict[str, float]:
        return {name: a[2] for name, a in self._agg.items()}

    @property
    def dropped(self) -> int:
        return self._dropped[0]

    def totals(self) -> dict[str, dict[str, float]]:
        return {
            name: {"calls": a[0], "total_s": a[1], "self_s": a[2]}
            for name, a in sorted(self._agg.items())
        }

    def write(self, path: Path, **meta) -> None:
        """Write the kept spans and the per-name totals as one JSON file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "meta": meta,
            "totals": self.totals(),
            "kept": len(self.spans),
            "dropped": self.dropped,
            "spans": [
                {"id": sid, "parent": parent, "trace": root, "name": name,
                 "start": t0, "end": t1}
                for sid, parent, root, name, t0, t1 in self.spans
            ],
        }
        path.write_text(json.dumps(payload) + "\n")
