"""Spans, wrappers and statistics for the benchmark's traced runs.

A :class:`Tracer` records one span per call into a layer's public
function: name, start, end and the span that was open on the same
thread when the call began.  Spans stay in memory and are written out
as JSON lines when the run ends.  Wrappers are installed by replacing
the attribute the caller looks up, and :meth:`Tracer.restore` puts the
originals back; nothing in the program itself is changed.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import threading
import time
from contextlib import contextmanager


class Tracer:
    """In-memory span recorder with attribute wrappers."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        """Time the enclosed block as one span; yields the span record,
        to which callers may add fields."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        record = {
            "id": next(self._ids),
            "parent": stack[-1]["id"] if stack else None,
            "name": name,
            "thread": threading.get_ident(),
        }
        stack.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Replace ``owner.attr`` with a spanned call to the original.

        ``on_result(record, args, kwargs, result)`` may annotate the
        span after the call returns.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name) as record:
                result = original(*args, **kwargs)
                if on_result is not None:
                    on_result(record, args, kwargs, result)
                return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def durations(self, name: str) -> list[float]:
        """Durations, in seconds, of every span called ``name``."""
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: each span's duration minus
        the part of it that its child spans cover."""
        children: dict[int, list[tuple[float, float]]] = {}
        for s in self.spans:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append((s["start"], s["end"]))
        totals: dict[str, float] = {}
        for s in self.spans:
            covered, reach = 0.0, s["start"]
            for start, end in sorted(children.get(s["id"], ())):
                start, end = max(start, reach), min(end, s["end"])
                if end > start:
                    covered += end - start
                    reach = end
            own = s["end"] - s["start"] - covered
            totals[s["name"]] = totals.get(s["name"], 0.0) + own
        return totals

    def summary(self) -> list[str]:
        """One line per span name: calls, total and self time."""
        own = self.self_times()
        lines = []
        for name in sorted(own, key=own.get, reverse=True):
            durations = self.durations(name)
            lines.append(
                f"span {name}: {len(durations)} calls, {sum(durations):.3f} s total, "
                f"{own[name]:.3f} s self"
            )
        return lines

    def write(self, path: str) -> None:
        """Write every span as one JSON line, in start order."""
        with open(path, "w", encoding="utf-8") as handle:
            for s in sorted(self.spans, key=lambda s: s["start"]):
                handle.write(json.dumps(s) + "\n")


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile (``fraction`` in (0, 1]); 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def ratio(numerator: float, base: float) -> float:
    """``numerator / base``, or 0.0 for an empty base."""
    return numerator / base if base else 0.0
