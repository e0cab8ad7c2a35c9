"""In-memory span recorder for the traced run.

Spans are recorded around calls into the program from the benchmark's own
files: `patch` swaps a module attribute for a wrapper, so every caller that
looks the name up through that module binding is timed. Nothing inside the
program changes. A binding that does not exist is recorded in `missing` and
simply yields no spans.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from functools import wraps
from time import perf_counter


@dataclass(slots=True)
class Span:
    name: str
    key: str | None      # e.g. the objective kind or algorithm of the call
    start: float
    end: float
    parent: int          # index of the enclosing span, -1 at top level
    cell: int            # grid cell the span belongs to
    extra: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.cell = -1
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _begin(self, name, key) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, key, perf_counter(), 0.0, parent, self.cell))
        self._open.append(idx)
        return idx

    def _end(self, idx: int) -> None:
        self.spans[idx].end = perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str, key: str | None = None):
        idx = self._begin(name, key)
        try:
            yield self.spans[idx]
        finally:
            self._end(idx)

    def wrap(self, fn, name: str, key=None, pre=None, post=None):
        """Wrap fn so each call records a span.

        key(args, kwargs) labels the span; pre(args, kwargs) may swap the
        arguments before the call (to trace callbacks handed to fn);
        post(span, result) may attach details of the result to the span.
        """
        @wraps(fn)
        def traced(*args, **kwargs):
            idx = self._begin(name, key(args, kwargs) if key else None)
            try:
                if pre is not None:
                    args, kwargs = pre(args, kwargs)
                out = fn(*args, **kwargs)
            finally:
                self._end(idx)
            if post is not None:
                post(self.spans[idx], out)
            return out
        return traced

    def patch(self, module, attr: str, name: str, **hooks) -> bool:
        """Replace module.attr with a traced wrapper until `restore`."""
        if module is None or not callable(getattr(module, attr, None)):
            where = f"{getattr(module, '__name__', '?')}.{attr}"
            if where not in self.missing:
                self.missing.append(where)
            return False
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, self.wrap(original, name, **hooks))
        return True

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def dump(self, path) -> None:
        """Write the recorded spans as JSON, one object per span."""
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"missing": self.missing,
                       "spans": [asdict(s) for s in self.spans]}, f)


def covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of the given intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted((max(lo, start), min(hi, end)) for lo, hi in intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [s.duration - covered(s.start, s.end, children.get(i, ()))
            for i, s in enumerate(spans)]
