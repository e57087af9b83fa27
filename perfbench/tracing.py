"""Benchmark-side tracing: wrap each layer's entry points, keep spans in memory.

Nothing here changes the program.  :class:`Tracer` replaces an entry point
with a timing wrapper *at the name its caller looks up* (a class attribute
for methods, the importing module's global for functions imported by name),
and puts the original back on :meth:`Tracer.uninstall`.  A span records its
name, start and end (``perf_counter_ns``), its parent span and its thread;
parents come from a per-thread stack, so spans of the service's executor
thread nest among themselves and never under the event loop's.  A layer's
self time is its span time minus the time of its child spans.

Two hooks name private methods (``EvalContext._pack`` and
``SolveEngine._solve_bucket``).  A hook whose target no longer exists is
skipped and listed in :attr:`Tracer.missing`, so a renamed method shows up
as unattributed time instead of a crash.
"""

from __future__ import annotations

import itertools
import threading
from time import perf_counter_ns

# span tuple fields
ID, NAME, START, END, PARENT, THREAD, ATTRS = range(7)


class Tracer:
    """In-memory span recorder with install/uninstall of entry-point wrappers."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.archive: list[tuple] = []
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._hooks: list[tuple] = []
        self._installed: list[tuple] = []

    # ------------------------------------------------------------------ #
    # span recording
    # ------------------------------------------------------------------ #
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> tuple:
        """Start a span on this thread's stack; returns a token for :meth:`close`."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        return (span_id, name, parent, perf_counter_ns())

    def close(self, token: tuple, attrs: dict | None = None) -> None:
        end = perf_counter_ns()
        span_id, name, parent, start = token
        stack = self._stack()
        if stack and stack[-1] == span_id:
            stack.pop()
        self.spans.append(
            (span_id, name, start, end, parent, threading.get_ident(), attrs)
        )

    def record(self, name: str, start: int, end: int, attrs: dict | None = None) -> None:
        """A span measured elsewhere (not on any stack): service request spans."""
        self.spans.append(
            (next(self._ids), name, start, end, None, threading.get_ident(), attrs)
        )

    def clear(self) -> None:
        """Start a new phase: current spans move to :attr:`archive` (kept for the file)."""
        self.archive.extend(self.spans)
        self.spans = []

    # ------------------------------------------------------------------ #
    # hooks
    # ------------------------------------------------------------------ #
    def hook(self, owner, attribute: str, name: str, attrs=None) -> None:
        """Register a wrapper for ``owner.attribute`` recording spans ``name``.

        ``attrs(args, kwargs, result)`` optionally returns a dict stored on
        the span; ``result`` is the wrapped call's return value.
        """
        self._hooks.append((owner, attribute, name, attrs))

    def install(self) -> None:
        if self._installed:
            return
        for owner, attribute, name, attrs in self._hooks:
            label = f"{getattr(owner, '__name__', owner)}.{attribute}"
            if not hasattr(owner, attribute):
                if label not in self.missing:
                    self.missing.append(label)
                continue
            own = vars(owner).get(attribute, _ABSENT)
            original = getattr(owner, attribute)
            setattr(owner, attribute, self._wrap(original, name, attrs))
            self._installed.append((owner, attribute, own))

    def uninstall(self) -> None:
        for owner, attribute, own in reversed(self._installed):
            if own is _ABSENT:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, own)
        self._installed = []

    def _wrap(self, function, name: str, attrs):
        tracer = self

        def traced(*args, **kwargs):
            token = tracer.open(name)
            result = None
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                tracer.close(token, attrs(args, kwargs, result) if attrs else None)

        traced.__wrapped__ = function
        traced.__name__ = getattr(function, "__name__", name)
        return traced


_ABSENT = object()


# ---------------------------------------------------------------------- #
# analysis
# ---------------------------------------------------------------------- #
def self_times(spans: list[tuple]) -> dict[int, int]:
    """Self time (ns) of every span: its duration minus its children's."""
    child_ns: dict[int, int] = {}
    for span in spans:
        parent = span[PARENT]
        if parent is not None:
            child_ns[parent] = child_ns.get(parent, 0) + span[END] - span[START]
    return {
        span[ID]: span[END] - span[START] - child_ns.get(span[ID], 0) for span in spans
    }


def layer_totals(spans: list[tuple]) -> dict[str, dict]:
    """Per span name: call count and self time (ns)."""
    selfs = self_times(spans)
    totals: dict[str, dict] = {}
    for span in spans:
        entry = totals.setdefault(span[NAME], {"calls": 0, "self_ns": 0})
        entry["calls"] += 1
        entry["self_ns"] += selfs[span[ID]]
    return totals


def write_chrome_trace(spans: list[tuple], path: str) -> None:
    """Write ``spans`` as a gzipped Chrome/Perfetto trace (one ``X`` event each)."""
    import gzip
    import json
    import os

    threads: dict[int, int] = {}
    events = []
    for span in spans:
        tid = threads.setdefault(span[THREAD], len(threads))
        args = {"id": span[ID], "parent": span[PARENT]}
        if span[ATTRS]:
            args.update(span[ATTRS])
        events.append(
            {
                "name": span[NAME],
                "ph": "X",
                "ts": span[START] / 1000.0,
                "dur": (span[END] - span[START]) / 1000.0,
                "pid": 1,
                "tid": tid,
                "args": args,
            }
        )
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with gzip.open(path, "wt") as stream:
        json.dump({"traceEvents": events}, stream)
