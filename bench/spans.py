"""Outside-in tracer: spans around calls into echopath's public functions.

The tracer replaces a function name in the namespace where its caller looks
it up (a module's globals), records one span per call and restores every
replaced name on exit. Nothing inside the package is edited, so the same
tracer measures any later version of it; a name that version no longer has
is skipped and reported as absent.

Spans are kept in memory as (id, parent id, name, start, end), the parent
being the innermost span open at the call, so a span's self time is its
duration minus the time covered by its direct children.
"""

from __future__ import annotations

import functools
import itertools
import time
from collections import defaultdict


class Tracer:
    """Records spans and work counts for the names it patches.

    Use as a context manager: every name patched inside the block is
    restored when the block ends, also on error.
    """

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self._ids = itertools.count(1)
        self._open: list[int] = []
        self._patched: list[tuple[dict, str, object]] = []

    def patch(self, namespace: dict, attr: str, span: str, observe=None, prepare=None) -> bool:
        """Replace namespace[attr] by `wrap(namespace[attr], span, ...)`.

        Returns False, and records the span name as absent, when the
        namespace has no such name.
        """
        if attr not in namespace:
            self.absent.append(span)
            return False
        original = namespace[attr]
        namespace[attr] = self.wrap(original, span, observe, prepare)
        self._patched.append((namespace, attr, original))
        return True

    def wrap(self, fn, span: str, observe=None, prepare=None):
        """fn with a span recorded around each call.

        prepare(args, kwargs) may return changed keyword arguments before the
        call; observe(args, kwargs, result, counts) adds the call's work
        counts after it returns.
        """
        spans, open_ids, ids, counts = self.spans, self._open, self._ids, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if prepare is not None:
                kwargs = prepare(args, kwargs)
            sid = next(ids)
            parent = open_ids[-1] if open_ids else 0
            open_ids.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                open_ids.pop()
                spans.append((sid, parent, span, start, end))
            if observe is not None:
                observe(args, kwargs, result, counts)
            return result

        return traced

    def restore(self) -> None:
        """Put back every patched name, most recent first."""
        while self._patched:
            namespace, attr, original = self._patched.pop()
            namespace[attr] = original

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def take(self) -> tuple[list, dict]:
        """Hand over the recorded spans and counts and start afresh."""
        spans, counts = list(self.spans), dict(self.counts)
        self.spans.clear()
        self.counts.clear()
        return spans, counts


def span_totals(spans) -> tuple[dict, dict, dict]:
    """Total seconds, self seconds and call count per span name."""
    child = defaultdict(float)
    for _sid, parent, _name, start, end in spans:
        if parent:
            child[parent] += end - start
    total, self_time, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    for sid, _parent, name, start, end in spans:
        total[name] += end - start
        self_time[name] += end - start - child[sid]
        calls[name] += 1
    return total, self_time, calls
