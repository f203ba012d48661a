"""In-memory span recorder that rebinds public names to timing wrappers.

A span is ``[name, start, end, parent, child_s, size]``: ``parent`` is the
enclosing span on the same thread (or None), ``child_s`` accumulates the
durations of its direct children, and ``size`` is whatever the binding's
``measure`` hook returned for the call's arguments (a batch size, a sample
count), or None.  Self time is ``end - start - child_s``.
"""

from __future__ import annotations

import threading
from time import perf_counter


class Tracer:
    """Rebinds attributes to span-recording wrappers and restores them."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.unbound: list[str] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, measure=None):
        spans = self.spans
        local = self._local

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = [name, 0.0, 0.0, stack[-1] if stack else None, 0.0,
                    None if measure is None else measure(args)]
            stack.append(span)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = end = perf_counter()
                stack.pop()
                if span[3] is not None:
                    span[3][4] += end - span[1]
                spans.append(span)

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, measure=None) -> None:
        """Rebind ``owner.attr``; a missing attribute is listed in ``unbound``."""
        original = getattr(owner, attr, None)
        if original is None:
            self.unbound.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, measure))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, self seconds and summed size."""
        out: dict[str, dict[str, float]] = {}
        for name, start, end, _parent, child_s, size in self.spans:
            t = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "size": 0})
            t["calls"] += 1
            t["total_s"] += end - start
            t["self_s"] += end - start - child_s
            if size is not None:
                t["size"] += size
        return out
