"""In-memory spans recorded around calls into the program's layers.

A span has a name (``<layer>.<call>``), start and end times, the span
that caused it, and the id of the request (or document) it belongs to.
Spans stay in memory while the benchmark runs and are written out once
at the end.  :meth:`Tracer.wrap` times a layer's public function from
outside by rebinding it for the duration of a traced phase; nothing in
the program itself records time.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
import time
from collections import defaultdict


class Tracer:
    """Collects spans; per-thread stacks give each span its parent."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, request=None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        if request is None and parent is not None:
            request = parent[1]
        stack.append((span_id, request))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                (span_id, name, start, end, parent[0] if parent else None, request)
            )

    @contextlib.contextmanager
    def wrap(self, owner, attribute: str, name: str):
        """Record a ``name`` span around every call of ``owner.attribute``."""
        original = getattr(owner, attribute)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with tracer.span(name):
                return original(*args, **kwargs)

        setattr(owner, attribute, traced)
        try:
            yield
        finally:
            setattr(owner, attribute, original)

    # -- reading -----------------------------------------------------------------

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """``name -> (calls, total seconds, self seconds)``.

        Self time is a span's duration minus the part its direct children
        cover (children never overlap their parent's other children, since
        each thread records its own nested stack).
        """
        child_time: dict[int, float] = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, list] = {}
        for span_id, name, start, end, _, _ in self.spans:
            entry = out.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child_time.get(span_id, 0.0)
        return {name: tuple(entry) for name, entry in out.items()}

    def layer_self(self) -> dict[str, float]:
        """Self seconds summed per layer (the span-name prefix)."""
        layers: dict[str, float] = defaultdict(float)
        for name, (_, _, self_seconds) in self.totals().items():
            layers[name.split(".", 1)[0]] += self_seconds
        return dict(layers)

    def write(self, path) -> None:
        fields = ("id", "name", "start", "end", "parent", "request")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(fields, span))) + "\n")
