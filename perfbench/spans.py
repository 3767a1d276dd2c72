"""In-memory span tracer that wraps public library names from the outside.

A span is (name, start, end, parent).  Wrapping replaces a module attribute
with a timing wrapper, so only calls that look the name up in that module are
traced; callers inside the library look their collaborators up as module
globals, which is what makes this work without touching the library.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

ROOT_SPAN = "trace.root"   # the span around a whole traced session


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append((name, time.perf_counter(), 0.0, parent))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            _, start, _, _ = self.spans[index]
            self.spans[index] = (name, start, time.perf_counter(), parent)

    def wrap(self, module_name: str, attr: str, span_name: str) -> None:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(span_name):
                return original(*args, **kwargs)

        self._patched.append((module, attr, original))
        setattr(module, attr, traced)

    def unwrap(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Per-name self time (span minus its direct children) and call counts."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i, (name, start, end, _) in enumerate(self.spans):
            self_s[name] += (end - start) - child_time[i]
            calls[name] += 1
        return dict(self_s), dict(calls)

    def dump(self) -> list[dict]:
        return [
            {"name": name, "start": start, "end": end, "parent": parent}
            for name, start, end, parent in self.spans
        ]
