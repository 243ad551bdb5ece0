"""In-memory span recorder that wraps signedgl functions from outside.

Spans are taken around calls into each layer's public functions by
replacing the module attribute that callers look up at call time
(``signedgl.harness.gl_binary``, ``signedgl.classifier.project_rows_onto_simplex``
and so on).  No source file of the package changes.  Spans stay in a
list until the run ends; ``write_jsonl`` dumps them.
"""

from __future__ import annotations

import importlib
import json
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    ident: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; single-threaded, parents come from a stack."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, time.perf_counter(), parent=parent, ident=len(self.spans))
        self.spans.append(span)
        self._stack.append(span.ident)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        if self._stack.pop() != span.ident:
            raise RuntimeError(f"span {span.name} closed out of order")

    def wrap(self, module_name: str, attr: str, span_name: str, describe=None) -> None:
        """Replace ``module.attr`` by a recording wrapper until ``unwrap``.

        ``describe(args, kwargs, result)`` returns attributes stored on the span.
        """
        module = importlib.import_module(module_name)
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            span = self.open(span_name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(span)
            if describe is not None:
                span.attrs.update(describe(args, kwargs, result))
            return result

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, original))

    def unwrap(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.ident, "name": s.name, "parent": s.parent,
                    "start": s.start, "end": s.end,
                    "attrs": {k: v for k, v in s.attrs.items() if not k.startswith("_")},
                }) + "\n")


def _union_length(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for a, b in sorted(intervals):
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> tuple[list[float], list[float]]:
    """(self time, child-covered time) of every span.

    Self time is the span's duration minus the part of its interval that
    its direct children cover.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    covered = [
        _union_length((max(a, s.start), min(b, s.end)) for a, b in children.get(s.ident, []))
        for s in spans
    ]
    return [s.duration - c for s, c in zip(spans, covered)], covered
