"""In-memory span tracer that wraps module and class attributes from outside.

A span records its name, start, end, parent span and root span. Spans
nest by call order (the benchmark is single-threaded), are kept in memory
and written out once at the end. A layer's self time is its span's
duration minus the durations of its direct children.

Wrapping replaces an attribute until `restore` (or leaving the tracer's
`with` block) puts the original back. A name that no longer exists is
recorded in `missing` instead of raising, so the benchmark keeps running
after the program is refactored.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Optional

_NOTE_ERRORS = (AttributeError, IndexError, KeyError, TypeError, ValueError)


@dataclass
class Span:
    name: str
    start: float
    end: float
    span_id: int
    parent: Optional[int]
    root: int
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from the attributes it wraps until `restore` puts the
    originals back; spans and ids carry on across several wrap/restore
    rounds. As a context manager it restores on exit."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: set[str] = set()
        self.note_errors = 0
        self._stack: list[int] = []
        self._next_id = 0
        self._restore: list[Callable[[], None]] = []

    # ---------------------------------------------------------------- spans

    def _open(self) -> tuple[int, Optional[int], int]:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        root = self._stack[0] if self._stack else span_id
        self._stack.append(span_id)
        return span_id, parent, root

    def _close(self, name, start, ids) -> Span:
        end = time.perf_counter()
        self._stack.pop()
        span = Span(name, start, end, *ids)
        self.spans.append(span)
        return span

    @contextmanager
    def phase(self, name: str):
        """A span opened by the benchmark itself around one of its phases."""
        ids = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(name, start, ids)

    def _traced(self, fn, name, note):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            ids = self._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = self._close(name, start, ids)
            if note is not None:
                try:
                    note(span.attrs, args, kwargs, result)
                except _NOTE_ERRORS:
                    self.note_errors += 1
            return result

        return traced

    # ------------------------------------------------------------- wrapping

    def wrap(self, module: str, attr: str, name: str, note=None):
        """Replace `module.attr` (or `module.Class.method`) with a traced
        version. `note(attrs, args, kwargs, result)` may add counts to the
        span after the call returns."""
        where = f"{module}.{attr}"
        try:
            owner = importlib.import_module(module)
        except ImportError:
            self.missing.add(where)
            return
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        if owner is None or leaf not in vars(owner):
            self.missing.add(where)
            return
        raw = vars(owner)[leaf]
        if isinstance(raw, classmethod):
            patched = classmethod(self._traced(raw.__func__, name, note))
        elif callable(raw):
            patched = self._traced(raw, name, note)
        else:
            self.missing.add(where)
            return
        setattr(owner, leaf, patched)
        self._restore.append(lambda: setattr(owner, leaf, raw))

    def restore(self):
        while self._restore:
            self._restore.pop()()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # ------------------------------------------------------------- analysis

    def self_seconds(self) -> dict[int, float]:
        """span_id -> duration minus the durations of direct children."""
        own = {s.span_id: s.seconds for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.seconds
        return own

    def write(self, path):
        """One JSON object per span; attributes that are not numbers or
        strings (kept models, arrays) are left out."""
        with open(path, "w") as f:
            for s in sorted(self.spans, key=lambda s: s.span_id):
                attrs = {k: v for k, v in s.attrs.items()
                         if isinstance(v, (int, float, str))}
                f.write(json.dumps({"id": s.span_id, "parent": s.parent, "root": s.root,
                                    "name": s.name, "start": s.start, "end": s.end,
                                    **attrs}) + "\n")
