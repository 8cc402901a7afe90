"""In-memory span tracer that wraps the library's public entry points.

A span is ``(id, name, start, end, parent, attrs)``; parents come from a
per-thread stack, so spans opened by the service's worker threads nest
under whatever those threads were doing, never under the caller's span.
A layer's self time is its span's duration minus the durations of its
direct children (children are strictly nested in the same thread).

Tracing is opt-in: :meth:`Tracer.install` swaps wrappers onto module
functions and class methods, :meth:`Tracer.uninstall` restores the
originals, so untraced code runs the library unmodified.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: ``hook(attrs, args, kwargs, result)`` adds counts to a finished span.
ResultHook = Callable[[Dict[str, Any], tuple, dict, Any], None]


@dataclass
class Span:
    sid: int
    name: str
    start: float
    parent: Optional[int]
    end: float = 0.0
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next = 0
        self._patches: List[Tuple[Any, str, Callable, str, Optional[ResultHook]]] = []
        self._saved: List[Tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        stack = self._stack()
        with self._lock:
            sid = self._next
            self._next += 1
        record = Span(sid, name, 0.0, stack[-1] if stack else None, attrs=attrs)
        stack.append(sid)
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    # -- wrapping ----------------------------------------------------
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        hook: Optional[ResultHook] = None,
    ) -> None:
        """Register ``owner.attr`` to be traced as ``name`` once installed."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original, name, hook))

    def _wrapper(self, function: Callable, name: str, hook: Optional[ResultHook]) -> Callable:
        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name) as record:
                result = function(*args, **kwargs)
                if hook is not None:
                    hook(record.attrs, args, kwargs, result)
                return result

        return traced

    def install(self) -> None:
        if self._saved:
            return
        for owner, attr, original, name, hook in self._patches:
            setattr(owner, attr, self._wrapper(original, name, hook))
            self._saved.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    @contextlib.contextmanager
    def active(self) -> Iterator["Tracer"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- analysis ----------------------------------------------------
    def snapshot(self) -> List[Span]:
        with self._lock:
            return list(self.spans)

    def self_times(self, spans: Optional[List[Span]] = None) -> Dict[int, float]:
        """Span id → duration minus the durations of its direct children."""
        spans = self.snapshot() if spans is None else spans
        own = {s.sid: s.duration for s in spans}
        for s in spans:
            if s.parent is not None and s.parent in own:
                own[s.parent] -= s.duration
        return own

    def descendants(self, root: int, spans: Optional[List[Span]] = None) -> List[Span]:
        """Every span below ``root`` (not including it)."""
        spans = self.snapshot() if spans is None else spans
        children: Dict[int, List[Span]] = {}
        for s in spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        found: List[Span] = []
        todo = [root]
        while todo:
            for child in children.get(todo.pop(), []):
                found.append(child)
                todo.append(child.sid)
        return found

    def by_layer(self, spans: List[Span], own: Dict[int, float]) -> Dict[str, float]:
        """Layer name → summed self time over ``spans``."""
        totals: Dict[str, float] = {}
        for s in spans:
            totals[s.name] = totals.get(s.name, 0.0) + own[s.sid]
        return totals
