"""Hierarchical span tracing.

A :class:`Span` is one timed, named region of work; a :class:`Tracer`
collects finished spans and maintains a per-thread stack so spans nest
(pipeline -> stage -> task -> frame).  Timestamps are epoch-anchored but
advance on the monotonic clock, so spans from concurrent worker
processes land on one shared timeline and children always nest inside
their parents within a process.

Workers cannot share a tracer with the parent process, so they record
into a local :class:`Tracer` rooted at a shipped parent span id and
return the finished spans with their results; the engine folds them back
with :meth:`Tracer.merge`, next to the worker's metrics dump.

The default tracer is :data:`NULL_TRACER`, whose ``span()`` is a single
attribute lookup returning a shared no-op context manager — the
disabled path costs essentially nothing.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple


@dataclass
class Span:
    """One finished (or in-flight) region of the run's timeline.

    ``start_ns`` is epoch-anchored (comparable across processes);
    ``duration_ns`` is measured on the monotonic clock.  ``args`` holds
    arbitrary JSON-safe labels (frame index, config name, stage costs).
    """

    span_id: str
    parent_id: Optional[str]
    name: str
    category: str
    start_ns: int
    duration_ns: int
    pid: int
    tid: int
    args: Dict[str, Any] = field(default_factory=dict)

    def set(self, **args: Any) -> None:
        """Attach labels to the span while it is open."""
        self.args.update(args)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "category": self.category,
            "start_ns": self.start_ns,
            "duration_ns": self.duration_ns,
            "pid": self.pid,
            "tid": self.tid,
            "args": dict(self.args),
        }


class _NullSpan:
    """The span handle the disabled tracer yields; ``set`` is a no-op."""

    __slots__ = ()

    def set(self, **args: Any) -> None:
        return None


class _NullSpanContext:
    """Reusable no-op context manager (one shared instance, no state)."""

    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return _NULL_SPAN

    def __exit__(self, *exc_info: Any) -> bool:
        return False


_NULL_SPAN = _NullSpan()
_NULL_SPAN_CONTEXT = _NullSpanContext()


class NullTracer:
    """Disabled tracing: every operation is a cheap no-op.

    This is the default everywhere, so instrumented code never branches
    on "is tracing on" beyond reading :attr:`enabled` for work it would
    otherwise not do (e.g. computing per-stage cost sums for span args).
    """

    enabled = False

    def span(self, name: str, category: str = "run", **args: Any) -> _NullSpanContext:
        return _NULL_SPAN_CONTEXT

    def current_span_id(self) -> Optional[str]:
        return None

    def spans(self) -> Tuple[Span, ...]:
        return ()

    def drain(self) -> List[Span]:
        return []

    def merge(self, spans: Sequence[Span]) -> None:
        return None


#: Shared disabled tracer; safe to use from any thread or process.
NULL_TRACER = NullTracer()


class Tracer:
    """Collects nested spans on an epoch-anchored monotonic timeline.

    Thread-safe: each thread keeps its own span stack (so nesting is
    per-thread), and the finished-span list is lock-protected.  A worker
    process constructs its tracer with ``root_parent_id`` set to the
    span id the parent captured at submit time, which stitches the
    worker's spans into the parent's hierarchy after :meth:`merge`.
    """

    enabled = True

    def __init__(self, root_parent_id: Optional[str] = None) -> None:
        self.root_parent_id = root_parent_id
        self._lock = threading.Lock()
        self._finished: List[Span] = []
        self._counter = 0
        self._pid = os.getpid()
        self._tls = threading.local()
        # Epoch anchor: spans advance on perf_counter (monotonic, so
        # children always nest inside parents) but are reported on the
        # epoch timeline (so parent- and worker-process spans align).
        self._anchor_epoch_ns = time.time_ns()
        self._anchor_perf_ns = time.perf_counter_ns()

    # -- internals ---------------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = []
            self._tls.stack = stack
        return stack

    # -- recording ---------------------------------------------------------

    @contextmanager
    def span(
        self, name: str, category: str = "run", **args: Any
    ) -> Iterator[Span]:
        """Open a nested span; yields the :class:`Span` for ``set()``."""
        stack = self._stack()
        parent_id = stack[-1].span_id if stack else self.root_parent_id
        with self._lock:
            self._counter += 1
            span_id = f"{self._pid}-{self._counter}"
        # One perf sample anchors both the epoch start and the duration,
        # so a child's reported end can never overshoot its parent's.
        start_perf = time.perf_counter_ns()
        record = Span(
            span_id=span_id,
            parent_id=parent_id,
            name=name,
            category=category,
            start_ns=self._anchor_epoch_ns + (start_perf - self._anchor_perf_ns),
            duration_ns=0,
            pid=self._pid,
            tid=threading.get_ident(),
            args=dict(args),
        )
        stack.append(record)
        try:
            yield record
        finally:
            record.duration_ns = time.perf_counter_ns() - start_perf
            stack.pop()
            with self._lock:
                self._finished.append(record)

    def current_span_id(self) -> Optional[str]:
        """The id of this thread's innermost open span (for propagation)."""
        stack = self._stack()
        return stack[-1].span_id if stack else self.root_parent_id

    # -- collection --------------------------------------------------------

    def spans(self) -> Tuple[Span, ...]:
        """All finished spans so far, in completion order."""
        with self._lock:
            return tuple(self._finished)

    def drain(self) -> List[Span]:
        """Remove and return the finished spans (worker -> result ship)."""
        with self._lock:
            finished = self._finished
            self._finished = []
        return finished

    def merge(self, spans: Sequence[Span]) -> None:
        """Fold spans recorded elsewhere (a worker) into this tracer."""
        if not spans:
            return
        with self._lock:
            self._finished.extend(spans)

    def __len__(self) -> int:
        with self._lock:
            return len(self._finished)
