"""Live progress telemetry for long-running task fan-outs.

A :class:`ProgressReporter` receives completion and heartbeat callbacks
from the task engine and turns them into two things at once:

- human-readable progress lines on stderr (``--progress``): tasks done,
  frames simulated, frames/sec, elapsed time, and an ETA, all counted
  since the current engine run began (:meth:`ProgressReporter.begin`)
  — so a long sweep is observable *while running*, not just
  post-mortem;
- ``progress_*`` gauges on the run's metrics registry, so the final
  snapshot (and the appended run record) carries the last observed
  throughput.

Emission is throttled to ``interval_s`` between lines (completion of the
final task always emits), so a thousand fast tasks cost a handful of
writes.  The default :data:`NULL_PROGRESS` makes every callback a no-op;
the engine never branches on "is progress on".
"""

from __future__ import annotations

import sys
import time
from typing import IO, Any, Optional


class NullProgress:
    """Disabled progress: every callback is a cheap no-op."""

    enabled = False

    #: Pool wait timeout when no heartbeats are wanted (block forever).
    heartbeat_interval_s: Optional[float] = None

    def begin(self, total_tasks: int) -> None:
        return None

    def task_done(self, done: int, total: int, frames: int) -> None:
        return None

    def heartbeat(self, done: int, total: int, frames: int) -> None:
        return None

    def finish(self, done: int, total: int, frames: int) -> None:
        return None


#: Shared disabled reporter; safe from any thread.
NULL_PROGRESS = NullProgress()


class ProgressReporter:
    """Throttled progress lines plus ``progress_*`` gauges.

    ``metrics`` is the run's :class:`~repro.obs.metrics.Metrics`
    registry (optional — a reporter can be purely textual).  ``stream``
    defaults to stderr so progress never pollutes the stdout tables.
    """

    enabled = True

    def __init__(
        self,
        stream: Optional[IO[str]] = None,
        metrics: Optional[Any] = None,
        interval_s: float = 0.5,
        heartbeat_interval_s: float = 2.0,
    ) -> None:
        self._stream = stream if stream is not None else sys.stderr
        self._metrics = metrics
        self._interval_s = float(interval_s)
        self.heartbeat_interval_s = float(heartbeat_interval_s)
        self._started: Optional[float] = None
        self._last_emit = float("-inf")
        self.lines_emitted = 0

    # -- engine callbacks --------------------------------------------------

    def begin(self, total_tasks: int) -> None:
        self._started = time.perf_counter()
        self._last_emit = float("-inf")
        self._gauge("progress_tasks_total", float(total_tasks))

    def task_done(self, done: int, total: int, frames: int) -> None:
        self._record(done, total, frames)
        final = done >= total
        if final or self._due():
            self._emit("progress", done, total, frames)

    def heartbeat(self, done: int, total: int, frames: int) -> None:
        self._record(done, total, frames)
        if self._due():
            self._emit("heartbeat", done, total, frames)

    def finish(self, done: int, total: int, frames: int) -> None:
        self._record(done, total, frames)

    # -- internals ---------------------------------------------------------

    def _elapsed(self) -> float:
        if self._started is None:
            self._started = time.perf_counter()
        return time.perf_counter() - self._started

    def _due(self) -> bool:
        return time.perf_counter() - self._last_emit >= self._interval_s

    def _rate(self, frames: int, elapsed: float) -> float:
        return frames / elapsed if elapsed > 0 else 0.0

    def _eta_s(self, done: int, total: int, elapsed: float) -> Optional[float]:
        if done <= 0 or done >= total or elapsed <= 0:
            return None
        return elapsed * (total - done) / done

    def _gauge(self, name: str, value: float) -> None:
        if self._metrics is not None:
            self._metrics.gauge(name, value)

    def _record(self, done: int, total: int, frames: int) -> None:
        elapsed = self._elapsed()
        self._gauge("progress_tasks_done", float(done))
        self._gauge("progress_tasks_total", float(total))
        self._gauge("progress_frames_per_s", self._rate(frames, elapsed))
        eta = self._eta_s(done, total, elapsed)
        if eta is not None:
            self._gauge("progress_eta_s", eta)

    def _emit(self, kind: str, done: int, total: int, frames: int) -> None:
        elapsed = self._elapsed()
        parts = [
            f"tasks {done}/{total}"
            + (f" ({100.0 * done / total:.0f}%)" if total else ""),
            f"frames {frames} ({self._rate(frames, elapsed):.1f}/s)",
            f"elapsed {elapsed:.1f}s",
        ]
        eta = self._eta_s(done, total, elapsed)
        if eta is not None:
            parts.append(f"eta {eta:.1f}s")
        self._stream.write(f"[{kind}] " + " | ".join(parts) + "\n")
        self._stream.flush()
        self._last_emit = time.perf_counter()
        self.lines_emitted += 1
