"""Ambient observability context.

Deep call sites (the simgpu batch kernels, task functions) must not
thread a tracer through every signature, so the active
:class:`ObsContext` — a (tracer, metrics) pair — is held in a
context variable.  The runtime engine activates the parent's context
around serial task execution; worker processes activate a fresh local
context per task and ship its contents back with the result.

When nothing is active, :func:`current_obs` returns the module default:
a :data:`~repro.obs.spans.NULL_TRACER` plus a throwaway registry, so
instrumented code never checks for ``None``.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional

from repro.obs.metrics import Metrics
from repro.obs.spans import NULL_TRACER


@dataclass
class ObsContext:
    """The observability handles one run threads through its layers.

    ``tracer`` is a :class:`~repro.obs.spans.Tracer` or the inert
    :data:`~repro.obs.spans.NULL_TRACER` (same methods, no base class).
    """

    tracer: Any = NULL_TRACER
    metrics: Metrics = field(default_factory=Metrics)


_DEFAULT_OBS = ObsContext()
_ACTIVE: ContextVar[Optional[ObsContext]] = ContextVar("repro_obs", default=None)


def current_obs() -> ObsContext:
    """The active context, or the inert module default."""
    active = _ACTIVE.get()
    return active if active is not None else _DEFAULT_OBS


def current_tracer():
    """Shortcut for ``current_obs().tracer``."""
    return current_obs().tracer


@contextmanager
def activate_obs(obs: ObsContext) -> Iterator[ObsContext]:
    """Make ``obs`` the ambient context for the dynamic extent."""
    token = _ACTIVE.set(obs)
    try:
        yield obs
    finally:
        _ACTIVE.reset(token)
