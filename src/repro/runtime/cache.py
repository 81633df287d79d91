"""Content-addressed artifact cache.

Simulation and clustering artifacts are keyed by
:func:`repro.runtime.keys.task_key` and persisted as pickles under a
cache directory, sharded by key prefix::

    <cache_dir>/ab/abcdef....pkl

A clustering key encodes every input plus the format version, so its
entry is either absent or holds the one true value, and invalidation is
simply "the key changed".  A simulation entry is one table per (trace
content, kind): a dict from :func:`~repro.runtime.keys.config_digest`
to that config's value, which only ever gains rows.  The runtime
re-reads a table and merges its new rows right before each put, so a
concurrent writer loses rows only when two puts land at once, and a
lost row is recomputed later, never wrong.  Writes go through
:func:`repro.util.atomicfile.write_atomic`, so an interrupted sweep
never leaves a truncated entry behind — and if one appears anyway (disk
fault, manual tampering), :meth:`ArtifactCache.get` evicts it and
reports a miss, so the caller transparently recomputes.
"""

from __future__ import annotations

import os
import pickle
import time
from pathlib import Path
from typing import Any, Optional, Union

from repro.errors import ConfigError
from repro.obs.metrics import Metrics
from repro.util.atomicfile import write_atomic

#: Environment variable overriding the default cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


class _Miss:
    """Sentinel distinguishing 'not cached' from a cached ``None``."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<CACHE_MISS>"


CACHE_MISS = _Miss()


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` or ``~/.cache/repro``."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro"


class NullCache:
    """The no-op cache: every lookup misses, every store is dropped.

    Used when caching is disabled (``--no-cache``, or a library caller
    that wants pure recomputation) so the engine never branches on
    "is there a cache".
    """

    def get(self, key: str) -> Any:
        return CACHE_MISS

    def put(self, key: str, value: Any) -> None:
        return None


class ArtifactCache:
    """Durable content-addressed store for runtime artifacts.

    ``metrics`` (the owning runtime's registry, or a fresh one) receives
    ``cache_hits`` / ``cache_misses`` / ``cache_puts`` /
    ``cache_corrupt_evicted`` counts and the ``cache_lookup_s``
    histogram.
    """

    def __init__(
        self,
        cache_dir: Union[str, Path, None] = None,
        metrics: Optional[Metrics] = None,
    ) -> None:
        self.cache_dir = Path(cache_dir) if cache_dir is not None else default_cache_dir()
        self.metrics = metrics if metrics is not None else Metrics()
        self.cache_dir.mkdir(parents=True, exist_ok=True)

    # -- internals ---------------------------------------------------------

    def _path(self, key: str) -> Path:
        if not key or any(c not in "0123456789abcdef" for c in key):
            raise ConfigError(f"cache keys are lowercase hex digests, got {key!r}")
        return self.cache_dir / key[:2] / f"{key}.pkl"

    def _evict(self, path: Path) -> None:
        self.metrics.inc("cache_corrupt_evicted")
        try:
            path.unlink()
        except OSError:
            pass

    # -- public API --------------------------------------------------------

    def get(self, key: str) -> Any:
        """The cached value for ``key``, or :data:`CACHE_MISS`.

        A corrupted entry (truncated or foreign pickle) is deleted and
        reported as a miss — recomputation heals the cache.  Lookup
        latency lands in the ``cache_lookup_s`` histogram.
        """
        start = time.perf_counter()
        try:
            return self._get(key)
        finally:
            self.metrics.observe("cache_lookup_s", time.perf_counter() - start)

    def _get(self, key: str) -> Any:
        path = self._path(key)
        try:
            with open(path, "rb") as stream:
                value = pickle.load(stream)
        except FileNotFoundError:
            self.metrics.inc("cache_misses")
            return CACHE_MISS
        except Exception:
            self._evict(path)
            self.metrics.inc("cache_misses")
            return CACHE_MISS
        self.metrics.inc("cache_hits")
        return value

    def put(self, key: str, value: Any) -> None:
        """Pickle ``value`` under ``key`` (atomic; last writer wins)."""
        path = self._path(key)
        data = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        path.parent.mkdir(parents=True, exist_ok=True)
        write_atomic(path, data)
        self.metrics.inc("cache_puts")

    def __contains__(self, key: str) -> bool:
        return self._path(key).exists()
