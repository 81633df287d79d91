"""Machine-wide shared precompute store (content-addressed, mmap-loaded).

Per-frame precompute (:class:`~repro.simgpu.batch.FramePrecomp`) is
config-independent and keyed purely by trace content, yet before this
store every *worker process* of a sweep rebuilt it from scratch —
BENCH_sweep.json put precompute at ~93% of sweep cost.  This module
serializes each frame's arrays into one file under
``.repro/precomp/`` so a machine precomputes each frame exactly once:

``<root>/v<CACHE_FORMAT_VERSION>.<PRECOMP_FORMAT_VERSION>/<d2>/<digest>/<frame>.fpc``

- keyed by the trace content digest (:func:`repro.runtime.keys
  .trace_digest` — the same identity the artifact cache uses) plus both
  format versions, so any change to cache semantics or file layout
  starts a fresh namespace instead of corrupting readers;
- published crash-safely through
  :func:`repro.util.atomicfile.write_atomic`; concurrent publishers of
  the same frame race benignly — content-addressed means both write
  identical bytes and the last rename wins atomically;
- loaded **zero-copy** via ``np.memmap``: workers map the arrays
  read-only straight out of the page cache instead of recomputing or
  unpickling them, and frames of the same trace share one mapping per
  file.

File format (``.fpc``): a magic line, an 8-byte little-endian header
length, a JSON header (frame index, draw count, pass spans, and per
array name/dtype/shape/offset), then the raw array blobs, each aligned
to 64 bytes.  Anything unreadable — truncated write from a crash,
foreign bytes — is evicted and recomputed, never trusted.

Store location: ``$REPRO_PRECOMP_DIR`` (CLI ``--precomp-dir``); unset
means the default ``.repro/precomp``, an *empty* value disables the
store entirely (mirroring ``$REPRO_RUN_STORE``).
"""

from __future__ import annotations

import json
import os
import struct
import threading
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.util.atomicfile import write_atomic

#: Environment override for the store root ("" disables the store).
PRECOMP_DIR_ENV = "REPRO_PRECOMP_DIR"

#: Environment override for the in-process memo's trace capacity.
PRECOMP_MEMO_ENV = "REPRO_PRECOMP_MEMO_TRACES"

#: Default in-process memo capacity (traces), when the env is unset.
DEFAULT_MEMO_TRACES = 2

#: Bump on any .fpc layout change; pairs with CACHE_FORMAT_VERSION in
#: the versioned directory name so stale files are never read.
PRECOMP_FORMAT_VERSION = 1

_MAGIC = b"RPPC01\n"
_ALIGN = 64

#: FramePrecomp array fields serialized into the blob section, in file
#: order.  (``pass_spans`` rides in the JSON header; ``draws`` holds
#: only length information and is reconstructed as placeholders.)
ARRAY_FIELDS: Tuple[str, ...] = (
    "verts",
    "prims",
    "cull_none",
    "pix_rast",
    "pix_shaded",
    "stride",
    "vs_alu",
    "vs_tex",
    "vs_branch",
    "vs_regs",
    "ps_alu",
    "ps_tex",
    "ps_branch",
    "ps_regs",
    "footprint",
    "color_bpp",
    "n_color",
    "blend_dest",
    "depth_reads",
    "depth_writes",
    "depth_bpp",
    "noise_units",
    "shader_switch",
    "state_switch",
    "rt_switch",
    "tex_slot_sizes",
    "tex_slot_reuse",
    "tex_slot_offsets",
    "tex_totals",
)


def default_precomp_dir() -> Optional[Path]:
    """The store root: env override, ``.repro/precomp``, or ``None`` (off)."""
    raw = os.environ.get(PRECOMP_DIR_ENV)
    if raw is None:
        return Path(".repro") / "precomp"
    raw = raw.strip()
    if not raw:
        return None
    return Path(raw).expanduser()


def set_precomp_dir(value: str) -> None:
    """Point the store at ``value`` process-wide (workers inherit it).

    An empty string disables the store.  Also resets the active-store
    singleton so the change takes effect immediately in this process.
    """
    os.environ[PRECOMP_DIR_ENV] = value
    reset_active_store()


def memo_trace_limit() -> int:
    """In-process precompute memo capacity, in traces (min 1)."""
    raw = os.environ.get(PRECOMP_MEMO_ENV, "").strip()
    if not raw:
        return DEFAULT_MEMO_TRACES
    try:
        return max(1, int(raw))
    except ValueError:
        return DEFAULT_MEMO_TRACES


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def _version_dirname() -> str:
    from repro.runtime.keys import CACHE_FORMAT_VERSION

    return f"v{CACHE_FORMAT_VERSION}.{PRECOMP_FORMAT_VERSION}"


def _serialize_frame(fp: "FramePrecomp") -> bytes:  # noqa: F821
    """One frame's arrays as the on-disk ``.fpc`` byte string."""
    blobs: List[bytes] = []
    arrays_meta: Dict[str, Dict[str, object]] = {}
    relative = 0
    for name in ARRAY_FIELDS:
        array = np.ascontiguousarray(getattr(fp, name))
        blob = array.tobytes()
        relative = _align(relative)
        arrays_meta[name] = {
            "dtype": array.dtype.str,
            "shape": list(array.shape),
            "offset": relative,
        }
        blobs.append(blob)
        relative += len(blob)
    header = {
        "format": PRECOMP_FORMAT_VERSION,
        "frame_index": fp.frame_index,
        "num_draws": fp.num_draws,
        "pass_spans": [list(span) for span in fp.pass_spans],
        "arrays": arrays_meta,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    data_start = _align(len(_MAGIC) + 8 + len(header_bytes))
    parts = [_MAGIC, struct.pack("<Q", len(header_bytes)), header_bytes]
    position = len(_MAGIC) + 8 + len(header_bytes)
    for name, blob in zip(ARRAY_FIELDS, blobs):
        absolute = data_start + int(arrays_meta[name]["offset"])  # type: ignore[arg-type]
        parts.append(b"\0" * (absolute - position))
        parts.append(blob)
        position = absolute + len(blob)
    return b"".join(parts)


class PrecompStoreError(Exception):
    """Internal: an ``.fpc`` file failed validation (evict + recompute)."""


class PrecompStore:
    """Content-addressed per-frame precompute files with mmap loads.

    Thread-safe: the mmap-handle registry is guarded by ``self._lock``;
    all file I/O (publish writes, memmap opens) happens *outside* the
    lock, so a slow disk never serializes readers (CONC002 discipline).
    Publishing needs no lock at all — the atomic write replaces the
    file in one step and content-addressing makes double-publish
    idempotent.
    """

    def __init__(self, root: Path) -> None:
        self.root = Path(root)
        self._lock = threading.Lock()
        # One read-only mapping per loaded file; dropped (not hard-
        # closed) by close_handles so live FramePrecomp views stay
        # valid while letting the OS reclaim replaced/deleted files.
        self._mmaps: Dict[Path, np.memmap] = {}

    # -- paths ------------------------------------------------------------

    def trace_dir(self, digest: str) -> Path:
        return self.root / _version_dirname() / digest[:2] / digest

    def frame_path(self, digest: str, frame_index: int) -> Path:
        return self.trace_dir(digest) / f"{frame_index:06d}.fpc"

    # -- publishing -------------------------------------------------------

    def has(self, digest: str, frame_index: int) -> bool:
        return self.frame_path(digest, frame_index).exists()

    def publish(self, digest: str, fp: "FramePrecomp") -> bool:  # noqa: F821
        """Write one frame's arrays; returns False if already present.

        Crash-safe and race-safe through
        :func:`~repro.util.atomicfile.write_atomic`: concurrent
        publishers write identical bytes, so whichever rename lands
        last leaves the same content.
        """
        path = self.frame_path(digest, fp.frame_index)
        if path.exists():
            return False
        payload = _serialize_frame(fp)
        path.parent.mkdir(parents=True, exist_ok=True)
        write_atomic(path, payload)
        return True

    # -- loading ----------------------------------------------------------

    def _mapping(self, path: Path) -> np.memmap:
        with self._lock:
            cached = self._mmaps.get(path)
        if cached is not None:
            return cached
        mapping = np.memmap(path, dtype=np.uint8, mode="r")
        with self._lock:
            # Another thread may have mapped the same file concurrently;
            # keep the first mapping so views share pages.
            return self._mmaps.setdefault(path, mapping)

    def load(self, digest: str, frame_index: int) -> Optional["FramePrecomp"]:  # noqa: F821
        """Map one frame read-only, or ``None`` (missing / evicted).

        Array fields are zero-copy views into the file's mapping; any
        structural problem evicts the file so the caller recomputes and
        republishes instead of failing the sweep.
        """
        path = self.frame_path(digest, frame_index)
        if not path.exists():
            return None
        try:
            return self._load_frame(path, frame_index)
        except Exception:
            self._evict(path)
            return None

    def _load_frame(self, path: Path, frame_index: int) -> "FramePrecomp":  # noqa: F821
        from repro.simgpu.batch import FramePrecomp

        mapping = self._mapping(path)
        if bytes(mapping[: len(_MAGIC)]) != _MAGIC:
            raise PrecompStoreError(f"bad magic in {path}")
        (header_len,) = struct.unpack(
            "<Q", bytes(mapping[len(_MAGIC) : len(_MAGIC) + 8])
        )
        header_end = len(_MAGIC) + 8 + header_len
        header = json.loads(bytes(mapping[len(_MAGIC) + 8 : header_end]))
        if header["format"] != PRECOMP_FORMAT_VERSION:
            raise PrecompStoreError(f"format {header['format']} in {path}")
        if header["frame_index"] != frame_index:
            raise PrecompStoreError(f"frame index mismatch in {path}")
        data_start = _align(header_end)
        arrays: Dict[str, np.ndarray] = {}
        for name in ARRAY_FIELDS:
            meta = header["arrays"][name]
            dtype = np.dtype(meta["dtype"])
            shape = tuple(meta["shape"])
            count = int(np.prod(shape)) if shape else 1
            start = data_start + meta["offset"]
            end = start + count * dtype.itemsize
            if end > mapping.shape[0]:
                raise PrecompStoreError(f"truncated blob {name!r} in {path}")
            arrays[name] = mapping[start:end].view(dtype).reshape(shape)
        num_draws = int(header["num_draws"])
        return FramePrecomp(
            frame_index=int(header["frame_index"]),
            pass_spans=[
                (str(span[0]), int(span[1]), int(span[2]))
                for span in header["pass_spans"]
            ],
            num_draws=num_draws,
            **arrays,
        )

    def _evict(self, path: Path) -> None:
        with self._lock:
            self._mmaps.pop(path, None)
        try:
            os.unlink(path)
        except OSError:
            pass

    def close_handles(self) -> None:
        """Drop all cached mappings (long-lived executors, tests).

        References are released rather than hard-closed: mappings whose
        views are still held by live ``FramePrecomp`` objects survive
        until those views go away, everything else is reclaimed — so a
        service executor that clears caches never pins deleted files.
        """
        with self._lock:
            self._mmaps.clear()

    def open_handle_count(self) -> int:
        with self._lock:
            return len(self._mmaps)


# ---------------------------------------------------------------------------
# Active-store singleton (env-keyed, shared with the runtime + CLI)
# ---------------------------------------------------------------------------

_ACTIVE: Optional[Tuple[Optional[str], Optional[PrecompStore]]] = None
_ACTIVE_LOCK = threading.Lock()


def active_store() -> Optional[PrecompStore]:
    """The process's store for the current ``$REPRO_PRECOMP_DIR``.

    Re-resolved whenever the env value changes (tests, ``--precomp-dir``)
    and ``None`` when the store is disabled.
    """
    global _ACTIVE
    key = os.environ.get(PRECOMP_DIR_ENV)
    with _ACTIVE_LOCK:
        if _ACTIVE is not None and _ACTIVE[0] == key:
            return _ACTIVE[1]
        root = default_precomp_dir()
        store = PrecompStore(root) if root is not None else None
        _ACTIVE = (key, store)
        return store


def reset_active_store() -> None:
    """Drop the singleton and its mmap handles (tests, cache clears)."""
    global _ACTIVE
    with _ACTIVE_LOCK:
        active = _ACTIVE
        _ACTIVE = None
    if active is not None and active[1] is not None:
        active[1].close_handles()
