"""Shader vectors: the paper's frame-interval characterization.

A frame interval's *shader vector* counts, for every shader program, how
many draw-calls used it inside the interval.  Shader population is a
stable fingerprint of what the engine is rendering — a menu, a firefight
in zone 2 — so intervals with (near-)equal shader vectors belong to the
same program phase.

Two comparison modes are provided:

- ``equality`` — counts are quantized onto a geometric grid and compared
  exactly (the abstract's "shader vector equality"); tolerance 0 means
  raw-count equality.
- ``similarity`` — vectors match when their relative L1 distance is
  below the tolerance (robust to frame-to-frame count jitter).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.errors import PhaseDetectionError
from repro.gfx.frame import Frame


def shader_vector(frames: Sequence[Frame]) -> Dict[int, int]:
    """Draw-call counts per shader id across ``frames``."""
    if not frames:
        raise PhaseDetectionError("shader_vector requires at least one frame")
    ids, first, counts = np.unique(
        np.concatenate([frame.table.shader_id for frame in frames]),
        return_index=True,
        return_counts=True,
    )
    # In first-use order, so float sums over the vector keep their order.
    order = np.argsort(first)
    return dict(zip(ids[order].tolist(), counts[order].tolist()))


def quantize_count(count: int, tolerance: float) -> int:
    """Quantize a count onto a geometric grid of spacing (1 + tolerance).

    Counts whose ratio is within ~(1 + tolerance) land on the same level,
    so signature equality tolerates that much relative jitter.  Tolerance
    0 keeps raw counts.
    """
    if count < 0:
        raise PhaseDetectionError(f"count must be >= 0, got {count}")
    if tolerance < 0:
        raise PhaseDetectionError(f"tolerance must be >= 0, got {tolerance}")
    if tolerance == 0.0 or count == 0:
        return count
    return round(math.log1p(count) / math.log1p(tolerance) * tolerance)


def interval_signature(
    frames: Sequence[Frame], tolerance: float = 0.0
) -> Tuple[Tuple[int, int], ...]:
    """Hashable quantized shader-vector signature of an interval."""
    vector = shader_vector(frames)
    return tuple(
        sorted((sid, quantize_count(count, tolerance)) for sid, count in vector.items())
    )


def relative_l1_distance(a: Dict[int, int], b: Dict[int, int]) -> float:
    """Symmetric relative L1 distance between two shader vectors.

    ``sum|a_s - b_s| / max(sum a, sum b)``: 0 for identical vectors, up
    to 2 for disjoint shader populations.
    """
    keys = set(a) | set(b)
    if not keys:
        raise PhaseDetectionError("cannot compare two empty shader vectors")
    diff = sum(abs(a.get(k, 0) - b.get(k, 0)) for k in keys)
    scale = max(sum(a.values()), sum(b.values()))
    if scale == 0:
        raise PhaseDetectionError("cannot compare all-zero shader vectors")
    return diff / scale


@dataclass(frozen=True)
class Interval:
    """A contiguous run of frame positions [start, end)."""

    index: int
    start: int
    end: int

    @property
    def num_frames(self) -> int:
        return self.end - self.start

    def frames_of(self, frames: Sequence[Frame]) -> Sequence[Frame]:
        return frames[self.start : self.end]


def partition_intervals(num_frames: int, interval_length: int) -> List[Interval]:
    """Split ``num_frames`` into consecutive intervals.

    The final interval absorbs the remainder (it may be shorter), so
    every frame belongs to exactly one interval.
    """
    if num_frames <= 0:
        raise PhaseDetectionError(f"num_frames must be > 0, got {num_frames}")
    if interval_length <= 0:
        raise PhaseDetectionError(
            f"interval_length must be > 0, got {interval_length}"
        )
    intervals = []
    start = 0
    index = 0
    while start < num_frames:
        end = min(start + interval_length, num_frames)
        intervals.append(Interval(index=index, start=start, end=end))
        start = end
        index += 1
    return intervals
