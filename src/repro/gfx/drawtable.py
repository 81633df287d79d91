"""Columnar draw storage: a frame's draws as numpy columns.

A :class:`DrawTable` holds every :class:`~repro.gfx.drawcall.DrawCall`
field of a frame's draws as one numpy column, so the loaders, the
feature matrix, the precompute pass and the trace digest work a column
at a time instead of a draw at a time.  It is the canonical draw
storage: the loaders and the synthetic generator fill it through its
one checked constructor (:meth:`DrawTable.checked`), and
``validate_trace`` and the writers read it.  A ``DrawCall`` is a view
built from one row (:meth:`DrawTable.draw`) for the sequential
reference simulator, the per-frame predictor and tests.

Columns (one entry per draw unless noted):

- int64 ``shader_id``, ``vertex_count``, ``instance_count``,
  ``pixels_rasterized``, ``pixels_shaded``, ``vertex_stride`` and
  ``depth_target`` (``-1`` means no depth target);
- uint8 enum codes ``topology``, ``depth``, ``blend``, ``cull`` and
  ``pass_type``, from the one code table :data:`ENCODE`;
- the bound texture and render-target ids, each a flat int64 array plus
  ``n + 1`` int64 offsets: draw ``i`` binds
  ``texture_ids[texture_offsets[i]:texture_offsets[i + 1]]``.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ValidationError
from repro.gfx.drawcall import DrawCall
from repro.gfx.enums import (
    BlendMode,
    CullMode,
    DepthMode,
    PassType,
    PrimitiveTopology,
    TextureFormat,
)
from repro.gfx.state import PipelineState

#: One-byte code per enum member, assigned by definition order.  This is
#: the one code table of the columns and of the binary trace format, so
#: it is append-only: extending an enum must append, or the binary
#: format version must bump.
CODED_ENUMS = (PrimitiveTopology, TextureFormat, DepthMode, BlendMode, CullMode, PassType)
ENCODE: Dict[type, Dict[object, int]] = {
    enum_type: {member: code for code, member in enumerate(enum_type)}
    for enum_type in CODED_ENUMS
}
#: Code -> member, per enum.
DECODE: Dict[type, Tuple[object, ...]] = {
    enum_type: tuple(enum_type) for enum_type in CODED_ENUMS
}
#: Primitives per instance = ``vertex_count // divisor``, by topology
#: code; divisor 0 is the strip rule ``max(0, vertex_count - 2)``.  The
#: column form of :meth:`PrimitiveTopology.primitives_for_vertices`.
_PRIMITIVE_DIVISOR = np.array(
    [
        {
            PrimitiveTopology.POINT_LIST: 1,
            PrimitiveTopology.LINE_LIST: 2,
            PrimitiveTopology.TRIANGLE_LIST: 3,
            PrimitiveTopology.TRIANGLE_STRIP: 0,
        }[topology]
        for topology in PrimitiveTopology
    ],
    dtype=np.int64,
)
#: Fixed-function flags by code: the column form of the enum properties.
_READS_DEPTH = np.array([mode.reads_depth for mode in DepthMode])
_WRITES_DEPTH = np.array([mode.writes_depth for mode in DepthMode])
_READS_DESTINATION = np.array([mode.reads_destination for mode in BlendMode])
_CULL_DISABLED = np.array([mode is CullMode.NONE for mode in CullMode])
#: :data:`ENCODE` by member identity, ``CODE_OF[id(member)]``: enum
#: members are singletons and ``Enum.__hash__`` is a python-level call,
#: measurable once per draw.
CODE_OF: Dict[int, int] = {
    id(member): code for table in ENCODE.values() for member, code in table.items()
}

INT_COLUMNS = (
    "shader_id",
    "vertex_count",
    "instance_count",
    "pixels_rasterized",
    "pixels_shaded",
    "vertex_stride",
    "depth_target",
)
#: (column, enum) of the uint8 code columns.
CODE_COLUMNS: Tuple[Tuple[str, type], ...] = (
    ("topology", PrimitiveTopology),
    ("depth", DepthMode),
    ("blend", BlendMode),
    ("cull", CullMode),
    ("pass_type", PassType),
)
#: (flat ids, offsets) column pairs of the per-draw id lists.
ID_LISTS = (
    ("texture_ids", "texture_offsets"),
    ("render_target_ids", "render_target_offsets"),
)
COLUMNS = (
    INT_COLUMNS
    + tuple(name for name, _ in CODE_COLUMNS)
    + tuple(name for pair in ID_LISTS for name in pair)
)
#: The per-draw values :meth:`DrawTable.checked` takes, one sequence
#: each: the int columns (``depth_target`` an id or ``None``), the enum
#: codes, then the texture and render-target id lists.
VALUE_FIELDS = INT_COLUMNS + tuple(name for name, _ in CODE_COLUMNS) + tuple(
    ids_name for ids_name, _ in ID_LISTS
)


def offsets_from_lengths(lengths: Sequence[int]) -> np.ndarray:
    """The ``n + 1`` int64 offsets of ``n`` consecutive segments."""
    offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    offsets[1:] = np.cumsum(np.asarray(lengths, dtype=np.int64))
    return offsets


def _int_column(field: str, values: Sequence[object]) -> np.ndarray:
    """``values`` as an int64 column, accepting Python ints only.

    numpy would silently take ``True`` as 1 and ``3.5`` as 3, so the
    types are checked first, exactly as ``DrawCall`` checks them.
    """
    if not set(map(type, values)) <= {int}:
        bad = next(v for v in values if type(v) is not int)
        raise ValidationError(f"{field} must be int, got {type(bad).__name__} {bad!r}")
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        raise ValidationError(f"{field} value outside the int64 range") from None


def _depth_target_column(field: str, values: Sequence[object]) -> np.ndarray:
    """The ``depth_target`` column: an id, or ``None`` stored as -1."""
    bound = np.array([v is not None for v in values], dtype=bool)
    ids = _int_column(field, [v for v in values if v is not None])
    if (ids < 0).any():
        raise ValidationError(f"{field} must be >= 0 or null, got {int(ids.min())}")
    column = np.full(len(values), -1, dtype=np.int64)
    column[bound] = ids
    return column


def _id_list_columns(field: str, lists: Sequence[object]) -> Tuple[np.ndarray, np.ndarray]:
    """Per-draw id lists (lists or tuples) as (flat int64 ids, offsets)."""
    if not set(map(type, lists)) <= {list, tuple}:
        raise ValidationError(f"{field} must be a list of ids")
    ids = _int_column(f"{field}[*]", list(chain.from_iterable(lists)))  # type: ignore[arg-type]
    return ids, offsets_from_lengths(list(map(len, lists)))  # type: ignore[arg-type]


def _take_lists(
    ids: np.ndarray, offsets: np.ndarray, rows: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """The id lists of ``rows``, in that order, as (flat ids, offsets)."""
    starts = offsets[rows]
    lengths = offsets[rows + 1] - starts
    new_offsets = offsets_from_lengths(lengths)
    slots = np.repeat(starts - new_offsets[:-1], lengths) + np.arange(new_offsets[-1])
    return ids[slots], new_offsets


class DrawTable:
    """One frame's draws as numpy columns (see the module docstring).

    Columns are read-only arrays.  :meth:`validate` is the
    column-at-a-time form of ``DrawCall.__post_init__``; every table the
    loaders, the generator and :meth:`from_draws` build passes it.
    """

    __slots__ = COLUMNS

    shader_id: np.ndarray
    vertex_count: np.ndarray
    instance_count: np.ndarray
    pixels_rasterized: np.ndarray
    pixels_shaded: np.ndarray
    vertex_stride: np.ndarray
    depth_target: np.ndarray
    topology: np.ndarray
    depth: np.ndarray
    blend: np.ndarray
    cull: np.ndarray
    pass_type: np.ndarray
    texture_ids: np.ndarray
    texture_offsets: np.ndarray
    render_target_ids: np.ndarray
    render_target_offsets: np.ndarray

    def __init__(self, **columns: object) -> None:
        if set(columns) != set(COLUMNS):
            raise ValidationError(
                f"DrawTable needs exactly the columns {COLUMNS}, got {sorted(columns)}"
            )
        codes = {name for name, _ in CODE_COLUMNS}
        for name in COLUMNS:
            dtype = np.uint8 if name in codes else np.int64
            array = np.array(columns[name], dtype=dtype)
            array.flags.writeable = False
            setattr(self, name, array)
        n = len(self.shader_id)
        for name in INT_COLUMNS[1:] + tuple(codes):
            if getattr(self, name).shape != (n,):
                raise ValidationError(f"DrawTable.{name} must have {n} entries")
        for ids_name, offsets_name in ID_LISTS:
            ids, offsets = getattr(self, ids_name), getattr(self, offsets_name)
            if (
                ids.ndim != 1
                or offsets.shape != (n + 1,)
                or offsets[0] != 0
                or offsets[-1] != len(ids)
                or (np.diff(offsets) < 0).any()
            ):
                raise ValidationError(
                    f"DrawTable.{offsets_name} must rise from 0 to len({ids_name}) "
                    f"over {n + 1} entries"
                )

    @classmethod
    def checked(
        cls, values: Sequence[Sequence[object]], labels: Sequence[str] = VALUE_FIELDS
    ) -> "DrawTable":
        """The validated table of per-draw Python values, one sequence per
        :data:`VALUE_FIELDS` entry; ``labels`` name them in error messages.

        The one checked constructor of the loaders and the generator: the
        ints and ids must be Python ints (no bool, float or numpy
        integer), then :meth:`validate` runs.
        """
        ints, codes = values[: len(INT_COLUMNS)], values[len(INT_COLUMNS) : -2]
        lists = {}
        for (ids_name, offsets_name), label, per_draw in zip(ID_LISTS, labels[-2:], values[-2:]):
            lists[ids_name], lists[offsets_name] = _id_list_columns(label, per_draw)
        table = cls(
            **{
                name: _int_column(label, column)
                for name, label, column in zip(INT_COLUMNS[:-1], labels, ints[:-1])
            },
            depth_target=_depth_target_column(labels[len(INT_COLUMNS) - 1], ints[-1]),
            **{name: column for (name, _), column in zip(CODE_COLUMNS, codes)},
            **lists,
        )
        table.validate()
        return table

    @classmethod
    def from_draws(cls, draws: Sequence[DrawCall]) -> "DrawTable":
        """The checked columns of ``DrawCall`` rows."""
        code_of = CODE_OF
        rows = [
            (
                d.shader_id,
                d.vertex_count,
                d.instance_count,
                d.pixels_rasterized,
                d.pixels_shaded,
                d.vertex_stride_bytes,
                d.depth_target_id,
                code_of[id(d.topology)],
                code_of[id(d.state.depth)],
                code_of[id(d.state.blend)],
                code_of[id(d.state.cull)],
                code_of[id(d.pass_type)],
                d.texture_ids,
                d.render_target_ids,
            )
            for d in draws
        ]
        return cls.checked(list(zip(*rows)) or [()] * len(VALUE_FIELDS))

    def __len__(self) -> int:
        return len(self.shader_id)

    def columns(self) -> Iterator[Tuple[str, np.ndarray]]:
        """Every ``(name, column)``, in :data:`COLUMNS` order."""
        for name in COLUMNS:
            yield name, getattr(self, name)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DrawTable):
            return NotImplemented
        return all(
            np.array_equal(mine, getattr(other, name)) for name, mine in self.columns()
        )

    __hash__ = None  # type: ignore[assignment]

    def __reduce__(self) -> tuple:
        # Rebuilt through __init__, so unpickled columns are read-only too.
        return (_table_of, (dict(self.columns()),))

    def __repr__(self) -> str:
        return f"DrawTable({len(self)} draws)"

    def validate(self) -> None:
        """Raise :class:`ValidationError` unless every row is a valid draw.

        The column-at-a-time form of ``DrawCall.__post_init__`` (types are
        the loaders' job: a column is int64 by construction).  The message
        names the first offending draw by its row.
        """
        no_target = (np.diff(self.render_target_offsets) == 0) & (self.depth_target < 0)
        row_checks = (
            ("shader_id must be >= 0", self.shader_id < 0),
            ("vertex_count must be > 0", self.vertex_count <= 0),
            ("instance_count must be > 0", self.instance_count <= 0),
            ("pixels_rasterized must be >= 0", self.pixels_rasterized < 0),
            ("pixels_shaded must be >= 0", self.pixels_shaded < 0),
            (
                "pixels_shaded cannot exceed pixels_rasterized",
                self.pixels_shaded > self.pixels_rasterized,
            ),
            ("vertex_stride must be > 0", self.vertex_stride <= 0),
            ("depth_target must be >= 0 (or -1 for none)", self.depth_target < -1),
            ("binds neither a render target nor a depth target", no_target),
        ) + tuple(
            (f"{name} is not a {enum_type.__name__} code", getattr(self, name) >= len(enum_type))
            for name, enum_type in CODE_COLUMNS
        )
        for problem, bad in row_checks:
            if bad.any():
                row = int(np.argmax(bad))
                raise ValidationError(f"draw {row}: {problem} ({self._describe(row)})")
        for ids_name, offsets_name in ID_LISTS:
            ids = getattr(self, ids_name)
            bad = ids < 0
            if bad.any():
                slot = int(np.argmax(bad))
                offsets = getattr(self, offsets_name)
                row = int(np.searchsorted(offsets, slot, side="right")) - 1
                raise ValidationError(
                    f"draw {row}: {ids_name} must be >= 0 (got {int(ids[slot])})"
                )

    def _describe(self, row: int) -> str:
        return ", ".join(
            f"{name}={int(getattr(self, name)[row])}"
            for name in INT_COLUMNS + tuple(name for name, _ in CODE_COLUMNS)
        )

    def geometry(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per draw ``(total_vertices, primitive_count)`` as float64.

        Each is an exact int64 count per instance times the instance
        count, multiplied in float64: for counts below 2**53 that is the
        correctly rounded product, bit-identical to ``float()`` of the
        ``DrawCall`` properties, and it cannot wrap around.
        """
        divisor = _PRIMITIVE_DIVISOR[self.topology]
        per_instance = np.where(
            divisor > 0,
            self.vertex_count // np.maximum(divisor, 1),
            np.maximum(0, self.vertex_count - 2),
        )
        instances = self.instance_count.astype(np.float64)
        return (
            self.vertex_count.astype(np.float64) * instances,
            per_instance.astype(np.float64) * instances,
        )

    def state_flags(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per draw ``(reads depth, writes depth, blend reads destination,
        cull disabled)`` as bool columns."""
        return (
            _READS_DEPTH[self.depth],
            _WRITES_DEPTH[self.depth],
            _READS_DESTINATION[self.blend],
            _CULL_DISABLED[self.cull],
        )

    def take(self, rows: Sequence[int]) -> "DrawTable":
        """The table of ``rows``, in the given order."""
        rows = np.asarray(rows, dtype=np.intp)
        lists = {}
        for ids_name, offsets_name in ID_LISTS:
            lists[ids_name], lists[offsets_name] = _take_lists(
                getattr(self, ids_name), getattr(self, offsets_name), rows
            )
        return DrawTable(
            **{name: column[rows] for name, column in self.columns() if name not in lists},
            **lists,
        )

    def draw(self, i: int) -> DrawCall:
        """The ``DrawCall`` view of row ``i``."""
        if not 0 <= i < len(self):
            raise IndexError(f"draw {i} out of range for {len(self)} draws")
        return self.draws(i, i + 1)[0]

    def draws(self, start: int = 0, stop: Optional[int] = None) -> List[DrawCall]:
        """The ``DrawCall`` views of rows ``[start, stop)``."""
        stop = len(self) if stop is None else stop
        rows = slice(start, stop)
        decode = DECODE
        states: Dict[Tuple[int, int, int], PipelineState] = {}
        views = []
        for (
            shader_id, verts, instances, rast, shaded, stride, depth_target,
            topology, depth, blend, cull, pass_type, texture_ids, target_ids,
        ) in zip(
            *(getattr(self, name)[rows].tolist() for name in INT_COLUMNS),
            *(getattr(self, name)[rows].tolist() for name, _ in CODE_COLUMNS),
            *(
                id_tuples(getattr(self, ids_name), getattr(self, offsets_name), start, stop)
                for ids_name, offsets_name in ID_LISTS
            ),
        ):
            state = states.get((depth, blend, cull))
            if state is None:
                state = PipelineState(
                    depth=decode[DepthMode][depth],
                    blend=decode[BlendMode][blend],
                    cull=decode[CullMode][cull],
                )
                states[(depth, blend, cull)] = state
            views.append(
                DrawCall(
                    shader_id=shader_id,
                    state=state,
                    topology=decode[PrimitiveTopology][topology],
                    vertex_count=verts,
                    pixels_rasterized=rast,
                    pixels_shaded=shaded,
                    instance_count=instances,
                    texture_ids=texture_ids,
                    render_target_ids=target_ids,
                    depth_target_id=None if depth_target < 0 else depth_target,
                    vertex_stride_bytes=stride,
                    pass_type=decode[PassType][pass_type],
                )
            )
        return views


def id_tuples(
    ids: np.ndarray, offsets: np.ndarray, start: int, stop: int
) -> List[Tuple[int, ...]]:
    """Rows ``[start, stop)`` of a flat id list as one tuple per draw."""
    bounds = (offsets[start : stop + 1] - offsets[start]).tolist()
    flat = ids[offsets[start] : offsets[stop]].tolist()
    return [tuple(flat[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]


def _table_of(columns: Dict[str, np.ndarray]) -> DrawTable:
    return DrawTable(**columns)
