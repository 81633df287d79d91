"""Frames and render passes: the ordered structure of a rendered image.

A :class:`Frame` stores its draws as one :class:`~repro.gfx.drawtable.DrawTable`
and its render passes as :class:`PassSpan` row ranges of that table.  The
``DrawCall``/``RenderPass`` form is a view: a frame built from a table
(the loaders, the synthetic generator, :meth:`Frame.take`) builds its
passes on first use, for the sequential reference simulator; a frame
built from passes (hand-built traces and tests) keeps them and builds
its table on first use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro.errors import ValidationError
from repro.gfx.drawcall import DrawCall
from repro.gfx.drawtable import DECODE, DrawTable
from repro.gfx.enums import PassType
from repro.util.validation import check_nonnegative, check_type


@dataclass(frozen=True)
class RenderPass:
    """A contiguous group of draws rendering to the same attachments."""

    pass_type: PassType
    draws: Tuple[DrawCall, ...]
    name: str = ""

    def __post_init__(self) -> None:
        check_type("RenderPass.pass_type", self.pass_type, PassType)
        check_type("RenderPass.draws", self.draws, tuple)
        for i, draw in enumerate(self.draws):
            if not isinstance(draw, DrawCall):
                raise ValidationError(
                    f"RenderPass.draws[{i}] must be DrawCall, "
                    f"got {type(draw).__name__}"
                )

    @property
    def num_draws(self) -> int:
        return len(self.draws)


class PassSpan(NamedTuple):
    """One render pass as the row range ``[start, stop)`` of its frame's table."""

    pass_type: PassType
    name: str
    start: int
    stop: int


class Frame:
    """One rendered frame: a draw table split into render passes.

    Equality compares the index, the pass spans and the columns;
    ``metadata`` stays out of it.  Frames are not hashable.
    """

    __slots__ = ("_index", "_table", "_spans", "_passes", "metadata")
    __hash__ = None  # type: ignore[assignment]

    def __init__(
        self,
        index: int,
        passes: Tuple[RenderPass, ...],
        metadata: Optional[dict] = None,
    ) -> None:
        check_type("Frame.passes", passes, tuple)
        spans = []
        start = 0
        for i, render_pass in enumerate(passes):
            if not isinstance(render_pass, RenderPass):
                raise ValidationError(
                    f"Frame.passes[{i}] must be RenderPass, "
                    f"got {type(render_pass).__name__}"
                )
            stop = start + len(render_pass.draws)
            spans.append(PassSpan(render_pass.pass_type, render_pass.name, start, stop))
            start = stop
        self._init(index, None, tuple(spans), passes, metadata)

    @classmethod
    def from_table(
        cls,
        index: int,
        table: DrawTable,
        spans: Sequence[PassSpan],
        metadata: Optional[dict] = None,
    ) -> "Frame":
        """A frame over ``table`` whose passes are the contiguous ``spans``."""
        check_type("Frame.table", table, DrawTable)
        spans = tuple(PassSpan(*span) for span in spans)
        position = 0
        for span in spans:
            check_type("PassSpan.pass_type", span.pass_type, PassType)
            check_type("PassSpan.name", span.name, str)
            if span.start != position or span.stop < span.start:
                raise ValidationError(f"pass spans must be contiguous, got {spans}")
            position = span.stop
        if position != len(table):
            raise ValidationError(
                f"pass spans cover {position} draws, the table has {len(table)}"
            )
        frame = cls.__new__(cls)
        frame._init(index, table, spans, None, metadata)
        return frame

    def _init(
        self,
        index: int,
        table: Optional[DrawTable],
        spans: Tuple[PassSpan, ...],
        passes: Optional[Tuple[RenderPass, ...]],
        metadata: Optional[dict],
    ) -> None:
        check_type("Frame.index", index, int)
        check_nonnegative("Frame.index", index)
        self._index = index
        self._table = table
        self._spans = spans
        self._passes = passes
        self.metadata = {} if metadata is None else metadata

    def __reduce__(self) -> tuple:
        # Ships the columns only; the DrawCall views are rebuilt on demand.
        return (Frame.from_table, (self._index, self.table, self._spans, self.metadata))

    @property
    def index(self) -> int:
        return self._index

    @property
    def spans(self) -> Tuple[PassSpan, ...]:
        return self._spans

    @property
    def table(self) -> DrawTable:
        """The frame's draws as columns (built from the passes on first use)."""
        if self._table is None:
            self._table = DrawTable.from_draws(list(self.draws()))
        return self._table

    @property
    def passes(self) -> Tuple[RenderPass, ...]:
        """The render passes as ``DrawCall`` views (built on first use)."""
        if self._passes is None:
            views = self._table.draws()
            self._passes = tuple(
                RenderPass(span.pass_type, tuple(views[span.start : span.stop]), span.name)
                for span in self._spans
            )
        return self._passes

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Frame):
            return NotImplemented
        return (
            self._index == other._index
            and self._spans == other._spans
            and self.table == other.table
        )

    def __repr__(self) -> str:
        return (
            f"Frame(index={self._index}, passes={len(self._spans)}, "
            f"draws={self.num_draws})"
        )

    def draws(self) -> Iterator[DrawCall]:
        """Iterate all draw-calls in submission order."""
        for render_pass in self.passes:
            yield from render_pass.draws

    @property
    def draw_list(self) -> List[DrawCall]:
        return list(self.draws())

    @property
    def num_draws(self) -> int:
        return self._spans[-1].stop if self._spans else 0

    @property
    def shader_ids(self) -> Tuple[int, ...]:
        """Shader id of every draw, in submission order."""
        return tuple(self.table.shader_id.tolist())

    def pass_of_type(self, pass_type: PassType) -> Tuple[RenderPass, ...]:
        """All passes with the given type (possibly several, e.g. shadows)."""
        return tuple(rp for rp in self.passes if rp.pass_type is pass_type)

    def take(self, rows: Sequence[int]) -> "Frame":
        """A one-pass frame of ``rows`` (in the given order), same index.

        The pass is named ``""`` and typed by the first taken draw's
        ``pass_type``; ``metadata`` is copied.
        """
        table = self.table.take(rows)
        if not len(table):
            raise ValidationError(f"frame {self._index}: take needs at least one row")
        pass_type = DECODE[PassType][table.pass_type[0]]
        return Frame.from_table(
            self._index,
            table,
            (PassSpan(pass_type, "", 0, len(table)),),
            dict(self.metadata),
        )


def frame_from_draws(index: int, draws: List[DrawCall]) -> Frame:
    """Wrap a flat draw list into a single-pass frame (testing helper)."""
    if not draws:
        raise ValidationError("frame_from_draws requires at least one draw")
    return Frame(
        index=index,
        passes=(RenderPass(pass_type=draws[0].pass_type, draws=tuple(draws)),),
    )
