"""Vectorized simulation path for paper-scale corpora.

Reimplements exactly the model in :mod:`repro.simgpu.cost` over numpy
arrays, one frame at a time.  The order-dependent context (texture
warmth, switch penalties) is *also* array-valued: per-draw switch events
and texture reuse distances are config-independent, so they are computed
once per trace (:func:`precompute_frame`) and combined with any
architecture point by cheap numpy arithmetic — warmth is a reuse-distance
vs. cache-capacity comparison, switch penalties are event flags times the
per-config costs.  See ``DESIGN.md`` ("Reuse-distance warmth") for why
this reformulation is exact for the tracker's size-weighted LRU, not an
approximation.

One evaluator runs on top of the shared precompute:
:func:`simulate_frame_multi` prices **all** candidate configs at once in
one call of the cost-model kernel (:func:`repro.simgpu._kernels.
cost_model`) against a :class:`ConfigTable`, which is what makes
architecture sweeps over 828K-draw corpora tractable: the per-config
Python draw loop is gone entirely, and each model term is priced once
per group of configs that share its inputs (a grid that varies clocks
prices its core cycles once).  A single config is the ``C = 1`` case.
One per-frame driver loop feeds two drivers:
:func:`simulate_frame_range_multi` builds every per-frame output
(per-draw times included), and :func:`simulate_frame_times_multi` keeps
only frame totals and builds no per-config output, for callers that
rank or correlate candidates.  :func:`simulate_frame_range` (one
config, per-frame outputs) and :func:`simulate_trace_multi` (whole-trace
results) are thin views of the first.  The sequential
:class:`~repro.simgpu.simulator.GpuSimulator` stays the reference
oracle.

Every caller, in-process or in a worker, gets per-frame precompute from
a memo keyed by the trace's content digest (:func:`frame_precomp_cached`),
so consecutive sweep / validate tasks on the same trace never redo table
resolution or reuse-distance analysis.  Before a fan-out the runtime
fills its own process's memo (:func:`prepublish_precomp`), so forked
workers inherit every frame instead of loading it again.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

from repro.errors import SimulationError
from repro.gfx.drawtable import DrawTable
from repro.gfx.trace import SHADER_STAT_COLUMNS, Trace
from repro.obs.context import current_obs
from repro.simgpu import _kernels, precomp_store
from repro.simgpu.config import GpuConfig
from repro.simgpu.simulator import FrameResult, TraceResult

T = TypeVar("T")


@dataclass
class FramePrecomp:
    """Config-independent per-draw arrays for one frame.

    Beyond the resolved cost-model inputs, this carries the two
    order-dependent event streams the state tracker used to rebuild per
    config: binding-switch flags (``*_switch``) and the texture-slot
    reuse distances (``tex_slot_*``), from which any config's warmth and
    switch-penalty arrays follow by pure arithmetic.
    """

    frame_index: int
    verts: np.ndarray
    prims: np.ndarray
    cull_none: np.ndarray
    pix_rast: np.ndarray
    pix_shaded: np.ndarray
    stride: np.ndarray
    vs_alu: np.ndarray
    vs_tex: np.ndarray
    vs_branch: np.ndarray
    vs_regs: np.ndarray
    ps_alu: np.ndarray
    ps_tex: np.ndarray
    ps_branch: np.ndarray
    ps_regs: np.ndarray
    footprint: np.ndarray
    color_bpp: np.ndarray
    n_color: np.ndarray
    blend_dest: np.ndarray
    depth_reads: np.ndarray
    depth_writes: np.ndarray
    depth_bpp: np.ndarray  # 0 when no depth target bound
    noise_units: np.ndarray
    pass_spans: List[Tuple[str, int, int]]
    num_draws: int
    # Switch-event flags: does draw i change shader / fixed-function
    # state / render-target binding relative to draw i-1?  (Draw 0 pays
    # all three, exactly like a fresh StateTracker.)
    shader_switch: np.ndarray = field(default=None)  # type: ignore[assignment]
    state_switch: np.ndarray = field(default=None)  # type: ignore[assignment]
    rt_switch: np.ndarray = field(default=None)  # type: ignore[assignment]
    # Texture-slot arrays, flattened over each draw's bound-texture list:
    # byte sizes, LRU reuse distances (np.inf on first touch), the
    # [offsets[i], offsets[i+1]) segment of draw i, and per-draw totals.
    tex_slot_sizes: np.ndarray = field(default=None)  # type: ignore[assignment]
    tex_slot_reuse: np.ndarray = field(default=None)  # type: ignore[assignment]
    tex_slot_offsets: np.ndarray = field(default=None)  # type: ignore[assignment]
    tex_totals: np.ndarray = field(default=None)  # type: ignore[assignment]


#: ``stable_unit("simgpu-noise", frame_index, position)`` per position —
#: a pure function of (frame index, position), so the sha256-per-draw
#: cost is paid once per frame index process-wide (and runs as a
#: :func:`repro.simgpu._kernels.noise_units` kernel when compiled).
_NOISE_MEMO: Dict[int, np.ndarray] = {}


def _noise_units(frame_index: int, n: int) -> np.ndarray:
    cached = _NOISE_MEMO.get(frame_index)
    if cached is None or cached.shape[0] < n:
        cached = _kernels.noise_units(frame_index, n)
        _NOISE_MEMO[frame_index] = cached
    return cached[:n]


def warm_fractions(fp: FramePrecomp, capacity_bytes: int) -> np.ndarray:
    """Per-draw warm fraction for an LRU capacity, from reuse distances."""
    resident = np.where(
        fp.tex_slot_reuse <= capacity_bytes, fp.tex_slot_sizes, 0
    )
    cumulative = np.concatenate(([0], np.cumsum(resident)))
    warm_bytes = (
        cumulative[fp.tex_slot_offsets[1:]] - cumulative[fp.tex_slot_offsets[:-1]]
    )
    return np.divide(
        warm_bytes,
        fp.tex_totals,
        out=np.zeros(fp.num_draws),
        where=fp.tex_totals > 0,
    )


def switch_cycles(
    fp: FramePrecomp,
    shader_cost: float,
    state_cost: float,
    rt_cost: float,
) -> np.ndarray:
    """Per-draw switch penalty: event flags times per-config costs."""
    return (
        fp.shader_switch * shader_cost
        + fp.state_switch * state_cost
        + fp.rt_switch * rt_cost
    )


def _switch_events(table: DrawTable) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per draw: does it change shader / fixed-function state / binding?

    Each flag compares draw ``i`` with draw ``i - 1``; draw 0 pays all
    three, exactly like a fresh StateTracker.  State compares the three
    code columns (the ``state_key``); the binding is the pair of the
    render-target id list and the depth target.
    """
    n = len(table)
    shader = np.ones(n, dtype=bool)
    state = np.ones(n, dtype=bool)
    binding = np.ones(n, dtype=bool)
    if n < 2:
        return shader, state, binding
    shader[1:] = table.shader_id[1:] != table.shader_id[:-1]
    state[1:] = (
        (table.depth[1:] != table.depth[:-1])
        | (table.blend[1:] != table.blend[:-1])
        | (table.cull[1:] != table.cull[:-1])
    )
    lengths = np.diff(table.render_target_offsets)
    changed = (lengths[1:] != lengths[:-1]) | (
        table.depth_target[1:] != table.depth_target[:-1]
    )
    # Neighbours with equally many targets: compare slot k of draw d
    # with slot k of draw d - 1, which sits lengths[d - 1] slots earlier.
    slot_draw = np.repeat(np.arange(n), lengths)
    slots = np.flatnonzero(slot_draw > 0)
    draw = slot_draw[slots]
    same_length = ~changed[draw - 1]
    slots, draw = slots[same_length], draw[same_length]
    ids = table.render_target_ids
    differs = ids[slots] != ids[slots - lengths[draw - 1]]
    changed[draw[differs] - 1] = True
    binding[1:] = changed
    return shader, state, binding


def precompute_frame(trace: Trace, frame) -> FramePrecomp:
    """The per-draw cost-model inputs of one frame, from its columns.

    Every array is a column operation over the frame's
    :class:`~repro.gfx.drawtable.DrawTable` and the trace's column
    lookups (:attr:`Trace.lookup`); the texture reuse pass, the segment
    sums and the noise stream run through :mod:`repro.simgpu._kernels`.
    Every column is bit-identical to the per-draw scalar model: counts
    convert to float64 once, and bytes-per-pixel totals are sums of
    dyadic values, exact in any order.
    """
    table = frame.table
    lookup = trace.lookup
    n = len(table)
    verts, prims = table.geometry()
    depth_reads, depth_writes, blend_dest, cull_none = table.state_flags()
    stat = dict(
        zip(SHADER_STAT_COLUMNS, np.ascontiguousarray(lookup.shader_stats(table.shader_id).T))
    )
    bytes_per_pixel = lookup.target_bytes_per_pixel
    color_bpp = _kernels.segment_sums(
        bytes_per_pixel(table.render_target_ids), table.render_target_offsets
    )
    depth_bound = table.depth_target >= 0
    depth_bpp = np.zeros(n)
    depth_bpp[depth_bound] = bytes_per_pixel(table.depth_target[depth_bound])
    tex_ids, tex_offsets = table.texture_ids, table.texture_offsets
    sizes = lookup.texture_bytes(tex_ids)
    totals = _kernels.segment_sums_i64(sizes, tex_offsets)
    shader_switch, state_switch, rt_switch = _switch_events(table)
    return FramePrecomp(
        frame_index=frame.index,
        verts=verts,
        prims=prims,
        cull_none=cull_none,
        pix_rast=table.pixels_rasterized.astype(np.float64),
        pix_shaded=table.pixels_shaded.astype(np.float64),
        stride=table.vertex_stride.astype(np.float64),
        vs_alu=stat["vs_alu_ops"],
        vs_tex=stat["vs_tex_ops"],
        vs_branch=stat["vs_branch_ops"],
        vs_regs=stat["vs_registers"],
        ps_alu=stat["ps_alu_ops"],
        ps_tex=stat["ps_tex_ops"],
        ps_branch=stat["ps_branch_ops"],
        ps_regs=stat["ps_registers"],
        # The per-draw texture footprint is the per-draw total of bound
        # texture byte sizes; int64 -> float64 is the scalar model's
        # ``float(int)`` bit for bit.
        footprint=totals.astype(np.float64),
        color_bpp=color_bpp,
        n_color=np.maximum(1, np.diff(table.render_target_offsets)).astype(np.float64),
        blend_dest=blend_dest,
        depth_reads=depth_reads,
        depth_writes=depth_writes,
        depth_bpp=depth_bpp,
        noise_units=_noise_units(frame.index, n),
        pass_spans=[(span.pass_type.value, span.start, span.stop) for span in frame.spans],
        num_draws=n,
        shader_switch=shader_switch,
        state_switch=state_switch,
        rt_switch=rt_switch,
        tex_slot_sizes=sizes,
        tex_slot_reuse=_kernels.reuse_distances(tex_ids, sizes, tex_offsets),
        tex_slot_offsets=tex_offsets,
        tex_totals=totals,
    )


# ---------------------------------------------------------------------------
# Per-process precompute memo
# ---------------------------------------------------------------------------

#: Per-process FramePrecomp cache: trace content digest -> frame index ->
#: precomputed arrays.  Keyed by digest (not object identity) so a trace
#: deserialized anew in each task of a sweep still shares the work, and
#: bounded to the :data:`MEMO_TRACES` most recently used traces so
#: long-lived workers touring many traces don't accumulate.
_FRAME_PRECOMP_MEMO: "OrderedDict[str, Dict[int, FramePrecomp]]" = OrderedDict()

#: How many traces the precompute memo holds.
MEMO_TRACES = 2


def _memo_frames(digest: str) -> Dict[int, FramePrecomp]:
    """The memo's per-trace frame dict, evicting LRU traces over limit."""
    frames = _FRAME_PRECOMP_MEMO.get(digest)
    if frames is None:
        while len(_FRAME_PRECOMP_MEMO) >= MEMO_TRACES:
            _FRAME_PRECOMP_MEMO.popitem(last=False)
        frames = {}
        _FRAME_PRECOMP_MEMO[digest] = frames
    else:
        _FRAME_PRECOMP_MEMO.move_to_end(digest)
    return frames


def frame_precomp_cached(trace: Trace, frame) -> FramePrecomp:
    """Per-frame precompute: memo -> shared store -> compute-and-publish.

    Three levels, cheapest first.  The in-process memo is keyed by
    :func:`repro.runtime.keys.trace_digest` — the same identity the
    artifact cache uses — so identical traces share entries regardless
    of which task (or object) asks.  On a memo miss, the machine-wide
    precompute store (:mod:`repro.simgpu.precomp_store`) is mapped
    read-only (``precomp_store_hits``); only if that also misses is the
    frame computed, and the result is published for every other process
    on the machine (``precomp_store_misses`` / ``_publishes``).
    """
    from repro.runtime.keys import trace_digest

    return _frame_precomp(trace, frame, trace_digest(trace))[0]


def _frame_precomp(trace: Trace, frame, digest: str) -> Tuple[FramePrecomp, bool]:
    """:func:`frame_precomp_cached`, plus whether this call published the frame."""
    frames = _memo_frames(digest)
    fp = frames.get(frame.index)
    if fp is not None:
        return fp, False
    metrics = current_obs().metrics
    store = precomp_store.active_store()
    if store is not None:
        fp = store.load(digest, frame.index)
        if fp is not None:
            metrics.inc("precomp_store_hits")
            frames[frame.index] = fp
            return fp, False
        metrics.inc("precomp_store_misses")
    fp = precompute_frame(trace, frame)
    published = False
    if store is not None:
        try:
            published = store.publish(digest, fp)
        except OSError:
            # A read-only or full store directory must never fail the
            # simulation — the computed frame is still returned.
            pass
        if published:
            metrics.inc("precomp_store_publishes")
    frames[frame.index] = fp
    return fp, published


def prepublish_precomp(trace: Trace) -> int:
    """Hold every frame of ``trace`` in this process's memo; returns frames published.

    :func:`frame_precomp_cached` per frame: a frame is taken from the
    memo, else mapped from the shared store, else computed and published
    to it.  The runtime calls this before fanning a sweep out to forked
    worker processes, which inherit the memo instead of each loading
    their frames again; the e2e set-up calls it to publish the store.
    With the store disabled it only fills the memo and returns 0.
    """
    from repro.runtime.keys import trace_digest

    digest = trace_digest(trace)
    return sum(_frame_precomp(trace, frame, digest)[1] for frame in trace.frames)


def clear_precomp_cache() -> None:
    """Drop the per-process precompute memo and any store mmap handles.

    Long-lived service executors call this under memory pressure; the
    store handles are released too so deleted/replaced ``.fpc`` files
    aren't pinned by a forgotten mapping (live views keep their own
    reference and stay valid).
    """
    _FRAME_PRECOMP_MEMO.clear()
    _NOISE_MEMO.clear()
    precomp_store.reset_active_store()


# ---------------------------------------------------------------------------
# Config-vectorized evaluation (all candidates in one pass)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BatchFrameOutput:
    """Vectorized per-frame result with per-draw times.

    ``stage_cycles`` (summed shader/texture/rop/... cycles per pipeline
    stage) is only populated when the frame was simulated under an
    enabled tracer — the extra reductions are skipped on the hot path.
    """

    frame_index: int
    time_ns: float
    core_cycles: float
    dram_cycles: float
    draw_times_ns: np.ndarray
    pass_times_ns: Dict[str, float]
    stage_cycles: Optional[Dict[str, float]] = field(default=None, compare=False)


#: How each cost-model config column derives from a :class:`GpuConfig`,
#: keyed by :data:`repro.simgpu._kernels.COST_MODEL_CONFIG_COLUMNS`.
_CONFIG_COLUMNS: Dict[str, Callable[[GpuConfig], float]] = {
    "alu_lanes": lambda c: c.alu_lanes,
    "max_occ_regs": lambda c: c.max_full_occupancy_registers,
    "vertex_fetch_bpc": lambda c: c.vertex_fetch_bytes_per_cycle,
    "raster_prims_pc": lambda c: c.raster_prims_per_cycle,
    "raster_pixels_pc": lambda c: c.raster_pixels_per_cycle,
    "tex_rate": lambda c: c.tex_units_total * c.tex_rate_per_unit,
    "tex_capacity": lambda c: c.tex_cache_kb * 1024,
    "cacheline": lambda c: c.cacheline_bytes,
    "rop_rate": lambda c: c.rop_pixels_total_per_cycle,
    "depth_compression": lambda c: c.depth_compression,
    "serial_fraction": lambda c: c.serial_fraction,
    "draw_overhead": lambda c: c.draw_overhead_cycles,
    "noise_amplitude": lambda c: c.noise_amplitude,
    "l2_miss_vertex": lambda c: 1.0 - c.l2_hit_vertex,
    "l2_miss_tex": lambda c: 1.0 - c.l2_hit_tex,
    "l2_miss_rt": lambda c: 1.0 - c.l2_hit_rt,
    "dram_bpc": lambda c: c.dram_bytes_per_mem_cycle,
    "core_clock": lambda c: c.core_clock_mhz,
    "memory_clock": lambda c: c.memory_clock_mhz,
    "mem_overlap": lambda c: c.mem_overlap_residual,
}


def _distinct(values: Sequence[T]) -> Tuple[Tuple[T, ...], np.ndarray]:
    """(distinct values in first-seen order, each value's int64 position)."""
    positions: Dict[T, int] = {}
    index = [positions.setdefault(value, len(positions)) for value in values]
    return tuple(positions), np.array(index, dtype=np.int64)


class ConfigTable:
    """The candidate configs as the cost-model kernel's inputs.

    ``matrix`` holds every model parameter as one C-contiguous ``(C, K)``
    float64 row per config (columns in
    :data:`~repro.simgpu._kernels.COST_MODEL_CONFIG_COLUMNS` order),
    built once per table.  The context inputs (warm capacities, switch
    costs) stay exact Python values because warmth needs integer-exact
    capacity comparisons; they are kept once per *distinct* value, with
    each config's position in ``warm_index`` / ``switch_index``, so a
    DVFS sweep (identical caches and penalties at every clock) computes
    one warmth row and one switch row per frame.

    ``core_groups`` and ``dram_groups`` (:data:`~repro.simgpu._kernels.
    Groups`) gather the configs whose core and DRAM cycles are the same
    computation: equal bit patterns in every column that term reads
    (:data:`~repro.simgpu._kernels.COST_MODEL_CORE_COLUMNS` and the
    switch row; :data:`~repro.simgpu._kernels.COST_MODEL_DRAM_COLUMNS`
    and the warm row).  The kernel prices each group once, so a grid
    that varies only clocks or bandwidth prices its core cycles once.
    """

    def __init__(self, configs: Sequence[GpuConfig]) -> None:
        if not configs:
            raise SimulationError("ConfigTable needs at least one config")
        for config in configs:
            if not isinstance(config, GpuConfig):
                raise SimulationError(
                    f"config must be GpuConfig, got {type(config).__name__}"
                )
        self.configs: Tuple[GpuConfig, ...] = tuple(configs)
        getters = [_CONFIG_COLUMNS[name] for name in _kernels.COST_MODEL_CONFIG_COLUMNS]
        self.matrix = np.array(
            [[float(get(c)) for get in getters] for c in self.configs],
            dtype=np.float64,
        )
        self.warm_capacities, self.warm_index = _distinct(
            [c.warm_capacity_bytes for c in self.configs]
        )
        self.switch_costs, self.switch_index = _distinct(
            [
                (c.shader_switch_cycles, c.state_switch_cycles, c.rt_switch_cycles)
                for c in self.configs
            ]
        )
        self.core_groups = self._groups(_kernels.COST_MODEL_CORE_COLUMNS, self.switch_index)
        self.dram_groups = self._groups(_kernels.COST_MODEL_DRAM_COLUMNS, self.warm_index)

    def _groups(self, columns: Sequence[str], context_index: np.ndarray) -> _kernels.Groups:
        """Configs keyed on ``columns``' bit patterns plus their context row."""
        positions = [_kernels.COST_MODEL_CONFIG_COLUMNS.index(name) for name in columns]
        bits = self.matrix[:, positions].view(np.uint64)
        _, index = _distinct(
            [(*row, context) for row, context in zip(bits.tolist(), context_index.tolist())]
        )
        first = np.unique(index, return_index=True)[1]
        return first.astype(np.int64), index

    def __len__(self) -> int:
        return len(self.configs)


def _context_rows(fp: FramePrecomp, table: ConfigTable) -> Tuple[np.ndarray, np.ndarray]:
    """(warm, switch) rows, one per distinct capacity / switch-cost triple."""
    warm = np.empty((len(table.warm_capacities), fp.num_draws))
    for row, capacity in enumerate(table.warm_capacities):
        warm[row] = warm_fractions(fp, capacity)
    switch = np.empty((len(table.switch_costs), fp.num_draws))
    for row, costs in enumerate(table.switch_costs):
        switch[row] = switch_cycles(fp, *costs)
    return warm, switch


def simulate_frame_multi(
    fp: FramePrecomp,
    table: ConfigTable,
    collect_stages: bool = False,
) -> _kernels.CostModelOutput:
    """Evaluate one frame on every config in one cost-model kernel call.

    This is the one vectorized form of the cost model in
    :mod:`repro.simgpu.cost` (:func:`repro.simgpu._kernels.cost_model`,
    compiled or its numpy reference); a single config is the ``C = 1``
    table.  Returns the kernel's :class:`~repro.simgpu._kernels.
    CostModelOutput`, whose ``len()`` is the number of configs: per-draw
    ``times`` per config, core and DRAM cycles once per group of the
    table's ``core_groups`` / ``dram_groups``.  Every element is the
    same arithmetic as evaluating ``table.configs[i]`` alone, so config
    ``i``'s rows are bit-identical to the ``C = 1`` case.
    """
    warm, switch = _context_rows(fp, table)
    return _kernels.cost_model(
        fp, table.matrix, warm, table.warm_index, switch, table.switch_index,
        table.core_groups, table.dram_groups, collect_stages,
    )


def _per_config(rows: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Per-config totals of group rows: each row summed once, then gathered.

    The sum runs over the last (draw) axis of a C-contiguous array, so
    each row is reduced exactly as a 1-D ``.sum()`` of it would be.
    """
    return rows.sum(axis=-1)[..., index]


def _stage_totals(costs: _kernels.CostModelOutput) -> Dict[str, np.ndarray]:
    """Per-config stage-cycle totals by ``BatchFrameOutput.stage_cycles`` key."""
    if costs.stages is None:
        raise SimulationError("stage cycles were not collected")
    per_stage = dict(
        zip(_kernels.COST_MODEL_STAGES, _per_config(costs.stages, costs.core_index))
    )
    return {
        "shader": per_stage["vertex"] + per_stage["pixel"],
        "fetch": per_stage["fetch"],
        "raster": per_stage["raster"],
        "texture": per_stage["texture"],
        "rop": per_stage["rop"],
        "memory": _per_config(costs.dram, costs.dram_index),
    }


def _frame_outputs(
    fp: FramePrecomp, costs: _kernels.CostModelOutput
) -> List[BatchFrameOutput]:
    """One :class:`BatchFrameOutput` per config from one frame's costs.

    Totals are numpy row sums: one ``sum(axis=1)`` per quantity and per
    pass span, each row reduced exactly as a 1-D ``.sum()`` would.
    """
    times = costs.times
    time_totals = times.sum(axis=1).tolist()
    core_totals = _per_config(costs.core, costs.core_index).tolist()
    dram_totals = _per_config(costs.dram, costs.dram_index).tolist()
    span_totals = [
        (pass_name, times[:, start:end].sum(axis=1).tolist())
        for pass_name, start, end in fp.pass_spans
    ]
    stage_totals: Optional[List[Dict[str, float]]] = None
    if costs.stages is not None:
        columns = {name: values.tolist() for name, values in _stage_totals(costs).items()}
        stage_totals = [dict(zip(columns, row)) for row in zip(*columns.values())]

    outputs: List[BatchFrameOutput] = []
    for ci in range(len(costs)):
        pass_times: Dict[str, float] = {}
        for pass_name, totals in span_totals:
            pass_times[pass_name] = pass_times.get(pass_name, 0.0) + totals[ci]
        outputs.append(
            BatchFrameOutput(
                frame_index=fp.frame_index,
                time_ns=time_totals[ci],
                core_cycles=core_totals[ci],
                dram_cycles=dram_totals[ci],
                draw_times_ns=times[ci],
                pass_times_ns=pass_times,
                stage_cycles=stage_totals[ci] if stage_totals is not None else None,
            )
        )
    return outputs


# ---------------------------------------------------------------------------
# Trace-level drivers
# ---------------------------------------------------------------------------


def _evaluate_frames(
    trace: Trace, configs: Tuple[GpuConfig, ...], start: int, stop: int
) -> Iterator[Tuple[FramePrecomp, _kernels.CostModelOutput]]:
    """Each frame of ``[start, stop)`` on every config, one frame at a time.

    The one per-frame driver loop: precompute from the per-process
    digest-keyed memo, one :func:`simulate_frame_multi` call per frame
    (looked up as a module global, so a wrapper installed on the module
    sees every call), a ``simulate_frame`` span under an enabled tracer,
    and one ``frame_core_cycles`` observation per config.  Yields each
    frame's precompute with its costs.
    """
    obs = current_obs()
    tracer = obs.tracer
    table = ConfigTable(configs)
    for frame in trace.frames[start:stop]:
        fp = frame_precomp_cached(trace, frame)
        if tracer.enabled:
            # A span per simulated frame, carrying where the cycles went
            # (summed over the candidate configs): the trace answers
            # "which stage dominated".
            with tracer.span(
                "simulate_frame",
                category="simgpu",
                frame=fp.frame_index,
                draws=fp.num_draws,
                configs=len(configs),
            ) as span:
                costs = simulate_frame_multi(fp, table, collect_stages=True)
                span.set(
                    time_ns=sum(costs.times.sum(axis=1).tolist()),
                    **{
                        f"{stage}_cycles": sum(totals.tolist())
                        for stage, totals in _stage_totals(costs).items()
                    },
                )
        else:
            costs = simulate_frame_multi(fp, table)
        obs.metrics.observe_many(
            "frame_core_cycles", _per_config(costs.core, costs.core_index).tolist()
        )
        yield fp, costs


def _check_range(trace: Trace, start: int, stop: int) -> None:
    if not 0 <= start <= stop <= trace.num_frames:
        raise SimulationError(
            f"frame range [{start}, {stop}) invalid for "
            f"{trace.num_frames}-frame trace"
        )


def simulate_frame_range_multi(
    trace: Trace,
    configs: Sequence[GpuConfig],
    start: int,
    stop: int,
) -> List[List[BatchFrameOutput]]:
    """Simulate frames ``[start, stop)`` on every config, config-vectorized.

    One cost-model pass per frame over all configs; per-frame
    precompute comes from the per-process digest-keyed memo, so
    repeated sweep/validate tasks on the same trace skip it entirely.
    Frames are mutually independent, which makes this the unit of work
    the parallel runtime distributes — any partition of
    ``[0, num_frames)`` concatenates to exactly the full-trace result.
    """
    _check_range(trace, start, stop)
    configs = tuple(configs)
    if not configs:
        return []
    per_config: List[List[BatchFrameOutput]] = [[] for _ in configs]
    for fp, costs in _evaluate_frames(trace, configs, start, stop):
        for slot, out in enumerate(_frame_outputs(fp, costs)):
            per_config[slot].append(out)
    return per_config


def simulate_frame_times_multi(
    trace: Trace,
    configs: Sequence[GpuConfig],
    start: int,
    stop: int,
) -> np.ndarray:
    """Frame totals of ``[start, stop)`` on every config: ``(C, stop - start)``.

    The same evaluation as :func:`simulate_frame_range_multi`, keeping
    only each frame's ``times.sum(axis=1)``: a frame's per-draw matrices
    are released once its totals are read and no per-config output is
    built, so callers that need only totals (pathfinding sweeps,
    frequency scaling) never hold or ship per-draw detail.  Row ``i``
    equals ``[out.time_ns for out in simulate_frame_range_multi(...)[i]]``.
    """
    _check_range(trace, start, stop)
    configs = tuple(configs)
    times = np.empty((len(configs), stop - start))
    if not configs:
        return times
    for column, (_, costs) in enumerate(_evaluate_frames(trace, configs, start, stop)):
        times[:, column] = costs.times.sum(axis=1)
    return times


def simulate_frame_range(
    trace: Trace, config: GpuConfig, start: int, stop: int
) -> List[BatchFrameOutput]:
    """Simulate frames ``[start, stop)`` of ``trace`` on one config."""
    return simulate_frame_range_multi(trace, (config,), start, stop)[0]


def trace_result_from_outputs(
    trace_name: str, config_name: str, outputs: Sequence[BatchFrameOutput]
) -> TraceResult:
    """Package per-frame batch outputs as a :class:`TraceResult`."""
    frame_results = tuple(
        FrameResult(
            frame_index=out.frame_index,
            num_draws=len(out.draw_times_ns),
            time_ns=out.time_ns,
            core_cycles=out.core_cycles,
            dram_cycles=out.dram_cycles,
            pass_times_ns=out.pass_times_ns,
            draw_costs=None,
        )
        for out in outputs
    )
    return TraceResult(
        trace_name=trace_name,
        config_name=config_name,
        frame_results=frame_results,
    )


def simulate_trace_multi(
    trace: Trace, configs: Sequence[GpuConfig]
) -> List[TraceResult]:
    """Config-vectorized: the whole trace on every candidate, one pass.

    The fast path for architecture sweeps: each frame's precompute comes
    from the digest-keyed memo (and the shared store), and every frame is
    evaluated on all configs as a single ``(num_configs, num_draws)``
    broadcast.  One config is simply the ``C = 1`` case.
    """
    configs = tuple(configs)
    per_config = simulate_frame_range_multi(trace, configs, 0, trace.num_frames)
    return [
        trace_result_from_outputs(trace.name, config.name, outputs)
        for config, outputs in zip(configs, per_config)
    ]
