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
:func:`simulate_frame_multi` prices **all** candidate configs at once as
a ``(num_configs, num_draws)`` broadcast against a :class:`ConfigTable`,
which is what makes architecture sweeps over 828K-draw corpora
tractable: the per-config Python draw loop is gone entirely.  A single
config is the ``C = 1`` case.  :func:`simulate_frame_range_multi` is the
one per-frame driver loop; :func:`simulate_frame_range` (one config,
per-frame outputs) and :func:`simulate_trace_multi` (whole-trace
results) are thin views of it.  The sequential
:class:`~repro.simgpu.simulator.GpuSimulator` stays the reference
oracle.

Every caller, in-process or in a worker, gets per-frame precompute from
a memo keyed by the trace's content digest (:func:`frame_precomp_cached`),
so consecutive sweep / validate tasks on the same trace never redo table
resolution or reuse-distance analysis.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.gfx.drawtable import DrawTable
from repro.gfx.trace import SHADER_STAT_COLUMNS, Trace
from repro.obs.context import current_obs
from repro.simgpu import _kernels, precomp_store, raster, rop, shadercore, texture
from repro.simgpu.config import GpuConfig
from repro.simgpu.simulator import FrameResult, TraceResult


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
#: bounded (``$REPRO_PRECOMP_MEMO_TRACES``, default 2) so long-lived
#: workers touring many traces don't accumulate.
_FRAME_PRECOMP_MEMO: "OrderedDict[str, Dict[int, FramePrecomp]]" = OrderedDict()


def _memo_frames(digest: str) -> Dict[int, FramePrecomp]:
    """The memo's per-trace frame dict, evicting LRU traces over limit."""
    frames = _FRAME_PRECOMP_MEMO.get(digest)
    if frames is None:
        limit = precomp_store.memo_trace_limit()
        while len(_FRAME_PRECOMP_MEMO) >= limit:
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
    frame computed, and the result is published for every other worker
    on the machine (``precomp_store_misses`` / ``_publishes``).
    """
    from repro.runtime.keys import trace_digest

    digest = trace_digest(trace)
    frames = _memo_frames(digest)
    fp = frames.get(frame.index)
    if fp is not None:
        return fp
    metrics = current_obs().metrics
    store = precomp_store.active_store()
    if store is not None:
        fp = store.load(digest, frame.index)
        if fp is not None:
            metrics.inc("precomp_store_hits")
            frames[frame.index] = fp
            return fp
        metrics.inc("precomp_store_misses")
    fp = precompute_frame(trace, frame)
    if store is not None:
        try:
            if store.publish(digest, fp):
                metrics.inc("precomp_store_publishes")
        except OSError:
            # A read-only or full store directory must never fail the
            # simulation — the computed frame is still returned.
            pass
    frames[frame.index] = fp
    return fp


def prepublish_precomp(trace: Trace) -> int:
    """Publish every frame of ``trace`` to the shared store; returns count.

    Called by the runtime before fanning a sweep out to worker
    processes, so each frame is precomputed exactly once machine-wide
    and workers mmap it instead of recomputing.  No-op (0) when the
    store is disabled.
    """
    store = precomp_store.active_store()
    if store is None:
        return 0
    from repro.runtime.keys import trace_digest

    digest = trace_digest(trace)
    published = 0
    metrics = current_obs().metrics
    frames = _memo_frames(digest)
    for frame in trace.frames:
        if store.has(digest, frame.index):
            continue
        fp = frames.get(frame.index)
        if fp is None:
            fp = precompute_frame(trace, frame)
            frames[frame.index] = fp
        try:
            if store.publish(digest, fp):
                published += 1
                metrics.inc("precomp_store_publishes")
        except OSError:
            break
    return published


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


class ConfigTable:
    """Struct-of-arrays view of N candidate configs for broadcasting.

    Every model parameter becomes a ``(N, 1)`` float column so the cost
    model can evaluate ``(num_configs, num_draws)`` in one numpy pass.
    Context inputs (warm capacities, switch costs) stay exact Python
    scalars because warmth needs integer-exact capacity comparisons and
    both are shared across configs that agree on them.
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

        def col(get) -> np.ndarray:
            return np.array(
                [float(get(c)) for c in self.configs]
            ).reshape(-1, 1)

        self.alu_lanes = col(lambda c: c.alu_lanes)
        self.max_occ_regs = col(lambda c: c.max_full_occupancy_registers)
        self.vertex_fetch_bpc = col(lambda c: c.vertex_fetch_bytes_per_cycle)
        self.raster_prims_pc = col(lambda c: c.raster_prims_per_cycle)
        self.raster_pixels_pc = col(lambda c: c.raster_pixels_per_cycle)
        self.tex_rate = col(lambda c: c.tex_units_total * c.tex_rate_per_unit)
        self.tex_capacity = col(lambda c: c.tex_cache_kb * 1024)
        self.cacheline = col(lambda c: c.cacheline_bytes)
        self.rop_rate = col(lambda c: c.rop_pixels_total_per_cycle)
        self.depth_compression = col(lambda c: c.depth_compression)
        self.serial_fraction = col(lambda c: c.serial_fraction)
        self.draw_overhead = col(lambda c: c.draw_overhead_cycles)
        self.noise_amplitude = col(lambda c: c.noise_amplitude)
        self.l2_miss_vertex = col(lambda c: 1.0 - c.l2_hit_vertex)
        self.l2_miss_tex = col(lambda c: 1.0 - c.l2_hit_tex)
        self.l2_miss_rt = col(lambda c: 1.0 - c.l2_hit_rt)
        self.dram_bpc = col(lambda c: c.dram_bytes_per_mem_cycle)
        self.core_clock = col(lambda c: c.core_clock_mhz)
        self.memory_clock = col(lambda c: c.memory_clock_mhz)
        self.mem_overlap = col(lambda c: c.mem_overlap_residual)
        self.warm_capacities: Tuple[int, ...] = tuple(
            c.warm_capacity_bytes for c in self.configs
        )
        self.switch_costs: Tuple[Tuple[float, float, float], ...] = tuple(
            (c.shader_switch_cycles, c.state_switch_cycles, c.rt_switch_cycles)
            for c in self.configs
        )

    def __len__(self) -> int:
        return len(self.configs)


def _context_matrix(
    fp: FramePrecomp, table: ConfigTable
) -> Tuple[np.ndarray, np.ndarray]:
    """(warm, switch) as ``(num_configs, num_draws)``, shared per value.

    Rows are computed once per *distinct* warm capacity / switch-cost
    triple, so a DVFS sweep (identical caches and penalties at every
    clock) pays for exactly one row each.
    """
    num_configs = len(table)
    n = fp.num_draws
    warm = np.empty((num_configs, n))
    switch = np.empty((num_configs, n))
    warm_rows: Dict[int, np.ndarray] = {}
    switch_rows: Dict[Tuple[float, float, float], np.ndarray] = {}
    for ci in range(num_configs):
        capacity = table.warm_capacities[ci]
        row = warm_rows.get(capacity)
        if row is None:
            row = warm_fractions(fp, capacity)
            warm_rows[capacity] = row
        warm[ci] = row
        costs = table.switch_costs[ci]
        srow = switch_rows.get(costs)
        if srow is None:
            srow = switch_cycles(fp, *costs)
            switch_rows[costs] = srow
        switch[ci] = srow
    return warm, switch


def _throughput(regs: np.ndarray, max_occ_regs: np.ndarray) -> np.ndarray:
    occ = np.minimum(1.0, max_occ_regs / regs)
    return shadercore.MIN_THROUGHPUT_FACTOR + (
        1.0 - shadercore.MIN_THROUGHPUT_FACTOR
    ) * occ


def simulate_frame_multi(
    fp: FramePrecomp,
    table: ConfigTable,
    collect_stages: bool = False,
) -> List[BatchFrameOutput]:
    """Evaluate one frame on every config as a ``(C, N)`` numpy pass.

    This is the one vectorized form of the cost model in
    :mod:`repro.simgpu.cost`; a single config is the ``C = 1`` table.
    Returns one :class:`BatchFrameOutput` per config, in table order —
    every operation is elementwise along the config axis, so row ``i``
    is bit-identical to evaluating ``table.configs[i]`` alone.
    """
    warm, switch = _context_matrix(fp, table)

    vs_ops = (
        fp.vs_alu
        + shadercore.TEX_OP_ALU_COST * fp.vs_tex
        + shadercore.BRANCH_OP_ALU_COST * fp.vs_branch
    )
    ps_ops = (
        fp.ps_alu
        + shadercore.TEX_OP_ALU_COST * fp.ps_tex
        + shadercore.BRANCH_OP_ALU_COST * fp.ps_branch
    )
    vertex_cycles = (
        fp.verts * vs_ops
        / (table.alu_lanes * _throughput(fp.vs_regs, table.max_occ_regs))
    )
    pixel_cycles = (
        fp.pix_shaded * ps_ops
        / (table.alu_lanes * _throughput(fp.ps_regs, table.max_occ_regs))
    )

    vertex_bytes = fp.verts * fp.stride
    fetch_cycles = vertex_bytes / table.vertex_fetch_bpc

    setup_prims = np.where(fp.cull_none, fp.prims, fp.prims * raster.CULL_SURVIVAL)
    raster_cycles = (
        setup_prims / table.raster_prims_pc + fp.pix_rast / table.raster_pixels_pc
    )

    samples = fp.pix_shaded * fp.ps_tex + fp.verts * fp.vs_tex
    tex_cycles = samples / table.tex_rate
    pressure = fp.footprint / table.tex_capacity
    cold = np.minimum(
        texture.MAX_MISS, texture.BASE_MISS + texture.CAPACITY_MISS_SCALE * pressure
    )
    miss = np.where(
        fp.footprint == 0,
        0.0,
        cold * (warm * texture.WARM_MISS_MULTIPLIER + (1.0 - warm)),
    )
    tex_bytes = np.minimum(
        samples * miss * table.cacheline,
        texture.FOOTPRINT_OVERFETCH_CAP * fp.footprint,
    )

    writes = fp.pix_shaded * fp.n_color
    rop_rate = table.rop_rate * np.where(
        fp.blend_dest, rop.BLEND_THROUGHPUT_FACTOR, 1.0
    )
    depth_tests = np.where(fp.depth_reads, fp.pix_rast, 0.0)
    rop_cycles = (writes + 0.25 * depth_tests) / rop_rate

    color_write = fp.pix_shaded * fp.color_bpp
    rt_base = color_write + np.where(fp.blend_dest, color_write, 0.0)
    depth_pp = fp.depth_bpp * table.depth_compression
    rt_bytes = rt_base + np.where(fp.depth_reads, fp.pix_rast * depth_pp, 0.0)
    rt_bytes = rt_bytes + np.where(fp.depth_writes, fp.pix_shaded * depth_pp, 0.0)

    stages = np.stack(
        [vertex_cycles, fetch_cycles, raster_cycles, pixel_cycles, tex_cycles, rop_cycles]
    )
    slowest = stages.max(axis=0)
    residual = table.serial_fraction * (stages.sum(axis=0) - slowest)
    core = slowest + residual + switch + table.draw_overhead
    core = core * (1.0 + table.noise_amplitude * (2.0 * fp.noise_units - 1.0))

    dram_bytes = (
        vertex_bytes * table.l2_miss_vertex
        + tex_bytes * table.l2_miss_tex
        + rt_bytes * table.l2_miss_rt
    )
    dram = dram_bytes / table.dram_bpc

    core_ns = 1e3 * core / table.core_clock
    mem_ns = 1e3 * dram / table.memory_clock
    times = np.maximum(core_ns, mem_ns) + table.mem_overlap * np.minimum(
        core_ns, mem_ns
    )

    time_totals = times.sum(axis=1)
    core_totals = core.sum(axis=1)
    dram_totals = dram.sum(axis=1)

    outputs: List[BatchFrameOutput] = []
    for ci in range(len(table)):
        pass_times: Dict[str, float] = {}
        for pass_name, start, end in fp.pass_spans:
            total = float(times[ci, start:end].sum())
            pass_times[pass_name] = pass_times.get(pass_name, 0.0) + total
        stage_cycles: Optional[Dict[str, float]] = None
        if collect_stages:
            stage_cycles = {
                "shader": float(
                    vertex_cycles[ci].sum() + pixel_cycles[ci].sum()
                ),
                "fetch": float(fetch_cycles[ci].sum()),
                "raster": float(raster_cycles[ci].sum()),
                "texture": float(tex_cycles[ci].sum()),
                "rop": float(rop_cycles[ci].sum()),
                "memory": float(dram[ci].sum()),
            }
        outputs.append(
            BatchFrameOutput(
                frame_index=fp.frame_index,
                time_ns=float(time_totals[ci]),
                core_cycles=float(core_totals[ci]),
                dram_cycles=float(dram_totals[ci]),
                draw_times_ns=times[ci],
                pass_times_ns=pass_times,
                stage_cycles=stage_cycles,
            )
        )
    return outputs


# ---------------------------------------------------------------------------
# Trace-level drivers
# ---------------------------------------------------------------------------


def simulate_frame_range_multi(
    trace: Trace,
    configs: Sequence[GpuConfig],
    start: int,
    stop: int,
) -> List[List[BatchFrameOutput]]:
    """Simulate frames ``[start, stop)`` on every config, config-vectorized.

    One ``(num_configs, num_draws)`` numpy pass per frame; per-frame
    precompute comes from the per-process digest-keyed memo, so repeated
    sweep/validate tasks on the same trace skip it entirely.  Frames are
    mutually independent, which makes this the unit of work the parallel
    runtime distributes — any partition of ``[0, num_frames)``
    concatenates to exactly the full-trace result.
    """
    if not 0 <= start <= stop <= trace.num_frames:
        raise SimulationError(
            f"frame range [{start}, {stop}) invalid for "
            f"{trace.num_frames}-frame trace"
        )
    configs = tuple(configs)
    if not configs:
        return []
    obs = current_obs()
    tracer = obs.tracer
    table = ConfigTable(configs)
    per_config: List[List[BatchFrameOutput]] = [[] for _ in configs]
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
                outputs = simulate_frame_multi(fp, table, collect_stages=True)
                totals: Dict[str, float] = {}
                for out in outputs:
                    for stage, cycles in (out.stage_cycles or {}).items():
                        totals[stage] = totals.get(stage, 0.0) + cycles
                span.set(
                    time_ns=sum(out.time_ns for out in outputs),
                    **{
                        f"{stage}_cycles": cycles
                        for stage, cycles in totals.items()
                    },
                )
        else:
            outputs = simulate_frame_multi(fp, table)
        for slot, out in enumerate(outputs):
            obs.metrics.observe("frame_core_cycles", out.core_cycles)
            per_config[slot].append(out)
    return per_config


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
