"""Compiled kernels for the sequential hot loops, behind a dispatch layer.

Sequential inner loops that numpy cannot vectorize dominate three
layers: per-frame *precompute* (:mod:`repro.simgpu.batch`: the
Fenwick-tree LRU reuse-distance pass and the draw-noise stream), the
per-draw texture/render-target reductions of :mod:`repro.core.features`,
and leader clustering (:mod:`repro.core.leader`), where each draw is
compared with every leader founded before it.  A fourth layer, the cost
model behind :func:`repro.simgpu.batch.simulate_frame_multi`, does
vectorize in numpy, but as some thirty ``(configs, draws)`` temporaries
per frame; compiled, it is one pass per element.  This module compiles
them, keeping numpy as the only dependency.  There are two backends:

- **cext** — the loops as a small C library compiled on demand with the
  host toolchain (``cc -O3 -ffp-contract=off -fno-trapping-math
  -shared``, source fed on stdin) into a content-addressed cache under
  ``<cache-dir>/kernels/``
  and loaded via ``ctypes``; the build is attempted once per process
  and at most once per source digest per machine;
- **python** — the pure-Python/numpy loops, always available: the
  reference the compiled kernels are tested against.

Backend selection is ``$REPRO_KERNELS`` (or the CLI ``--kernels``
flag): ``auto`` (default; cext, then python), or one of the explicit
names — requesting an unavailable backend is a
:class:`~repro.errors.ConfigError`, never a silent fallback.  The
resolved backend is reported in the environment fingerprint
(:func:`kernel_info`) so run records stay comparable.

**Exactness contract.** Every kernel is defined so both backends
produce *bit-identical* outputs (the property tests assert ``==``, not
approx):

- :func:`reuse_distances` works in int64 arithmetic and converts to
  float64 only on assignment — exact below 2**53 bytes of tracked
  texture;
- :func:`segment_sums` is *defined* as running-prefix differences
  (``S[end] - S[start]`` over one sequential left-to-right
  accumulation), which is what ``np.cumsum`` + subtraction and the C
  loop both compute — identical bits for any input, and
  equal to a direct per-segment sum whenever the additions are exact
  (integer-valued byte sizes, dyadic bytes-per-pixel — true for every
  value the trace schema can produce);
- :func:`leader_labels` *defines* the leader distance as the square
  root of the squared differences summed left to right over the feature
  columns (``np.cumsum`` along a row, one running ``+=`` in C), with
  ties going to the earliest leader (``np.argmin``).  The library is
  built with ``-ffp-contract=off`` so no multiply-add is fused, and
  both backends round every step identically.  Rows must be finite:
  the caller validates, because numpy's NaN-propagating ``argmin`` and
  C's ``<`` disagree on NaN;
- :func:`cost_model` computes every ``(config, draw)`` element in the
  python reference's operation order.  Python's ``a + b * c + d * e``
  is left-associative, ``((a + b * c) + d * e)``, and the C code spells
  each such expression with the same grouping (no fused multiply-add,
  per ``-ffp-contract=off``).  The sum over the six stages adds left to
  right in ``np.stack`` order (vertex, fetch, raster, pixel, texture,
  rop), which is what ``stages.sum(axis=0)`` does over the leading
  axis; the max over stages is order-free.  Inputs are finite
  (``ShaderStats.registers >= 1`` and :class:`~repro.simgpu.config.
  GpuConfig` positivity are validated), so C's ``<`` and ``>`` agree
  with ``np.minimum`` and ``np.maximum``.  Every element is independent,
  so loop order is free, and config-independent terms (``vs_ops``,
  ``vertex_bytes``, ``samples``, ...) are hoisted out of the config
  loop.  The C kernel prices each term once per *group* of configs that
  agree, bit for bit, on every input the term reads
  (:data:`COST_MODEL_CORE_COLUMNS` plus the switch row for core and
  stage cycles, :data:`COST_MODEL_DRAM_COLUMNS` plus the warm row for
  DRAM cycles); only the clock divisions and the max/overlap combine run
  once per config.  Equal inputs through the same operations give equal
  bits, so a group's shared row is each member's own row.  The python
  reference prices every config and returns the rows at each group's
  first member, so the parity test also checks the grouping: a config
  put in the wrong group changes its ``times``.  Every sum over draws
  stays in numpy, on the kernel's row outputs, so pairwise-summation
  order never enters the kernel.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.simgpu import raster, rop, shadercore, texture
from repro.util.atomicfile import atomic_path
from repro.util.rng import stable_unit

#: Environment override for the kernel backend.
KERNELS_ENV = "REPRO_KERNELS"

#: Valid ``$REPRO_KERNELS`` / ``--kernels`` values.
KERNEL_BACKENDS = ("auto", "cext", "python")

#: Bump when a kernel's semantics change: participates in the compiled
#: library's content address, so stale ``.so`` files are never reloaded.
#: v2: added the ``repro_noise_units`` sha256-based draw-noise kernel.
#: v3: added the ``repro_leader_cluster`` leader-clustering kernel.
#: v4: added the ``repro_cost_model`` cost-model kernel.
#: v5: ``repro_cost_model`` prices core and DRAM terms once per group.
KERNEL_ABI_VERSION = 5

#: Per-draw float64 inputs of :func:`cost_model`, in kernel order: the
#: like-named :class:`~repro.simgpu.batch.FramePrecomp` arrays.
COST_MODEL_DRAW_FIELDS: Tuple[str, ...] = (
    "verts", "prims", "pix_rast", "pix_shaded", "stride",
    "vs_alu", "vs_tex", "vs_branch", "vs_regs",
    "ps_alu", "ps_tex", "ps_branch", "ps_regs",
    "footprint", "color_bpp", "n_color", "depth_bpp", "noise_units",
)

#: Per-draw boolean inputs of :func:`cost_model` (passed as uint8).
COST_MODEL_FLAG_FIELDS: Tuple[str, ...] = (
    "cull_none", "blend_dest", "depth_reads", "depth_writes",
)

#: Columns of the ``(configs, K)`` matrix :func:`cost_model` prices
#: (:class:`~repro.simgpu.batch.ConfigTable` builds it), in kernel order.
COST_MODEL_CONFIG_COLUMNS: Tuple[str, ...] = (
    "alu_lanes", "max_occ_regs", "vertex_fetch_bpc", "raster_prims_pc",
    "raster_pixels_pc", "tex_rate", "tex_capacity", "cacheline", "rop_rate",
    "depth_compression", "serial_fraction", "draw_overhead", "noise_amplitude",
    "l2_miss_vertex", "l2_miss_tex", "l2_miss_rt", "dram_bpc",
    "core_clock", "memory_clock", "mem_overlap",
)

#: The config columns the core and stage cycles read (with the config's
#: switch row); configs equal on all of them share one core row.
COST_MODEL_CORE_COLUMNS: Tuple[str, ...] = (
    "alu_lanes", "max_occ_regs", "vertex_fetch_bpc", "raster_prims_pc",
    "raster_pixels_pc", "tex_rate", "rop_rate", "serial_fraction",
    "draw_overhead", "noise_amplitude",
)

#: The config columns the DRAM cycles read (with the config's warm row);
#: configs equal on all of them share one DRAM row.
COST_MODEL_DRAM_COLUMNS: Tuple[str, ...] = (
    "tex_capacity", "cacheline", "depth_compression",
    "l2_miss_vertex", "l2_miss_tex", "l2_miss_rt", "dram_bpc",
)

#: The per-stage buffers :func:`cost_model` fills when asked, in the
#: order the stages are summed.
COST_MODEL_STAGES: Tuple[str, ...] = (
    "vertex", "fetch", "raster", "pixel", "texture", "rop",
)

#: Configs grouped by equal term inputs: ``(first, index)``, where
#: group ``g``'s first member is config ``first[g]`` and config ``i`` is
#: in group ``index[i]`` (both int64).
Groups = Tuple[np.ndarray, np.ndarray]


@dataclass(frozen=True, eq=False)
class CostModelOutput:
    """One frame priced on every config, each term kept once per group.

    ``times`` holds per-draw times (ns), ``(C, N)``.  ``core`` holds the
    core cycles once per core group, ``(Rc, N)``, and config ``i``'s row
    is ``core[core_index[i]]``; ``dram`` and ``dram_index`` are the same
    for DRAM cycles, ``(Rd, N)``.  ``stages`` holds the ``(6, Rc, N)``
    stage cycles (:data:`COST_MODEL_STAGES`) when collected, else
    ``None``.  ``len()`` is the number of configs.
    """

    times: np.ndarray
    core: np.ndarray
    core_index: np.ndarray
    dram: np.ndarray
    dram_index: np.ndarray
    stages: Optional[np.ndarray]

    def __len__(self) -> int:
        return int(self.times.shape[0])


class KernelBackend:
    """One resolved backend: a name plus the kernel entry points.

    ``reuse`` takes ``(dense_ids, sizes, offsets, num_ids)`` — texture
    ids already remapped to ``[0, num_ids)`` — and returns per-slot
    float64 reuse distances (``inf`` on first touch).  The segment-sum
    kernels take ``(values, offsets)`` and return per-segment totals
    under the running-prefix-difference contract above.  ``noise``
    takes ``(frame_index, n)`` and returns the per-position draw-noise
    units (``stable_unit("simgpu-noise", frame_index, i)``).  ``leader``
    takes ``(matrix, radius)`` — a C-contiguous finite float64 matrix
    with at least one column — and returns ``(labels, leader_indices)``
    as int64 arrays.  ``cost_model`` takes ``(draws, flags, configs,
    warm_rows, warm_index, switch_rows, switch_index, core_groups,
    dram_groups, collect_stages)``, validated by :func:`cost_model`, and
    returns a :class:`CostModelOutput`.
    """

    def __init__(
        self,
        name: str,
        reuse: Callable[[np.ndarray, np.ndarray, np.ndarray, int], np.ndarray],
        seg_f64: Callable[[np.ndarray, np.ndarray], np.ndarray],
        seg_i64: Callable[[np.ndarray, np.ndarray], np.ndarray],
        noise: Callable[[int, int], np.ndarray],
        leader: Callable[[np.ndarray, float], Tuple[np.ndarray, np.ndarray]],
        cost_model: Callable[..., CostModelOutput],
    ) -> None:
        self.name = name
        self._reuse = reuse
        self._seg_f64 = seg_f64
        self._seg_i64 = seg_i64
        self._noise = noise
        self._leader = leader
        self._cost_model = cost_model


# ---------------------------------------------------------------------------
# Pure-python kernels (the reference implementations)
# ---------------------------------------------------------------------------


def _reuse_python(
    dense_ids: np.ndarray,
    sizes: np.ndarray,
    offsets: np.ndarray,
    num_ids: int,
) -> np.ndarray:
    """Fenwick LRU stack-distance pass over flat per-slot arrays.

    The flat-array form of the slot loop that used to live in
    ``batch._texture_reuse_arrays`` (see DESIGN.md for why it equals
    walking the tracker's size-weighted LRU): position ``t`` of the
    Fenwick tree holds the byte size of the texture whose *latest*
    touch happened at timestamp ``t``, so a suffix sum over
    ``(prev, now]`` is the total size of distinct textures touched
    since a texture's previous touch.  Residency is checked for every
    slot of a draw *before* any of the draw's touches land.
    """
    num_slots = len(sizes)
    reuse = np.full(num_slots, np.inf)
    ids: List[int] = dense_ids.tolist()
    szs: List[int] = sizes.tolist()
    offs: List[int] = offsets.tolist()
    tree = [0] * (num_slots + 1)
    last_touch = [-1] * num_ids
    live_total = 0
    now = 0
    for d in range(len(offs) - 1):
        for s in range(offs[d], offs[d + 1]):
            prev = last_touch[ids[s]]
            if prev >= 0:
                total = 0
                i = prev + 1
                while i > 0:
                    total += tree[i]
                    i -= i & -i
                reuse[s] = szs[s] + (live_total - total)
        for s in range(offs[d], offs[d + 1]):
            tid = ids[s]
            size = szs[s]
            prev = last_touch[tid]
            if prev >= 0:
                i = prev + 1
                while i <= num_slots:
                    tree[i] -= size
                    i += i & -i
                live_total -= size
            i = now + 1
            while i <= num_slots:
                tree[i] += size
                i += i & -i
            live_total += size
            last_touch[tid] = now
            now += 1
    return reuse


def _seg_f64_python(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per-segment totals as running-prefix differences (float64)."""
    cumulative = np.concatenate(([0.0], np.cumsum(values, dtype=np.float64)))
    return np.asarray(cumulative[offsets[1:]] - cumulative[offsets[:-1]])


def _seg_i64_python(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per-segment totals as running-prefix differences (int64, exact)."""
    cumulative = np.concatenate(
        (np.zeros(1, dtype=np.int64), np.cumsum(values, dtype=np.int64))
    )
    return np.asarray(cumulative[offsets[1:]] - cumulative[offsets[:-1]])


def _noise_python(frame_index: int, n: int) -> np.ndarray:
    """The reference draw-noise loop: one sha256 per position."""
    return np.array(
        [stable_unit("simgpu-noise", frame_index, i) for i in range(n)]
    )


def _leader_python(matrix: np.ndarray, radius: float) -> Tuple[np.ndarray, np.ndarray]:
    """The reference leader loop: each row against every earlier leader.

    ``np.cumsum`` along a row adds left to right, so its last column is
    exactly the C loop's running sum of squared differences.
    """
    n, d = matrix.shape
    labels = np.empty(n, dtype=np.int64)
    leaders = np.empty((n, d))
    leader_indices = np.empty(n, dtype=np.int64)
    count = 0
    for i in range(n):
        if count:
            diff = leaders[:count] - matrix[i]
            dists = np.sqrt(np.cumsum(diff * diff, axis=1)[:, -1])
            nearest = int(np.argmin(dists))
            if dists[nearest] <= radius:
                labels[i] = nearest
                continue
        leaders[count] = matrix[i]
        leader_indices[count] = i
        labels[i] = count
        count += 1
    return labels, leader_indices[:count].copy()


def _throughput(regs: np.ndarray, max_occ_regs: np.ndarray) -> np.ndarray:
    occ = np.minimum(1.0, max_occ_regs / regs)
    return shadercore.MIN_THROUGHPUT_FACTOR + (
        1.0 - shadercore.MIN_THROUGHPUT_FACTOR
    ) * occ


def _cost_model_python(
    draws: np.ndarray,
    flags: np.ndarray,
    configs: np.ndarray,
    warm_rows: np.ndarray,
    warm_index: np.ndarray,
    switch_rows: np.ndarray,
    switch_index: np.ndarray,
    core_groups: Groups,
    dram_groups: Groups,
    collect_stages: bool,
) -> CostModelOutput:
    """The reference cost model: one numpy expression per model term.

    Every config parameter is a ``(configs, 1)`` column and every draw
    input a ``(draws,)`` row (of ``draws`` / ``flags``, in field order),
    so each term broadcasts to ``(configs, draws)``.  Every config is
    priced on its own; the core, DRAM and stage rows returned are those
    of each group's first member.  The C kernel reproduces this block
    element by element, pricing each group's row once.
    """
    (verts, prims, pix_rast, pix_shaded, stride,
     vs_alu, vs_tex, vs_branch, vs_regs,
     ps_alu, ps_tex, ps_branch, ps_regs,
     footprint, color_bpp, n_color, depth_bpp, noise_units) = draws
    cull_none, blend_dest, depth_reads, depth_writes = flags
    (alu_lanes, max_occ_regs, vertex_fetch_bpc, raster_prims_pc,
     raster_pixels_pc, tex_rate, tex_capacity, cacheline, rop_rate,
     depth_compression, serial_fraction, draw_overhead, noise_amplitude,
     l2_miss_vertex, l2_miss_tex, l2_miss_rt, dram_bpc,
     core_clock, memory_clock, mem_overlap) = np.hsplit(configs, configs.shape[1])
    warm = warm_rows[warm_index]
    switch = switch_rows[switch_index]

    vs_ops = (
        vs_alu
        + shadercore.TEX_OP_ALU_COST * vs_tex
        + shadercore.BRANCH_OP_ALU_COST * vs_branch
    )
    ps_ops = (
        ps_alu
        + shadercore.TEX_OP_ALU_COST * ps_tex
        + shadercore.BRANCH_OP_ALU_COST * ps_branch
    )
    vertex_cycles = (
        verts * vs_ops
        / (alu_lanes * _throughput(vs_regs, max_occ_regs))
    )
    pixel_cycles = (
        pix_shaded * ps_ops
        / (alu_lanes * _throughput(ps_regs, max_occ_regs))
    )

    vertex_bytes = verts * stride
    fetch_cycles = vertex_bytes / vertex_fetch_bpc

    setup_prims = np.where(cull_none, prims, prims * raster.CULL_SURVIVAL)
    raster_cycles = (
        setup_prims / raster_prims_pc + pix_rast / raster_pixels_pc
    )

    samples = pix_shaded * ps_tex + verts * vs_tex
    tex_cycles = samples / tex_rate
    pressure = footprint / tex_capacity
    cold = np.minimum(
        texture.MAX_MISS, texture.BASE_MISS + texture.CAPACITY_MISS_SCALE * pressure
    )
    miss = np.where(
        footprint == 0,
        0.0,
        cold * (warm * texture.WARM_MISS_MULTIPLIER + (1.0 - warm)),
    )
    tex_bytes = np.minimum(
        samples * miss * cacheline,
        texture.FOOTPRINT_OVERFETCH_CAP * footprint,
    )

    writes = pix_shaded * n_color
    rop_rate = rop_rate * np.where(
        blend_dest, rop.BLEND_THROUGHPUT_FACTOR, 1.0
    )
    depth_tests = np.where(depth_reads, pix_rast, 0.0)
    rop_cycles = (writes + 0.25 * depth_tests) / rop_rate

    color_write = pix_shaded * color_bpp
    rt_base = color_write + np.where(blend_dest, color_write, 0.0)
    depth_pp = depth_bpp * depth_compression
    rt_bytes = rt_base + np.where(depth_reads, pix_rast * depth_pp, 0.0)
    rt_bytes = rt_bytes + np.where(depth_writes, pix_shaded * depth_pp, 0.0)

    stages = np.stack(
        [vertex_cycles, fetch_cycles, raster_cycles, pixel_cycles, tex_cycles, rop_cycles]
    )
    slowest = stages.max(axis=0)
    residual = serial_fraction * (stages.sum(axis=0) - slowest)
    core = slowest + residual + switch + draw_overhead
    core = core * (1.0 + noise_amplitude * (2.0 * noise_units - 1.0))

    dram_bytes = (
        vertex_bytes * l2_miss_vertex
        + tex_bytes * l2_miss_tex
        + rt_bytes * l2_miss_rt
    )
    dram = dram_bytes / dram_bpc

    core_ns = 1e3 * core / core_clock
    mem_ns = 1e3 * dram / memory_clock
    times = np.maximum(core_ns, mem_ns) + mem_overlap * np.minimum(
        core_ns, mem_ns
    )
    (core_first, core_index), (dram_first, dram_index) = core_groups, dram_groups
    return CostModelOutput(
        times=times,
        core=core[core_first],
        core_index=core_index,
        dram=dram[dram_first],
        dram_index=dram_index,
        stages=stages[:, core_first] if collect_stages else None,
    )


_PYTHON_BACKEND = KernelBackend(
    "python",
    _reuse_python,
    _seg_f64_python,
    _seg_i64_python,
    _noise_python,
    _leader_python,
    _cost_model_python,
)


# ---------------------------------------------------------------------------
# C backend: compiled on demand with the host toolchain, loaded via ctypes
# ---------------------------------------------------------------------------

_C_SOURCE = r"""
#include <stdint.h>
#include <math.h>
#include <stdio.h>
#include <string.h>

static void fen_add(int64_t *tree, int64_t size, int64_t index, int64_t delta)
{
    for (int64_t i = index + 1; i <= size; i += i & (-i))
        tree[i] += delta;
}

static int64_t fen_prefix(const int64_t *tree, int64_t count)
{
    int64_t total = 0;
    for (int64_t i = count; i > 0; i -= i & (-i))
        total += tree[i];
    return total;
}

void repro_reuse_distances(
    const int64_t *dense_ids, const int64_t *sizes, const int64_t *offsets,
    int64_t num_draws, int64_t num_slots, int64_t num_ids,
    int64_t *tree, int64_t *last_touch, double *reuse)
{
    for (int64_t i = 0; i <= num_slots; i++) tree[i] = 0;
    for (int64_t i = 0; i < num_ids; i++) last_touch[i] = -1;
    for (int64_t s = 0; s < num_slots; s++) reuse[s] = INFINITY;
    int64_t live_total = 0;
    int64_t now = 0;
    for (int64_t d = 0; d < num_draws; d++) {
        for (int64_t s = offsets[d]; s < offsets[d + 1]; s++) {
            int64_t prev = last_touch[dense_ids[s]];
            if (prev >= 0)
                reuse[s] = (double)(sizes[s]
                    + (live_total - fen_prefix(tree, prev + 1)));
        }
        for (int64_t s = offsets[d]; s < offsets[d + 1]; s++) {
            int64_t tid = dense_ids[s];
            int64_t prev = last_touch[tid];
            if (prev >= 0) {
                fen_add(tree, num_slots, prev, -sizes[s]);
                live_total -= sizes[s];
            }
            fen_add(tree, num_slots, now, sizes[s]);
            live_total += sizes[s];
            last_touch[tid] = now;
            now++;
        }
    }
}

void repro_segment_sums_f64(
    const double *values, const int64_t *offsets, int64_t num_segments,
    double *out)
{
    double run = 0.0;
    int64_t i = 0;
    for (; i < offsets[0]; i++)
        run += values[i];
    for (int64_t d = 0; d < num_segments; d++) {
        double start = run;
        for (; i < offsets[d + 1]; i++)
            run += values[i];
        out[d] = run - start;
    }
}

void repro_segment_sums_i64(
    const int64_t *values, const int64_t *offsets, int64_t num_segments,
    int64_t *out)
{
    int64_t run = 0;
    int64_t i = 0;
    for (; i < offsets[0]; i++)
        run += values[i];
    for (int64_t d = 0; d < num_segments; d++) {
        int64_t start = run;
        for (; i < offsets[d + 1]; i++)
            run += values[i];
        out[d] = run - start;
    }
}

/* SHA-256 (FIPS 180-4), needed so the per-draw noise stream
 * stable_unit("simgpu-noise", frame, pos) can run compiled while
 * remaining bit-identical to hashlib: same digest, same first-8-bytes
 * big-endian integer, same mod / divide in double precision. */

static const uint32_t SHA_K[64] = {
    0x428a2f98u,0x71374491u,0xb5c0fbcfu,0xe9b5dba5u,
    0x3956c25bu,0x59f111f1u,0x923f82a4u,0xab1c5ed5u,
    0xd807aa98u,0x12835b01u,0x243185beu,0x550c7dc3u,
    0x72be5d74u,0x80deb1feu,0x9bdc06a7u,0xc19bf174u,
    0xe49b69c1u,0xefbe4786u,0x0fc19dc6u,0x240ca1ccu,
    0x2de92c6fu,0x4a7484aau,0x5cb0a9dcu,0x76f988dau,
    0x983e5152u,0xa831c66du,0xb00327c8u,0xbf597fc7u,
    0xc6e00bf3u,0xd5a79147u,0x06ca6351u,0x14292967u,
    0x27b70a85u,0x2e1b2138u,0x4d2c6dfcu,0x53380d13u,
    0x650a7354u,0x766a0abbu,0x81c2c92eu,0x92722c85u,
    0xa2bfe8a1u,0xa81a664bu,0xc24b8b70u,0xc76c51a3u,
    0xd192e819u,0xd6990624u,0xf40e3585u,0x106aa070u,
    0x19a4c116u,0x1e376c08u,0x2748774cu,0x34b0bcb5u,
    0x391c0cb3u,0x4ed8aa4au,0x5b9cca4fu,0x682e6ff3u,
    0x748f82eeu,0x78a5636fu,0x84c87814u,0x8cc70208u,
    0x90befffau,0xa4506cebu,0xbef9a3f7u,0xc67178f2u
};

#define ROTR32(x, n) (((x) >> (n)) | ((x) << (32 - (n))))

static void sha256_block(uint32_t state[8], const unsigned char block[64])
{
    uint32_t w[64];
    for (int t = 0; t < 16; t++)
        w[t] = ((uint32_t)block[4 * t] << 24)
             | ((uint32_t)block[4 * t + 1] << 16)
             | ((uint32_t)block[4 * t + 2] << 8)
             | (uint32_t)block[4 * t + 3];
    for (int t = 16; t < 64; t++) {
        uint32_t s0 = ROTR32(w[t - 15], 7) ^ ROTR32(w[t - 15], 18)
                    ^ (w[t - 15] >> 3);
        uint32_t s1 = ROTR32(w[t - 2], 17) ^ ROTR32(w[t - 2], 19)
                    ^ (w[t - 2] >> 10);
        w[t] = w[t - 16] + s0 + w[t - 7] + s1;
    }
    uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int t = 0; t < 64; t++) {
        uint32_t S1 = ROTR32(e, 6) ^ ROTR32(e, 11) ^ ROTR32(e, 25);
        uint32_t ch = (e & f) ^ ((~e) & g);
        uint32_t t1 = h + S1 + ch + SHA_K[t] + w[t];
        uint32_t S0 = ROTR32(a, 2) ^ ROTR32(a, 13) ^ ROTR32(a, 22);
        uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
        uint32_t t2 = S0 + maj;
        h = g; g = f; f = e; e = d + t1;
        d = c; c = b; b = a; a = t1 + t2;
    }
    state[0] += a; state[1] += b; state[2] += c; state[3] += d;
    state[4] += e; state[5] += f; state[6] += g; state[7] += h;
}

/* First 8 digest bytes as a big-endian unsigned 64-bit integer
 * (int.from_bytes(sha256(msg).digest()[:8], "big")). */
static uint64_t sha256_prefix64(const unsigned char *msg, uint64_t len)
{
    uint32_t state[8] = {
        0x6a09e667u, 0xbb67ae85u, 0x3c6ef372u, 0xa54ff53au,
        0x510e527fu, 0x9b05688cu, 0x1f83d9abu, 0x5be0cd19u
    };
    unsigned char block[64];
    uint64_t done = 0;
    while (len - done >= 64) {
        sha256_block(state, msg + done);
        done += 64;
    }
    uint64_t rem = len - done;
    memcpy(block, msg + done, rem);
    block[rem++] = 0x80;
    if (rem > 56) {
        memset(block + rem, 0, 64 - rem);
        sha256_block(state, block);
        rem = 0;
    }
    memset(block + rem, 0, 56 - rem);
    uint64_t bits = len * 8;
    for (int j = 0; j < 8; j++)
        block[56 + j] = (unsigned char)(bits >> (56 - 8 * j));
    sha256_block(state, block);
    return ((uint64_t)state[0] << 32) | (uint64_t)state[1];
}

/* out[i] = stable_unit("simgpu-noise", frame_index, i): the hashed
 * text is the python repr of the stringified component tuple, e.g.
 * ('simgpu-noise', '3', '17') -- plain ASCII, so utf-8 == bytes. */
void repro_noise_units(int64_t frame_index, int64_t n, double *out)
{
    const uint64_t modulus = 0x7fffffffffffffffULL; /* 2**63 - 1 */
    char text[96];
    /* The frame part is loop-invariant: format the prefix once and
     * append the position digits + closing quote/paren by hand. */
    int prefix = snprintf(text, sizeof text, "('simgpu-noise', '%lld', '",
                          (long long)frame_index);
    for (int64_t pos = 0; pos < n; pos++) {
        char digits[24];
        int nd = 0;
        uint64_t v = (uint64_t)pos;
        do {
            digits[nd++] = (char)('0' + (v % 10));
            v /= 10;
        } while (v);
        char *p = text + prefix;
        while (nd)
            *p++ = digits[--nd];
        *p++ = '\'';
        *p++ = ')';
        uint64_t h = sha256_prefix64((const unsigned char *)text,
                                     (uint64_t)(p - text)) % modulus;
        out[pos] = (double)h / (double)modulus;
    }
}

/* Leader clustering of n rows of d features (row-major): row i joins the
 * nearest leader founded before it when that distance is <= radius, else
 * it founds a new cluster.  A distance is the sqrt of the squared
 * differences summed left to right over the columns (built with
 * -ffp-contract=off, so no multiply-add is fused); ties go to the
 * earliest leader.  `leaders` is n * d scratch for the founders' rows.
 * Returns the number of clusters. */
int64_t repro_leader_cluster(
    const double *matrix, int64_t n, int64_t d, double radius,
    double *leaders, int64_t *labels, int64_t *leader_indices)
{
    int64_t count = 0;
    for (int64_t i = 0; i < n; i++) {
        const double *row = matrix + i * d;
        if (count) {
            int64_t nearest = 0;
            double nearest_dist = 0.0;
            for (int64_t k = 0; k < count; k++) {
                const double *leader = leaders + k * d;
                double sum = 0.0;
                for (int64_t j = 0; j < d; j++) {
                    double diff = leader[j] - row[j];
                    sum += diff * diff;
                }
                double dist = sqrt(sum);
                if (k == 0 || dist < nearest_dist) {
                    nearest = k;
                    nearest_dist = dist;
                }
            }
            if (nearest_dist <= radius) {
                labels[i] = nearest;
                continue;
            }
        }
        memcpy(leaders + count * d, row, (size_t)d * sizeof(double));
        leader_indices[count] = i;
        labels[i] = count;
        count++;
    }
    return count;
}

/* The cost model of repro.simgpu.cost over c configs x n draws, element
 * for element the numpy reference _cost_model_python: same operations,
 * same grouping (a + b * c + d * e is ((a + b * c) + d * e)), no fused
 * multiply-add.  Indices below follow COST_MODEL_DRAW_FIELDS,
 * COST_MODEL_FLAG_FIELDS, COST_MODEL_CONFIG_COLUMNS and
 * _COST_MODEL_CONSTANTS.  Each term is priced once per group of configs
 * with equal bits in every input it reads: core and stage cycles once
 * per core group, DRAM cycles once per DRAM group, and only the clock
 * divisions and the max/overlap combine once per config.  The loops are
 * branch-free (np.where's "compute both, select one" as ?:) so the
 * compiler can vectorize them. */
enum { D_VERTS, D_PRIMS, D_PIX_RAST, D_PIX_SHADED, D_STRIDE,
       D_VS_ALU, D_VS_TEX, D_VS_BRANCH, D_VS_REGS,
       D_PS_ALU, D_PS_TEX, D_PS_BRANCH, D_PS_REGS,
       D_FOOTPRINT, D_COLOR_BPP, D_N_COLOR, D_DEPTH_BPP, D_NOISE };
enum { F_CULL_NONE, F_BLEND_DEST, F_DEPTH_READS, F_DEPTH_WRITES };
enum { K_ALU_LANES, K_MAX_OCC_REGS, K_VERTEX_FETCH_BPC, K_RASTER_PRIMS_PC,
       K_RASTER_PIXELS_PC, K_TEX_RATE, K_TEX_CAPACITY, K_CACHELINE,
       K_ROP_RATE, K_DEPTH_COMPRESSION, K_SERIAL_FRACTION, K_DRAW_OVERHEAD,
       K_NOISE_AMPLITUDE, K_L2_MISS_VERTEX, K_L2_MISS_TEX, K_L2_MISS_RT,
       K_DRAM_BPC, K_CORE_CLOCK, K_MEMORY_CLOCK, K_MEM_OVERLAP, K_COUNT };
enum { M_TEX_OP_ALU_COST, M_BRANCH_OP_ALU_COST, M_MIN_THROUGHPUT,
       M_CULL_SURVIVAL, M_MAX_MISS, M_BASE_MISS, M_CAPACITY_MISS_SCALE,
       M_WARM_MISS_MULTIPLIER, M_FOOTPRINT_OVERFETCH_CAP,
       M_BLEND_THROUGHPUT };
/* Config-independent per-draw terms, computed once per frame. */
enum { H_VS_WORK, H_PS_WORK, H_VERTEX_BYTES, H_SETUP_PRIMS, H_SAMPLES,
       H_ROP_WORK, H_RT_BASE, H_NOISE, H_ROP_FACTOR, H_DEPTH_READS,
       H_DEPTH_WRITES, H_COUNT };

#define DRAW(f) (draws + (f) * n)
#define HOIST(h) (hoisted + (h) * n)

/* One core group's row: the six stage cycles and the core cycles.
 * Always inlined with a constant `collect`, so the stage stores cost
 * nothing when they are not asked for. */
static inline __attribute__((always_inline)) void core_row(
    const int collect, int64_t n,
    const double *restrict draws, const double *restrict hoisted,
    const double *restrict k, const double *restrict consts,
    const double *restrict switch_cycles, double *restrict core,
    double *restrict s_vertex, double *restrict s_fetch,
    double *restrict s_raster, double *restrict s_pixel,
    double *restrict s_texture, double *restrict s_rop)
{
    const double min_thr = consts[M_MIN_THROUGHPUT];
    const double thr_span = 1.0 - min_thr;
    for (int64_t i = 0; i < n; i++) {
        double occ_vs = k[K_MAX_OCC_REGS] / DRAW(D_VS_REGS)[i];
        occ_vs = occ_vs < 1.0 ? occ_vs : 1.0;
        double occ_ps = k[K_MAX_OCC_REGS] / DRAW(D_PS_REGS)[i];
        occ_ps = occ_ps < 1.0 ? occ_ps : 1.0;
        double vertex = HOIST(H_VS_WORK)[i]
            / (k[K_ALU_LANES] * (min_thr + thr_span * occ_vs));
        double pixel = HOIST(H_PS_WORK)[i]
            / (k[K_ALU_LANES] * (min_thr + thr_span * occ_ps));
        double fetch = HOIST(H_VERTEX_BYTES)[i] / k[K_VERTEX_FETCH_BPC];
        double rast = HOIST(H_SETUP_PRIMS)[i] / k[K_RASTER_PRIMS_PC]
                      + DRAW(D_PIX_RAST)[i] / k[K_RASTER_PIXELS_PC];
        double tex = HOIST(H_SAMPLES)[i] / k[K_TEX_RATE];
        double rop_cycles = HOIST(H_ROP_WORK)[i] / (k[K_ROP_RATE] * HOIST(H_ROP_FACTOR)[i]);

        double slowest = vertex;
        slowest = fetch > slowest ? fetch : slowest;
        slowest = rast > slowest ? rast : slowest;
        slowest = pixel > slowest ? pixel : slowest;
        slowest = tex > slowest ? tex : slowest;
        slowest = rop_cycles > slowest ? rop_cycles : slowest;
        double stage_sum = ((((vertex + fetch) + rast) + pixel) + tex) + rop_cycles;
        double residual = k[K_SERIAL_FRACTION] * (stage_sum - slowest);
        double core_cycles = ((slowest + residual) + switch_cycles[i]) + k[K_DRAW_OVERHEAD];
        core[i] = core_cycles * (1.0 + k[K_NOISE_AMPLITUDE] * HOIST(H_NOISE)[i]);
        if (collect) {
            s_vertex[i] = vertex;
            s_fetch[i] = fetch;
            s_raster[i] = rast;
            s_pixel[i] = pixel;
            s_texture[i] = tex;
            s_rop[i] = rop_cycles;
        }
    }
}

/* One DRAM group's row: texture, vertex and render-target traffic over
 * the DRAM bytes per cycle. */
static void dram_row(
    int64_t n, const double *restrict draws, const double *restrict hoisted,
    const double *restrict k, const double *restrict consts,
    const double *restrict warm, double *restrict dram)
{
    for (int64_t i = 0; i < n; i++) {
        double footprint = DRAW(D_FOOTPRINT)[i];
        double cold = consts[M_BASE_MISS]
                      + consts[M_CAPACITY_MISS_SCALE] * (footprint / k[K_TEX_CAPACITY]);
        cold = cold < consts[M_MAX_MISS] ? cold : consts[M_MAX_MISS];
        double miss = cold * (warm[i] * consts[M_WARM_MISS_MULTIPLIER] + (1.0 - warm[i]));
        miss = footprint == 0.0 ? 0.0 : miss;
        double tex_bytes = (HOIST(H_SAMPLES)[i] * miss) * k[K_CACHELINE];
        double tex_cap = consts[M_FOOTPRINT_OVERFETCH_CAP] * footprint;
        tex_bytes = tex_bytes < tex_cap ? tex_bytes : tex_cap;
        double depth_pp = DRAW(D_DEPTH_BPP)[i] * k[K_DEPTH_COMPRESSION];
        double read_bytes = DRAW(D_PIX_RAST)[i] * depth_pp;
        double write_bytes = DRAW(D_PIX_SHADED)[i] * depth_pp;
        double rt_bytes = HOIST(H_RT_BASE)[i]
            + (HOIST(H_DEPTH_READS)[i] != 0.0 ? read_bytes : 0.0);
        rt_bytes = rt_bytes + (HOIST(H_DEPTH_WRITES)[i] != 0.0 ? write_bytes : 0.0);
        dram[i] = ((HOIST(H_VERTEX_BYTES)[i] * k[K_L2_MISS_VERTEX]
                    + tex_bytes * k[K_L2_MISS_TEX])
                   + rt_bytes * k[K_L2_MISS_RT]) / k[K_DRAM_BPC];
    }
}

/* One config's times from its core and DRAM rows. */
static void times_row(
    int64_t n, const double *restrict k, const double *restrict core,
    const double *restrict dram, double *restrict times)
{
    for (int64_t i = 0; i < n; i++) {
        double core_ns = (1e3 * core[i]) / k[K_CORE_CLOCK];
        double mem_ns = (1e3 * dram[i]) / k[K_MEMORY_CLOCK];
        double hi = core_ns > mem_ns ? core_ns : mem_ns;
        double lo = core_ns < mem_ns ? core_ns : mem_ns;
        times[i] = hi + k[K_MEM_OVERLAP] * lo;
    }
}

/* `draws` and `flags` hold one row of n per input field; `hoisted` is
 * H_COUNT * n scratch.  Core group g is priced with the parameters of
 * config core_first[g] and DRAM group g with those of dram_first[g];
 * config ci reads its rows core_index[ci] and dram_index[ci].  `core`
 * is rc * n, `dram` rd * n and `times` c * n; `stages` is NULL or 6
 * planes of rc * n, one per stage in COST_MODEL_STAGES order. */
void repro_cost_model(
    int64_t n, int64_t c, int64_t rc, int64_t rd,
    const double *draws, const uint8_t *flags,
    const double *configs, const double *consts,
    const double *warm_rows, const int64_t *warm_index,
    const double *switch_rows, const int64_t *switch_index,
    const int64_t *core_first, const int64_t *core_index,
    const int64_t *dram_first, const int64_t *dram_index,
    double *hoisted, double *times, double *core, double *dram, double *stages)
{
    const uint8_t *cull_none = flags + F_CULL_NONE * n;
    const uint8_t *blend_dest = flags + F_BLEND_DEST * n;
    const uint8_t *depth_reads = flags + F_DEPTH_READS * n;
    const uint8_t *depth_writes = flags + F_DEPTH_WRITES * n;
    for (int64_t i = 0; i < n; i++) {
        double vs_ops = (DRAW(D_VS_ALU)[i] + consts[M_TEX_OP_ALU_COST] * DRAW(D_VS_TEX)[i])
                        + consts[M_BRANCH_OP_ALU_COST] * DRAW(D_VS_BRANCH)[i];
        double ps_ops = (DRAW(D_PS_ALU)[i] + consts[M_TEX_OP_ALU_COST] * DRAW(D_PS_TEX)[i])
                        + consts[M_BRANCH_OP_ALU_COST] * DRAW(D_PS_BRANCH)[i];
        double verts = DRAW(D_VERTS)[i], prims = DRAW(D_PRIMS)[i];
        double pix_rast = DRAW(D_PIX_RAST)[i], pix_shaded = DRAW(D_PIX_SHADED)[i];
        HOIST(H_VS_WORK)[i] = verts * vs_ops;
        HOIST(H_PS_WORK)[i] = pix_shaded * ps_ops;
        HOIST(H_VERTEX_BYTES)[i] = verts * DRAW(D_STRIDE)[i];
        HOIST(H_SETUP_PRIMS)[i] = cull_none[i] ? prims : prims * consts[M_CULL_SURVIVAL];
        HOIST(H_SAMPLES)[i] = pix_shaded * DRAW(D_PS_TEX)[i] + verts * DRAW(D_VS_TEX)[i];
        double writes = pix_shaded * DRAW(D_N_COLOR)[i];
        double depth_tests = depth_reads[i] ? pix_rast : 0.0;
        HOIST(H_ROP_WORK)[i] = writes + 0.25 * depth_tests;
        double color_write = pix_shaded * DRAW(D_COLOR_BPP)[i];
        HOIST(H_RT_BASE)[i] = color_write + (blend_dest[i] ? color_write : 0.0);
        HOIST(H_NOISE)[i] = 2.0 * DRAW(D_NOISE)[i] - 1.0;
        HOIST(H_ROP_FACTOR)[i] = blend_dest[i] ? consts[M_BLEND_THROUGHPUT] : 1.0;
        HOIST(H_DEPTH_READS)[i] = depth_reads[i] ? 1.0 : 0.0;
        HOIST(H_DEPTH_WRITES)[i] = depth_writes[i] ? 1.0 : 0.0;
    }
    const int64_t plane = rc * n;
    for (int64_t g = 0; g < rc; g++) {
        const int64_t ci = core_first[g];
        const double *k = configs + ci * K_COUNT;
        const double *switch_cycles = switch_rows + switch_index[ci] * n;
        double *s = stages ? stages + g * n : NULL;
        if (s)
            core_row(1, n, draws, hoisted, k, consts, switch_cycles, core + g * n,
                     s, s + plane, s + 2 * plane, s + 3 * plane, s + 4 * plane,
                     s + 5 * plane);
        else
            core_row(0, n, draws, hoisted, k, consts, switch_cycles, core + g * n,
                     NULL, NULL, NULL, NULL, NULL, NULL);
    }
    for (int64_t g = 0; g < rd; g++) {
        const int64_t ci = dram_first[g];
        dram_row(n, draws, hoisted, configs + ci * K_COUNT, consts,
                 warm_rows + warm_index[ci] * n, dram + g * n);
    }
    for (int64_t ci = 0; ci < c; ci++)
        times_row(n, configs + ci * K_COUNT, core + core_index[ci] * n,
                  dram + dram_index[ci] * n, times + ci * n);
}

#undef DRAW
#undef HOIST
"""

_I64_P = ctypes.POINTER(ctypes.c_int64)
_F64_P = ctypes.POINTER(ctypes.c_double)

#: The model constants the C cost model reads, in its ``M_*`` order.
_COST_MODEL_CONSTANTS: Tuple[float, ...] = (
    shadercore.TEX_OP_ALU_COST,
    shadercore.BRANCH_OP_ALU_COST,
    shadercore.MIN_THROUGHPUT_FACTOR,
    raster.CULL_SURVIVAL,
    texture.MAX_MISS,
    texture.BASE_MISS,
    texture.CAPACITY_MISS_SCALE,
    texture.WARM_MISS_MULTIPLIER,
    texture.FOOTPRINT_OVERFETCH_CAP,
    rop.BLEND_THROUGHPUT_FACTOR,
)

#: Rows of the C cost model's config-independent scratch (its ``H_COUNT``).
_COST_MODEL_HOISTED_TERMS = 11


#: Compiler flags; ``-ffp-contract=off`` keeps every multiply and add
#: separately rounded, as numpy rounds them.  ``-O3`` and
#: ``-fno-trapping-math`` let the cost model's loop vectorize (its
#: selects become blends; about 1.6x faster on a 144-config sweep);
#: neither allows reassociation.
_CFLAGS = ("-O3", "-ffp-contract=off", "-fno-trapping-math", "-fPIC", "-shared")


def _c_source_digest() -> str:
    payload = f"abi={KERNEL_ABI_VERSION}\nflags={' '.join(_CFLAGS)}\n{_C_SOURCE}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def _find_compiler() -> Optional[str]:
    for name in ("cc", "gcc", "clang"):
        found = shutil.which(name)
        if found:
            return found
    return None


def _kernel_build_dir() -> Path:
    # Imported lazily: runtime.cache pulls in repro.obs, which the
    # kernels themselves never need at import time.
    from repro.runtime.cache import default_cache_dir

    return default_cache_dir() / "kernels"


def _compile_c_library() -> Path:
    """Compile (or reuse) the kernel library; returns the ``.so`` path.

    The library is content-addressed by source + ABI version, so a
    machine compiles each kernel revision exactly once.  The source is
    piped to the compiler on stdin, so no shared source file exists that
    a crashed or concurrent builder could leave half-written; the
    compiler writes the library to a temp name from
    :func:`~repro.util.atomicfile.atomic_path`, which replaces
    ``so_path`` only on success (concurrent builders produce identical
    bytes, last writer wins).
    """
    build_dir = _kernel_build_dir()
    so_path = build_dir / f"reprokern-{_c_source_digest()}.so"
    if so_path.exists():
        return so_path
    compiler = _find_compiler()
    if compiler is None:
        raise ConfigError("no C compiler (cc/gcc/clang) on PATH")
    build_dir.mkdir(parents=True, exist_ok=True)
    with atomic_path(so_path) as tmp_name:
        proc = subprocess.run(
            [compiler, *_CFLAGS, "-x", "c", "-", "-o", tmp_name, "-lm"],
            input=_C_SOURCE,
            capture_output=True,
            text=True,
            timeout=120,
            check=False,
        )
        if proc.returncode != 0:
            raise ConfigError(
                f"kernel compile failed ({compiler}): {proc.stderr.strip()[:500]}"
            )
    return so_path


def _load_cext_backend() -> KernelBackend:
    lib = ctypes.CDLL(str(_compile_c_library()))
    lib.repro_reuse_distances.restype = None
    lib.repro_reuse_distances.argtypes = [
        _I64_P, _I64_P, _I64_P,
        ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
        _I64_P, _I64_P, _F64_P,
    ]
    lib.repro_segment_sums_f64.restype = None
    lib.repro_segment_sums_f64.argtypes = [_F64_P, _I64_P, ctypes.c_int64, _F64_P]
    lib.repro_segment_sums_i64.restype = None
    lib.repro_segment_sums_i64.argtypes = [_I64_P, _I64_P, ctypes.c_int64, _I64_P]
    lib.repro_noise_units.restype = None
    lib.repro_noise_units.argtypes = [ctypes.c_int64, ctypes.c_int64, _F64_P]
    lib.repro_leader_cluster.restype = ctypes.c_int64
    lib.repro_leader_cluster.argtypes = [
        _F64_P, ctypes.c_int64, ctypes.c_int64, ctypes.c_double,
        _F64_P, _I64_P, _I64_P,
    ]
    # Addresses go in as plain integers: at C = 1 the frame is small and
    # each ``data_as`` wrapper costs about as much as pricing a draw.
    lib.repro_cost_model.restype = None
    lib.repro_cost_model.argtypes = [ctypes.c_int64] * 4 + [ctypes.c_void_p] * 17
    constants = np.array(_COST_MODEL_CONSTANTS, dtype=np.float64)

    def i64p(array: np.ndarray) -> "ctypes._Pointer":
        return array.ctypes.data_as(_I64_P)

    def f64p(array: np.ndarray) -> "ctypes._Pointer":
        return array.ctypes.data_as(_F64_P)

    def reuse(
        dense_ids: np.ndarray, sizes: np.ndarray, offsets: np.ndarray, num_ids: int
    ) -> np.ndarray:
        num_slots = len(sizes)
        num_draws = len(offsets) - 1
        out = np.empty(num_slots, dtype=np.float64)
        tree = np.empty(num_slots + 1, dtype=np.int64)
        last_touch = np.empty(max(1, num_ids), dtype=np.int64)
        lib.repro_reuse_distances(
            i64p(dense_ids), i64p(sizes), i64p(offsets),
            num_draws, num_slots, num_ids,
            i64p(tree), i64p(last_touch), f64p(out),
        )
        return out

    def seg_f64(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        out = np.empty(len(offsets) - 1, dtype=np.float64)
        lib.repro_segment_sums_f64(f64p(values), i64p(offsets), len(out), out.ctypes.data_as(_F64_P))
        return out

    def seg_i64(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        out = np.empty(len(offsets) - 1, dtype=np.int64)
        lib.repro_segment_sums_i64(i64p(values), i64p(offsets), len(out), i64p(out))
        return out

    def noise(frame_index: int, n: int) -> np.ndarray:
        out = np.empty(n, dtype=np.float64)
        lib.repro_noise_units(frame_index, n, f64p(out))
        return out

    def leader(matrix: np.ndarray, radius: float) -> Tuple[np.ndarray, np.ndarray]:
        n, d = matrix.shape
        leaders = np.empty((n, d), dtype=np.float64)
        labels = np.empty(n, dtype=np.int64)
        leader_indices = np.empty(n, dtype=np.int64)
        count = lib.repro_leader_cluster(
            f64p(matrix), n, d, radius, f64p(leaders), i64p(labels), i64p(leader_indices)
        )
        return labels, leader_indices[:count].copy()

    def cost_model(
        draws: np.ndarray,
        flags: np.ndarray,
        configs: np.ndarray,
        warm_rows: np.ndarray,
        warm_index: np.ndarray,
        switch_rows: np.ndarray,
        switch_index: np.ndarray,
        core_groups: Groups,
        dram_groups: Groups,
        collect_stages: bool,
    ) -> CostModelOutput:
        c, n = configs.shape[0], draws.shape[1]
        (core_first, core_index), (dram_first, dram_index) = core_groups, dram_groups
        rc, rd = core_first.shape[0], dram_first.shape[0]
        times = np.empty((c, n))
        core = np.empty((rc, n))
        dram = np.empty((rd, n))
        stages = np.empty((len(COST_MODEL_STAGES), rc, n)) if collect_stages else None
        hoisted = np.empty((_COST_MODEL_HOISTED_TERMS, n))
        lib.repro_cost_model(
            n, c, rc, rd, draws.ctypes.data, flags.ctypes.data,
            configs.ctypes.data, constants.ctypes.data,
            warm_rows.ctypes.data, warm_index.ctypes.data,
            switch_rows.ctypes.data, switch_index.ctypes.data,
            core_first.ctypes.data, core_index.ctypes.data,
            dram_first.ctypes.data, dram_index.ctypes.data,
            hoisted.ctypes.data, times.ctypes.data, core.ctypes.data,
            dram.ctypes.data, stages.ctypes.data if stages is not None else None,
        )
        return CostModelOutput(times, core, core_index, dram, dram_index, stages)

    return KernelBackend("cext", reuse, seg_f64, seg_i64, noise, leader, cost_model)


# ---------------------------------------------------------------------------
# Backend resolution
# ---------------------------------------------------------------------------

#: Resolved backends by requested name (and failures, so an unavailable
#: backend is probed at most once per process).
_RESOLVED: Dict[str, KernelBackend] = {}
_FAILED: Dict[str, str] = {}

_LOADERS: Dict[str, Callable[[], KernelBackend]] = {
    "cext": _load_cext_backend,
    "python": lambda: _PYTHON_BACKEND,
}


def requested_backend() -> str:
    """The requested backend name (``$REPRO_KERNELS``, default auto)."""
    value = os.environ.get(KERNELS_ENV, "auto").strip().lower()
    return value or "auto"


def _try_load(name: str) -> Optional[KernelBackend]:
    if name in _RESOLVED:
        return _RESOLVED[name]
    if name in _FAILED:
        return None
    try:
        loaded = _LOADERS[name]()
    except ConfigError as exc:
        _FAILED[name] = str(exc)
        return None
    except Exception as exc:  # e.g. OSError: the built library will not load
        _FAILED[name] = f"{type(exc).__name__}: {exc}"
        return None
    _RESOLVED[name] = loaded
    return loaded


def backend() -> KernelBackend:
    """The active kernel backend, resolved lazily from ``$REPRO_KERNELS``.

    ``auto`` tries the C extension, then pure python; an
    *explicitly* requested backend that cannot load raises
    :class:`ConfigError` carrying the underlying failure.
    """
    name = requested_backend()
    if name == "auto":
        if "auto" in _RESOLVED:
            return _RESOLVED["auto"]
        for candidate in ("cext", "python"):
            loaded = _try_load(candidate)
            if loaded is not None:
                _RESOLVED["auto"] = loaded
                return loaded
        raise ConfigError("no kernel backend available")  # pragma: no cover
    if name not in _LOADERS:
        raise ConfigError(
            f"unknown kernel backend {name!r}; valid values: "
            f"{', '.join(KERNEL_BACKENDS)}"
        )
    loaded = _try_load(name)
    if loaded is None:
        raise ConfigError(
            f"kernel backend {name!r} is unavailable: {_FAILED.get(name)}"
        )
    return loaded


def set_backend(name: str) -> str:
    """Select the kernel backend process-wide (and for worker children).

    Validates ``name``, exports it via ``$REPRO_KERNELS`` (worker
    processes inherit the environment, so pool workers resolve the same
    backend), and eagerly resolves it so misconfiguration fails at the
    CLI boundary instead of mid-sweep.  Returns the resolved name.
    """
    cleaned = name.strip().lower()
    if cleaned not in KERNEL_BACKENDS:
        raise ConfigError(
            f"unknown kernel backend {name!r}; valid values: "
            f"{', '.join(KERNEL_BACKENDS)}"
        )
    os.environ[KERNELS_ENV] = cleaned
    return backend().name


def resolved_backend_name() -> Optional[str]:
    """The active backend's name if already resolved, else ``None``.

    Reporting surfaces (the environment fingerprint) use this so
    that *recording* a run never forces a compile/import as a side
    effect: simulating commands resolve the backend while simulating,
    and non-simulating commands honestly report ``None``.
    """
    name = requested_backend()
    resolved = _RESOLVED.get(name)
    return resolved.name if resolved is not None else None


def kernel_info(resolve: bool = False) -> Dict[str, Optional[str]]:
    """Requested + resolved backend names, for run records and benches."""
    if resolve:
        backend()
    return {"requested": requested_backend(), "backend": resolved_backend_name()}


def _reset_backend_cache() -> None:
    """Forget resolved/failed backends (tests poking at availability)."""
    _RESOLVED.clear()
    _FAILED.clear()


# ---------------------------------------------------------------------------
# Public kernel entry points
# ---------------------------------------------------------------------------


def reuse_distances(
    tex_ids: np.ndarray, sizes: np.ndarray, offsets: np.ndarray
) -> np.ndarray:
    """Size-weighted LRU stack distances for flat per-slot texture arrays.

    ``tex_ids``/``sizes`` hold one entry per bound-texture slot in draw
    order, ``offsets`` the ``[offsets[d], offsets[d+1])`` slot segment
    of draw ``d``.  Returns float64 distances (``inf`` on first touch);
    a texture is resident in an LRU of capacity ``C`` exactly when its
    distance is ``<= C``.
    """
    num_slots = int(tex_ids.shape[0])
    if num_slots == 0:
        return np.full(0, np.inf)
    uniques, inverse = np.unique(tex_ids, return_inverse=True)
    dense = np.ascontiguousarray(inverse, dtype=np.int64)
    sizes = np.ascontiguousarray(sizes, dtype=np.int64)
    offsets = np.ascontiguousarray(offsets, dtype=np.int64)
    return backend()._reuse(dense, sizes, offsets, int(len(uniques)))


def segment_sums(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Float64 per-segment totals (running-prefix-difference contract)."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    offsets = np.ascontiguousarray(offsets, dtype=np.int64)
    if len(values) == 0:
        return np.zeros(len(offsets) - 1, dtype=np.float64)
    return backend()._seg_f64(values, offsets)


def segment_sums_i64(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Int64 per-segment totals (exact integer arithmetic)."""
    values = np.ascontiguousarray(values, dtype=np.int64)
    offsets = np.ascontiguousarray(offsets, dtype=np.int64)
    if len(values) == 0:
        return np.zeros(len(offsets) - 1, dtype=np.int64)
    return backend()._seg_i64(values, offsets)


def noise_units(frame_index: int, n: int) -> np.ndarray:
    """The per-draw noise stream of one frame, as a float64 array.

    ``out[i] == stable_unit("simgpu-noise", frame_index, i)`` exactly:
    the compiled backend reproduces hashlib's sha256 and the identical
    integer-to-double conversions, so the bits match the python loop.
    """
    if n <= 0:
        return np.zeros(0)
    return backend()._noise(int(frame_index), int(n))


def leader_labels(matrix: np.ndarray, radius: float) -> Tuple[np.ndarray, np.ndarray]:
    """Leader clustering of ``matrix``'s rows: ``(labels, leader_indices)``.

    Rows are taken in order; each joins the nearest leader founded before
    it when that distance is ``<= radius`` (ties to the earliest leader),
    else it founds a new cluster.  ``matrix`` must be a finite 2-D array
    with at least one row and one column; :func:`repro.core.leader.
    leader_cluster` validates that before calling here.
    """
    matrix = np.ascontiguousarray(matrix, dtype=np.float64)
    return backend()._leader(matrix, float(radius))


def _check_groups(groups: Optional[Groups], c: int, name: str) -> Groups:
    """Validate a ``(first, index)`` grouping of ``c`` configs (``None``: one per config)."""
    if groups is None:
        identity = np.arange(c, dtype=np.int64)
        return identity, identity
    first, index = (np.ascontiguousarray(a, dtype=np.int64) for a in groups)
    if first.ndim != 1 or index.shape != (c,):
        raise ConfigError(f"cost model {name} groups must be (R,) firsts and (C,) indices")
    r = first.shape[0]
    if c and (
        index.min() < 0 or index.max() >= r or first.min() < 0 or first.max() >= c
        or not np.array_equal(index[first], np.arange(r))
    ):
        raise ConfigError(f"cost model {name} groups are inconsistent")
    return first, index


def cost_model(
    frame: Any,
    configs: np.ndarray,
    warm_rows: np.ndarray,
    warm_index: np.ndarray,
    switch_rows: np.ndarray,
    switch_index: np.ndarray,
    core_groups: Optional[Groups] = None,
    dram_groups: Optional[Groups] = None,
    collect_stages: bool = False,
) -> CostModelOutput:
    """Price every draw of one frame on every config, as a :class:`CostModelOutput`.

    ``frame`` carries the per-draw arrays named by
    :data:`COST_MODEL_DRAW_FIELDS` and :data:`COST_MODEL_FLAG_FIELDS`
    (a :class:`~repro.simgpu.batch.FramePrecomp`); ``configs`` is the
    ``(C, K)`` matrix of :data:`COST_MODEL_CONFIG_COLUMNS`.  Config
    ``i`` reads texture warmth from ``warm_rows[warm_index[i]]`` and
    switch penalties from ``switch_rows[switch_index[i]]``, so configs
    that share a cache size or switch costs share one row.
    ``core_groups`` and ``dram_groups`` (:data:`Groups`; ``None`` puts
    each config in its own group) name the configs whose core and DRAM
    rows are priced once: the members of a core group must be equal, bit
    for bit, in :data:`COST_MODEL_CORE_COLUMNS` and the switch row, and
    those of a DRAM group in :data:`COST_MODEL_DRAM_COLUMNS` and the
    warm row (:class:`~repro.simgpu.batch.ConfigTable` builds such
    groups).  The ``(6, Rc, N)`` stage cycles are returned when
    ``collect_stages`` is set.
    """
    try:
        draws = np.stack(
            [getattr(frame, name) for name in COST_MODEL_DRAW_FIELDS], dtype=np.float64
        )
        flags = np.stack(
            [getattr(frame, name) for name in COST_MODEL_FLAG_FIELDS], dtype=np.bool_
        ).view(np.uint8)
    except ValueError as exc:
        raise ConfigError(f"cost model draw inputs must be equally long: {exc}") from None
    if draws.ndim != 2:
        raise ConfigError(f"cost model draw inputs must be 1-D, got {draws.shape[1:]}")
    n = draws.shape[1]
    configs = np.ascontiguousarray(configs, dtype=np.float64)
    if configs.ndim != 2 or configs.shape[1] != len(COST_MODEL_CONFIG_COLUMNS):
        raise ConfigError(
            f"cost model configs must be (C, {len(COST_MODEL_CONFIG_COLUMNS)}), "
            f"got {configs.shape}"
        )
    c = configs.shape[0]
    context = []
    for rows, index in ((warm_rows, warm_index), (switch_rows, switch_index)):
        rows = np.ascontiguousarray(rows, dtype=np.float64)
        index = np.ascontiguousarray(index, dtype=np.int64)
        if rows.ndim != 2 or rows.shape[1] != n or index.shape != (c,):
            raise ConfigError("cost model context rows must be (R, N), indexed per config")
        if c and (index.min() < 0 or index.max() >= rows.shape[0]):
            raise ConfigError("cost model context row index out of range")
        context += [rows, index]
    return backend()._cost_model(
        draws, flags, configs, *context,
        _check_groups(core_groups, c, "core"), _check_groups(dram_groups, c, "DRAM"),
        bool(collect_stages),
    )


__all__: Tuple[str, ...] = (
    "COST_MODEL_CONFIG_COLUMNS",
    "COST_MODEL_CORE_COLUMNS",
    "COST_MODEL_DRAM_COLUMNS",
    "COST_MODEL_DRAW_FIELDS",
    "COST_MODEL_FLAG_FIELDS",
    "COST_MODEL_STAGES",
    "KERNELS_ENV",
    "KERNEL_BACKENDS",
    "CostModelOutput",
    "Groups",
    "KernelBackend",
    "backend",
    "cost_model",
    "kernel_info",
    "leader_labels",
    "noise_units",
    "requested_backend",
    "resolved_backend_name",
    "reuse_distances",
    "segment_sums",
    "segment_sums_i64",
    "set_backend",
)
