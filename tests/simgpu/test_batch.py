"""Batch path equivalence: the vectorized simulator must match the
sequential reference exactly (up to float rounding)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gfx.enums import PrimitiveTopology
from repro.gfx.state import (
    ADDITIVE_STATE,
    FULLSCREEN_STATE,
    OPAQUE_STATE,
    TRANSPARENT_STATE,
)
from repro import datasets
from repro.errors import SimulationError
from repro.runtime.engine import Runtime
from repro.simgpu import _kernels, batch
from repro.simgpu.batch import (
    ConfigTable,
    _context_rows,
    _frame_outputs,
    clear_precomp_cache,
    frame_precomp_cached,
    simulate_frame_multi,
    simulate_frame_range_multi,
    simulate_frame_times_multi,
)
from repro.simgpu.config import GpuConfig
from repro.simgpu.precomp_store import PRECOMP_DIR_ENV
from repro.simgpu.simulator import GpuSimulator

from tests.conftest import make_draw, make_world

CFG = GpuConfig()

STATES = [OPAQUE_STATE, TRANSPARENT_STATE, ADDITIVE_STATE, FULLSCREEN_STATE]


draw_strategy = st.builds(
    make_draw,
    shader_id=st.integers(min_value=1, max_value=5),
    vertex_count=st.integers(min_value=1, max_value=100000),
    pixels=st.integers(min_value=0, max_value=500000),
    shaded_fraction=st.floats(min_value=0.0, max_value=1.0),
    texture_ids=st.sampled_from([(), (10,), (11, 12), (10, 11, 12)]),
    state=st.sampled_from(STATES),
    topology=st.sampled_from(list(PrimitiveTopology)),
    instance_count=st.integers(min_value=1, max_value=8),
)

config_strategy = st.builds(
    lambda cores, tex_kb, l2_kb, clock, mem_clock, shader_sw, rt_sw: (
        GpuConfig().scaled(
            name="rnd",
            num_shader_cores=cores,
            tex_cache_kb=tex_kb,
            l2_cache_kb=l2_kb,
            core_clock_mhz=clock,
            memory_clock_mhz=mem_clock,
            shader_switch_cycles=shader_sw,
            rt_switch_cycles=rt_sw,
        )
    ),
    cores=st.integers(min_value=1, max_value=16),
    tex_kb=st.integers(min_value=16, max_value=512),
    l2_kb=st.integers(min_value=128, max_value=4096),
    clock=st.floats(min_value=400.0, max_value=2000.0),
    mem_clock=st.floats(min_value=800.0, max_value=3000.0),
    shader_sw=st.integers(min_value=0, max_value=500),
    rt_sw=st.integers(min_value=0, max_value=2000),
)


class TestEquivalence:
    def test_matches_sequential_on_fixture(self, simple_trace):
        seq = GpuSimulator(CFG).simulate_trace(simple_trace, keep_draw_costs=True)
        bat = Runtime().simulate_trace(simple_trace, CFG)
        assert bat.total_time_ns == pytest.approx(seq.total_time_ns, rel=1e-12)
        for fs, fb in zip(seq.frame_results, bat.frame_results):
            assert fb.time_ns == pytest.approx(fs.time_ns, rel=1e-12)
            assert fb.core_cycles == pytest.approx(fs.core_cycles, rel=1e-12)
            assert fb.dram_cycles == pytest.approx(fs.dram_cycles, rel=1e-12)
            for key in fs.pass_times_ns:
                assert fb.pass_times_ns[key] == pytest.approx(
                    fs.pass_times_ns[key], rel=1e-12
                )

    def test_per_draw_times_match(self, simple_trace):
        seq = GpuSimulator(CFG).simulate_trace(simple_trace, keep_draw_costs=True)
        outputs = simulate_frame_range_multi(simple_trace, [CFG], 0, simple_trace.num_frames)[0]
        for fs, out in zip(seq.frame_results, outputs):
            np.testing.assert_allclose(
                out.draw_times_ns, np.array(fs.draw_times_ns()), rtol=1e-12
            )

    @settings(max_examples=25, deadline=None)
    @given(
        draws=st.lists(draw_strategy, min_size=1, max_size=12),
        preset=st.sampled_from(["lowpower", "mainstream", "highend"]),
    )
    def test_random_traces_match(self, draws, preset):
        trace = make_world([draws])
        config = GpuConfig.preset(preset)
        seq = GpuSimulator(config).simulate_trace(trace)
        bat = Runtime().simulate_trace(trace, config)
        assert bat.total_time_ns == pytest.approx(seq.total_time_ns, rel=1e-9)


class TestMultiConfigParity:
    """The config-vectorized pass must agree with the sequential reference
    and, row by row, with its own single-config (C = 1) case."""

    def _candidates(self):
        return [
            CFG,
            CFG.scaled(name="small-caches", tex_cache_kb=16, l2_cache_kb=256),
            CFG.with_core_clock(1400.0),
            GpuConfig.preset("lowpower"),
            GpuConfig.preset("highend"),
        ]

    def test_matches_single_config_batch_exactly(self, simple_trace):
        # Row i of the (C, N) broadcast is the same arithmetic as the
        # C = 1 pass over that config — bit-identical, not just close.
        configs = self._candidates()
        n = simple_trace.num_frames
        multi = simulate_frame_range_multi(simple_trace, configs, 0, n)
        for config, outputs in zip(configs, multi):
            single = simulate_frame_range_multi(simple_trace, [config], 0, n)[0]
            for fs, fm in zip(single, outputs):
                assert fm.time_ns == fs.time_ns
                assert fm.core_cycles == fs.core_cycles
                assert fm.dram_cycles == fs.dram_cycles
                assert fm.pass_times_ns == fs.pass_times_ns

    def test_three_way_parity_on_fixture(self, simple_trace):
        configs = self._candidates()
        multi = simulate_frame_range_multi(simple_trace, configs, 0, simple_trace.num_frames)
        for config, outputs in zip(configs, multi):
            seq = GpuSimulator(config).simulate_trace(simple_trace)
            for fs, fm in zip(seq.frame_results, outputs):
                assert fm.time_ns == pytest.approx(fs.time_ns, rel=1e-12)
                assert fm.core_cycles == pytest.approx(
                    fs.core_cycles, rel=1e-12
                )
                assert fm.dram_cycles == pytest.approx(
                    fs.dram_cycles, rel=1e-12
                )

    @settings(max_examples=25, deadline=None)
    @given(
        frames=st.lists(
            st.lists(draw_strategy, min_size=1, max_size=8),
            min_size=1,
            max_size=3,
        ),
        configs=st.lists(config_strategy, min_size=1, max_size=4),
    )
    def test_random_traces_and_configs_agree(self, frames, configs):
        """Sequential, single-config (C = 1) and config-vectorized runs
        agree per frame on time_ns / core_cycles / dram_cycles."""
        trace = make_world(frames)
        n = trace.num_frames
        multi = simulate_frame_range_multi(trace, configs, 0, n)
        for config, outputs in zip(configs, multi):
            seq = GpuSimulator(config).simulate_trace(trace)
            single = simulate_frame_range_multi(trace, [config], 0, n)[0]
            for fs, fb, fm in zip(seq.frame_results, single, outputs):
                for attr in ("time_ns", "core_cycles", "dram_cycles"):
                    want = getattr(fs, attr)
                    assert getattr(fb, attr) == pytest.approx(want, rel=1e-9)
                    assert getattr(fm, attr) == pytest.approx(want, rel=1e-9)

    def test_empty_configs(self, simple_trace):
        assert simulate_frame_range_multi(simple_trace, [], 0, 1) == []
        assert simulate_frame_times_multi(simple_trace, [], 0, 2).shape == (0, 2)

    def test_pass_and_stage_totals_are_per_config_row_sums(self):
        # One sum(axis=1) per pass span (and per stage or group row) over
        # all configs must equal the per-(config, pass) 1-D sums it
        # replaced, each config reading its own core and DRAM rows.
        trace = datasets.load("bioshock2_like", frames=3, seed=5, scale=0.05)
        table = ConfigTable(self._candidates())
        assert len(table.core_groups[0]) < len(table)
        assert len(table.dram_groups[0]) < len(table)
        for frame in trace.frames:
            fp = frame_precomp_cached(trace, frame)
            assert len({name for name, _, _ in fp.pass_spans}) > 1
            outputs = _frame_outputs(fp, simulate_frame_multi(fp, table, collect_stages=True))
            warm, switch = _context_rows(fp, table)
            costs = _kernels.cost_model(
                fp, table.matrix, warm, table.warm_index, switch, table.switch_index,
                table.core_groups, table.dram_groups, collect_stages=True,
            )
            times = costs.times
            vertex, fetch, raster, pixel, tex, rop = costs.stages
            assert len(outputs) == len(table)
            for ci, out in enumerate(outputs):
                core_row, dram_row = costs.core_index[ci], costs.dram_index[ci]
                pass_times = {}
                for name, start, end in fp.pass_spans:
                    total = float(times[ci, start:end].sum())
                    pass_times[name] = pass_times.get(name, 0.0) + total
                assert out.pass_times_ns == pass_times
                assert out.time_ns == float(times[ci].sum())
                assert out.core_cycles == float(costs.core[core_row].sum())
                assert out.dram_cycles == float(costs.dram[dram_row].sum())
                assert out.stage_cycles == {
                    "shader": float(vertex[core_row].sum() + pixel[core_row].sum()),
                    "fetch": float(fetch[core_row].sum()),
                    "raster": float(raster[core_row].sum()),
                    "texture": float(tex[core_row].sum()),
                    "rop": float(rop[core_row].sum()),
                    "memory": float(costs.dram[dram_row].sum()),
                }
                assert np.array_equal(out.draw_times_ns, times[ci])

    def test_frame_totals_equal_per_frame_outputs(self, simple_trace):
        configs = self._candidates()
        n = simple_trace.num_frames
        for start, stop in ((0, n), (1, n), (1, 1)):
            per_frame = simulate_frame_range_multi(simple_trace, configs, start, stop)
            totals = simulate_frame_times_multi(simple_trace, configs, start, stop)
            assert totals.shape == (len(configs), stop - start)
            assert totals.dtype == np.float64
            for row, outputs in zip(totals, per_frame):
                assert row.tolist() == [out.time_ns for out in outputs]
        with pytest.raises(SimulationError, match="frame range"):
            simulate_frame_times_multi(simple_trace, configs, 0, n + 1)

    def test_frame_totals_call_the_module_evaluator(self, simple_trace, monkeypatch):
        # Wrappers installed on the module attribute (the e2e benchmark's
        # evaluate hook) must see every frame the totals driver prices.
        calls = []
        original = batch.simulate_frame_multi

        def counting(fp, table, collect_stages=False):
            outputs = original(fp, table, collect_stages)
            calls.append(fp.num_draws * len(outputs))
            return outputs

        monkeypatch.setattr(batch, "simulate_frame_multi", counting)
        simulate_frame_times_multi(simple_trace, self._candidates(), 0, simple_trace.num_frames)
        assert calls == [
            frame.num_draws * len(self._candidates()) for frame in simple_trace.frames
        ]

    def test_invalid_range_rejected(self, simple_trace):
        with pytest.raises(SimulationError, match="frame range"):
            simulate_frame_range_multi(
                simple_trace, [CFG], 0, simple_trace.num_frames + 1
            )


class TestFramePrecompMemo:
    def test_cached_by_trace_digest(self, simple_trace):
        clear_precomp_cache()
        frame = simple_trace.frames[0]
        first = frame_precomp_cached(simple_trace, frame)
        second = frame_precomp_cached(simple_trace, frame)
        assert first is second
        clear_precomp_cache()
        third = frame_precomp_cached(simple_trace, frame)
        assert third is not first

    def test_memoized_range_matches_direct(self, simple_trace, monkeypatch):
        clear_precomp_cache()
        warmup = simulate_frame_range_multi(
            simple_trace, [CFG], 0, simple_trace.num_frames
        )
        memoized = simulate_frame_range_multi(
            simple_trace, [CFG], 0, simple_trace.num_frames
        )
        # Recompute from scratch: no memo and no shared store to map.
        clear_precomp_cache()
        monkeypatch.setenv(PRECOMP_DIR_ENV, "")
        fresh = simulate_frame_range_multi(
            simple_trace, [CFG], 0, simple_trace.num_frames
        )
        for out, warm_out, fresh_out in zip(memoized[0], warmup[0], fresh[0]):
            assert out.time_ns == warm_out.time_ns
            assert out.time_ns == fresh_out.time_ns


#: (render_target_ids, depth_target_id) bindings: equal and different
#: lengths, reordered ids, depth-only and colour-only.
BINDINGS = [((0,), 1), ((0,), None), ((2,), 1), ((0, 2), 1), ((2, 0), 1), ((), 1), ((0, 2), None)]


class TestSwitchEvents:
    @settings(max_examples=40, deadline=None)
    @given(
        draws=st.lists(
            st.tuples(draw_strategy, st.sampled_from(BINDINGS)), min_size=1, max_size=12
        )
    )
    def test_flags_and_times_match_the_reference(self, draws):
        import dataclasses

        from repro.simgpu.batch import precompute_frame

        rows = [
            dataclasses.replace(d, render_target_ids=rts, depth_target_id=depth)
            for d, (rts, depth) in draws
        ]
        trace = make_world([rows])
        fp = precompute_frame(trace, trace.frames[0])
        previous = [None] + rows[:-1]
        assert fp.shader_switch.tolist() == [
            p is None or p.shader_id != d.shader_id for p, d in zip(previous, rows)
        ]
        assert fp.state_switch.tolist() == [
            p is None or p.state.state_key != d.state.state_key for p, d in zip(previous, rows)
        ]
        assert fp.rt_switch.tolist() == [
            p is None
            or (p.render_target_ids, p.depth_target_id) != (d.render_target_ids, d.depth_target_id)
            for p, d in zip(previous, rows)
        ]
        seq = GpuSimulator(CFG).simulate_trace(trace, keep_draw_costs=True)
        out = simulate_frame_range_multi(trace, [CFG], 0, 1)[0][0]
        np.testing.assert_allclose(
            out.draw_times_ns, np.array(seq.frame_results[0].draw_times_ns()), rtol=1e-12
        )
