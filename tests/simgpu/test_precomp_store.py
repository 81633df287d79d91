"""Shared precompute store: round-trip identity, races, cache levels.

The store's contract is *bit-identity*: a FramePrecomp loaded from an
``.fpc`` mmap must equal the freshly computed one array for array
(values **and** dtypes), because simulation results are compared with
``==`` downstream.  These tests also pin the operational behaviours:
concurrent publishers converge on one file, corruption is evicted and
recomputed, the in-process memo honors ``$REPRO_PRECOMP_MEMO_TRACES``,
and ``clear_precomp_cache`` releases mmap handles.
"""

import threading

import numpy as np
import pytest

from repro.obs.context import ObsContext, activate_obs
from repro.obs.metrics import Metrics
from repro.runtime.keys import trace_digest
from repro.simgpu import precomp_store
from repro.simgpu.batch import (
    clear_precomp_cache,
    frame_precomp_cached,
    precompute_frame,
    prepublish_precomp,
)
from repro.simgpu.precomp_store import (
    ARRAY_FIELDS,
    PrecompStore,
    active_store,
    memo_trace_limit,
)

from tests.conftest import make_draw, make_world


@pytest.fixture
def store(tmp_path):
    return PrecompStore(tmp_path / "precomp")


@pytest.fixture
def trace():
    return make_world(
        [
            [
                make_draw(texture_ids=(10, 11)),
                make_draw(texture_ids=(11,)),
                make_draw(texture_ids=()),
            ],
            [make_draw(texture_ids=(12,))],
        ]
    )


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_precomp_cache()
    yield
    clear_precomp_cache()


def assert_frames_identical(computed, loaded):
    """Bit-identity over every serialized field (values and dtypes)."""
    assert loaded.frame_index == computed.frame_index
    assert loaded.num_draws == computed.num_draws
    assert loaded.pass_spans == computed.pass_spans
    for name in ARRAY_FIELDS:
        expected = getattr(computed, name)
        actual = getattr(loaded, name)
        assert actual.dtype == expected.dtype, name
        assert actual.shape == expected.shape, name
        # Compare raw bytes: equal for inf/nan patterns too, which
        # np.array_equal would treat specially.
        assert expected.tobytes() == actual.tobytes(), name


class TestRoundTrip:
    def test_mmap_round_trip_identity(self, store, trace):
        digest = trace_digest(trace)
        for frame in trace.frames:
            fp = precompute_frame(trace, frame)
            assert store.publish(digest, fp) is True
            loaded = store.load(digest, frame.index)
            assert loaded is not None
            assert_frames_identical(fp, loaded)

    def test_loaded_arrays_are_readonly_views(self, store, trace):
        digest = trace_digest(trace)
        frame = trace.frames[0]
        store.publish(digest, precompute_frame(trace, frame))
        loaded = store.load(digest, 0)
        assert not loaded.verts.flags.writeable
        with pytest.raises((ValueError, RuntimeError)):
            loaded.verts[0] = 1.0

    def test_republish_is_idempotent(self, store, trace):
        digest = trace_digest(trace)
        fp = precompute_frame(trace, trace.frames[0])
        assert store.publish(digest, fp) is True
        assert store.publish(digest, fp) is False

    def test_missing_frame_loads_none(self, store, trace):
        assert store.load(trace_digest(trace), 99) is None

    def test_corrupt_file_evicted_and_none(self, store, trace):
        digest = trace_digest(trace)
        fp = precompute_frame(trace, trace.frames[0])
        store.publish(digest, fp)
        path = store.frame_path(digest, 0)
        path.write_bytes(b"not a precomp file at all")
        assert store.load(digest, 0) is None
        assert not path.exists()  # evicted, so the caller republishes

    def test_truncated_file_evicted(self, store, trace):
        digest = trace_digest(trace)
        fp = precompute_frame(trace, trace.frames[0])
        store.publish(digest, fp)
        path = store.frame_path(digest, 0)
        payload = path.read_bytes()
        path.write_bytes(payload[: len(payload) // 2])
        assert store.load(digest, 0) is None
        assert not path.exists()


class TestConcurrentPublish:
    def test_two_publishers_one_file_both_load(self, store, trace):
        digest = trace_digest(trace)
        fp = precompute_frame(trace, trace.frames[0])
        barrier = threading.Barrier(2)
        results = []

        def publish():
            barrier.wait()
            results.append(store.publish(digest, fp))

        threads = [threading.Thread(target=publish) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Whatever the interleaving (one .exists() short-circuit, or two
        # full temp+rename publishes), exactly one final file exists and
        # loads identically for any reader.
        frame_dir = store.frame_path(digest, 0).parent
        finals = [p for p in frame_dir.iterdir() if p.suffix == ".fpc"]
        assert len(finals) == 1
        stray_tmps = [p for p in frame_dir.iterdir() if p.suffix == ".tmp"]
        assert stray_tmps == []
        loaded = store.load(digest, 0)
        assert loaded is not None
        assert_frames_identical(fp, loaded)

    def test_concurrent_loads_share_one_mapping(self, store, trace):
        digest = trace_digest(trace)
        store.publish(digest, precompute_frame(trace, trace.frames[0]))
        barrier = threading.Barrier(4)
        loaded = []

        def load():
            barrier.wait()
            loaded.append(store.load(digest, 0))

        threads = [threading.Thread(target=load) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(fp is not None for fp in loaded)
        assert store.open_handle_count() == 1


class TestCacheLevels:
    def test_three_levels(self, tmp_path, monkeypatch, trace):
        monkeypatch.setenv(
            precomp_store.PRECOMP_DIR_ENV, str(tmp_path / "precomp")
        )
        clear_precomp_cache()
        frame = trace.frames[0]
        metrics = Metrics()
        with activate_obs(ObsContext(metrics=metrics)):
            first = frame_precomp_cached(trace, frame)  # compute + publish
            second = frame_precomp_cached(trace, frame)  # memo
        assert second is first
        assert metrics.counter_total("precomp_store_misses") == 1
        assert metrics.counter_total("precomp_store_publishes") == 1
        assert metrics.counter_total("precomp_store_hits") == 0

        clear_precomp_cache()  # drop the memo; the store file remains
        metrics = Metrics()
        with activate_obs(ObsContext(metrics=metrics)):
            third = frame_precomp_cached(trace, frame)  # store mmap hit
        assert third is not first
        assert metrics.counter_total("precomp_store_hits") == 1
        assert metrics.counter_total("precomp_store_misses") == 0
        assert_frames_identical(first, third)

    def test_disabled_store_computes_in_memo_only(
        self, monkeypatch, trace
    ):
        monkeypatch.setenv(precomp_store.PRECOMP_DIR_ENV, "")
        clear_precomp_cache()
        assert active_store() is None
        metrics = Metrics()
        with activate_obs(ObsContext(metrics=metrics)):
            frame_precomp_cached(trace, trace.frames[0])
        assert metrics.counter_total("precomp_store_misses") == 0
        assert metrics.counter_total("precomp_store_publishes") == 0

    def test_memo_limit_from_env(self, monkeypatch):
        monkeypatch.setenv(precomp_store.PRECOMP_MEMO_ENV, "3")
        assert memo_trace_limit() == 3
        monkeypatch.setenv(precomp_store.PRECOMP_MEMO_ENV, "0")
        assert memo_trace_limit() == 1  # clamped: the memo never disables
        monkeypatch.setenv(precomp_store.PRECOMP_MEMO_ENV, "nonsense")
        assert memo_trace_limit() == precomp_store.DEFAULT_MEMO_TRACES
        monkeypatch.delenv(precomp_store.PRECOMP_MEMO_ENV)
        assert memo_trace_limit() == precomp_store.DEFAULT_MEMO_TRACES

    def test_memo_evicts_lru_trace_beyond_limit(self, monkeypatch):
        from repro.simgpu import batch

        monkeypatch.setenv(precomp_store.PRECOMP_MEMO_ENV, "2")
        monkeypatch.setenv(precomp_store.PRECOMP_DIR_ENV, "")
        clear_precomp_cache()
        traces = [
            make_world([[make_draw(texture_ids=(10 + i,))]], name=f"t{i}")
            for i in range(3)
        ]
        for t in traces:
            frame_precomp_cached(t, t.frames[0])
        assert len(batch._FRAME_PRECOMP_MEMO) == 2
        assert trace_digest(traces[0]) not in batch._FRAME_PRECOMP_MEMO
        assert trace_digest(traces[2]) in batch._FRAME_PRECOMP_MEMO

    def test_clear_releases_store_handles(self, tmp_path, monkeypatch, trace):
        monkeypatch.setenv(
            precomp_store.PRECOMP_DIR_ENV, str(tmp_path / "precomp")
        )
        clear_precomp_cache()
        frame = trace.frames[0]
        frame_precomp_cached(trace, frame)  # compute + publish
        clear_precomp_cache()
        store = active_store()
        frame_precomp_cached(trace, frame)  # mmap load -> open handle
        assert store.open_handle_count() == 1
        clear_precomp_cache()
        assert store.open_handle_count() == 0


class TestPrepublish:
    def test_prepublish_covers_every_frame(self, tmp_path, monkeypatch, trace):
        monkeypatch.setenv(
            precomp_store.PRECOMP_DIR_ENV, str(tmp_path / "precomp")
        )
        clear_precomp_cache()
        published = prepublish_precomp(trace)
        assert published == trace.num_frames
        store = active_store()
        digest = trace_digest(trace)
        for frame in trace.frames:
            assert store.has(digest, frame.index)
        # A second pre-publish finds everything present.
        assert prepublish_precomp(trace) == 0

    def test_prepublish_disabled_store_is_noop(self, monkeypatch, trace):
        monkeypatch.setenv(precomp_store.PRECOMP_DIR_ENV, "")
        clear_precomp_cache()
        assert prepublish_precomp(trace) == 0

    def test_runtime_prepublishes_with_compiled_backend(
        self, tmp_path, monkeypatch, trace, pooled_fan_outs
    ):
        from repro.simgpu import _kernels

        if _kernels._try_load("cext") is None:
            pytest.skip("cext backend unavailable")
        from repro.runtime.engine import Runtime
        from repro.simgpu.config import GpuConfig

        monkeypatch.setenv(_kernels.KERNELS_ENV, "cext")
        monkeypatch.setenv(
            precomp_store.PRECOMP_DIR_ENV, str(tmp_path / "precomp")
        )
        clear_precomp_cache()
        runtime = Runtime(jobs=2)
        runtime.simulate_frames_many(trace, [GpuConfig()])
        published = runtime.metrics.counter_total(
            "precomp_prepublished_frames"
        )
        assert published == trace.num_frames
        stages = runtime.metrics.snapshot().histogram_totals("stage_s", "stage")
        assert "precomp_publish" in stages

    def test_forked_workers_load_nothing_from_the_store(
        self, tmp_path, monkeypatch, trace, pooled_fan_outs
    ):
        """The parent holds every frame before the fan-out; its workers inherit it."""
        import os

        from repro.obs.spans import Tracer
        from repro.runtime.engine import Runtime
        from repro.simgpu import _kernels
        from repro.simgpu.config import GpuConfig

        if _kernels._try_load("cext") is None:
            pytest.skip("cext backend unavailable")
        monkeypatch.setenv(_kernels.KERNELS_ENV, "cext")
        monkeypatch.setenv(
            precomp_store.PRECOMP_DIR_ENV, str(tmp_path / "precomp")
        )
        assert prepublish_precomp(trace) == trace.num_frames  # a warm store
        clear_precomp_cache()  # ... and a cold memo
        parent, parent_loads = os.getpid(), []
        original = PrecompStore.load

        def load(self, digest, frame_index):
            if os.getpid() != parent:
                raise AssertionError(f"worker loaded frame {frame_index} from the store")
            parent_loads.append(frame_index)
            return original(self, digest, frame_index)

        monkeypatch.setattr(PrecompStore, "load", load)
        runtime = Runtime(jobs=2, tracer=Tracer())
        for clock in (800.0, 1200.0):  # two fan-outs, one load per frame
            runtime.frame_times_many(trace, [GpuConfig().with_core_clock(clock)])
        assert sorted(parent_loads) == [frame.index for frame in trace.frames]
        assert runtime.metrics.counter_total("precomp_store_hits") == trace.num_frames
        assert any(span.pid != parent for span in runtime.tracer.spans())

    def test_runtime_skips_prepublish_on_python_backend(
        self, tmp_path, monkeypatch, trace, pooled_fan_outs
    ):
        """Pure-python kernels: the parent must not serialize precompute."""
        from repro.runtime.engine import Runtime
        from repro.simgpu import _kernels
        from repro.simgpu.config import GpuConfig

        monkeypatch.setenv(_kernels.KERNELS_ENV, "python")
        monkeypatch.setenv(
            precomp_store.PRECOMP_DIR_ENV, str(tmp_path / "precomp")
        )
        clear_precomp_cache()
        runtime = Runtime(jobs=2)
        runtime.simulate_frames_many(trace, [GpuConfig()])
        published = runtime.metrics.counter_total(
            "precomp_prepublished_frames"
        )
        assert published == 0

    def test_parallel_sweep_parity_with_store(
        self, tmp_path, monkeypatch, trace, pooled_fan_outs
    ):
        """End to end: a pooled sweep with the store on matches store-off."""
        from repro.runtime.engine import Runtime
        from repro.simgpu.config import GpuConfig

        configs = [GpuConfig(), GpuConfig.preset("mainstream")]
        monkeypatch.setenv(precomp_store.PRECOMP_DIR_ENV, "")
        clear_precomp_cache()
        reference = Runtime(jobs=2).simulate_frames_many(trace, configs)
        monkeypatch.setenv(
            precomp_store.PRECOMP_DIR_ENV, str(tmp_path / "precomp")
        )
        clear_precomp_cache()
        with_store = Runtime(jobs=2).simulate_frames_many(trace, configs)
        for ref_outputs, new_outputs in zip(reference, with_store):
            for ref, new in zip(ref_outputs, new_outputs):
                assert new.time_ns == ref.time_ns
                assert new.core_cycles == ref.core_cycles
                assert np.array_equal(ref.draw_times_ns, new.draw_times_ns)
