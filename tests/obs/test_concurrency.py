"""Thread-safety: many threads hammering one Metrics/Tracer instance."""

import threading

from repro.obs.metrics import Metrics
from repro.obs.spans import Tracer

THREADS = 8
ROUNDS = 400


def _run_in_threads(target):
    threads = [
        threading.Thread(target=target, args=(i,)) for i in range(THREADS)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


class TestMetricsUnderContention:
    def test_counter_increments_are_lossless(self):
        metrics = Metrics()

        def work(thread_index):
            for _ in range(ROUNDS):
                metrics.inc("shared")
                metrics.inc("per_thread", thread=thread_index)

        _run_in_threads(work)
        assert metrics.snapshot().counter("shared") == THREADS * ROUNDS
        assert metrics.counter_total("per_thread") == THREADS * ROUNDS
        for i in range(THREADS):
            assert metrics.snapshot().counter("per_thread", thread=i) == ROUNDS

    def test_histogram_observations_are_lossless(self):
        metrics = Metrics()

        def work(thread_index):
            for r in range(ROUNDS):
                metrics.observe("values", float(r % 10) + 0.5)

        _run_in_threads(work)
        hist = metrics.snapshot().histogram("values")
        assert hist.count == THREADS * ROUNDS
        assert sum(hist.counts) == THREADS * ROUNDS


class TestTracerUnderContention:
    def test_all_spans_recorded_with_unique_ids(self):
        tracer = Tracer()

        def work(thread_index):
            for _ in range(ROUNDS // 4):
                with tracer.span("outer", thread=thread_index):
                    with tracer.span("inner", thread=thread_index):
                        pass

        _run_in_threads(work)
        spans = tracer.spans()
        assert len(spans) == THREADS * (ROUNDS // 4) * 2
        assert len({s.span_id for s in spans}) == len(spans)

    def test_nesting_is_per_thread(self):
        tracer = Tracer()
        barrier = threading.Barrier(THREADS)

        def work(thread_index):
            barrier.wait()  # maximize interleaving
            for _ in range(50):
                with tracer.span("outer") as outer:
                    with tracer.span("inner") as inner:
                        # The parent must be THIS thread's outer span,
                        # not whichever span another thread opened last.
                        assert inner.parent_id == outer.span_id
                        assert inner.tid == outer.tid

        _run_in_threads(work)
        by_id = {s.span_id: s for s in tracer.spans()}
        for span in by_id.values():
            if span.name == "inner":
                assert by_id[span.parent_id].tid == span.tid
