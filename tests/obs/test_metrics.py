"""Metrics registry: labels, histograms, merge, snapshots."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Metrics,
    label_key,
)


class TestLabels:
    def test_label_order_is_canonical(self):
        assert label_key({"a": 1, "b": 2}) == label_key({"b": 2, "a": 1})

    def test_values_stringified(self):
        assert label_key({"worker": 7}) == label_key({"worker": "7"})

    def test_distinct_labels_are_distinct_series(self):
        metrics = Metrics()
        metrics.inc("frames", 3, phase="ground")
        metrics.inc("frames", 5, phase="reps")
        assert metrics.snapshot().counter("frames", phase="ground") == 3
        assert metrics.snapshot().counter("frames", phase="reps") == 5
        assert metrics.snapshot().counter("frames") == 0  # unlabeled is its own series
        assert metrics.counter_total("frames") == 8


class TestCountersAndGauges:
    def test_inc_accumulates(self):
        metrics = Metrics()
        metrics.inc("n")
        metrics.inc("n", 4)
        assert metrics.snapshot().counter("n") == 5

    def test_gauge_last_write_wins(self):
        metrics = Metrics()
        metrics.gauge("workers", 4)
        metrics.gauge("workers", 8)
        assert metrics.snapshot().gauge("workers") == 8.0

    def test_missing_counter_reads_zero(self):
        assert Metrics().snapshot().counter("nope") == 0
        assert Metrics().snapshot().counter("nope") == 0


class TestHistograms:
    def test_observations_land_in_decade_buckets(self):
        metrics = Metrics()
        for value in (0.5, 0.7, 5.0):
            metrics.observe("lat", value)
        hist = metrics.snapshot().histogram("lat")
        assert hist.count == 3
        assert hist.total == pytest.approx(6.2)
        assert hist.min == 0.5
        assert hist.max == 5.0
        assert hist.mean == pytest.approx(6.2 / 3)
        assert sum(hist.counts) == 3
        # 0.5 and 0.7 share the (0.1, 1.0] bucket; 5.0 is one up.
        bucket_of = lambda v: next(
            i for i, bound in enumerate(DEFAULT_BUCKETS) if v <= bound
        )
        assert hist.counts[bucket_of(0.5)] == 2
        assert hist.counts[bucket_of(5.0)] == 1

    def test_custom_buckets_fixed_at_first_observe(self):
        metrics = Metrics()
        metrics.observe("sz", 2.0, buckets=(1.0, 10.0))
        metrics.observe("sz", 20.0)  # reuses registered buckets
        hist = metrics.snapshot().histogram("sz")
        assert hist.buckets == (1.0, 10.0)
        assert hist.counts == (0, 1, 1)  # underflow, (1,10], overflow

    @settings(max_examples=100, deadline=None)
    @given(
        batches=st.lists(
            st.lists(
                st.floats(allow_nan=False, allow_infinity=False, width=64), max_size=12
            ),
            max_size=4,
        ),
        buckets=st.one_of(st.none(), st.just((1.0, 10.0))),
    )
    def test_observe_many_equals_repeated_observe(self, batches, buckets):
        one, many = Metrics(), Metrics()
        if buckets is not None:  # a series registered before the batches
            one.observe("h", 5.0, buckets=buckets, kind="x")
            many.observe("h", 5.0, buckets=buckets, kind="x")
        for values in batches:
            for value in values:
                one.observe("h", value, kind="x")
            many.observe_many("h", values, kind="x")
        assert many.snapshot() == one.snapshot()
        hist = one.snapshot().histogram("h", kind="x")
        if hist is not None:  # total equal bit for bit, not only approx
            assert many.snapshot().histogram("h", kind="x").total.hex() == hist.total.hex()

    def test_merge_rejects_mismatched_buckets(self):
        a, b = Metrics(), Metrics()
        a.observe("h", 1.0, buckets=(1.0, 2.0))
        b.observe("h", 1.0, buckets=(5.0,))
        with pytest.raises(ValueError, match="different buckets"):
            a.merge(b.dump())


class TestMerge:
    def test_dump_merge_round_trip(self):
        worker = Metrics()
        worker.inc("frames", 6, phase="ground")
        worker.gauge("depth", 3)
        worker.observe("wall_s", 0.25, worker="123")

        parent = Metrics()
        parent.inc("frames", 2, phase="ground")
        parent.merge(worker.dump())

        assert parent.snapshot().counter("frames", phase="ground") == 8
        assert parent.snapshot().gauge("depth") == 3.0
        hist = parent.snapshot().histogram("wall_s", worker="123")
        assert hist.count == 1

    def test_merge_none_is_noop(self):
        metrics = Metrics()
        metrics.inc("n")
        metrics.merge(None)
        metrics.merge({})
        assert metrics.snapshot().counter("n") == 1

    def test_dump_is_picklable_and_json_independent(self):
        import pickle

        metrics = Metrics()
        metrics.inc("n", 2, phase="x")
        metrics.observe("h", 1.5)
        restored = Metrics()
        restored.merge(pickle.loads(pickle.dumps(metrics.dump())))
        assert restored.counter_total("n") == 2
        assert restored.snapshot().histogram("h").count == 1


class TestSnapshot:
    def test_snapshot_is_immutable_copy(self):
        metrics = Metrics()
        metrics.inc("n", 1)
        snap = metrics.snapshot()
        metrics.inc("n", 10)
        assert snap.counter("n") == 1
        assert metrics.snapshot().counter("n") == 11

    def test_counter_totals_aggregate_over_labels(self):
        metrics = Metrics()
        metrics.inc("frames", 1, phase="a")
        metrics.inc("frames", 2, phase="b")
        metrics.inc("tasks", 5)
        assert metrics.snapshot().counter_totals() == {
            "frames": 3,
            "tasks": 5,
        }

    def test_as_dict_is_json_serializable(self):
        metrics = Metrics()
        metrics.inc("frames", 3, phase="ground")
        metrics.gauge("workers", 4)
        metrics.observe("wall_s", 0.5)
        payload = json.loads(json.dumps(metrics.snapshot().as_dict()))
        assert payload["counters"] == [
            {"name": "frames", "labels": {"phase": "ground"}, "value": 3}
        ]
        assert payload["gauges"][0]["value"] == 4.0
        assert payload["histograms"][0]["count"] == 1
