"""Metric primitive semantics: counters, gauges, log-scale histograms."""

import threading

import pytest

from repro.telemetry import (
    CounterFamily,
    DEFAULT_BUCKETS,
    GaugeFamily,
    HistogramFamily,
    MetricsRegistry,
    log_buckets,
)

pytestmark = pytest.mark.telemetry


class TestLogBuckets:
    def test_geometric_progression(self):
        assert log_buckets(0.001, 10.0, 4) == (0.001, 0.01, 0.1, 1.0)

    def test_default_buckets_span_ms_to_1000s(self):
        assert DEFAULT_BUCKETS[0] == 0.001
        assert DEFAULT_BUCKETS[-1] == 1000.0
        assert len(DEFAULT_BUCKETS) == 7

    @pytest.mark.parametrize(
        "start,factor,count",
        [(0.0, 10.0, 3), (-1.0, 10.0, 3), (0.1, 1.0, 3), (0.1, 0.5, 3), (0.1, 10.0, 0)],
    )
    def test_invalid_arguments_rejected(self, start, factor, count):
        with pytest.raises(ValueError):
            log_buckets(start, factor, count)


class TestCounter:
    def test_inc_defaults_to_one(self):
        family = CounterFamily("c")
        family.inc()
        family.inc(2.5)
        assert family.value == 3.5

    def test_negative_increment_rejected(self):
        family = CounterFamily("c")
        with pytest.raises(ValueError):
            family.inc(-1)

    def test_labeled_children_are_independent(self):
        family = CounterFamily("c", label_names=("host",))
        family.labels(host="a").inc(5)
        family.labels(host="b").inc(7)
        assert family.labels(host="a").value == 5
        assert family.labels(host="b").value == 7

    def test_label_values_keyed_as_strings(self):
        family = CounterFamily("c", label_names=("host",))
        family.labels(host=4).inc()
        assert family.labels(host="4").value == 1

    def test_wrong_label_set_rejected(self):
        family = CounterFamily("c", label_names=("host",))
        with pytest.raises(ValueError):
            family.labels(node="a")
        with pytest.raises(ValueError):
            family.labels()

    def test_unlabeled_shortcut_requires_no_labels_declared(self):
        family = CounterFamily("c", label_names=("host",))
        with pytest.raises(ValueError):
            family.inc()

    def test_unlabeled_family_materializes_default_child_at_zero(self):
        # Never-hit counters must still be visible in snapshots.
        snapshot = CounterFamily("c", help="h").collect()
        assert snapshot["samples"] == [{"labels": {}, "value": 0.0}]

    @pytest.mark.parametrize("kind", ["counter", "gauge", "histogram"])
    def test_unlabeled_updates_reach_one_cached_child(self, kind, monkeypatch):
        family = {"counter": CounterFamily, "gauge": GaugeFamily, "histogram": HistogramFamily}[kind](kind)
        child = family.labels()
        # Family-level updates must not rebuild a label key per call.
        monkeypatch.setattr(family, "labels", lambda **_: pytest.fail("labels() called"))
        if kind == "histogram":
            family.observe(2.0)
            family.observe(3.0)
            assert (child.count, child.sum) == (2, 5.0)
        else:
            family.inc(2)
            family.inc()
            assert child.value == family.value == 3

    def test_labelled_family_still_needs_labels(self):
        for family in (
            CounterFamily("c", label_names=("host",)),
            GaugeFamily("g", label_names=("host",)),
            HistogramFamily("h", label_names=("host",)),
        ):
            update = family.observe if family.kind == "histogram" else family.inc
            with pytest.raises(ValueError, match="call .labels"):
                update(1)

    def test_callback_backed_series(self):
        state = {"n": 0}
        family = CounterFamily("c")
        family.set_function(lambda: state["n"])
        state["n"] = 41
        assert family.value == 41


class TestGauge:
    def test_set_inc_dec(self):
        family = GaugeFamily("g")
        family.set(10)
        family.inc(4)
        family.dec()
        assert family.value == 13

    def test_gauge_may_go_negative(self):
        family = GaugeFamily("g")
        family.dec(2)
        assert family.value == -2


class TestHistogram:
    def test_bounds_are_le_inclusive(self):
        family = HistogramFamily("h", buckets=(0.1, 1.0))
        family.observe(0.1)  # lands in the 0.1 bucket, not the next
        cumulative = dict(family._default().buckets())
        assert cumulative[0.1] == 1
        assert cumulative[1.0] == 1

    def test_overflow_lands_only_in_inf(self):
        family = HistogramFamily("h", buckets=(0.1, 1.0))
        family.observe(5.0)
        cumulative = family._default().buckets()
        assert cumulative == [(0.1, 0), (1.0, 0), (float("inf"), 1)]

    def test_buckets_are_cumulative(self):
        family = HistogramFamily("h", buckets=(1.0, 10.0, 100.0))
        for value in (0.5, 0.6, 5.0, 50.0, 500.0):
            family.observe(value)
        assert family._default().buckets() == [
            (1.0, 2),
            (10.0, 3),
            (100.0, 4),
            (float("inf"), 5),
        ]

    def test_count_and_sum(self):
        family = HistogramFamily("h", buckets=(1.0,))
        family.observe(0.5)
        family.observe(2.0)
        assert family.count == 2
        assert family.sum == 2.5

    def test_unsorted_bucket_spec_is_sorted(self):
        family = HistogramFamily("h", buckets=(10.0, 1.0))
        assert family.bucket_bounds == (1.0, 10.0)

    def test_empty_bucket_spec_rejected(self):
        with pytest.raises(ValueError):
            HistogramFamily("h", buckets=())

    def test_collect_encodes_inf_as_string(self):
        family = HistogramFamily("h", buckets=(1.0,))
        family.observe(0.5)
        sample = family.collect()["samples"][0]
        assert sample["buckets"] == [[1.0, 1], ["+Inf", 1]]
        assert sample["count"] == 1
        assert sample["sum"] == 0.5


class TestThreadSafety:
    THREADS = 8
    INCS = 5000

    def test_concurrent_counter_increments_are_exact(self):
        family = CounterFamily("c", label_names=("host",))

        def worker():
            child = family.labels(host="shared")
            for _ in range(self.INCS):
                child.inc()

        threads = [threading.Thread(target=worker) for _ in range(self.THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert family.labels(host="shared").value == self.THREADS * self.INCS

    def test_concurrent_registration_yields_one_family(self):
        registry = MetricsRegistry()
        seen = []
        barrier = threading.Barrier(self.THREADS)

        def worker():
            barrier.wait()
            seen.append(registry.counter("same_name"))

        threads = [threading.Thread(target=worker) for _ in range(self.THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(set(map(id, seen))) == 1

    def test_concurrent_histogram_observations_are_exact(self):
        family = HistogramFamily("h", buckets=(1.0, 10.0))

        def worker():
            for _ in range(self.INCS):
                family.observe(0.5)

        threads = [threading.Thread(target=worker) for _ in range(self.THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        total = self.THREADS * self.INCS
        assert family.count == total
        assert family._default().buckets()[0] == (1.0, total)
