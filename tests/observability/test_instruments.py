"""Instrument invariants of :mod:`repro.observability.metrics`.

The one that everything downstream leans on: a histogram's bucket counts
always sum to its total count (``+Inf`` overflow bucket included), so
exporters can render cumulative Prometheus buckets without ever
re-deriving totals.  Plus registry get-or-create identity, kind
collisions, snapshot/merge round-trips and the integer bulk fast path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.observability.metrics import (
    BITS_BUCKETS,
    RATIO_BUCKETS,
    SMALL_INT_BUCKETS,
    TIME_BUCKETS,
    Histogram,
    MetricsRegistry,
)


class TestHistogram:
    @pytest.mark.parametrize(
        "buckets", [TIME_BUCKETS, SMALL_INT_BUCKETS, RATIO_BUCKETS, BITS_BUCKETS]
    )
    def test_bucket_counts_sum_to_count(self, rng, buckets):
        h = Histogram("x", buckets)
        lo, hi = buckets[0] - 1, buckets[-1] * 2
        for v in rng.uniform(lo, hi, size=200):
            h.observe(v)
        h.observe_many(rng.uniform(lo, hi, size=500))
        assert sum(h.bucket_counts) == h.count == 700
        assert len(h.bucket_counts) == len(buckets) + 1

    def test_observe_many_matches_observe(self, rng):
        values = rng.uniform(-2, 20, size=300)
        one = Histogram("a", SMALL_INT_BUCKETS)
        many = Histogram("b", SMALL_INT_BUCKETS)
        for v in values:
            one.observe(v)
        many.observe_many(values)
        assert one.bucket_counts == many.bucket_counts
        assert one.count == many.count
        assert one.sum == pytest.approx(many.sum)

    def test_integer_fast_path_matches_float_path(self, rng):
        """Consecutive-integer buckets take a bincount shortcut for int
        arrays; it must agree exactly with the searchsorted path."""
        values = rng.integers(-5, 25, size=1000)
        fast = Histogram("a_nbits", SMALL_INT_BUCKETS)
        slow = Histogram("b_nbits", SMALL_INT_BUCKETS)
        fast.observe_many(values)
        slow.observe_many(values.astype(np.float64))
        assert fast.bucket_counts == slow.bucket_counts
        assert fast.sum == slow.sum and fast.count == slow.count

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint64, np.int8])
    def test_integer_fast_path_below_a_nonzero_base(self, dtype):
        """Samples below the first bound land in the first bucket whatever
        the integer dtype (unsigned ones must not wrap round)."""
        buckets = tuple(float(v) for v in range(2, 8))
        values = np.array([0, 1, 2, 5, 9], dtype=dtype)
        fast, slow = Histogram("a", buckets), Histogram("b", buckets)
        fast.observe_many(values)
        slow.observe_many(values.astype(np.float64))
        assert fast.bucket_counts == slow.bucket_counts == [3, 0, 0, 1, 0, 0, 1]

    def test_boundary_values_go_to_inclusive_upper_bound(self):
        h = Histogram("x", (1.0, 2.0, 4.0))
        h.observe(1.0)  # == first bound -> first bucket
        h.observe(2.5)  # between bounds -> third bucket (le=4)
        h.observe(99.0)  # beyond last bound -> overflow
        assert h.bucket_counts == [1, 0, 1, 1]
        assert h.mean == pytest.approx((1.0 + 2.5 + 99.0) / 3)

    def test_empty_observe_many_is_noop(self):
        h = Histogram("x", (1.0,))
        h.observe_many(np.array([]))
        assert h.count == 0 and h.sum == 0.0

    def test_rejects_bad_buckets(self):
        with pytest.raises(ConfigError, match="at least one"):
            Histogram("x", ())
        with pytest.raises(ConfigError, match="strictly increase"):
            Histogram("x", (1.0, 1.0))


class TestQuantile:
    def test_interpolates_within_a_bucket(self):
        """8 samples in (2, 4]: the median sits 4/8 of the way in, so the
        interpolated estimate is 2 + (4-2) * 0.5."""
        h = Histogram("x", (1.0, 2.0, 4.0))
        for _ in range(8):
            h.observe(3.0)
        assert h.quantile(0.5) == pytest.approx(3.0)
        assert h.quantile(0.25) == pytest.approx(2.5)
        assert h.quantile(1.0) == pytest.approx(4.0)

    def test_spans_buckets_at_the_cumulative_rank(self):
        h = Histogram("x", (1.0, 2.0, 4.0))
        for _ in range(2):
            h.observe(0.5)  # first bucket (le=1)
        for _ in range(6):
            h.observe(3.0)  # third bucket (le=4)
        # p50 rank = 4 of 8: 2 in bucket one, so 2 more of bucket
        # three's 6 -> 2 + (4-2) * (2/6).
        assert h.quantile(0.5) == pytest.approx(2.0 + 2.0 * (2.0 / 6.0))
        # p25 rank = 2 lands exactly at the top of the first bucket,
        # whose lower edge is 0.
        assert h.quantile(0.25) == pytest.approx(1.0)

    def test_overflow_bucket_returns_last_finite_bound(self):
        h = Histogram("x", (1.0, 2.0))
        h.observe(100.0)
        assert h.quantile(0.5) == 2.0
        assert h.quantile(0.99) == 2.0

    def test_empty_histogram_is_nan(self):
        h = Histogram("x", (1.0,))
        assert np.isnan(h.quantile(0.5))

    def test_p50_p99_of_a_uniform_sample(self, rng):
        """Against dense buckets the estimates land within one bucket
        width of the true quantiles of a uniform sample."""
        bounds = tuple(i / 100.0 for i in range(1, 101))
        h = Histogram("x", bounds)
        h.observe_many(rng.uniform(0.0, 1.0, size=20_000))
        assert h.quantile(0.5) == pytest.approx(0.5, abs=0.02)
        assert h.quantile(0.99) == pytest.approx(0.99, abs=0.02)

    def test_quantile_ordering_is_monotone(self, rng):
        h = Histogram("x", TIME_BUCKETS)
        h.observe_many(rng.uniform(0.0, 2.0, size=500))
        qs = [h.quantile(q) for q in (0.0, 0.1, 0.5, 0.9, 0.99, 1.0)]
        assert qs == sorted(qs)

    def test_rejects_out_of_range_q(self):
        h = Histogram("x", (1.0,))
        with pytest.raises(ConfigError, match="quantile"):
            h.quantile(-0.1)
        with pytest.raises(ConfigError, match="quantile"):
            h.quantile(1.5)


class TestRegistry:
    def test_get_or_create_identity(self):
        reg = MetricsRegistry()
        a = reg.counter("hits", {"k": "v"})
        b = reg.counter("hits", {"k": "v"})
        assert a is b
        assert reg.counter("hits", {"k": "other"}) is not a

    def test_kind_collision_rejected(self):
        reg = MetricsRegistry()
        reg.counter("thing")
        with pytest.raises(ConfigError, match="already registered"):
            reg.gauge("thing")

    def test_gauge_set_max_is_high_water(self):
        reg = MetricsRegistry()
        g = reg.gauge("peak")
        g.set_max(5)
        g.set_max(3)
        assert g.value == 5.0
        g.set(2)
        assert g.value == 2.0

    def test_snapshot_is_json_plain(self):
        import json

        reg = MetricsRegistry()
        reg.counter("c", {"a": "b"}).inc(2)
        reg.gauge("g").set(7)
        reg.histogram("h_nbits", buckets=SMALL_INT_BUCKETS).observe_many(
            np.arange(10)
        )
        snap = reg.snapshot()
        json.dumps(snap)  # must not raise (no numpy scalars)
        assert snap["counters"][0]["value"] == 2.0
        hist = snap["histograms"][0]
        assert sum(hist["bucket_counts"]) == hist["count"] == 10

    def test_merge_snapshot_adds_and_maxes(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for reg, n in ((a, 1), (b, 10)):
            reg.counter("c").inc(n)
            reg.gauge("g").set(n)
            reg.histogram("h_nbits", buckets=SMALL_INT_BUCKETS).observe(n)
        a.merge_snapshot(b.snapshot())
        assert a.counter("c").value == 11.0
        assert a.gauge("g").value == 10.0  # max, not sum
        h = a.histogram("h_nbits")
        assert h.count == 2 and h.sum == 11.0
        assert sum(h.bucket_counts) == h.count

    def test_merge_rejects_mismatched_buckets(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("h", buckets=(1.0, 2.0)).observe(1)
        b.histogram("h", buckets=(5.0, 6.0)).observe(5)
        with pytest.raises(ConfigError, match="bucket bounds"):
            a.merge_snapshot(b.snapshot())

    def test_merge_into_empty_registry_round_trips(self):
        src = MetricsRegistry()
        src.counter("c", {"x": "1"}).inc(3)
        src.histogram("h_ratio", buckets=RATIO_BUCKETS).observe(0.5)
        dst = MetricsRegistry()
        dst.merge_snapshot(src.snapshot())
        assert dst.snapshot() == src.snapshot()
