import json

import numpy as np
import pytest

from hfast.obs.metrics import Histogram, MetricsRegistry, log2_bucket, log2_bucket_array


class TestLog2Bucket:
    @pytest.mark.parametrize(
        "value,edge",
        [
            (0, 0),
            (1, 1),
            (2, 2),
            (3, 4),
            (4, 4),
            (5, 8),
            (1023, 1024),
            (1024, 1024),
            (1025, 2048),
            (294912, 524288),
        ],
    )
    def test_edges(self, value, edge):
        assert log2_bucket(value) == edge

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            log2_bucket(-1)


class TestLog2BucketArray:
    """The array form must equal the scalar one value for value."""

    @staticmethod
    def powers_of_two_and_neighbours() -> np.ndarray:
        p = np.ldexp(1.0, np.arange(-30, 62))
        return np.concatenate((p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)))

    def test_matches_scalar_on_floats(self):
        rng = np.random.default_rng(7)
        values = np.concatenate(
            (
                10.0 ** rng.uniform(-6, 15, size=20000),
                rng.uniform(0, 4, size=2000),
                self.powers_of_two_and_neighbours(),
                [0.0, 0.5, 1.0, 1.5, 2.0, 3.0],
            )
        )
        got = log2_bucket_array(values)
        assert got.dtype == np.int64
        assert got.tolist() == [log2_bucket(v) for v in values.tolist()]

    def test_matches_scalar_on_ints(self):
        rng = np.random.default_rng(8)
        values = np.concatenate(
            (
                np.arange(0, 5000),
                rng.integers(0, 2**52, size=5000),
                (1 << np.arange(0, 52)) + np.array([[-1], [0], [1]]),
            ),
            axis=None,
        ).astype(np.int64)
        values = values[values >= 0]
        assert log2_bucket_array(values).tolist() == [
            log2_bucket(v) for v in values.tolist()
        ]

    def test_empty_and_negative(self):
        assert log2_bucket_array(np.array([])).tolist() == []
        with pytest.raises(ValueError):
            log2_bucket_array(np.array([1.0, -2.0]))


class TestInstruments:
    def test_counter(self):
        reg = MetricsRegistry()
        c = reg.counter("msgs")
        c.inc()
        c.inc(41)
        assert c.value == 42
        assert reg.counter("msgs") is c  # get-or-create

    def test_gauge(self):
        reg = MetricsRegistry()
        g = reg.gauge("depth")
        g.set(7)
        assert g.value == 7

    def test_histogram_aggregates(self):
        reg = MetricsRegistry()
        h = reg.histogram("sizes")
        h.observe(3)
        h.observe(1024, weight=2)
        assert h.count == 3
        assert h.sum == 3 + 2048
        assert h.min == 3
        assert h.max == 1024
        assert h.buckets == {4: 1, 1024: 2}
        assert h.mean == pytest.approx((3 + 2048) / 3)

    def test_type_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError, match="already registered"):
            reg.histogram("x")


class TestDisabledMode:
    def test_noop_instruments_record_nothing(self):
        reg = MetricsRegistry(enabled=False)
        reg.counter("c").inc(5)
        reg.gauge("g").set(1)
        reg.histogram("h").observe(123)
        assert reg.to_dict() == {}
        assert reg.to_text() == ""

    def test_noop_instrument_is_shared(self):
        reg = MetricsRegistry(enabled=False)
        assert reg.counter("a") is reg.histogram("b")


class TestExport:
    def test_to_dict_and_json(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("bytes").inc(100)
        reg.histogram("sizes").observe(5)
        path = tmp_path / "m" / "metrics.json"
        reg.write_json(path)
        loaded = json.loads(path.read_text())
        assert loaded["bytes"] == {"type": "counter", "value": 100}
        assert loaded["sizes"]["buckets"] == {"8": 1}

    def test_to_text_format(self):
        reg = MetricsRegistry()
        reg.counter("bytes").inc(9)
        reg.histogram("sizes").observe(3)
        text = reg.to_text()
        assert "bytes 9" in text
        assert "sizes_count 1" in text
        assert 'sizes_bucket{le="4"} 1' in text


class TestObserveMany:
    """``observe_many`` must leave the exact state of the per-value loop."""

    @staticmethod
    def check(values, weights, prior=()):
        loop, vec = Histogram("loop"), Histogram("vec")
        for v, w in prior:
            loop.observe(v, weight=w)
            vec.observe(v, weight=w)
        for v, w in zip(np.asarray(values).tolist(), np.asarray(weights).tolist()):
            loop.observe(v, weight=int(w))
        vec.observe_many(values, weights)
        assert json.dumps(vec.to_dict()).encode() == json.dumps(loop.to_dict()).encode()
        return vec

    def test_seeded_ints(self):
        rng = np.random.default_rng(11)
        values = np.unique(rng.integers(1, 2**40, size=5000))
        self.check(values, rng.integers(0, 2**12, size=values.size))

    def test_seeded_floats(self):
        rng = np.random.default_rng(12)
        values = np.unique(10.0 ** rng.uniform(-3, 6, size=5000))
        self.check(values, rng.integers(1, 2**20, size=values.size))

    def test_unsorted_values_with_prior_state(self):
        rng = np.random.default_rng(13)
        values = rng.uniform(0, 1e4, size=3000)
        self.check(values, rng.integers(0, 50, size=3000), prior=[(0.25, 3), (7e5, 2), (0, 1)])

    def test_zero_weights_keep_their_buckets(self):
        h = self.check(np.array([3, 100, 5000]), np.array([0, 2, 0]))
        assert h.buckets == {4: 0, 128: 2, 8192: 0}
        assert (h.count, h.min, h.max) == (2, 3, 5000)

    def test_products_straddling_2_53(self):
        rng = np.random.default_rng(14)
        values = np.unique(rng.integers(2**29, 2**31, size=2000))
        weights = rng.integers(2**22, 2**24, size=values.size)
        products = values.astype(object) * weights.astype(object)
        assert min(products) < 2**53 < max(products)
        self.check(values, weights)
        self.check(values.astype(np.float64) + 0.5, weights)

    def test_empty_and_single_value(self):
        empty = self.check(np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        assert empty.buckets == {} and empty.min is None
        one = self.check(np.array([1024]), np.array([3]), prior=[(2.5, 1)])
        assert type(one.max) is int and one.min == 2.5
        self.check(np.array([0.75]), np.array([1]))

    def test_ints_stay_ints_in_json(self):
        h = self.check(np.array([5, 9], dtype=np.int64), np.array([1, 1]))
        assert json.dumps(h.to_dict()["min"]) == "5"
        assert json.dumps(h.to_dict()["max"]) == "9"

    def test_noop_instrument_accepts_arrays(self):
        reg = MetricsRegistry(enabled=False)
        reg.histogram("h").observe_many(np.array([1.0]), np.array([1]))
        assert reg.to_dict() == {}
