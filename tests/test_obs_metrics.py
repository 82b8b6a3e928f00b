"""Tests for repro.obs.metrics: counters, gauges, histograms, merging."""

import pickle

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_registries,
)


def _fill_registry(i, scale=1):
    """A walker-shaped registry whose contents depend on ``i``/``scale``."""
    reg = MetricsRegistry()
    reg.inc("walker.steps", (i + 1) * 100 * scale)
    reg.inc("walker.accepted", (i + 1) * 10 * scale)
    reg.set("walker.ln_f", 1.0 / (i + 1))
    for k in range(i + 1):
        # Dyadic values sum exactly, so merge order cannot perturb the
        # histogram float accumulators and associativity is bit-exact.
        reg.observe("walker.sweep_seconds", 0.25 * (k + 1))
    return reg


class TestCounter:
    def test_inc(self):
        c = Counter("c")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_negative_inc_rejected(self):
        with pytest.raises(ValueError):
            Counter("c").inc(-1)


class TestGauge:
    def test_set(self):
        g = Gauge("g")
        assert not g.updated
        g.set(2.5)
        assert g.value == 2.5 and g.updated

    def test_merge_right_bias(self):
        a, b = Gauge("g"), Gauge("g")
        a.set(1.0)
        a.merge(b)  # b never set: a keeps its value
        assert a.value == 1.0
        b.set(9.0)
        a.merge(b)
        assert a.value == 9.0


class TestHistogram:
    def test_observe_buckets_and_stats(self):
        h = Histogram("h", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 5.0, 50.0):
            h.observe(v)
        assert h.counts == [1, 1, 1, 1]
        assert h.count == 4
        assert h.min == 0.05 and h.max == 50.0
        assert h.mean == pytest.approx(55.55 / 4)

    def test_bucket_mismatch_merge_rejected(self):
        a = Histogram("h", buckets=(1.0,))
        b = Histogram("h", buckets=(2.0,))
        with pytest.raises(ValueError):
            a.merge(b)

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=(2.0, 1.0))


class TestMetricsRegistry:
    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_picklable(self):
        reg = _fill_registry(2)
        clone = pickle.loads(pickle.dumps(reg))
        assert clone.as_dict() == reg.as_dict()

    def test_dict_round_trip(self):
        reg = _fill_registry(3)
        reg2 = MetricsRegistry.from_dict(reg.as_dict())
        assert reg2.as_dict() == reg.as_dict()

    def test_merge_associative(self):
        regs = [_fill_registry(i, scale=s) for i, s in [(0, 1), (1, 3), (2, 7)]]

        def ab_c():
            left = merge_registries(regs[:2])
            return left.merge(pickle.loads(pickle.dumps(regs[2])))

        def a_bc():
            right = merge_registries(regs[1:])
            out = merge_registries([regs[0]])
            return out.merge(right)

        # Re-pickle inputs so in-place merging cannot cross-contaminate.
        snapshot = pickle.dumps(regs)
        assert ab_c().as_dict() == a_bc().as_dict()
        assert pickle.dumps(regs) == snapshot

    def test_merge_into_empty_is_identity(self):
        reg = _fill_registry(1)
        merged = MetricsRegistry().merge(reg)
        assert merged.as_dict() == reg.as_dict()


class TestLabels:
    """Labeled series: one family, many label sets, guarded cardinality."""

    def test_labeled_series_are_distinct(self):
        reg = MetricsRegistry()
        reg.set("window.ln_f", 0.5, labels={"window": 0})
        reg.set("window.ln_f", 0.25, labels={"window": 1})
        assert reg.gauge("window.ln_f", labels={"window": 0}).value == 0.5
        assert reg.gauge("window.ln_f", labels={"window": 1}).value == 0.25
        assert len(reg) == 2

    def test_label_order_is_canonical(self):
        reg = MetricsRegistry()
        reg.inc("m", labels={"a": 1, "b": 2})
        reg.inc("m", labels={"b": 2, "a": 1})
        assert reg.counter("m", labels={"a": 1, "b": 2}).value == 2

    def test_labeled_round_trip_and_pickle(self):
        reg = MetricsRegistry()
        reg.inc("m", 3, labels={"w": 1})
        reg.set("g", 0.5, labels={"w": 2})
        reg.observe("h", 0.25, buckets=(1.0,), labels={"w": 3})
        clone = MetricsRegistry.from_dict(reg.as_dict())
        assert clone.as_dict() == reg.as_dict()
        assert pickle.loads(pickle.dumps(reg)).as_dict() == reg.as_dict()

    def test_cardinality_guard_warns_once_and_folds_to_other(self):
        reg = MetricsRegistry(max_label_sets=2)
        reg.inc("m", labels={"w": 0})
        reg.inc("m", labels={"w": 1})
        with pytest.warns(RuntimeWarning, match="label sets"):
            reg.inc("m", labels={"w": 2})
            reg.inc("m", labels={"w": 3})  # second overflow: no new warning
        assert reg.counter("m", labels={"w": "other"}).value == 2
        # Existing label sets keep working past the cap.
        reg.inc("m", labels={"w": 0})
        assert reg.counter("m", labels={"w": 0}).value == 2

    def test_merge_routes_through_guard(self):
        left = MetricsRegistry(max_label_sets=1)
        right = MetricsRegistry()
        right.inc("m", 5, labels={"w": 0})
        right.inc("m", 7, labels={"w": 1})
        with pytest.warns(RuntimeWarning):
            left.merge(right)
        assert left.counter("m", labels={"w": 0}).value == 5
        assert left.counter("m", labels={"w": "other"}).value == 7

    def test_merge_labeled_series(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("m", 1, labels={"w": 0})
        b.inc("m", 2, labels={"w": 0})
        b.inc("m", 4, labels={"w": 1})
        a.merge(b)
        assert a.counter("m", labels={"w": 0}).value == 3
        assert a.counter("m", labels={"w": 1}).value == 4
