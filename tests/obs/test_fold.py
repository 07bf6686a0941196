"""Tests for shard-count-invariant folding of repro.obs exports."""

from __future__ import annotations

import pytest

from repro.errors import ObservabilityError
from repro.obs import (
    MetricsRegistry,
    export_obs,
    fold_exports,
    strip_metrics,
    to_json,
    validate_export,
)


def make_doc(counters=(), gauges=(), hist=(), meta=None, now_ns=100):
    reg = MetricsRegistry()
    for name, v in counters:
        reg.inc(name, v)
    for name, v in gauges:
        reg.set_gauge(name, v)
    for name, values in hist:
        for v in values:
            reg.observe(name, v)
    return export_obs(reg, meta=meta or {"experiment": "t"}, now_ns=now_ns)


class TestStripMetrics:
    def test_engine_prefixed_metrics_dropped(self):
        doc = make_doc(counters=[("engine.events", 5), ("fleet.failures", 2)])
        out = strip_metrics(doc)
        assert "engine.events" not in out["metrics"]["counters"]
        assert out["metrics"]["counters"]["fleet.failures"] == 2
        # The input document is untouched.
        assert doc["metrics"]["counters"]["engine.events"] == 5

    def test_custom_prefixes(self):
        doc = make_doc(counters=[("a.x", 1), ("b.x", 1)])
        out = strip_metrics(doc, prefixes=("a.",))
        assert list(out["metrics"]["counters"]) == ["b.x"]


class TestFoldExports:
    def test_counters_sum_and_gauges_max(self):
        a = make_doc(counters=[("c", 3)], gauges=[("g", 7)])
        b = make_doc(counters=[("c", 4)], gauges=[("g", 5)])
        out = fold_exports([a, b])
        assert out["metrics"]["counters"]["c"] == 7
        assert out["metrics"]["gauges"]["g"] == 7

    def test_histograms_fold_elementwise(self):
        a = make_doc(hist=[("lat_ns", [100, 5000])])
        b = make_doc(hist=[("lat_ns", [200_000])])
        out = fold_exports([a, b])
        h = out["metrics"]["histograms"]["lat_ns"]
        assert h["count"] == 3
        assert h["sum"] == 205_100
        assert h["min"] == 100 and h["max"] == 200_000
        assert sum(h["counts"]) == 3
        validate_export(out)

    def test_single_doc_normalizes_through_same_path(self):
        """fold_exports([doc]) is the 1-shard side of the byte gate."""
        doc = make_doc(counters=[("c", 1)], hist=[("lat_ns", [5])])
        assert to_json(fold_exports([doc])) == to_json(
            fold_exports([doc, make_doc(counters=[], now_ns=100)]))

    def test_fold_is_order_invariant(self):
        docs = [make_doc(counters=[("c", i)], hist=[("lat_ns", [i * 10])],
                         now_ns=100 + i) for i in (1, 2, 3)]
        assert to_json(fold_exports(docs)) == to_json(
            fold_exports(list(reversed(docs))))

    def test_virtual_time_is_max(self):
        docs = [make_doc(now_ns=50), make_doc(now_ns=90)]
        assert fold_exports(docs)["virtual_time_ns"] == 90

    def test_mixed_numeric_gauges_fold_with_max(self):
        a = make_doc(gauges=[("g", 2)])
        b = make_doc(gauges=[("g", 3.5)])
        assert fold_exports([a, b])["metrics"]["gauges"]["g"] == 3.5

    def test_identical_nonnumeric_gauges_pass_through(self):
        a = make_doc(gauges=[("mode", "steady")])
        b = make_doc(gauges=[("mode", "steady")])
        assert fold_exports([a, b])["metrics"]["gauges"]["mode"] == "steady"

    def test_differing_nonnumeric_gauges_raise_named_error(self):
        """Non-numeric gauges used to die with a bare TypeError from
        ``max``; now the error names the offending metric."""
        a = make_doc(gauges=[("mode", "steady"), ("ok", 1)])
        b = make_doc(gauges=[("mode", "draining"), ("ok", 2)])
        with pytest.raises(ObservabilityError, match="gauge 'mode'"):
            fold_exports([a, b])

    def test_nonnumeric_vs_numeric_gauge_raises_not_typeerror(self):
        a = make_doc(gauges=[("g", "high")])
        b = make_doc(gauges=[("g", 7)])
        with pytest.raises(ObservabilityError, match="gauge 'g'"):
            fold_exports([a, b])

    def test_meta_mismatch_rejected(self):
        a = make_doc(meta={"experiment": "t", "shard": 0})
        b = make_doc(meta={"experiment": "t", "shard": 1})
        with pytest.raises(ObservabilityError, match="shard identity"):
            fold_exports([a, b])

    def test_bucket_mismatch_rejected(self):
        a = make_doc(hist=[("lat_ns", [5])])
        b = make_doc(hist=[("lat_ns", [5])])
        b["metrics"]["histograms"]["lat_ns"]["buckets"] = [1, 2]
        b["metrics"]["histograms"]["lat_ns"]["counts"] = [1, 0, 0]
        with pytest.raises(ObservabilityError, match="bucket mismatch"):
            fold_exports([a, b])

    def test_empty_fold_rejected(self):
        with pytest.raises(ObservabilityError, match="nothing to fold"):
            fold_exports([])

    def test_spans_concatenate_sorted(self):
        reg = MetricsRegistry()
        from repro.obs import Tracer

        t1, t2 = Tracer(clock=lambda: 10), Tracer(clock=lambda: 5)
        with t1.span("b"):
            pass
        with t2.span("a"):
            pass
        a = export_obs(reg, tracer=t1, meta={"experiment": "t"}, now_ns=20)
        b = export_obs(MetricsRegistry(), tracer=t2,
                       meta={"experiment": "t"}, now_ns=20)
        out = fold_exports([a, b])
        begins = [s["begin_ns"] for s in out["spans"]]
        assert begins == sorted(begins)
        assert len(out["spans"]) == 2


class TestFoldExportsArrays:
    """``fold_exports_arrays`` is kept as a name for ``fold_exports``."""

    def test_arrays_reject_bucket_mismatch(self):
        from repro.obs.fold import fold_exports_arrays

        a = make_doc(hist=[("h", [5])])
        b = make_doc()
        b["metrics"]["histograms"]["h"] = {
            "buckets": [1, 2], "counts": [0, 1, 0], "count": 1,
            "sum": 2, "min": 2, "max": 2,
        }
        with pytest.raises(ObservabilityError, match="bucket mismatch"):
            fold_exports_arrays([a, b])


def _export_docs(integer_samples=False, spans=True):
    """Hypothesis strategy for lists of random export documents: sparse
    counter sets, numeric and string gauges, histogram samples and
    span buffers."""
    from hypothesis import strategies as st

    from repro.obs import Tracer

    counter_names = ["a.x", "a.y", "b.z", "c.w"]
    hist_names = ["lat_ns", "queue_depth"]
    sample = st.integers(0, 10**9)
    if not integer_samples:
        sample = sample | st.floats(min_value=0.0, max_value=1e9,
                                    allow_nan=False)

    @st.composite
    def export_doc(draw):
        reg = MetricsRegistry()
        for name in sorted(draw(st.sets(
                st.sampled_from(counter_names)))):
            reg.inc(name, draw(st.integers(0, 10**6)))
        if draw(st.booleans()):
            reg.set_gauge("g.num", draw(st.integers(-5, 500)))
        if draw(st.booleans()):
            # Identical in every doc, as the fold contract requires.
            reg.set_gauge("g.mode", "steady")
        for name in sorted(draw(st.sets(st.sampled_from(hist_names)))):
            for v in draw(st.lists(sample, max_size=6)):
                reg.observe(name, v)
        clock = {"t": draw(st.integers(0, 100))}
        tracer = Tracer(clock=lambda: clock["t"])
        for _ in range(draw(st.integers(0, 3 if spans else 0))):
            clock["t"] += draw(st.integers(0, 100))
            with tracer.span(draw(st.sampled_from(["s1", "s2"]))):
                clock["t"] += draw(st.integers(1, 50))
        return export_obs(reg, tracer=tracer,
                          meta={"experiment": "prop-fold"},
                          now_ns=clock["t"] + draw(st.integers(0, 100)))

    return st.lists(export_doc(), min_size=1, max_size=5)


class TestFoldAssociativity:
    """The shm transport folds each worker's shards, then the parent
    process folds the per-worker documents: that must be the flat
    fold."""

    def test_prefix_fold_then_rest_equals_flat_fold(self):
        """Property gate: random documents, float samples and spans
        included, fold to the same bytes whether a prefix of any length
        is folded first or not."""
        from hypothesis import given, settings

        @settings(deadline=None, max_examples=60)
        @given(docs=_export_docs())
        def run(docs):
            flat = to_json(fold_exports(docs))
            for k in range(1, len(docs) + 1):
                grouped = [fold_exports(docs[:k])] + docs[k:]
                assert to_json(fold_exports(grouped)) == flat

        run()

    def test_round_robin_worker_grouping_equals_flat_fold(self):
        """Span-free documents with integer samples fold to the same
        bytes under the shm transport's grouping (document ``i`` on
        worker ``i % w``) for every worker count ``w``."""
        from hypothesis import given, settings

        @settings(deadline=None, max_examples=60)
        @given(docs=_export_docs(integer_samples=True, spans=False))
        def run(docs):
            flat = to_json(fold_exports(docs))
            for w in range(1, len(docs) + 1):
                workers = [fold_exports(docs[i::w]) for i in range(w)]
                assert to_json(fold_exports(workers)) == flat

        run()
