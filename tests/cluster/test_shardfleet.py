"""Tests for shard partitioning, counter-based per-node RNG streams,
and the sharded failure cohort (ShardFleet).

The invariant everything here serves: partitioning a fleet across
shards must not change *any* drawn value or transition time, because
the parallel engine's byte-identity gate rests on it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    ExponentialFailures,
    ShardFleet,
    WeibullFailures,
    indexed_uniforms,
    shard_of,
    shard_range,
    shard_ranges,
    trial_first_failure_s,
)
from repro.cluster.shardfleet import _NEVER
from repro.errors import ClusterError
from repro.simkernel import Engine
from repro.simkernel.costs import NS_PER_S


# ----------------------------------------------------------------------
# Contiguous balanced partitioning
# ----------------------------------------------------------------------
class TestPartition:
    @settings(deadline=None, max_examples=60)
    @given(n_items=st.integers(min_value=1, max_value=5000),
           n_shards=st.integers(min_value=1, max_value=64))
    def test_ranges_cover_disjointly_and_balance(self, n_items, n_shards):
        if n_items < n_shards:
            with pytest.raises(ClusterError):
                shard_ranges(n_items, n_shards)
            return
        ranges = shard_ranges(n_items, n_shards)
        assert ranges[0][0] == 0 and ranges[-1][1] == n_items
        sizes = []
        for k, (lo, hi) in enumerate(ranges):
            if k:
                assert lo == ranges[k - 1][1]  # contiguous, no gaps
            sizes.append(hi - lo)
            # O(1) accessor agrees with the enumeration.
            assert shard_range(k, n_items, n_shards) == (lo, hi)
        assert max(sizes) - min(sizes) <= 1

    @settings(deadline=None, max_examples=60)
    @given(n_items=st.integers(min_value=1, max_value=5000),
           n_shards=st.integers(min_value=1, max_value=64),
           data=st.data())
    def test_shard_of_inverts_ranges(self, n_items, n_shards, data):
        if n_items < n_shards:
            return
        item = data.draw(st.integers(min_value=0, max_value=n_items - 1))
        k = shard_of(item, n_items, n_shards)
        lo, hi = shard_range(k, n_items, n_shards)
        assert lo <= item < hi

    def test_out_of_range_rejected(self):
        with pytest.raises(ClusterError):
            shard_range(3, 10, 3)
        with pytest.raises(ClusterError):
            shard_of(10, 10, 3)
        with pytest.raises(ClusterError):
            shard_ranges(10, 0)


# ----------------------------------------------------------------------
# Counter-based per-node streams
# ----------------------------------------------------------------------
class TestIndexedStreams:
    def test_pure_function_of_seed_node_index(self):
        ids = np.arange(0, 64, dtype=np.int64)
        idx = np.zeros(64, dtype=np.int64)
        a = indexed_uniforms(99, ids, idx)
        b = indexed_uniforms(99, ids, idx)
        assert np.array_equal(a, b)
        assert ((a >= 0) & (a < 1)).all()
        # Seed, node and draw index each perturb the value.
        assert not np.array_equal(a, indexed_uniforms(100, ids, idx))
        assert not np.array_equal(a, indexed_uniforms(99, ids, idx + 1))

    @settings(deadline=None, max_examples=40)
    @given(seed=st.integers(min_value=0, max_value=2**63),
           n=st.integers(min_value=2, max_value=512),
           n_shards=st.integers(min_value=1, max_value=8))
    def test_partition_invariance(self, seed, n, n_shards):
        """Concatenating per-shard draws equals the single-range draw --
        the property the whole parallel engine rests on."""
        if n < n_shards:
            return
        ids = np.arange(0, n, dtype=np.int64)
        idx = np.zeros(n, dtype=np.int64)
        whole = indexed_uniforms(seed, ids, idx)
        parts = [
            indexed_uniforms(seed, np.arange(lo, hi, dtype=np.int64),
                             np.zeros(hi - lo, dtype=np.int64))
            for lo, hi in shard_ranges(n, n_shards)
        ]
        assert np.array_equal(whole, np.concatenate(parts))

    def test_model_indexed_draws_need_stream_seed(self):
        model = ExponentialFailures(100.0)
        ids = np.arange(4, dtype=np.int64)
        with pytest.raises(ClusterError, match="stream_seed"):
            model.draw_ttf_indexed(ids, np.zeros(4, dtype=np.int64))

    def test_indexed_draws_follow_the_distributions(self):
        ids = np.arange(0, 20000, dtype=np.int64)
        idx = np.zeros(ids.size, dtype=np.int64)
        exp = ExponentialFailures(50.0, stream_seed=7)
        samples = exp.draw_ttf_indexed(ids, idx)
        assert (samples > 0).all()
        assert samples.mean() == pytest.approx(50.0, rel=0.05)
        wei = WeibullFailures(50.0, shape=0.7, stream_seed=7)
        samples = wei.draw_ttf_indexed(ids, idx)
        assert (samples > 0).all()
        assert samples.mean() == pytest.approx(50.0, rel=0.05)

    def test_trial_first_failure_min_folds_across_shards(self):
        model = ExponentialFailures(1000.0, stream_seed=11)
        whole = trial_first_failure_s(model, 0, 300, trial=4)
        parts = [trial_first_failure_s(model, lo, hi, trial=4)
                 for lo, hi in shard_ranges(300, 7)]
        assert min(parts) == whole


# ----------------------------------------------------------------------
# ShardFleet dispatcher
# ----------------------------------------------------------------------
def run_fleet(lo, hi, seed=5, horizon_s=2000.0, **kw):
    eng = Engine(seed=1)
    fleet = ShardFleet(eng, lo, hi,
                       ExponentialFailures(300.0, stream_seed=seed),
                       repair_s=kw.pop("repair_s", 50.0), **kw)
    fleet.start()
    eng.run(until_ns=int(horizon_s * NS_PER_S))
    return fleet


class TestShardFleet:
    def test_requires_indexed_model_and_nonempty_range(self):
        eng = Engine(seed=1)
        with pytest.raises(ClusterError, match="stream_seed"):
            ShardFleet(eng, 0, 4, ExponentialFailures(100.0))
        with pytest.raises(ClusterError, match="non-empty"):
            ShardFleet(eng, 4, 4, ExponentialFailures(100.0, stream_seed=1))

    def test_transitions_match_union_of_subranges(self):
        """A [0, n) fleet and per-shard [lo, hi) fleets driven on
        separate engines replay identical per-node failure counts."""
        whole = run_fleet(0, 60)
        parts = [run_fleet(lo, hi) for lo, hi in shard_ranges(60, 4)]
        assert sum(f.failures for f in parts) == whole.failures
        assert sum(f.repairs for f in parts) == whole.repairs
        assert min(f.first_failure_ns for f in parts) == whole.first_failure_ns
        whole_counts = np.concatenate([f.draw_count for f in parts])
        assert np.array_equal(whole_counts, whole.draw_count)

    def test_downtime_accounting_is_exact(self):
        fleet = run_fleet(0, 32, repair_s=50.0)
        assert fleet.repairs > 0
        assert fleet.downtime_ns == fleet.repairs * 50 * NS_PER_S

    def test_on_fail_sees_global_ids_and_exact_times(self):
        eng = Engine(seed=1)
        seen = []
        fleet = ShardFleet(
            eng, 100, 132, ExponentialFailures(200.0, stream_seed=3),
            repair_s=25.0,
            on_fail=lambda ids, times: seen.append(
                (ids.copy(), times.copy())),
        )
        fleet.start()
        eng.run(until_ns=1000 * NS_PER_S)
        assert seen
        for ids, times in seen:
            assert ((ids >= 100) & (ids < 132)).all()
            assert (times <= eng.now_ns).all()
        assert sum(len(ids) for ids, _ in seen) == fleet.failures

    def test_stop_freezes_transitions(self):
        eng = Engine(seed=1)
        fleet = ShardFleet(eng, 0, 16,
                           ExponentialFailures(10.0, stream_seed=2),
                           repair_s=1.0)
        fleet.start()
        eng.run(until_ns=50 * NS_PER_S)
        frozen = fleet.failures
        fleet.stop()
        eng.run(until_ns=500 * NS_PER_S)
        assert fleet.failures == frozen

    def test_batch_window_quantizes_but_keeps_exact_times(self):
        """Quantized dispatch may *observe* a transition up to one
        window late, but the recorded failure times stay exact: compare
        every failure time below a cutoff both runs have flushed past."""
        horizon_ns = 2000 * NS_PER_S
        cutoff_ns = horizon_ns - 2 * NS_PER_S

        def collect(batch_window_ns):
            eng = Engine(seed=1)
            times = []
            fleet = ShardFleet(
                eng, 0, 48, ExponentialFailures(300.0, stream_seed=5),
                repair_s=40.0, batch_window_ns=batch_window_ns,
                on_fail=lambda ids, t: times.extend(t.tolist()))
            fleet.start()
            eng.run(until_ns=horizon_ns)
            return fleet, sorted(t for t in times if t <= cutoff_ns)

        exact, exact_times = collect(0)
        batched, batched_times = collect(NS_PER_S)
        assert exact_times  # non-vacuous
        assert batched_times == exact_times
        assert batched.first_failure_ns == exact.first_failure_ns

    def test_counters_reach_the_registry(self):
        eng = Engine(seed=1)
        fleet = ShardFleet(eng, 0, 24,
                           ExponentialFailures(100.0, stream_seed=9),
                           repair_s=20.0)
        fleet.start()
        eng.run(until_ns=1000 * NS_PER_S)
        counters = eng.metrics.to_dict()["counters"]
        assert counters["fleet.failures"] == fleet.failures
        assert counters["fleet.repairs"] == fleet.repairs

    def test_next_transition_never_when_drained(self):
        eng = Engine(seed=1)
        fleet = ShardFleet(eng, 0, 4,
                           ExponentialFailures(1e15, stream_seed=1),
                           repair_s=1.0)
        # Enormous MTBF: every fail_at saturates at the horizon cap,
        # but none is _NEVER (nodes are up, not detached).
        assert fleet.next_transition_ns() < _NEVER
