"""Tests for the single-engine failure cohort and lazy nodes.

A cluster's background churn is a :class:`ShardFleet` over ``[0, n)``
on the cluster's engine; per-node scheduling keeps the sequential
stream.  A lazy cluster must only build the machines a job or failure
actually touches.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import (
    Cluster,
    ExponentialFailures,
    ParallelJob,
    ShardFleet,
    trial_first_failure_s,
)
from repro.errors import ClusterError
from repro.simkernel.costs import NS_PER_MS, NS_PER_S
from repro.simkernel.engine import Engine
from repro.workloads import SparseWriter


def _writer(r):
    return SparseWriter(iterations=2_000, dirty_fraction=0.05,
                        heap_bytes=64 * 1024, seed=r)


# ----------------------------------------------------------------------
# The cohort on one engine
# ----------------------------------------------------------------------
def test_fleet_distribution_agrees_with_analytic_mtbf():
    """Distribution-level check: mean time to first failure over many
    trials within 15% of node_mtbf / n."""
    n, mtbf = 64, 500.0
    model = ExponentialFailures(mtbf, stream_seed=3)
    draws = [trial_first_failure_s(model, 0, n, t) for t in range(300)]
    sim = float(np.mean(draws))
    analytic = mtbf / n
    assert abs(sim - analytic) / analytic < 0.15


def test_fleet_repair_cycle_and_accounting():
    eng = Engine(seed=1)
    fleet = ShardFleet(eng, 0, 16, ExponentialFailures(30.0, stream_seed=5),
                       repair_s=5.0)
    fleet.start()
    eng.run(until_ns=int(300 * NS_PER_S))
    assert fleet.failures > 0
    assert fleet.repairs > 0
    assert fleet.repairs <= fleet.failures
    assert fleet.downtime_ns == fleet.repairs * fleet.repair_ns
    down = int(fleet.down.sum())
    assert down == fleet.failures - fleet.repairs
    assert fleet.up_count() == 16 - down
    assert fleet.first_failure_ns is not None
    assert eng.metrics.counter("fleet.failures").value == fleet.failures


def test_fleet_same_seed_runs_are_identical():
    def run():
        eng = Engine(seed=4)
        fleet = ShardFleet(eng, 0, 64,
                           ExponentialFailures(50.0, stream_seed=11),
                           repair_s=10.0)
        fleet.start()
        eng.run(until_ns=int(200 * NS_PER_S))
        return (fleet.failures, fleet.repairs, fleet.first_failure_ns,
                fleet.fail_at_ns.tolist())

    assert run() == run()


def test_fleet_batch_window_coalesces_dispatches_exact_stats():
    """A positive batch window must not change failure counts or the
    exact per-node failure times (only processing instants)."""
    def run(window):
        eng = Engine(seed=2)
        fleet = ShardFleet(eng, 0, 128,
                           ExponentialFailures(20.0, stream_seed=8),
                           repair_s=1e9, batch_window_ns=window)
        seen = []
        fleet.on_fail = lambda ids, ts: seen.extend(ts.tolist())
        fleet.start()
        eng.run(until_ns=int(60 * NS_PER_S))
        return fleet.failures, sorted(seen)

    exact = run(0)
    batched = run(100 * NS_PER_MS)
    assert exact == batched


def test_fleet_detach_stops_managing_nodes():
    """Detached nodes -- up or in repair -- never fail or repair again
    and are not counted as up."""
    eng = Engine()
    fleet = ShardFleet(eng, 0, 8, ExponentialFailures(10.0, stream_seed=1),
                       repair_s=5.0)
    failed, repaired = [], []
    fleet.on_fail = lambda ids, ts: failed.extend(ids.tolist())
    fleet.on_repair = lambda ids: repaired.extend(ids.tolist())
    fleet.detach([0, 1, 2, 3])
    assert fleet.up_count() == 4
    fleet.start()
    eng.run(until=lambda: fleet.failures > 0, until_ns=int(100 * NS_PER_S))
    in_repair = np.nonzero(fleet.down)[0].tolist()
    assert in_repair and set(in_repair) <= {4, 5, 6, 7}
    fleet.detach(in_repair)
    assert fleet.up_count() == 4 - len(in_repair)
    eng.run(until_ns=int(100 * NS_PER_S))
    assert set(failed) <= {4, 5, 6, 7}
    assert not set(repaired) & set(in_repair)
    assert all(failed.count(n) == 1 for n in in_repair)
    fleet.detach(range(8))
    assert fleet.up_count() == 0
    frozen = fleet.failures, fleet.repairs
    eng.run(until_ns=int(1000 * NS_PER_S))
    assert (fleet.failures, fleet.repairs) == frozen
    assert eng.pending() == 0


def test_fleet_rejects_bad_parameters():
    eng = Engine()
    with pytest.raises(ClusterError):
        ShardFleet(eng, 0, 0, ExponentialFailures(10.0, stream_seed=1))
    with pytest.raises(ClusterError):
        ShardFleet(eng, 0, 4, ExponentialFailures(10.0, stream_seed=1),
                   repair_s=-1.0)


# ----------------------------------------------------------------------
# Lazy cluster + promotion
# ----------------------------------------------------------------------
def test_lazy_cluster_materializes_only_touched_nodes():
    c = Cluster(n_nodes=65_536, seed=0, lazy_nodes=True)
    assert len(c.nodes) == 65_536
    assert c.materialized_nodes() == 0
    job = ParallelJob(c, _writer, n_ranks=4, node_ids=[0, 1, 2, 3])
    assert c.materialized_nodes() == 4
    assert job.run_to_completion(limit_ns=int(3600 * NS_PER_S))
    assert c.materialized_nodes() == 4


def test_lazy_cluster_fleet_churn_with_job():
    c = Cluster(n_nodes=65_536, seed=0, lazy_nodes=True)
    job = ParallelJob(c, _writer, n_ranks=4, node_ids=[0, 1, 2, 3])
    fleet = c.attach_fleet(ExponentialFailures(3600.0, stream_seed=2),
                           repair_s=300.0)
    # The job's nodes were already materialized, so the cohort must not
    # drive them.
    assert bool(fleet.detached[:4].all())
    assert job.run_to_completion(limit_ns=int(3600 * NS_PER_S))
    assert fleet.failures > 0
    # Statistical failures did not materialize machines.
    assert c.materialized_nodes() == 4


def test_fleet_promotion_materializes_and_fails_node():
    c = Cluster(n_nodes=1024, n_spares=1, seed=0, lazy_nodes=True)
    c.attach_fleet(ExponentialFailures(600.0, stream_seed=6),
                   repair_s=1e6, promote_on_failure=True)
    failed = []
    c.on_failure(lambda node: failed.append(node.node_id))
    c.run_for(int(10 * NS_PER_S))
    assert failed, "expected at least one promoted failure"
    assert c.materialized_nodes() >= len(set(failed))
    for nid in failed:
        assert not c.node(nid).up
        assert bool(c.fleet.detached[nid])
    assert c.engine.metrics.counter("node_failures").value == len(failed)


def test_attach_fleet_twice_rejected():
    c = Cluster(n_nodes=8, seed=0, lazy_nodes=True)
    c.attach_fleet(ExponentialFailures(100.0, stream_seed=1))
    with pytest.raises(ClusterError):
        c.attach_fleet(ExponentialFailures(100.0, stream_seed=1))


def test_attach_fleet_needs_indexed_model():
    c = Cluster(n_nodes=8, seed=0, lazy_nodes=True)
    with pytest.raises(ClusterError, match="stream_seed"):
        c.attach_fleet(ExponentialFailures(100.0))
    assert c.fleet is None


def test_lazy_cluster_spares_and_failures_work():
    c = Cluster(n_nodes=16, n_spares=2, seed=0, lazy_nodes=True)
    c.fail_node(3)
    assert not c.node(3).up
    spare = c.claim_spare()
    assert spare.node_id == 16
    assert c.spares_left() == 1
    assert c.materialized_nodes() == 2


def test_schedule_failures_identical_on_lazy_and_eager_clusters():
    def first_failure(lazy):
        c = Cluster(n_nodes=64, seed=5, lazy_nodes=lazy)
        model = ExponentialFailures(100.0, rng=np.random.default_rng(9))
        c.schedule_failures(model)
        c.engine.run(
            until=lambda: c.engine.counters.get("node_failures", 0) > 0,
            until_ns=int(3600 * NS_PER_S),
        )
        return c.engine.now_ns

    assert first_failure(False) == first_failure(True)


def test_schedule_failures_arms_the_sequential_stream():
    """Per-node scheduling takes one sequential draw per node in id
    order: the armed instants are a size-n draw from the same seed."""
    n, mtbf, horizon_s = 32, 200.0, 300.0
    c = Cluster(n_nodes=n, seed=9, lazy_nodes=True)
    fired = []
    c.on_failure(lambda node: fired.append((c.engine.now_ns, node.node_id)))
    armed = c.schedule_failures(
        ExponentialFailures(mtbf, rng=np.random.default_rng(77)),
        horizon_s=horizon_s)
    c.engine.run(until_ns=int(3600 * NS_PER_S))

    oracle = np.random.default_rng(77).exponential(mtbf, size=n)
    expected = sorted((int(t * NS_PER_S), i)
                      for i, t in enumerate(oracle.tolist())
                      if t <= horizon_s)
    assert armed == len(expected) > 0
    assert sorted(fired) == expected
