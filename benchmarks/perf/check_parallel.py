#!/usr/bin/env python
"""CI smoke check for the conservative time-windowed parallel engine.

Asserts the PR's hard gate and a lenient throughput bar with plain
stdlib:

* **1-vs-N byte identity**: the folded ``repro.obs`` export of a
  failure-storm fleet is the same bytes for 1, 2 and 4 shards, and the
  persistent-worker process backend folds to the same bytes as the
  in-process reference at 1 and 4 shards (``workers`` is capped at
  ``n_shards``, so a 1-shard run still steps its shard in a worker);
* the all-cross-shard **ring traffic** scenario delivers every message
  exactly once (sent == received, xor digest identical across shard
  counts) -- the barrier exchange neither drops nor duplicates;
* the **restart-traffic** scenario actually exchanges envelopes across
  shards (the identity above is not vacuous), folds to the same bytes
  when its envelope frames cross worker pipes, and every failed node's
  storage read is acknowledged;
* a **speedup smoke**: aggregate events/s at 4 shards is at least 1.5x
  the 1-shard run.  The full >=3x acceptance bar lives in
  ``BENCH_PERF.json`` (``parallel_engine.speedup_4shard``); this bar is
  deliberately lenient because CI runners are small and noisy, but a
  sharded run that is *not meaningfully faster* means the O(n/S)
  dispatch win has rotted.

Exits non-zero with a diagnostic on any violation.

Usage::

    python benchmarks/perf/check_parallel.py
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.runner import run_parallel  # noqa: E402
from repro.simkernel.costs import NS_PER_S, NS_PER_US  # noqa: E402

MIN_SPEEDUP = 1.5


def storm(shards: int, workers: int = 1, n_nodes: int = 65536,
          horizon_s: float = 900.0):
    """One failure-storm run (the speedup + identity workload)."""
    return run_parallel(
        "repro.cluster.scenarios:fleet_storm",
        {"n_nodes": n_nodes, "mtbf_s": 200_000.0, "repair_s": 30.0},
        seed=17,
        n_shards=shards,
        horizon_ns=int(horizon_s * NS_PER_S),
        window_ns=30 * NS_PER_S,
        workers=workers,
        meta={"experiment": "smoke-storm", "n_nodes": n_nodes, "seed": 17},
    )


def main() -> int:
    status = 0

    # 1. Byte identity across shard counts and backends.
    runs = {s: storm(s) for s in (1, 2, 4)}
    ref = runs[1].obs_json
    for s in (2, 4):
        if runs[s].obs_json != ref:
            print(f"FAIL: {s}-shard folded export differs from 1-shard")
            status = 1
    for s in (1, 4):
        if storm(s, workers=2).obs_json != ref:
            print(f"FAIL: process-backend folded export differs from "
                  f"in-process at {s} shard(s)")
            status = 1
    if not status:
        print(f"identity: storm exports byte-identical for 1/2/4 shards "
              f"and the process backend at 1 and 4 shards "
              f"({len(ref)}B folded doc)")

    # 2. Ring traffic: exactly-once across the barrier exchange.
    hop_ns = 50 * NS_PER_US
    digests = {}
    for s in (1, 3):
        res = run_parallel(
            "repro.cluster.scenarios:ring_traffic",
            {"n_ranks": 24, "hop_ns": hop_ns, "hops": 6, "msgs_per_rank": 4},
            seed=9, n_shards=s, horizon_ns=NS_PER_S, lookahead_ns=hop_ns,
            meta={"experiment": "smoke-ring", "seed": 9},
        )
        c = res.obs["metrics"]["counters"]
        digest = 0
        for r in res.shard_results:
            digest ^= r["digest"]
        digests[s] = (c["ring.sent"], c["ring.recv"], digest, res.obs_json)
    sent, recv, digest, _ = digests[3]
    print(f"ring: {sent} sent / {recv} received, digest {digest:016x}")
    if sent == 0 or sent != recv:
        print("FAIL: ring delivery is not exactly-once")
        status = 1
    if digests[1] != digests[3]:
        print("FAIL: ring run differs between 1 and 3 shards")
        status = 1

    # 3. Restart traffic: cross-shard envelopes actually flow.
    prop_ns = 2_000_000

    def restart(shards, workers=1):
        return run_parallel(
            "repro.cluster.scenarios:fleet_restart_traffic",
            {"n_nodes": 256, "mtbf_s": 2_000.0, "repair_s": 120.0,
             "n_servers": 5, "image_bytes": 1 << 20,
             "propagation_ns": prop_ns, "service_floor_ns": 5_000_000,
             "ns_per_byte": 0.01},
            seed=11, n_shards=shards, horizon_ns=900 * NS_PER_S,
            lookahead_ns=prop_ns, workers=workers,
            meta={"experiment": "smoke-restart", "seed": 11},
        )

    rt = {s: restart(s) for s in (1, 4)}
    c = rt[4].obs["metrics"]["counters"]
    print(f"restart: {c['sstore.requests']} reads, {c['sstore.acks']} acks, "
          f"{rt[4].stats.exchanged} envelopes over {rt[4].stats.windows} "
          "windows")
    if rt[1].obs_json != rt[4].obs_json:
        print("FAIL: restart-traffic export differs between 1 and 4 shards")
        status = 1
    if restart(4, workers=2).obs_json != rt[1].obs_json:
        print("FAIL: restart-traffic export over worker processes differs "
              "from in-process")
        status = 1
    if rt[4].stats.exchanged == 0:
        print("FAIL: no envelopes crossed shards -- the identity check "
              "above is vacuous")
        status = 1
    if c["sstore.requests"] == 0 or c["sstore.requests"] != c["sstore.acks"]:
        print("FAIL: restart reads were not all acknowledged")
        status = 1

    # 4. Speedup smoke (lenient; the 3x bar lives in BENCH_PERF.json).
    def timed(shards):
        best = float("inf")
        events = 0
        for _ in range(2):
            t0 = time.perf_counter()
            res = storm(shards)
            best = min(best, time.perf_counter() - t0)
            events = res.stats.events
        return events / best

    eps1 = timed(1)
    eps4 = timed(4)
    speedup = eps4 / eps1
    print(f"speedup: {eps1:.0f} -> {eps4:.0f} aggregate events/s "
          f"at 4 shards ({speedup:.2f}x)")
    if speedup < MIN_SPEEDUP:
        print(f"FAIL: 4-shard speedup {speedup:.2f}x below the "
              f"{MIN_SPEEDUP}x smoke bar")
        status = 1

    print("OK: parallel engine within acceptance bars" if not status
          else "check_parallel: FAILED")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
