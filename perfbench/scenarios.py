"""The benchmark's four scenario workloads, driven through the public
``repro`` API.

Each workload function builds its scenario (the *set-up* phase), runs
it to completion (the *timed* phase, which ends once the run's folded
obs export exists) and then checks its own output outside the timed
phase.  It returns an :class:`Outcome` with:

* the two phase durations in host seconds;
* ``sim_ops`` -- simulated operations retired, counted from model state
  (kernel ops of every task, redone work included, or ring hops
  delivered), so batching events or changing the shard count leaves it
  unchanged;
* the self-check verdict and a digest of the deterministic outputs
  (canonical folded obs JSON plus a scenario summary): same seed, same
  digest, whatever the host or the speed of the code;
* work counts per layer, read from model state after the run.

The input of a run is its seed.  The seed moves content and placement
(payload values, the failing rank, checkpoint instant jitter) but not
the amount of work, so runs with different seeds measure the same job.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import os
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List

__all__ = ["Outcome", "WORKLOADS", "SIZES", "DEFAULT_SEED"]

#: The seed whose digests are recorded in ``digests.json``.
DEFAULT_SEED = 0

NS_PER_MS = 1_000_000

#: Scenario parameters.  ``full`` is what the benchmark measures;
#: ``tiny`` is for the self-test.  Both ring workloads share one entry,
#: so their outputs (and digests) must be identical.
SIZES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "full": {
        "kernel_cr": {"iterations": 48, "heap_kib": 2048, "ckpt_us": 30_000},
        "cluster_ckpt": {"n_ranks": 2, "n_spares": 2, "iterations": 24,
                         "heap_kib": 2048, "compute_us": 3000,
                         "interval_ms": 5, "fail_at_ms": (80,)},
        "ring": {"n_ranks": 1024, "msgs_per_rank": 4, "hops": 8,
                 "hop_ns": 1000, "spacing_ns": 125, "n_shards": 4},
    },
    "tiny": {
        "kernel_cr": {"iterations": 16, "heap_kib": 64, "ckpt_us": 500},
        "cluster_ckpt": {"n_ranks": 2, "n_spares": 1, "iterations": 16,
                         "heap_kib": 64, "compute_us": 3000,
                         "interval_ms": 2, "fail_at_ms": (30,)},
        "ring": {"n_ranks": 16, "msgs_per_rank": 2, "hops": 3,
                 "hop_ns": 1000, "spacing_ns": 250, "n_shards": 4},
    },
}


@dataclass
class Outcome:
    """One scenario run."""

    setup_s: float
    wall_s: float
    #: CPU seconds of this process plus reaped children in the timed phase.
    cpu_s: float
    sim_ops: int
    ok: bool
    problem: str
    digest: str
    counts: Dict[str, float] = field(default_factory=dict)
    #: Host-probe seconds around this run (set by the runner).
    probe_s: float = 0.0


def _cpu_s() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _digest(obs_json: str, summary: Dict[str, Any]) -> str:
    blob = obs_json + "\n" + json.dumps(summary, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _folded_obs(engines: Iterable[Any], meta: Dict[str, Any]) -> str:
    """Canonical folded obs JSON of single-engine scenarios (the same
    strip-and-fold the sharded runner applies to its shards)."""
    from repro.obs import export_obs, to_json
    from repro.obs.fold import fold_exports, strip_metrics

    docs = [strip_metrics(export_obs(e.metrics, tracer=e.tracer, meta=meta,
                                     now_ns=e.now_ns)) for e in engines]
    return to_json(fold_exports(docs))


def _ops_retired(kernels: Iterable[Any], step_of_key: Dict[str, int]) -> int:
    """Main-program ops retired by every task on ``kernels``.

    A restored task resumes at its image's aligned step, so only the
    steps past that point were retired by it; the steps it redoes were
    already retired once by the task that died.
    """
    total = 0
    for kernel in kernels:
        for task in kernel.tasks.values():
            start = 0
            key = task.annotations.get("restored_from")
            if key is not None:
                workload = task.annotations["workload"]
                start = workload.align_step(step_of_key[key])
            total += task.main_steps - start
    return total


def _rs_bytes() -> Dict[str, int]:
    from repro.stablestore.erasure import KERNEL_STATS

    return {f"rs.{k}": v for k, v in KERNEL_STATS.items() if k.endswith("_bytes")}


def _engine_events(engine) -> int:
    return engine.metrics.counter("engine.events").value


def _common_counts(obs_json: str, rs_before: Dict[str, int]) -> Dict[str, float]:
    counts: Dict[str, float] = {
        "obs.export_bytes": len(obs_json.encode("utf-8")),
        "barrier.windows": 0, "barrier.envelopes": 0,
        "barrier.idle_shard_frac": 0.0, "transport.fallback_frames": 0,
        "dedup.logical_bytes": 0, "dedup.stored_bytes": 0, "dedup.ratio": 0.0,
    }
    for k, v in _rs_bytes().items():
        counts[k] = v - rs_before[k]
    return counts


# ----------------------------------------------------------------------
# kernel_cr: the quickstart shape
# ----------------------------------------------------------------------
def kernel_cr(seed: int, p: Dict[str, Any], tracer=None) -> Outcome:
    """Stencil app on a 2-CPU kernel, one CRAK checkpoint mid-run,
    restart into a fresh process, and a clean reference run."""
    from repro.core.checkpointer import RequestState
    from repro.mechanisms import CRAK
    from repro.simkernel import Kernel
    from repro.storage import RemoteStorage
    from repro.workloads import StencilKernel, memory_digest

    limit_ns = 10**13
    app_kw = dict(iterations=p["iterations"], heap_bytes=p["heap_kib"] << 10,
                  seed=seed)
    t0 = perf_counter()
    kernel = Kernel(ncpus=2, seed=seed)
    task = StencilKernel(**app_kw).spawn(kernel)
    crak = CRAK(kernel, RemoteStorage())
    clean_kernel = Kernel(ncpus=2, seed=seed)
    clean_task = StencilKernel(**app_kw).spawn(clean_kernel)
    rs_before = _rs_bytes()
    c0 = _cpu_s()
    t1 = perf_counter()
    # The checkpoint instant moves with the seed by up to 0.3 ms.
    kernel.run_for((p["ckpt_us"] + (seed % 4) * 100) * 1000)
    request = crak.request_checkpoint(task)
    kernel.start()
    kernel.engine.run(until_ns=kernel.engine.now_ns + limit_ns,
                      until=lambda: request.state == RequestState.DONE)
    if request.state != RequestState.DONE:
        raise RuntimeError(f"checkpoint did not finish: {request.state}")
    restored = crak.restart(request.key)
    kernel.run_until_exit(restored.task, limit_ns=limit_ns)
    clean_kernel.run_until_exit(clean_task, limit_ns=limit_ns)
    obs_json = _folded_obs([kernel.engine, clean_kernel.engine],
                           {"workload": "kernel_cr", "seed": seed})
    t2 = perf_counter()
    cpu = _cpu_s() - c0

    heap = memory_digest(restored.task)["heap"]
    ok = heap == memory_digest(clean_task)["heap"] and restored.task.exit_code == 0
    image = request.image
    summary = {
        "image_step": image.step, "image_bytes": image.size_bytes,
        "restored_exit": restored.task.exit_code,
        "heap_pages": sorted(heap.items()),
        "virtual_ns": [kernel.engine.now_ns, clean_kernel.engine.now_ns],
    }
    ops = _ops_retired([kernel, clean_kernel], {image.key: image.step})
    counts = _common_counts(obs_json, rs_before)
    counts["engine.events"] = (_engine_events(kernel.engine)
                               + _engine_events(clean_kernel.engine))
    counts["kernel.ops"] = ops
    return Outcome(t1 - t0, t2 - t1, cpu, ops, ok,
                   "" if ok else "restored heap differs from the clean run",
                   _digest(obs_json, summary), counts)


# ----------------------------------------------------------------------
# cluster_ckpt: the paper's headline scenario, scaled down
# ----------------------------------------------------------------------
def cluster_ckpt(seed: int, p: Dict[str, Any], tracer=None) -> Outcome:
    """A ParallelJob on a failing Cluster, protected by coordinated
    AutonomicCheckpointer waves into dedup over a partner-replica plus
    Reed-Solomon hierarchy; fail-stops at fixed instants, recovery
    from the chain, run to completion."""
    from repro.cluster import CheckpointCoordinator, Cluster, ParallelJob
    from repro.core.direction import AutonomicCheckpointer
    from repro.workloads import DenseWriter

    n_ranks = p["n_ranks"]
    limit_ns = 60 * 1000 * NS_PER_MS
    t0 = perf_counter()
    cluster = Cluster(
        n_nodes=n_ranks, n_spares=p["n_spares"], seed=seed,
        storage_servers=4, content_dedup=True,
        storage_hierarchy={"partner_rf": 2, "erasure": (4, 2)},
    )

    def rank_app(rank: int) -> DenseWriter:
        # Dense rewrites of the whole heap: every wave captures and
        # digests all of it.
        return DenseWriter(iterations=p["iterations"],
                           heap_bytes=p["heap_kib"] << 10,
                           seed=seed * n_ranks + rank,
                           compute_ns=p["compute_us"] * 1000)

    job = ParallelJob(cluster, rank_app, n_ranks, name="bench-job")
    mechs = {n.node_id: AutonomicCheckpointer(n.kernel, cluster.remote_storage)
             for n in cluster.nodes}
    coord = CheckpointCoordinator(job, mechs,
                                  interval_ns=p["interval_ms"] * NS_PER_MS)
    coord.start()
    for i, at_ms in enumerate(p["fail_at_ms"]):
        victim = (seed + i) % n_ranks
        cluster.engine.after(at_ms * NS_PER_MS,
                             lambda n=victim: cluster.fail_node(n),
                             label="bench-node-fail")
    finished: Callable[[], bool] = lambda: job.finished  # noqa: E731
    if tracer is not None:
        finished = functools.partial(tracer.timed, "job.predicate", finished)
    rs_before = _rs_bytes()
    c0 = _cpu_s()
    t1 = perf_counter()
    cluster.run_until(finished, limit_ns)
    obs_json = _folded_obs([cluster.engine],
                           {"workload": "cluster_ckpt", "seed": seed})
    t2 = perf_counter()
    cpu = _cpu_s() - c0

    done = job.finished
    ok = done and coord.recoveries == len(p["fail_at_ms"])
    store = cluster.content_store
    summary = {
        "completed": done, "makespan_ns": cluster.engine.now_ns,
        "waves": len(coord.waves), "recoveries": coord.recoveries,
        "restarts": job.restarts, "lost_steps": coord.lost_steps,
        "logical_bytes": store.logical_payload_bytes,
        "unique_bytes": store.unique_payload_bytes,
    }
    step_of_key = {r.key: r.image.step for m in mechs.values()
                   for r in m.completed_requests()}
    ops = _ops_retired([n.kernel for n in cluster.nodes], step_of_key)
    counts = _common_counts(obs_json, rs_before)
    counts["engine.events"] = _engine_events(cluster.engine)
    counts["kernel.ops"] = ops
    counts["dedup.logical_bytes"] = store.logical_payload_bytes
    counts["dedup.stored_bytes"] = store.unique_payload_bytes
    if store.logical_payload_bytes:
        counts["dedup.ratio"] = (store.unique_payload_bytes
                                 / store.logical_payload_bytes)
    problem = "" if ok else (
        f"job completed={done}, recoveries={coord.recoveries} "
        f"(expected {len(p['fail_at_ms'])})")
    return Outcome(t1 - t0, t2 - t1, cpu, ops, ok, problem,
                   _digest(obs_json, summary), counts)


# ----------------------------------------------------------------------
# ring_local / ring_procs: barrier-heavy message ring
# ----------------------------------------------------------------------
@contextlib.contextmanager
def _setup_boundary(marks: List[float]):
    """Record when ``run_parallel`` enters its window loop: everything
    before that (shard construction, worker start-up) is set-up."""
    from repro.runner import parallel as runner_parallel

    original = runner_parallel.run_windows

    @functools.wraps(original)
    def marked(*args, **kwargs):
        marks.append(perf_counter())
        return original(*args, **kwargs)

    runner_parallel.run_windows = marked
    try:
        yield
    finally:
        runner_parallel.run_windows = original


def _ring(seed: int, p: Dict[str, Any], workers: int) -> Outcome:
    from repro.runner.parallel import run_parallel

    n_ranks, msgs, hop_ns = p["n_ranks"], p["msgs_per_rank"], p["hop_ns"]
    params = {"n_ranks": n_ranks, "hop_ns": hop_ns, "hops": p["hops"],
              "msgs_per_rank": msgs, "spacing_ns": p["spacing_ns"]}
    # The last launch is at msgs * n_ranks spacings; every message then
    # needs ``hops`` more hops.  The horizon is the virtual-time limit.
    horizon_ns = (msgs * n_ranks + 1) * p["spacing_ns"] + (p["hops"] + 1) * hop_ns
    rs_before = _rs_bytes()
    marks: List[float] = []
    c0 = _cpu_s()
    t0 = perf_counter()
    with _setup_boundary(marks):
        res = run_parallel(
            "repro.cluster.scenarios:ring_traffic", params, seed,
            n_shards=p["n_shards"], horizon_ns=horizon_ns,
            lookahead_ns=hop_ns, workers=workers,
            meta={"workload": "ring", "seed": seed},
        )
    t2 = perf_counter()
    cpu = _cpu_s() - c0
    t1 = marks[0]

    sent = sum(r["sent"] for r in res.shard_results)
    recv = sum(r["recv"] for r in res.shard_results)
    xor = 0
    for r in res.shard_results:
        xor ^= r["digest"]
    ok = sent == recv == n_ranks * msgs * p["hops"]
    summary = {"sent": sent, "recv": recv, "xor": xor}
    stats = res.stats
    counts = _common_counts(res.obs_json, rs_before)
    counts.update({
        "engine.events": stats.events,
        "kernel.ops": 0,
        "barrier.windows": stats.windows,
        "barrier.envelopes": stats.exchanged,
        "barrier.idle_shard_frac": (
            stats.idle_shard_windows / (stats.windows * p["n_shards"])
            if stats.windows else 0.0),
        "transport.fallback_frames": res.barrier_obs.get("counters", {}).get(
            "parallel.shm_fallback_frames", 0),
    })
    return Outcome(t1 - t0, t2 - t1, cpu, recv, ok,
                   "" if ok else f"ring sent {sent} != recv {recv}",
                   _digest(res.obs_json, summary), counts)


def ring_local(seed: int, p: Dict[str, Any], tracer=None) -> Outcome:
    """The ring on in-process shards (``workers=1``)."""
    return _ring(seed, p, workers=1)


def ring_procs(seed: int, p: Dict[str, Any], tracer=None) -> Outcome:
    """The ring over ``workers=2`` processes, default transport."""
    return _ring(seed, p, workers=2)


#: name -> (function, key into SIZES)
WORKLOADS: Dict[str, tuple] = {
    "kernel_cr": (kernel_cr, "kernel_cr"),
    "cluster_ckpt": (cluster_ckpt, "cluster_ckpt"),
    "ring_local": (ring_local, "ring"),
    "ring_procs": (ring_procs, "ring"),
}
