"""Differential property: the burst interpreter equals event-per-op.

The op interpreter retires consecutive ops (and the pages of a
multi-page write) of one task inside a single engine event whenever
:meth:`Engine.claim` proves no other event could run first.  The
reference is the same code with every claim refused, which schedules
one engine event per op and per page.  Every scenario runs both ways
and must agree on every observable: the clock, per-task accounting,
registers, restart cursors, memory contents, the obs export (engine
event count included) and the checkpoint outcomes.

Scenarios mix the paper's workloads with the conditions that can
observe a task mid-write: 1-2 CPUs, a stop-and-copy checkpoint (CRAK),
a user-level incremental checkpointer whose SIGSEGV tracking faults
land mid-write, a system-level dirty log, a hardware write tracker, a
fork/COW checkpoint, a competing task or SCHED_FIFO kernel thread,
``stop_task`` and signals posted at arbitrary instants, and ``run_for``
horizons that end mid-write.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.mechanisms import CRAK, CheckpointMT, Libckpt, Revive, incremental
from repro.obs import export_obs, to_json
from repro.obs.fold import fold_exports, strip_metrics
from repro.simkernel import Kernel, SchedPolicy, Sig, ops
from repro.simkernel.engine import Engine
from repro.simkernel.signals import HandlerKind, SignalHandler
from repro.storage import LocalDiskStorage, MemoryStorage, RemoteStorage
from repro.workloads import (
    DenseWriter,
    RandomUpdater,
    StencilKernel,
    WavefrontSweep,
    memory_digest,
)

HEAP = 64 << 10

WORKLOADS = {
    "stencil": lambda seed: StencilKernel(
        iterations=12, heap_bytes=HEAP, compute_ns=20_000, seed=seed),
    "dense": lambda seed: DenseWriter(
        iterations=12, heap_bytes=HEAP, compute_ns=20_000, seed=seed),
    "random": lambda seed: RandomUpdater(
        iterations=12, heap_bytes=HEAP, compute_ns=20_000, seed=seed,
        updates_per_iteration=8),
    "wavefront": lambda seed: WavefrontSweep(
        iterations=12, heap_bytes=HEAP, compute_ns=20_000, seed=seed, planes=3),
}

MECHS = ("none", "crak", "libckpt", "dirty_log", "hw_tracker", "fork")


def _usr1_handler(task):
    """A user handler that computes, then writes across a page boundary
    (its later pages are deferred until the handler frame returns)."""
    yield ops.Compute(ns=3_000)
    yield ops.MemWrite(vma="heap", offset=4096 - 512, nbytes=4096, seed=99)


def _kthread_program(task, start_step):
    for _ in range(6):
        yield ops.Compute(ns=30_000)
        yield ops.Sleep(ns=70_000)


def _run(p: Dict[str, Any]) -> Dict[str, Any]:
    k = Kernel(ncpus=p["ncpus"], seed=p["seed"])
    eng = k.engine
    task = WORKLOADS[p["workload"]](p["seed"]).spawn(k)
    k.register_handler(task, Sig.SIGUSR1, SignalHandler(
        kind=HandlerKind.USER, program_factory=_usr1_handler, label="usr1"))
    if p["competitor"] == "task":
        DenseWriter(iterations=6, heap_bytes=32 << 10, compute_ns=15_000,
                    seed=p["seed"] + 1).spawn(k, name="rival")
    elif p["competitor"] == "kthread":
        k.spawn_kthread("kt", _kthread_program, policy=SchedPolicy.FIFO, rt_prio=40)

    mech = p["mech"]
    checkpointer = None
    if mech == "crak":
        checkpointer = CRAK(k, RemoteStorage())
    elif mech == "fork":
        checkpointer = CheckpointMT(k, LocalDiskStorage(0))
    elif mech == "hw_tracker":
        checkpointer = Revive(k, MemoryStorage())
    elif mech == "libckpt":
        checkpointer = Libckpt(k, LocalDiskStorage(0))
        checkpointer.prepare_target(task)
        checkpointer.enable_timer(task, 150_000)
    elif mech == "dirty_log":
        eng.at_anon(p["arm_ns"], lambda: incremental.arm_system_tracking(k, task))

    for t in p["signals"]:
        eng.at_anon(t, lambda: k.post_signal(task.pid, Sig.SIGUSR1))
    if p["stop"] is not None:
        t0, dt = p["stop"]

        def resume():
            if task.stop_requested:  # the stop has not landed yet
                eng.after_anon(dt, resume)
            else:
                k.resume_task(task)

        eng.at_anon(t0, lambda: k.stop_task(task))
        eng.at_anon(t0 + dt, resume)

    for i, h in enumerate(p["horizons"]):
        k.run_for(h)
        if i == 0 and checkpointer is not None and mech != "libckpt" and task.alive():
            checkpointer.request_checkpoint(task)
    k.run_until_exit(task, limit_ns=10**10)
    requests = checkpointer.requests if checkpointer is not None else []

    obs = export_obs(eng.metrics, tracer=eng.tracer, now_ns=eng.now_ns)
    return {
        "now_ns": eng.now_ns,
        "events": eng.metrics.counter("engine.events").value,
        "pending": eng.pending(),
        "obs": to_json(fold_exports([strip_metrics(obs)])),
        "raw_obs": to_json(obs),
        "requests": [(r.state.value, r.target_stall_ns,
                      r.image.size_bytes if r.image is not None else None)
                     for r in requests],
        "tasks": [
            {
                "pid": t.pid,
                "state": t.state.value,
                "exit": t.exit_code,
                "acct": dataclasses.asdict(t.acct),
                "registers": t.registers.snapshot(),
                "main_steps": t.main_steps,
                "memory": memory_digest(t) if t.mm is not None else None,
            }
            for t in sorted(k.tasks.values(), key=lambda t: t.pid)
        ],
    }


@st.composite
def scenarios(draw):
    return {
        "workload": draw(st.sampled_from(sorted(WORKLOADS))),
        "ncpus": draw(st.integers(1, 2)),
        "mech": draw(st.sampled_from(MECHS)),
        "competitor": draw(st.sampled_from(("none", "task", "kthread"))),
        "arm_ns": draw(st.integers(0, 300_000)),
        "signals": draw(st.lists(st.integers(0, 800_000), max_size=3)),
        "stop": draw(st.none() | st.tuples(st.integers(0, 600_000),
                                           st.integers(1, 200_000))),
        "horizons": draw(st.lists(st.integers(1, 400_000), min_size=1, max_size=4)),
        "seed": draw(st.integers(0, 2**16)),
    }


def _claims_counted():
    """Wrap Engine.claim to count granted claims."""
    granted = [0]
    original = Engine.claim

    def claim(self, time_ns):
        ok = original(self, time_ns)
        granted[0] += ok
        return ok

    return granted, mock.patch.object(Engine, "claim", claim)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scenarios())
def test_burst_interpreter_matches_event_per_op_reference(p):
    granted, counting = _claims_counted()
    with counting:
        burst = _run(p)
    with mock.patch.object(Engine, "claim", lambda self, time_ns: False):
        reference = _run(p)
    assert granted[0] > 0  # the burst path really ran
    assert burst == reference


def test_reference_schedules_one_event_per_page():
    """With claims refused, a 16-page write costs 16 completion events;
    the burst run counts exactly as many while scheduling almost none."""
    p = {"workload": "dense", "ncpus": 1, "mech": "none", "competitor": "none",
         "arm_ns": 0, "signals": [], "stop": None, "horizons": [1], "seed": 0}
    granted, counting = _claims_counted()
    with counting:
        burst = _run(p)
    with mock.patch.object(Engine, "claim", lambda self, time_ns: False):
        reference = _run(p)
    assert burst == reference
    assert burst["events"] >= 12 * HEAP // 4096
    assert granted[0] >= burst["events"] - 12 * 4
