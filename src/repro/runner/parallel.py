"""Parallel scenario runner: worker processes driving engine shards.

This is the process backend for :mod:`repro.simkernel.parallel` plus
the one entry point experiments call:

:func:`run_parallel`
    Build ``n_shards`` shard contexts from a scenario factory, drive
    them through conservative windows to the horizon, export each
    shard's ``repro.obs`` document and fold them into one canonical
    document (:mod:`repro.obs.fold`).  ``workers=1`` steps every shard
    in-process (:class:`~repro.simkernel.parallel.LocalShardGroup` --
    the determinism reference); ``workers > 1`` spreads shards over
    **persistent worker processes**.

Two process transports (``transport=`` on :func:`run_parallel`):

``"pipe"``
    The original protocol: length-delimited pickles over pipes for
    every verb, one pickled ``WindowReply`` (envelope objects included)
    per worker per barrier, one pickled obs document per shard at the
    end.
``"shm"``
    The zero-copy hot path (:mod:`repro.runner.shmtransport`): each
    worker owns two shared-memory frame rings.  A window's outbox
    crosses as **one**
    :class:`~repro.simkernel.parallel.EnvelopeBatch` frame -- packed
    NumPy columns plus a canonical-JSON payload arena -- and obs
    exports are folded worker-side
    (:func:`~repro.obs.fold.fold_exports`) and shipped as one
    canonical-JSON frame per worker.  The pipes carry only control
    verbs and tiny ``(seq, offset, nbytes)`` doorbells.  Frames larger
    than a ring fall back to raw bytes over the pipe; a non-``fork``
    start method (or missing ``shared_memory``) falls back to the pipe
    transport wholesale.  ``"auto"`` picks shm when those conditions
    hold.

The worker protocol is four lockstep verbs -- ``status`` / ``window``
/ ``deliver`` / ``export`` -- broadcast to all workers and then
collected from all, so shards advance concurrently between barriers.
Workers are persistent (spawned once per run, not per window): at a
few hundred windows per run, per-window process spawning would
dominate the simulation itself.  A worker that dies mid-run surfaces
as :class:`WorkerDiedError` naming the dead worker and its shards
instead of a barrier that hangs forever.

Determinism: the driver loop, the barrier exchange and the canonical
envelope ordering are identical for all backends and transports --
the shm path moves *representation* (columns instead of pickles), and
every receiving shard still sorts its batch by the canonical envelope
key -- so the folded export is byte-identical across ``workers``,
``transport`` *and* ``n_shards`` (the hard gate; see
``benchmarks/perf/check_parallel.py``).
"""

from __future__ import annotations

import json
import multiprocessing as mp
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..errors import SimulationError
from ..obs import MetricsRegistry, export_obs, to_json
from ..obs.fold import fold_exports, strip_metrics
from ..simkernel.engine import Engine
from ..simkernel.parallel import (
    Envelope,
    EnvelopeBatch,
    LocalShardGroup,
    ParallelError,
    ShardContext,
    ShardGroup,
    WindowReply,
    WindowStats,
    run_windows,
)
from .shmtransport import ShmRing, shm_available

__all__ = [
    "ParallelResult",
    "ProcessShardGroup",
    "WorkerDiedError",
    "run_parallel",
]

FactorySpec = Any  # callable or "module:function" dotted name

#: Per-direction ring capacity.  A window frame is ~30 bytes per
#: envelope plus its payload JSON; 1 MiB holds tens of thousands of
#: envelopes, and anything bigger falls back to the pipe per-frame.
DEFAULT_RING_BYTES = 1 << 20


class WorkerDiedError(ParallelError):
    """A worker process died mid-run (named, instead of a hung barrier).

    ``worker`` is the worker index, ``shards`` the shard ids it owned,
    ``exitcode`` the process exit status when already reaped.
    """

    def __init__(self, message: str, *, worker: int,
                 shards: Sequence[int], exitcode: Optional[int] = None) -> None:
        super().__init__(message)
        self.worker = worker
        self.shards = list(shards)
        self.exitcode = exitcode


def _resolve_factory(spec: FactorySpec) -> Callable:
    """Accept a top-level callable or a ``"module:function"`` name."""
    if callable(spec):
        name = getattr(spec, "__qualname__", "")
        if "<" in name or "." in name:
            raise ParallelError(
                f"scenario factory {name!r} must be an importable top-level "
                "function (workers re-import it by name)"
            )
        return spec
    if isinstance(spec, str) and ":" in spec:
        module, _, attr = spec.partition(":")
        import importlib

        return getattr(importlib.import_module(module), attr)
    raise ParallelError(f"bad scenario factory spec {spec!r}")


def _factory_name(spec: FactorySpec) -> str:
    fn = _resolve_factory(spec)
    return f"{fn.__module__}:{fn.__qualname__}"


def _build_shard(
    factory: Callable,
    params: Mapping[str, Any],
    seed: int,
    shard_id: int,
    n_shards: int,
    lookahead_ns: Optional[int],
) -> tuple:
    engine = Engine(seed=seed)
    ctx = ShardContext(engine, shard_id, n_shards, lookahead_ns=lookahead_ns)
    scenario = factory(ctx, dict(params), seed)
    return ctx, scenario


# ----------------------------------------------------------------------
# Worker side (module-level: picklable by reference under spawn)
# ----------------------------------------------------------------------
def _ship_frame(conn, ring: ShmRing, tag: str, nbytes: int, fill,
                extra) -> None:
    """Send one bulk frame: through the ring when it fits (doorbell on
    the pipe), as raw bytes over the pipe when it does not."""
    bell = ring.write_frame(nbytes, fill)
    if bell is not None:
        conn.send((tag, bell[0], bell[1], nbytes, extra))
    else:
        buf = bytearray(nbytes)
        fill(memoryview(buf))
        conn.send((tag + "_bytes", bytes(buf), extra))


def _worker_main(
    conn,
    paths: List[str],
    factory_name: str,
    params: Dict[str, Any],
    seed: int,
    shard_ids: List[int],
    n_shards: int,
    lookahead_ns: Optional[int],
    rings: Optional[Tuple[ShmRing, ShmRing]] = None,
) -> None:
    for p in reversed(paths):
        if p not in sys.path:
            sys.path.insert(0, p)
    factory = _resolve_factory(factory_name)
    shards = {
        sid: _build_shard(factory, params, seed, sid, n_shards, lookahead_ns)
        for sid in shard_ids
    }
    ring_in = ring_out = None
    if rings is not None:
        ring_in, ring_out = rings  # fork-inherited mappings

    def deliver_batch(batch: EnvelopeBatch) -> List[Tuple[int, Optional[int]]]:
        inboxes: Dict[int, List[Envelope]] = {}
        for env in batch.to_envelopes():
            inboxes.setdefault(env.dst_shard, []).append(env)
        out = []
        for sid, envs in inboxes.items():
            ctx, _ = shards[sid]
            ctx.deliver(envs)
            out.append((sid, ctx.next_time_ns()))
        return out

    try:
        while True:
            msg = conn.recv()
            verb = msg[0]
            if verb == "status":
                conn.send([(sid, ctx.next_time_ns())
                           for sid, (ctx, _) in shards.items()])
            elif verb == "window":
                end_ns = msg[1]
                outbox: List[Envelope] = []
                metas = []
                for sid, (ctx, scenario) in shards.items():
                    box, processed = ctx.run_window(end_ns)
                    stop = bool(getattr(scenario, "stop", lambda: False)())
                    if ring_out is None:
                        metas.append((sid, WindowReply(
                            box, ctx.next_time_ns(), processed, stop)))
                    else:
                        outbox.extend(box)
                        metas.append((sid, ctx.next_time_ns(), processed,
                                      stop))
                if ring_out is None:
                    conn.send(metas)
                elif not outbox:
                    conn.send(("empty", metas))
                else:
                    batch = EnvelopeBatch.from_envelopes(outbox)
                    _ship_frame(conn, ring_out, "frame", batch.nbytes,
                                batch.write_into, metas)
            elif verb == "deliver":
                inbox_map = msg[1]
                out = []
                for sid, envs in inbox_map.items():
                    ctx, _ = shards[sid]
                    ctx.deliver(envs)
                    out.append((sid, ctx.next_time_ns()))
                conn.send(out)
            elif verb == "deliver_shm":
                _, seq, off, nbytes = msg
                data = ring_in.read_frame(seq, off, nbytes)
                conn.send(deliver_batch(EnvelopeBatch.read_from(data)))
            elif verb == "deliver_bytes":
                conn.send(deliver_batch(EnvelopeBatch.read_from(msg[1])))
            elif verb == "export":
                meta = msg[1]
                docs, results = [], []
                for sid, (ctx, scenario) in shards.items():
                    doc = export_obs(ctx.engine.metrics,
                                     tracer=ctx.engine.tracer,
                                     meta=meta, now_ns=ctx.engine.now_ns)
                    result = getattr(scenario, "result", lambda: None)()
                    if ring_out is None:
                        results.append((sid, doc, result))
                    else:
                        docs.append(strip_metrics(doc))
                        results.append((sid, result))
                if ring_out is None:
                    conn.send(results)
                else:
                    # Fold this worker's shards here, ship one canonical
                    # JSON frame; the driver folds workers.  The fold is
                    # associative, so worker-then-driver equals flat.
                    blob = to_json(fold_exports(docs)).encode("utf-8")

                    def fill(mv, blob=blob):
                        mv[:len(blob)] = blob
                        return len(blob)

                    _ship_frame(conn, ring_out, "frame", len(blob), fill,
                                results)
            elif verb == "exit":
                break
            else:  # pragma: no cover - protocol guard
                raise SimulationError(f"unknown worker verb {verb!r}")
    finally:
        conn.close()
        if rings is not None:
            ring_in.close()
            ring_out.close()


class ProcessShardGroup(ShardGroup):
    """Shards spread over persistent worker processes.

    Shard ``i`` lives on worker ``i % workers`` (so a 4-shard run with
    4 workers is one shard per process).  Every lockstep operation is
    broadcast to all workers first and collected second -- the collect
    order is by worker index, and replies are re-sorted by shard id, so
    the driver sees the exact same reply layout as the local group.

    ``transport`` selects the data path: ``"shm"`` gives each worker a
    driver->worker and a worker->driver :class:`ShmRing` and overrides
    :meth:`exchange` with columnar frame routing; ``"pipe"`` is the
    pickle protocol; ``"auto"`` picks shm when the platform can fork
    and shared memory exists.  :attr:`fallback_frames` counts frames
    that overflowed a ring and shipped over the pipe instead.
    """

    def __init__(
        self,
        factory: FactorySpec,
        params: Mapping[str, Any],
        seed: int,
        *,
        n_shards: int,
        lookahead_ns: Optional[int],
        workers: int,
        transport: str = "auto",
        ring_bytes: int = DEFAULT_RING_BYTES,
    ) -> None:
        if workers < 1:
            raise ParallelError("need at least one worker")
        if transport not in ("auto", "pipe", "shm"):
            raise ParallelError(f"unknown transport {transport!r}")
        self.size = int(n_shards)
        workers = min(workers, self.size)
        name = _factory_name(factory)
        try:
            ctx = mp.get_context("fork")
            can_fork = True
        except ValueError:  # pragma: no cover - non-POSIX fallback
            ctx = mp.get_context("spawn")
            can_fork = False
        if transport == "shm" and not (can_fork and shm_available()):
            raise ParallelError(
                "shm transport needs the fork start method and "
                "multiprocessing.shared_memory"
            )
        if transport == "auto":
            transport = "shm" if (can_fork and shm_available()) else "pipe"
        self.transport = transport
        self.fallback_frames = 0
        self._conns = []
        self._procs = []
        self._rings_in: List[Optional[ShmRing]] = []
        self._rings_out: List[Optional[ShmRing]] = []
        self._pending: List[EnvelopeBatch] = []
        self._owned = [[sid for sid in range(self.size) if sid % workers == w]
                       for w in range(workers)]
        for w, shard_ids in enumerate(self._owned):
            rings = None
            if transport == "shm":
                rings = (ShmRing(ring_bytes, name=f"w{w}-in"),
                         ShmRing(ring_bytes, name=f"w{w}-out"))
            parent, child = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main,
                args=(child, list(sys.path), name, dict(params), seed,
                      shard_ids, self.size, lookahead_ns, rings),
                daemon=True,
            )
            proc.start()
            child.close()
            self._conns.append(parent)
            self._procs.append(proc)
            self._rings_in.append(rings[0] if rings else None)
            self._rings_out.append(rings[1] if rings else None)

    # ------------------------------------------------------------------
    # Pipe wrappers: a dead worker raises a named error, not a hang.
    # ------------------------------------------------------------------
    def _died(self, w: int, exc: Exception) -> WorkerDiedError:
        proc = self._procs[w]
        proc.join(timeout=1)
        code = proc.exitcode
        return WorkerDiedError(
            f"worker {w} (shards {self._owned[w]}) died mid-run"
            f"{f' (exit code {code})' if code is not None else ''}: {exc!r}",
            worker=w, shards=self._owned[w], exitcode=code,
        )

    def _send(self, w: int, msg: tuple) -> None:
        try:
            self._conns[w].send(msg)
        except (BrokenPipeError, OSError) as exc:
            raise self._died(w, exc) from exc

    def _recv(self, w: int) -> Any:
        try:
            return self._conns[w].recv()
        except (EOFError, OSError) as exc:
            raise self._died(w, exc) from exc

    def _broadcast(self, msg: tuple) -> List[Any]:
        for w in range(len(self._conns)):
            self._send(w, msg)
        merged: List[Any] = []
        for w in range(len(self._conns)):
            merged.extend(self._recv(w))
        return merged

    # ------------------------------------------------------------------
    def status_all(self) -> List[Optional[int]]:
        """Each shard's next pending event time (None when drained)."""
        replies = dict(self._broadcast(("status",)))
        return [replies[sid] for sid in range(self.size)]

    def window_all(self, end_ns: int) -> List[WindowReply]:
        """Run every shard to ``end_ns``; one reply per shard.

        On the shm transport each worker answers with per-shard meta
        tuples plus at most one envelope frame; frames are decoded (a
        one-shot snapshot -- the ring slot is reused next window) and
        parked for :meth:`exchange`.
        """
        if self.transport != "shm":
            replies = dict(self._broadcast(("window", end_ns)))
            return [replies[sid] for sid in range(self.size)]
        for w in range(len(self._conns)):
            self._send(w, ("window", end_ns))
        by_sid: Dict[int, WindowReply] = {}
        self._pending = []
        for w in range(len(self._conns)):
            reply = self._recv(w)
            tag, metas = reply[0], reply[-1]
            if tag == "frame":
                _, seq, off, nbytes, _ = reply
                data = self._rings_out[w].read_frame(seq, off, nbytes)
                self._pending.append(EnvelopeBatch.read_from(data))
            elif tag == "frame_bytes":
                self.fallback_frames += 1
                self._pending.append(EnvelopeBatch.read_from(reply[1]))
            for sid, next_ns, processed, stop in metas:
                by_sid[sid] = WindowReply([], next_ns, processed, stop)
        return [by_sid[sid] for sid in range(self.size)]

    def exchange(
        self, replies: List[WindowReply]
    ) -> Tuple[List[Optional[int]], int]:
        """Route the window's envelopes to their destination shards.

        Pipe transport: the per-envelope default from
        :class:`~repro.simkernel.parallel.ShardGroup`.  Shm transport:
        concatenate the parked frames, slice per destination worker on
        the ``dst_shard`` column, and write each worker one frame into
        its driver->worker ring -- no envelope objects exist driver-side.
        """
        if self.transport != "shm":
            return super().exchange(replies)
        batches, self._pending = self._pending, []
        nexts = [reply.next_ns for reply in replies]
        if not batches:
            return nexts, 0
        allb = batches[0] if len(batches) == 1 else EnvelopeBatch.concat(
            batches)
        exchanged = allb.n
        nworkers = len(self._conns)
        dst_worker = allb.dst_shard % nworkers
        contacted = []
        for w in range(nworkers):
            mask = dst_worker == w
            if not mask.any():
                continue
            sub = allb.select(mask)
            nbytes = sub.nbytes
            bell = self._rings_in[w].write_frame(nbytes, sub.write_into)
            if bell is not None:
                self._send(w, ("deliver_shm", bell[0], bell[1], nbytes))
            else:
                self.fallback_frames += 1
                buf = bytearray(nbytes)
                sub.write_into(memoryview(buf))
                self._send(w, ("deliver_bytes", bytes(buf)))
            contacted.append(w)
        for w in contacted:
            for sid, t in self._recv(w):
                nexts[sid] = t
        return nexts, exchanged

    def deliver_all(
        self, inboxes: List[List[Envelope]]
    ) -> List[Optional[int]]:
        """Hand each shard its inbox; only workers holding a non-empty
        inbox are contacted.  Returns the post-delivery next-event time
        for shards that received anything (None entries elsewhere)."""
        nexts: List[Optional[int]] = [None] * self.size
        contacted = []
        for w in range(len(self._conns)):
            inbox_map = {
                sid: inboxes[sid]
                for sid in range(w, self.size, len(self._conns))
                if inboxes[sid]
            }
            if inbox_map:
                self._send(w, ("deliver", inbox_map))
                contacted.append(w)
        for w in contacted:
            for sid, t in self._recv(w):
                nexts[sid] = t
        return nexts

    def export_all(self, meta: Mapping[str, Any]):
        """Collect obs documents and scenario results.

        Pipe transport: one pickled document per shard, shard-id order.
        Shm transport: one worker-folded canonical-JSON frame per
        worker (the docs list then holds one pre-folded document per
        worker); scenario results still arrive per shard and are
        re-sorted into shard-id order either way.
        """
        if self.transport != "shm":
            replies = self._broadcast(("export", dict(meta)))
            replies.sort(key=lambda r: r[0])
            return ([doc for _, doc, _ in replies],
                    [result for _, _, result in replies])
        for w in range(len(self._conns)):
            self._send(w, ("export", dict(meta)))
        docs, results = [], []
        for w in range(len(self._conns)):
            reply = self._recv(w)
            tag = reply[0]
            if tag == "frame":
                _, seq, off, nbytes, res = reply
                blob = self._rings_out[w].read_frame(seq, off, nbytes)
            else:  # "frame_bytes"
                self.fallback_frames += 1
                _, blob, res = reply
            docs.append(json.loads(blob.decode("utf-8")))
            results.extend(res)
        results.sort(key=lambda r: r[0])
        return docs, [result for _, result in results]

    def close(self) -> None:
        """Shut the workers down (terminate any that hang on join) and
        release the shared-memory rings (the driver created them, so
        the driver unlinks them)."""
        for conn in self._conns:
            try:
                conn.send(("exit",))
                conn.close()
            except (BrokenPipeError, OSError):  # pragma: no cover
                pass
        for proc in self._procs:
            proc.join(timeout=30)
            if proc.is_alive():  # pragma: no cover - hung worker guard
                proc.terminate()
        for ring in self._rings_in + self._rings_out:
            if ring is not None:
                ring.close(unlink=True)


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
@dataclass
class ParallelResult:
    """Everything one parallel run produces.

    ``obs`` is the folded, engine-metric-stripped document the
    byte-identity gate covers (``obs_json`` is its canonical
    serialization).  ``shard_obs`` holds the fold's inputs: one
    document per shard (local and pipe backends) or one pre-folded
    document per worker (shm transport).  ``barrier_obs`` carries the
    topology-dependent ``parallel.*`` window metrics and deliberately
    stays out of ``obs``.  ``transport`` records the data path used:
    ``"local"``, ``"pipe"`` or ``"shm"``.
    """

    obs: Dict[str, Any]
    obs_json: str
    shard_obs: List[Dict[str, Any]]
    shard_results: List[Any]
    stats: WindowStats
    barrier_obs: Dict[str, Any] = field(default_factory=dict)
    transport: str = "local"


def run_parallel(
    factory: FactorySpec,
    params: Mapping[str, Any],
    seed: int,
    *,
    n_shards: int,
    horizon_ns: int,
    lookahead_ns: Optional[int] = None,
    window_ns: Optional[int] = None,
    workers: int = 1,
    transport: str = "auto",
    meta: Optional[Mapping[str, Any]] = None,
) -> ParallelResult:
    """Run one sharded scenario to ``horizon_ns`` and fold its exports.

    Parameters
    ----------
    factory:
        Scenario factory (see :mod:`repro.cluster.scenarios`) -- a
        top-level callable or ``"module:function"`` dotted name.
    n_shards:
        How many engine shards to partition the scenario into.  The
        folded export must not depend on this value; that is the gate.
    lookahead_ns:
        Cross-shard latency floor.  None means the scenario has no
        cross-shard channels (sends would raise).
    window_ns:
        Barrier spacing.  Defaults to the lookahead; may be smaller
        (tighter stop-flag sampling) but never larger.  With neither
        set, the run is one window to the horizon.
    workers:
        1 = in-process reference backend; >1 = persistent worker
        processes (capped at ``n_shards``).
    transport:
        Process data path: ``"shm"``, ``"pipe"`` or ``"auto"``
        (shm when fork + shared memory are available).  Ignored for
        ``workers=1``.  The folded export must not depend on this
        value either -- the CI smoke asserts pipe-vs-shm byte equality.
    meta:
        Experiment metadata stamped into every shard's export.  Must be
        shard-invariant (the fold enforces it).
    """
    if window_ns is None:
        window_ns = lookahead_ns
    if (window_ns is not None and lookahead_ns is not None
            and window_ns > lookahead_ns):
        raise ParallelError(
            f"window {window_ns} exceeds lookahead {lookahead_ns}: the "
            "conservative condition would not hold"
        )
    meta = dict(meta or {})
    registry = MetricsRegistry()

    if workers == 1:
        fn = _resolve_factory(factory)
        shards = [
            _build_shard(fn, params, seed, sid, n_shards, lookahead_ns)
            for sid in range(n_shards)
        ]
        group: Any = LocalShardGroup(shards)
        stats = run_windows(group, horizon_ns=horizon_ns,
                            window_ns=window_ns, registry=registry)
        shard_obs = [
            export_obs(ctx.engine.metrics, tracer=ctx.engine.tracer,
                       meta=meta, now_ns=ctx.engine.now_ns)
            for ctx, _ in shards
        ]
        shard_results = [
            getattr(scenario, "result", lambda: None)()
            for _, scenario in shards
        ]
        used_transport = "local"
        folded = fold_exports([strip_metrics(doc) for doc in shard_obs])
    else:
        group = ProcessShardGroup(
            factory, params, seed,
            n_shards=n_shards, lookahead_ns=lookahead_ns, workers=workers,
            transport=transport,
        )
        try:
            stats = run_windows(group, horizon_ns=horizon_ns,
                                window_ns=window_ns, registry=registry)
            shard_obs, shard_results = group.export_all(meta)
        finally:
            group.close()
        used_transport = group.transport
        if used_transport == "shm":
            # Workers already stripped and folded their shards; fold
            # the per-worker documents (associative => same bytes).
            registry.counter("parallel.shm_fallback_frames").inc(
                group.fallback_frames)
            folded = fold_exports(shard_obs)
        else:
            folded = fold_exports([strip_metrics(doc) for doc in shard_obs])

    barrier_obs = registry.to_dict()
    return ParallelResult(
        obs=folded,
        obs_json=to_json(folded),
        shard_obs=shard_obs,
        shard_results=shard_results,
        stats=stats,
        barrier_obs=barrier_obs,
        transport=used_transport,
    )
