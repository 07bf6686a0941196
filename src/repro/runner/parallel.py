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

The process backend speaks one frame protocol over one
``multiprocessing`` pipe per worker.  Four lockstep verbs --
``status`` / ``window`` / ``deliver`` / ``export`` -- are broadcast to
the workers and then collected from them, so shards advance
concurrently between barriers.  Bulk data never crosses as pickled
objects:

* a window's outbox crosses as **one**
  :class:`~repro.simkernel.parallel.EnvelopeBatch` frame per worker --
  packed NumPy columns plus a canonical-JSON payload arena -- next to
  small per-shard ``(shard, next_ns, processed, stop)`` tuples;
* the driver concatenates those frames, routes rows on the
  ``dst_shard`` column and sends each destination worker one
  ``deliver`` frame -- no envelope objects exist driver-side;
* ``export`` returns one worker-folded canonical-JSON document
  (:func:`~repro.obs.fold.fold_exports` over the worker's shards) plus
  the per-shard scenario results.

Workers are persistent (spawned once per run, not per window): at a
few hundred windows per run, per-window process spawning would
dominate the simulation itself.  A worker that dies mid-run surfaces
as :class:`WorkerDiedError` naming the dead worker and its shards
instead of a barrier that hangs forever.

Determinism: the driver loop, the barrier exchange and the canonical
envelope ordering are identical for both backends -- frames move
*representation* (columns instead of envelope tuples), and every
receiving shard still sorts its batch by the canonical envelope key --
so the folded export is byte-identical across ``workers`` *and*
``n_shards`` (the hard gate; see ``benchmarks/perf/check_parallel.py``).
"""

from __future__ import annotations

import json
import multiprocessing as mp
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

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

__all__ = [
    "ParallelResult",
    "ProcessShardGroup",
    "WorkerDiedError",
    "run_parallel",
]

FactorySpec = Any  # callable or "module:function" dotted name


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
def _worker_main(
    conn,
    paths: List[str],
    factory_name: str,
    params: Dict[str, Any],
    seed: int,
    shard_ids: List[int],
    n_shards: int,
    lookahead_ns: Optional[int],
) -> None:
    for p in reversed(paths):
        if p not in sys.path:
            sys.path.insert(0, p)
    factory = _resolve_factory(factory_name)
    shards = {
        sid: _build_shard(factory, params, seed, sid, n_shards, lookahead_ns)
        for sid in shard_ids
    }
    try:
        while True:
            msg = conn.recv()
            verb = msg[0]
            if verb == "status":
                conn.send([(sid, ctx.next_time_ns())
                           for sid, (ctx, _) in shards.items()])
            elif verb == "window":
                outbox: List[Envelope] = []
                metas = []
                for sid, (ctx, scenario) in shards.items():
                    box, processed = ctx.run_window(msg[1])
                    outbox += box
                    stop = bool(getattr(scenario, "stop", lambda: False)())
                    metas.append((sid, ctx.next_time_ns(), processed, stop))
                frame = (EnvelopeBatch.from_envelopes(outbox).to_bytes()
                         if outbox else b"")
                conn.send((metas, frame))
            elif verb == "deliver":
                inboxes: Dict[int, List[Envelope]] = {}
                for env in EnvelopeBatch.read_from(msg[1]).to_envelopes():
                    inboxes.setdefault(env.dst_shard, []).append(env)
                out = []
                for sid, envs in inboxes.items():
                    ctx, _ = shards[sid]
                    ctx.deliver(envs)
                    out.append((sid, ctx.next_time_ns()))
                conn.send(out)
            elif verb == "export":
                docs, results = [], []
                for sid, (ctx, scenario) in shards.items():
                    docs.append(strip_metrics(export_obs(
                        ctx.engine.metrics, tracer=ctx.engine.tracer,
                        meta=msg[1], now_ns=ctx.engine.now_ns)))
                    results.append(
                        (sid, getattr(scenario, "result", lambda: None)()))
                # Fold this worker's shards here and ship one canonical
                # JSON document; the driver folds workers.  The fold is
                # associative, so worker-then-driver equals flat.
                conn.send((to_json(fold_exports(docs)).encode("utf-8"),
                           results))
            elif verb == "exit":
                break
            else:  # pragma: no cover - protocol guard
                raise SimulationError(f"unknown worker verb {verb!r}")
    finally:
        conn.close()


class ProcessShardGroup(ShardGroup):
    """Shards spread over persistent worker processes.

    Shard ``i`` lives on worker ``i % workers`` (so a 4-shard run with
    4 workers is one shard per process).  Every lockstep operation is
    broadcast to all workers first and collected second -- the collect
    order is by worker index, and replies are re-sorted by shard id, so
    the driver sees the exact same reply layout as the local group.
    Workers are forked where the platform allows it and spawned
    otherwise; the protocol is the same either way.
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
    ) -> None:
        if workers < 1:
            raise ParallelError("need at least one worker")
        if n_shards < 1:
            raise ParallelError("need at least one shard")
        self.size = int(n_shards)
        workers = min(workers, self.size)
        name = _factory_name(factory)
        try:
            ctx = mp.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX fallback
            ctx = mp.get_context("spawn")
        self._conns = []
        self._procs = []
        self._pending: List[EnvelopeBatch] = []
        self._owned = [[sid for sid in range(self.size) if sid % workers == w]
                       for w in range(workers)]
        for shard_ids in self._owned:
            parent, child = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main,
                args=(child, list(sys.path), name, dict(params), seed,
                      shard_ids, self.size, lookahead_ns),
                daemon=True,
            )
            proc.start()
            child.close()
            self._conns.append(parent)
            self._procs.append(proc)

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
        return [self._recv(w) for w in range(len(self._conns))]

    # ------------------------------------------------------------------
    def status_all(self) -> List[Optional[int]]:
        replies = dict(r for rs in self._broadcast(("status",)) for r in rs)
        return [replies[sid] for sid in range(self.size)]

    def window_all(self, end_ns: int) -> List[WindowReply]:
        """Run every shard to ``end_ns``; one reply per shard.

        Each worker answers with per-shard meta tuples plus its
        window's envelope frame (empty when it sent nothing); frames
        are decoded and parked for :meth:`exchange`.
        """
        by_sid: Dict[int, WindowReply] = {}
        self._pending = []
        for metas, frame in self._broadcast(("window", end_ns)):
            if frame:
                self._pending.append(EnvelopeBatch.read_from(frame))
            for sid, next_ns, processed, stop in metas:
                by_sid[sid] = WindowReply(next_ns, processed, stop)
        return [by_sid[sid] for sid in range(self.size)]

    def exchange(
        self, replies: List[WindowReply]
    ) -> Tuple[List[Optional[int]], int]:
        """Route the parked frames to their destination workers.

        Concatenate the window's frames, slice per destination worker
        on the ``dst_shard`` column and send each worker one frame --
        only workers that receive anything are contacted.
        """
        batches, self._pending = self._pending, []
        nexts = [reply.next_ns for reply in replies]
        if not batches:
            return nexts, 0
        allb = batches[0] if len(batches) == 1 else EnvelopeBatch.concat(
            batches)
        nworkers = len(self._conns)
        dst_worker = allb.dst_shard % nworkers
        contacted = []
        for w in range(nworkers):
            mask = dst_worker == w
            if mask.any():
                self._send(w, ("deliver", allb.select(mask).to_bytes()))
                contacted.append(w)
        for w in contacted:
            for sid, t in self._recv(w):
                nexts[sid] = t
        return nexts, allb.n

    def export_all(self, meta: Mapping[str, Any]):
        """Collect obs documents and scenario results.

        Returns one worker-folded document per worker (worker order)
        and the scenario results in shard-id order.
        """
        docs, results = [], []
        for blob, res in self._broadcast(("export", dict(meta))):
            docs.append(json.loads(blob.decode("utf-8")))
            results.extend(res)
        results.sort(key=lambda r: r[0])
        return docs, [result for _, result in results]

    def close(self) -> None:
        """Shut the workers down (terminate any that hang on join)."""
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


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
@dataclass
class ParallelResult:
    """Everything one parallel run produces.

    ``obs`` is the folded, engine-metric-stripped document the
    byte-identity gate covers (``obs_json`` is its canonical
    serialization).  ``shard_obs`` holds the fold's inputs: one
    document per shard (``workers=1``) or one pre-folded document per
    worker (process backend).  ``barrier_obs`` carries the
    topology-dependent ``parallel.*`` window metrics and deliberately
    stays out of ``obs``.
    """

    obs: Dict[str, Any]
    obs_json: str
    shard_obs: List[Dict[str, Any]]
    shard_results: List[Any]
    stats: WindowStats
    barrier_obs: Dict[str, Any] = field(default_factory=dict)


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
        processes (capped at ``n_shards``).  The folded export must not
        depend on this value either.
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
        stats = run_windows(LocalShardGroup(shards), horizon_ns=horizon_ns,
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
        folded = fold_exports([strip_metrics(doc) for doc in shard_obs])
    else:
        group = ProcessShardGroup(
            factory, params, seed,
            n_shards=n_shards, lookahead_ns=lookahead_ns, workers=workers,
        )
        try:
            stats = run_windows(group, horizon_ns=horizon_ns,
                                window_ns=window_ns, registry=registry)
            shard_obs, shard_results = group.export_all(meta)
        finally:
            group.close()
        # Workers already stripped and folded their shards; fold the
        # per-worker documents (associative => same bytes).
        folded = fold_exports(shard_obs)

    return ParallelResult(
        obs=folded,
        obs_json=to_json(folded),
        shard_obs=shard_obs,
        shard_results=shard_results,
        stats=stats,
        barrier_obs=registry.to_dict(),
    )
