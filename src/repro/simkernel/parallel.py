"""Conservative time-windowed parallel simulation engine.

PR 4 pushed one core to ~875k events/s and 65,536 nodes; the next order
of magnitude needs parallelism, not more micro-optimization.  The
structural observation (PAPER.md section 5, and both petascale C/R
studies in PAPERS.md) is that machines in a cluster interact only
through the shared link and the storage servers -- channels with
*nonzero* propagation and service latencies.  That latency floor is
exactly the **lookahead** a conservative parallel discrete-event engine
needs: if every cross-machine interaction takes at least ``L``
nanoseconds to arrive, then a machine's events inside the window
``[T, T + L)`` can only depend on messages that were already exchanged
before ``T``.  Shards may therefore advance through the window without
hearing from each other at all.

The design here:

* machines (and their node-local events) are partitioned into
  **shards**; each shard owns a private :class:`~repro.simkernel.Engine`
  (its own timer wheel, clock, metrics registry);
* all shards advance in **lockstep windows**.  The window start is the
  global minimum pending event time (idle virtual time is skipped, so a
  fleet whose next failure is minutes away costs no barriers), and the
  window width is bounded by the lookahead;
* anything that crosses a machine boundary -- link deliveries, storage
  requests and acks, fleet failure-cohort notifications -- travels as
  an :class:`Envelope` through the shard's outbox and is exchanged at
  the **window barrier**.  Crucially this discipline is uniform: even a
  single-shard run routes every cross-machine send through the barrier,
  so the event schedule a shard executes is *identical* whether it runs
  alone or next to fifteen siblings;
* every message type is an :class:`EnvelopeKind` -- a name plus a
  sorted tuple of int field names.  A payload is a tuple of ints in
  field order, and its canonical JSON (the sort tiebreak and the wire
  form) comes from a ``%d`` template the kind compiles once, so a send
  never calls ``json.dumps``;
* each shard sorts its incoming envelopes by a **canonical key**
  ``(deliver_at_ns, kind, canonical-JSON payload, src_shard)`` before
  scheduling them, so the merge is independent of arrival order, worker
  count and OS scheduling.

Determinism contract (the hard gate): a scenario built from
shard-invariant state -- per-node counter-based RNG streams (see
:meth:`repro.cluster.FailureModel.draw_ttf_indexed`), no reads of
another shard's memory, all cross-machine sends through
:meth:`ShardContext.send` with ``delay_ns >= lookahead_ns`` -- produces
byte-identical folded ``repro.obs`` exports for 1, 2, 4, ... shards.
``tests/runner/test_parallel.py`` asserts exactly that, property-based
over random seeds and topologies.

This module is backend-agnostic: :func:`run_windows` drives any
:class:`ShardGroup` (the in-process reference group lives here; the
persistent-worker-process group lives in :mod:`repro.runner.parallel`).
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from operator import itemgetter
from typing import (Any, Callable, Dict, List, NamedTuple, Optional,
                    Sequence, Tuple)

import numpy as np

from ..errors import SimulationError
from ..obs import MetricsRegistry
from .engine import Engine

__all__ = [
    "Envelope",
    "EnvelopeBatch",
    "EnvelopeKind",
    "ParallelError",
    "ShardContext",
    "ShardGroup",
    "LocalShardGroup",
    "WindowReply",
    "WindowStats",
    "derive_lookahead",
    "run_windows",
]


class ParallelError(SimulationError):
    """A conservative-window invariant was violated."""


def derive_lookahead(*latencies_ns: int) -> int:
    """The engine's lookahead: the minimum nonzero cross-shard latency.

    Callers pass every latency floor a cross-machine interaction can
    take -- link propagation, storage service floor -- and get back the
    largest window width that is still conservative.
    """
    floors = [int(x) for x in latencies_ns if x is not None]
    if not floors:
        raise ParallelError("lookahead needs at least one latency floor")
    lo = min(floors)
    if lo <= 0:
        raise ParallelError(f"lookahead must be positive, got {lo}")
    return lo


#: Only exact ``int`` values format to the same bytes under ``%d`` as
#: under ``json.dumps`` (``bool`` would print ``1``, not ``true``).
_INT_ONLY = frozenset((int,))


class EnvelopeKind:
    """A cross-shard message type: a name and its sorted int fields.

    A payload is a tuple of ``int`` values in ``fields`` order.  The
    kind compiles its canonical-JSON form once, as a ``%d`` template
    such as ``'{"dst":%d,"hops_left":%d,"value":%d}'``, so
    :meth:`key` renders exactly the bytes
    ``json.dumps(dict(zip(fields, values)), sort_keys=True,
    separators=(",", ":"))`` would -- the fields are sorted, and ``%d``
    prints an exact ``int`` the way JSON does -- at a fraction of the
    cost.  Anything that would print differently (``bool``, ``float``,
    ``str``, NumPy integers) is rejected instead.
    """

    __slots__ = ("name", "fields", "_template")

    def __init__(self, name: str, fields: Sequence[str]) -> None:
        fields = tuple(fields)
        if not all(isinstance(f, str) for f in fields):
            raise ParallelError(f"kind {name!r}: field names must be str")
        if list(fields) != sorted(set(fields)):
            raise ParallelError(
                f"kind {name!r}: fields {fields} must be sorted and unique"
            )
        self.name = name
        self.fields = fields
        self._template = "{" + ",".join(
            json.dumps(f).replace("%", "%%") + ":%d" for f in fields
        ) + "}"

    def key(self, values: Tuple[int, ...]) -> str:
        """Canonical JSON of ``values`` (the sort tiebreak and wire form)."""
        if (values.__class__ is not tuple
                or len(values) != len(self.fields)
                or not _INT_ONLY.issuperset(map(type, values))):
            raise ParallelError(
                f"kind {self.name!r} takes a tuple of {len(self.fields)} "
                f"ints {self.fields}, got {values!r}"
            )
        return self._template % values


class Envelope(NamedTuple):
    """One cross-shard event, exchanged at a window barrier.

    A plain tuple whose first four items are the canonical merge key:
    ``payload_key`` is the canonical JSON of ``payload``, rendered once
    at send time, so together with ``(deliver_at_ns, kind, src_shard)``
    it makes the barrier merge order total and content-determined.
    """

    deliver_at_ns: int
    kind: str
    payload_key: str
    src_shard: int
    dst_shard: int
    payload: Tuple[Any, ...]


#: Canonical merge key of an :class:`Envelope`: a pure function of its
#: content.
envelope_sort_key = itemgetter(0, 1, 2, 3)

#: Builds an :class:`Envelope` from a positional tuple without the
#: keyword-handling ``__new__`` frame ``NamedTuple`` generates (the
#: send and decode hot paths).
_new_envelope = tuple.__new__


class EnvelopeBatch:
    """Columnar encoding of an envelope list: one struct-framed blob.

    The process backend ships a whole window's outbox over the worker
    pipe as a single frame -- packed NumPy columns for the fixed-width
    fields (``deliver_at_ns``/``src_shard``/``dst_shard``, a per-frame
    kind table with ``uint16`` indices) plus a side arena holding the
    canonical-JSON payload keys back to back.  Nothing is pickled:
    the payload *is* its canonical JSON (rendered once at send time by
    the :class:`EnvelopeKind` template, for the sort key), so the
    receiver rebuilds each payload tuple as
    ``tuple(json.loads(key).values())`` -- the key lists its fields in
    sorted order, which is the kind's declared field order.  The codec
    itself is type-agnostic: any flat JSON object round-trips, so a
    key is never re-rendered on the receiving side.

    Routing happens on the columns -- :meth:`select` slices rows with a
    boolean mask and :meth:`concat` re-merges frames -- so the barrier
    driver never materializes per-envelope objects; only the receiving
    shard does, immediately before the canonical-order delivery sort.
    """

    _HDR = struct.Struct("<IIII")  # magic, n, kinds_nbytes, keys_nbytes
    _MAGIC = 0x53_48_4D_46  # "SHMF"

    __slots__ = ("deliver_at", "src_shard", "dst_shard", "kind_id",
                 "key_len", "kinds", "keys_blob")

    def __init__(self, deliver_at, src_shard, dst_shard, kind_id, key_len,
                 kinds: List[str], keys_blob: bytes) -> None:
        self.deliver_at = deliver_at
        self.src_shard = src_shard
        self.dst_shard = dst_shard
        self.kind_id = kind_id
        self.key_len = key_len
        self.kinds = kinds
        self.keys_blob = keys_blob

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of envelopes in the frame."""
        return len(self.deliver_at)

    @classmethod
    def from_envelopes(cls, envelopes: Sequence[Envelope]) -> "EnvelopeBatch":
        """Encode a list of envelopes into columns (the send side)."""
        n = len(envelopes)
        kinds = sorted({e.kind for e in envelopes})
        kid = {k: i for i, k in enumerate(kinds)}
        if len(kinds) > 0xFFFF:  # pragma: no cover - protocol bound
            raise ParallelError("too many envelope kinds for one frame")
        keys = [e.payload_key.encode("utf-8") for e in envelopes]
        return cls(
            deliver_at=np.fromiter((e.deliver_at_ns for e in envelopes),
                                   np.int64, n),
            src_shard=np.fromiter((e.src_shard for e in envelopes),
                                  np.int32, n),
            dst_shard=np.fromiter((e.dst_shard for e in envelopes),
                                  np.int32, n),
            kind_id=np.fromiter((kid[e.kind] for e in envelopes),
                                np.uint16, n),
            key_len=np.fromiter((len(k) for k in keys), np.uint32, n),
            kinds=kinds,
            keys_blob=b"".join(keys),
        )

    def to_envelopes(self) -> List[Envelope]:
        """Materialize ``Envelope`` objects (the delivery side).

        ``payload_key`` is the exact string the sender computed, so the
        canonical sort key -- and therefore the delivery schedule -- is
        bit-for-bit what the in-process path produces.
        """
        starts = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(self.key_len, out=starts[1:])
        blob = self.keys_blob
        kinds = self.kinds
        out = []
        for at, kid, src, dst, lo, hi in zip(
                self.deliver_at.tolist(), self.kind_id.tolist(),
                self.src_shard.tolist(), self.dst_shard.tolist(),
                starts[:-1].tolist(), starts[1:].tolist()):
            key = blob[lo:hi].decode("utf-8")
            out.append(_new_envelope(Envelope, (
                at, kinds[kid], key, src, dst,
                tuple(json.loads(key).values()))))
        return out

    # ------------------------------------------------------------------
    def select(self, mask) -> "EnvelopeBatch":
        """Row subset by boolean mask (copies; used for dst routing)."""
        starts = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(self.key_len, out=starts[1:])
        blob = self.keys_blob
        picked = np.flatnonzero(mask)
        keys = b"".join(blob[starts[i]:starts[i + 1]] for i in picked)
        return EnvelopeBatch(
            deliver_at=self.deliver_at[picked],
            src_shard=self.src_shard[picked],
            dst_shard=self.dst_shard[picked],
            kind_id=self.kind_id[picked],
            key_len=self.key_len[picked],
            kinds=list(self.kinds),
            keys_blob=keys,
        )

    @classmethod
    def concat(cls, batches: Sequence["EnvelopeBatch"]) -> "EnvelopeBatch":
        """Merge frames (re-unifying their kind tables)."""
        kinds = sorted({k for b in batches for k in b.kinds})
        kid = {k: i for i, k in enumerate(kinds)}
        remapped = []
        for b in batches:
            lut = np.fromiter((kid[k] for k in b.kinds), np.uint16,
                              len(b.kinds)) if b.kinds else np.zeros(
                                  0, np.uint16)
            remapped.append(lut[b.kind_id] if b.n else b.kind_id)
        return cls(
            deliver_at=np.concatenate([b.deliver_at for b in batches]),
            src_shard=np.concatenate([b.src_shard for b in batches]),
            dst_shard=np.concatenate([b.dst_shard for b in batches]),
            kind_id=np.concatenate(remapped),
            key_len=np.concatenate([b.key_len for b in batches]),
            kinds=kinds,
            keys_blob=b"".join(b.keys_blob for b in batches),
        )

    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Serialize the frame: header, columns, kind table, key arena."""
        kinds_blob = json.dumps(self.kinds).encode("utf-8")
        return b"".join((
            self._HDR.pack(self._MAGIC, self.n, len(kinds_blob),
                           len(self.keys_blob)),
            *(col.tobytes() for col in (self.deliver_at, self.src_shard,
                                         self.dst_shard, self.key_len,
                                         self.kind_id)),
            kinds_blob,
            self.keys_blob,
        ))

    @classmethod
    def read_from(cls, buf) -> "EnvelopeBatch":
        """Deserialize a frame; the columns are zero-copy views into
        ``buf``."""
        magic, n, kinds_nbytes, keys_nbytes = cls._HDR.unpack_from(buf, 0)
        if magic != cls._MAGIC:
            raise ParallelError("bad envelope-frame magic")
        off = cls._HDR.size
        cols = []
        for dtype, width in ((np.int64, 8), (np.int32, 4), (np.int32, 4),
                             (np.uint32, 4), (np.uint16, 2)):
            cols.append(np.frombuffer(buf, dtype=dtype, count=n, offset=off))
            off += width * n
        kinds = json.loads(bytes(buf[off:off + kinds_nbytes]).decode("utf-8"))
        off += kinds_nbytes
        keys_blob = bytes(buf[off:off + keys_nbytes])
        deliver_at, src, dst, key_len, kind_id = cols
        return cls(deliver_at=deliver_at, src_shard=src, dst_shard=dst,
                   kind_id=kind_id, key_len=key_len, kinds=kinds,
                   keys_blob=keys_blob)


class ShardContext:
    """One shard's view of the parallel simulation.

    Owns the shard-local :class:`Engine`, the envelope outbox, and the
    registry of cross-shard message handlers.  Scenario code builds its
    machines against this context; everything that would touch another
    shard's machine goes through :meth:`send`.
    """

    def __init__(
        self,
        engine: Engine,
        shard_id: int,
        n_shards: int,
        lookahead_ns: Optional[int] = None,
    ) -> None:
        if n_shards < 1:
            raise ParallelError("need at least one shard")
        if not 0 <= shard_id < n_shards:
            raise ParallelError(
                f"shard_id {shard_id} out of range for {n_shards} shards"
            )
        if lookahead_ns is not None and lookahead_ns <= 0:
            raise ParallelError("lookahead must be positive when set")
        self.engine = engine
        self.shard_id = shard_id
        self.n_shards = n_shards
        self.lookahead_ns = lookahead_ns
        self._handlers: Dict[str, Callable[[Tuple[int, ...]], None]] = {}
        self._outbox: List[Envelope] = []
        self._sent = engine.metrics.counter("parallel.sent")
        self._delivered = engine.metrics.counter("parallel.delivered")

    # ------------------------------------------------------------------
    def on(self, kind: EnvelopeKind,
           handler: Callable[[Tuple[int, ...]], None]) -> None:
        """Register the handler for envelope ``kind`` (one per kind name).

        The handler receives the payload tuple, in ``kind.fields`` order.
        """
        if kind.name in self._handlers:
            raise ParallelError(
                f"duplicate handler for envelope kind {kind.name!r}")
        self._handlers[kind.name] = handler

    def send(
        self,
        kind: EnvelopeKind,
        values: Tuple[int, ...],
        delay_ns: int,
        dst_shard: int,
    ) -> None:
        """Queue a cross-machine event for barrier exchange.

        ``values`` is a tuple of exact ``int`` values in ``kind.fields``
        order; :meth:`EnvelopeKind.key` renders its canonical JSON from
        the kind's precompiled template (the same bytes ``json.dumps``
        with sorted keys would produce).  ``delay_ns`` must be at least
        the lookahead -- that is the conservative condition that makes
        in-window parallelism safe.  The discipline is uniform: a send
        whose destination happens to live on this same shard *still*
        goes through the barrier, so event interleaving does not depend
        on the partitioning.
        """
        if self.lookahead_ns is None:
            raise ParallelError(
                "this context has no cross-shard channels (lookahead unset)"
            )
        if delay_ns < self.lookahead_ns:
            raise ParallelError(
                f"send delay {delay_ns} violates lookahead {self.lookahead_ns}"
            )
        if not 0 <= dst_shard < self.n_shards:
            raise ParallelError(f"dst_shard {dst_shard} out of range")
        key = kind.key(values)
        self._sent.inc()
        self._outbox.append(_new_envelope(Envelope, (
            self.engine.now_ns + int(delay_ns), kind.name, key,
            self.shard_id, int(dst_shard), values)))

    # ------------------------------------------------------------------
    def run_window(self, end_ns: int) -> Tuple[List[Envelope], int]:
        """Advance the shard's engine to ``end_ns``; drain the outbox.

        Returns ``(outbox, processed)``.  The engine clock is left at
        ``end_ns`` even when the schedule drained earlier, so every
        shard observes the same barrier instant.
        """
        processed = self.engine.run(until_ns=end_ns)
        outbox, self._outbox = self._outbox, []
        return outbox, processed

    def deliver(self, envelopes: Sequence[Envelope]) -> None:
        """Schedule a barrier batch in canonical order.

        Sorting by :data:`envelope_sort_key` makes the local schedule a
        pure function of the batch's *contents* -- workers may hand the
        batch over in any order.
        """
        now = self.engine.now_ns
        shard_id = self.shard_id
        handlers = self._handlers
        at_anon = self.engine.at_anon
        delivered = self._delivered
        for at, kind, _, _, dst, payload in sorted(envelopes,
                                                   key=envelope_sort_key):
            if dst != shard_id:
                raise ParallelError(
                    f"envelope for shard {dst} delivered to shard {shard_id}"
                )
            handler = handlers.get(kind)
            if handler is None:
                raise ParallelError(f"no handler for envelope kind {kind!r}")
            if at < now:
                raise ParallelError(
                    f"envelope {kind!r} arrives in the past "
                    f"({at} < {now}): lookahead violated"
                )
            at_anon(at, lambda h=handler, p=payload: (delivered.inc(), h(p)))

    def next_time_ns(self) -> Optional[int]:
        """Earliest pending local event (lower bound; None when idle)."""
        return self.engine.next_time_ns()


# ----------------------------------------------------------------------
# Window driver
# ----------------------------------------------------------------------
@dataclass
class WindowReply:
    """One shard's answer to a window step.

    The shard's outbox stays with its :class:`ShardGroup`, parked for
    :meth:`ShardGroup.exchange`.
    """

    next_ns: Optional[int]
    processed: int
    stop: bool


class ShardGroup:
    """Backend interface the window driver runs against.

    Implementations hold ``size`` shards and answer three lockstep
    operations.  The in-process reference implementation is
    :class:`LocalShardGroup`; :mod:`repro.runner.parallel` provides the
    persistent-worker-process one, which routes the same envelopes as
    :class:`EnvelopeBatch` frames.  Both execute the *same* driver loop
    (:func:`run_windows`), and every receiving shard sorts its batch
    canonically, which is what makes their outputs byte-identical.
    """

    size: int

    def status_all(self) -> List[Optional[int]]:
        """Initial next-event time per shard."""
        raise NotImplementedError

    def window_all(self, end_ns: int) -> List[WindowReply]:
        """Run every shard to ``end_ns``; park the outboxes."""
        raise NotImplementedError

    def exchange(
        self, replies: List[WindowReply]
    ) -> Tuple[List[Optional[int]], int]:
        """Route the parked outboxes to their destinations and deliver.

        Returns ``(next-event times after delivery, envelopes moved)``;
        a shard that received nothing keeps its ``replies`` time.
        """
        raise NotImplementedError


class LocalShardGroup(ShardGroup):
    """All shards in this process, stepped sequentially.

    The determinism reference: the N-worker process backend must fold
    to the same bytes this group produces (and the 1-shard instance of
    this group is the gate every multi-shard run is compared against).
    """

    def __init__(self, shards: Sequence[Tuple[ShardContext, Any]]) -> None:
        if not shards:
            raise ParallelError("need at least one shard")
        self._shards = list(shards)
        self.size = len(self._shards)
        self._outbox: List[Envelope] = []

    @property
    def shards(self) -> List[Tuple[ShardContext, Any]]:
        """The ``(context, scenario)`` pairs, in shard-id order."""
        return self._shards

    def status_all(self) -> List[Optional[int]]:
        return [ctx.next_time_ns() for ctx, _ in self._shards]

    def window_all(self, end_ns: int) -> List[WindowReply]:
        replies = []
        self._outbox = []
        for ctx, scenario in self._shards:
            outbox, processed = ctx.run_window(end_ns)
            self._outbox += outbox
            stop = bool(getattr(scenario, "stop", lambda: False)())
            replies.append(WindowReply(ctx.next_time_ns(), processed, stop))
        return replies

    def exchange(
        self, replies: List[WindowReply]
    ) -> Tuple[List[Optional[int]], int]:
        inboxes: List[List[Envelope]] = [[] for _ in range(self.size)]
        for env in self._outbox:
            inboxes[env.dst_shard].append(env)
        nexts = [reply.next_ns for reply in replies]
        for sid, inbox in enumerate(inboxes):
            if inbox:
                ctx = self._shards[sid][0]
                ctx.deliver(inbox)
                nexts[sid] = ctx.next_time_ns()
        return nexts, len(self._outbox)


@dataclass
class WindowStats:
    """Barrier-level observability for one parallel run.

    These numbers are *topology-dependent* by nature (a single shard
    exchanges nothing) and therefore live outside the folded
    ``repro.obs`` document that the byte-identity gate covers.
    """

    windows: int = 0
    exchanged: int = 0
    events: int = 0
    idle_shard_windows: int = 0
    stopped: bool = False
    end_ns: int = 0
    #: Per-window span and exchange tallies, accumulated as plain list
    #: appends inside the driver loop and rendered into histograms once
    #: at the end (``observe_many``) -- no per-window registry lookups.
    window_spans: List[int] = field(default_factory=list)
    window_exchanges: List[int] = field(default_factory=list)

    def to_registry(self, registry: Optional[MetricsRegistry] = None
                    ) -> MetricsRegistry:
        """Render the stats as ``parallel.*`` barrier metrics."""
        reg = registry if registry is not None else MetricsRegistry()
        if self.window_spans:
            reg.observe_many("parallel.window_span_ns", self.window_spans)
        if self.window_exchanges:
            reg.observe_many("parallel.window_exchange",
                             self.window_exchanges)
        reg.counter("parallel.windows").inc(self.windows)
        reg.counter("parallel.envelopes").inc(self.exchanged)
        reg.counter("parallel.events").inc(self.events)
        reg.counter("parallel.shard_idle_windows").inc(self.idle_shard_windows)
        return reg


def run_windows(
    group: ShardGroup,
    *,
    horizon_ns: int,
    window_ns: Optional[int] = None,
    registry: Optional[MetricsRegistry] = None,
) -> WindowStats:
    """Drive a shard group to ``horizon_ns`` in conservative windows.

    Each iteration: find the global minimum pending event time ``t0``
    (skipping idle virtual time entirely), run every shard to
    ``min(horizon, t0 + window)``, exchange the outboxes, deliver each
    shard's batch in canonical order, and re-poll.  ``window_ns`` must
    not exceed the scenario's lookahead; ``None`` means the shards
    never interact (no channels registered), so each runs straight to
    the horizon in a single window.

    Stops early when any shard's scenario raises its stop flag at a
    barrier (all shards are then parked at the same instant -- the
    window end), or when the horizon is reached.  Returns the
    :class:`WindowStats` barrier tally.
    """
    horizon_ns = int(horizon_ns)
    stats = WindowStats()
    nexts = group.status_all()
    while True:
        live = [t for t in nexts if t is not None]
        t0 = min(live) if live else None
        if t0 is None or t0 > horizon_ns:
            break
        end = horizon_ns if window_ns is None else min(
            horizon_ns, t0 + int(window_ns))
        replies = group.window_all(end)
        stats.windows += 1
        stats.end_ns = end
        for reply in replies:
            stats.events += reply.processed
            if reply.processed == 0:
                stats.idle_shard_windows += 1
        nexts, exchanged = group.exchange(replies)
        stats.exchanged += exchanged
        stats.window_spans.append(end - t0)
        stats.window_exchanges.append(exchanged)
        if any(reply.stop for reply in replies):
            stats.stopped = True
            break
    if not stats.stopped:
        # Park every clock at the horizon (no events remain at or
        # before it, so this processes nothing).
        group.window_all(horizon_ns)
        stats.end_ns = horizon_ns
    if registry is not None:
        stats.to_registry(registry)
    return stats
