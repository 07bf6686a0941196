"""The quorum-replicated stable-storage client.

:class:`ReplicatedStore` implements the :class:`~repro.storage.backends.
StorageBackend` protocol, so every mechanism and the cluster use it
exactly like the monolithic :class:`~repro.storage.RemoteStorage` it
replaces -- but behind the protocol each blob is placed on
``replication`` storage servers chosen by rendezvous hashing, writes
return once a W-of-N quorum of replicas is durable, and reads return
once R-of-N replicas respond.

A request that lands on a failed server costs a detection timeout, then
retries against the next candidate after an exponentially-backed-off
delay (the sloppy-quorum walk real replicated stores do).
:class:`~repro.errors.StorageLostError` is raised only when the quorum
itself is unreachable -- fewer than W (or R) live replicas exist.

The client's key directory (which keys exist, at what size) is modelled
as reliable metadata, the usual assumption for a replicated metadata
service; what fails here is the *data* tier, which is where checkpoint
bytes live and what the survivability experiments stress.
"""

from __future__ import annotations

import zlib
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..errors import StorageError, StorageLostError
from ..simkernel.costs import NS_PER_MS, NS_PER_US
from ..storage.backends import StorageBackend, StorageKind
from .server import StorageCluster, StorageServer

__all__ = ["ReplicatedStore", "ReplicaWriteStream"]


def _score(key: str, server_id: int) -> int:
    """Deterministic rendezvous-hash score (unsalted, unlike ``hash``)."""
    return zlib.crc32(f"{key}|{server_id}".encode())


class ReplicatedStore(StorageBackend):
    """W-of-N quorum writes, R-of-N quorum reads over N storage servers.

    Parameters
    ----------
    storage:
        The :class:`StorageCluster` holding the server nodes and the
        shared ingress link.
    replication:
        Replicas per blob (the paper-era single file server is
        ``replication=1``).
    write_quorum:
        Acks required before a write returns; defaults to a majority of
        ``replication``.
    read_quorum:
        Replica responses required for a read; defaults to 1 (all
        replicas are identical -- checkpoint images are immutable).
    timeout_ns / backoff_base_ns / backoff_factor / backoff_cap_ns:
        The failed-server detection timeout and the exponential backoff
        between successive retries.
    """

    kind = StorageKind.REMOTE
    survives_node_failure = True

    def __init__(
        self,
        storage: StorageCluster,
        replication: int = 2,
        write_quorum: Optional[int] = None,
        read_quorum: int = 1,
        timeout_ns: int = 2 * NS_PER_MS,
        backoff_base_ns: int = 500 * NS_PER_US,
        backoff_factor: float = 2.0,
        backoff_cap_ns: int = 16 * NS_PER_MS,
    ) -> None:
        n = len(storage.servers)
        if not 1 <= replication <= n:
            raise StorageError(
                f"replication factor {replication} needs 1..{n} servers"
            )
        super().__init__(device=storage.link)
        self.storage = storage
        self.replication = replication
        self.write_quorum = write_quorum if write_quorum is not None else replication // 2 + 1
        self.read_quorum = read_quorum
        if not 1 <= self.write_quorum <= replication:
            raise StorageError(f"write quorum {self.write_quorum} not in 1..{replication}")
        if not 1 <= self.read_quorum <= replication:
            raise StorageError(f"read quorum {self.read_quorum} not in 1..{replication}")
        self.timeout_ns = int(timeout_ns)
        self.backoff_base_ns = int(backoff_base_ns)
        self.backoff_factor = float(backoff_factor)
        self.backoff_cap_ns = int(backoff_cap_ns)
        #: key -> nbytes for every blob the service has accepted.
        self._directory: Dict[str, int] = {}
        # Retry / failure statistics (the E19 quorum-behaviour evidence).
        self.write_retries = 0
        self.read_retries = 0
        self.backoff_ns_total = 0
        self.quorum_write_failures = 0
        self.quorum_read_failures = 0
        self.last_write_latency_ns = 0
        self._latency_ewma_ns: Optional[float] = None
        self.last_read_latency_ns = 0
        self._read_latency_ewma_ns: Optional[float] = None
        self.latency_alpha = 0.3

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def candidates(self, key: str) -> List[StorageServer]:
        """All servers in rendezvous-preference order for ``key``.

        The first ``replication`` entries are the preferred replica set;
        the rest are the fallback walk order when preferred servers are
        down.
        """
        return sorted(
            self.storage.servers,
            key=lambda s: (_score(key, s.server_id), s.server_id),
            reverse=True,
        )

    def holders(self, key: str, up_only: bool = True) -> List[int]:
        """Server ids holding a replica of ``key`` (reachable ones only
        by default), in preference order."""
        return [
            s.server_id
            for s in self.candidates(key)
            if s.holds(key) and (s.up or not up_only)
        ]

    def replica_count(self, key: str) -> int:
        """Live (reachable) replicas of ``key``."""
        return len(self.holders(key))

    def under_replicated(self) -> List[str]:
        """Keys with at least one live replica but fewer than the target."""
        return [
            k
            for k in sorted(self._directory)
            if 0 < self.replica_count(k) < self.replication
        ]

    def lost_keys(self) -> List[str]:
        """Keys with no reachable replica at all (data currently lost)."""
        return [k for k in sorted(self._directory) if self.replica_count(k) == 0]

    # ------------------------------------------------------------------
    # StorageBackend protocol
    # ------------------------------------------------------------------
    def store(self, key: str, obj: Any, nbytes: int, now_ns: int) -> int:
        """Replicate ``obj`` onto up to ``replication`` servers.

        Returns the client-visible delay: retry penalties plus the time
        at which the W-th replica is durable (later replicas complete in
        the background, as quorum systems do).
        """
        metrics = self.storage.engine.metrics
        placed: List[Tuple[StorageServer, int]] = []
        penalty = 0
        backoff = self.backoff_base_ns
        for server in self.candidates(key):
            if len(placed) >= self.replication:
                break
            if not server.up:
                # RPC times out, client backs off, walks to the next
                # candidate (sloppy-quorum fallback placement).
                penalty += self.timeout_ns + backoff
                self.write_retries += 1
                metrics.inc("storage.write_retries")
                self.backoff_ns_total += backoff
                backoff = min(int(backoff * self.backoff_factor), self.backoff_cap_ns)
                continue
            start = now_ns + penalty
            link_delay = self.device.submit(start, nbytes)
            disk_delay = server.disk.submit(start + link_delay, nbytes)
            placed.append((server, penalty + link_delay + disk_delay))
        if len(placed) < self.write_quorum:
            # Abort: roll the partial replicas back so no orphan copies
            # linger outside the directory.
            for server, _ in placed:
                server.drop_replica(key)
            self.quorum_write_failures += 1
            metrics.inc("storage.quorum_write_failures")
            raise StorageLostError(
                f"write quorum unreachable for {key!r}: "
                f"{len(placed)} of {self.write_quorum} required replicas placed "
                f"({len(self.storage.up_servers())}/{len(self.storage.servers)} "
                f"servers up)"
            )
        for server, _ in placed:
            server.put_replica(key, obj, nbytes)
        self._directory[key] = nbytes
        self.bytes_written += nbytes * len(placed)
        delay = sorted(d for _, d in placed)[self.write_quorum - 1]
        metrics.inc("storage.quorum_writes")
        metrics.inc("storage.replica_bytes_written", nbytes * len(placed))
        metrics.observe("storage.write_ns", delay)
        self._observe_write_latency(delay)
        return delay

    def _observe_write_latency(self, delay: int) -> None:
        self.last_write_latency_ns = delay
        if self._latency_ewma_ns is None:
            self._latency_ewma_ns = float(delay)
        else:
            self._latency_ewma_ns = (
                self.latency_alpha * delay
                + (1.0 - self.latency_alpha) * self._latency_ewma_ns
            )

    def _observe_read_latency(self, delay: int) -> None:
        self.last_read_latency_ns = delay
        if self._read_latency_ewma_ns is None:
            self._read_latency_ewma_ns = float(delay)
        else:
            self._read_latency_ewma_ns = (
                self.latency_alpha * delay
                + (1.0 - self.latency_alpha) * self._read_latency_ewma_ns
            )

    def load(self, key: str, now_ns: int) -> Tuple[Any, int]:
        """Fetch ``obj`` from an R-of-N quorum of replica holders."""
        if key not in self._directory:
            raise StorageError(f"no blob stored under {key!r}")
        metrics = self.storage.engine.metrics
        nbytes = self._directory[key]
        responders: List[int] = []
        obj: Any = None
        penalty = 0
        backoff = self.backoff_base_ns
        for server in self.candidates(key):
            if len(responders) >= self.read_quorum:
                break
            if not server.holds(key):
                continue  # a "not found" reply is immediate
            if not server.up:
                penalty += self.timeout_ns + backoff
                self.read_retries += 1
                metrics.inc("storage.read_retries")
                self.backoff_ns_total += backoff
                backoff = min(int(backoff * self.backoff_factor), self.backoff_cap_ns)
                continue
            start = now_ns + penalty
            disk_delay = server.disk.submit(start, nbytes)
            link_delay = self.device.submit(start + disk_delay, nbytes)
            responders.append(penalty + disk_delay + link_delay)
            server.bytes_read += nbytes
            obj = server.replicas[key][0]
        if len(responders) < self.read_quorum:
            self.quorum_read_failures += 1
            metrics.inc("storage.quorum_read_failures")
            raise StorageLostError(
                f"read quorum unreachable for {key!r}: "
                f"{len(responders)} of {self.read_quorum} replicas responded"
            )
        self.bytes_read += nbytes
        metrics.inc("storage.quorum_reads")
        metrics.observe("storage.read_ns", max(responders))
        self._observe_read_latency(max(responders))
        return obj, max(responders)

    def load_fanout(self, key: str, now_ns: int) -> Tuple[Any, int]:
        """Read from the R estimated-fastest live holders in parallel.

        The synchronous :meth:`load` walks holders in preference order
        and pays ``timeout + backoff`` for each dead candidate it tries.
        The fan-out *issues* the read to every live holder at one
        instant (dead servers simply never answer, so no timeout sits
        on the client's critical path), but only the ``read_quorum``
        holders whose disks are estimated to respond fastest actually
        stream the blob -- the losing requests are cancelled before
        their transfers start.  The explicit traffic model: exactly R
        holders pay a disk read and a link crossing of ``nbytes`` and
        bump ``bytes_read``, identical to the serial :meth:`load`'s
        charge for the same cluster state (ties break in rendezvous
        preference order, the serial walk's order).  Earlier versions
        charged *every* live holder's disk and the shared link for full
        reads whose responses were then discarded, so fan-out and
        serial device counters disagreed.
        """
        if key not in self._directory:
            raise StorageError(f"no blob stored under {key!r}")
        metrics = self.storage.engine.metrics
        nbytes = self._directory[key]
        holders = [s for s in self.candidates(key) if s.up and s.holds(key)]
        if len(holders) < self.read_quorum:
            self.quorum_read_failures += 1
            metrics.inc("storage.quorum_read_failures")
            raise StorageLostError(
                f"read quorum unreachable for {key!r}: "
                f"{len(holders)} live holders, {self.read_quorum} required"
            )
        order = sorted(
            range(len(holders)),
            key=lambda i: (holders[i].disk.estimate(now_ns, nbytes), i),
        )
        winners = [holders[i] for i in order[: self.read_quorum]]
        obj: Any = None
        delay = 0
        for server in winners:
            disk_delay = server.disk.submit(now_ns, nbytes)
            link_delay = self.device.submit(now_ns + disk_delay, nbytes)
            delay = max(delay, disk_delay + link_delay)
            server.bytes_read += nbytes
            obj = server.replicas[key][0]
        self.bytes_read += nbytes
        metrics.inc("storage.fanout_reads")
        metrics.observe("storage.read_ns", delay)
        self._observe_read_latency(delay)
        return obj, delay

    def load_parallel(
        self, keys, now_ns: int
    ) -> Tuple[Dict[str, Any], int]:
        """Prefetch several blobs issued at one instant (chain restore).

        Each key is fetched with the fan-out read; because every request
        is submitted at ``now_ns``, server disks seek concurrently and
        the shared link serializes only wire time -- the total is the
        slowest fetch, not the sum a serial chain walk pays.
        """
        objs: Dict[str, Any] = {}
        worst = 0
        for key in keys:
            obj, delay = self.load_fanout(key, now_ns)
            objs[key] = obj
            if delay > worst:
                worst = delay
        return objs, worst

    def open_stream(self, key: str, now_ns: int) -> "ReplicaWriteStream":
        """Open a pipelined multi-extent quorum write (COW drain path)."""
        return ReplicaWriteStream(self, key, now_ns)

    def exists(self, key: str) -> bool:
        """Whether a read of ``key`` would currently succeed."""
        return (
            key in self._directory and self.replica_count(key) >= self.read_quorum
        )

    def peek(self, key: str) -> Any:
        """Inspect a blob without charging I/O (GC / availability checks)."""
        if key not in self._directory:
            raise StorageError(f"no blob stored under {key!r}")
        for server in self.candidates(key):
            if server.up and server.holds(key):
                return server.replicas[key][0]
        raise StorageLostError(f"no reachable replica of {key!r}")

    def delete(self, key: str) -> None:
        """Drop every replica (idempotent; failed servers apply the
        deletion on recovery, modelled as immediate tombstones)."""
        self._directory.pop(key, None)
        for server in self.storage.servers:
            server.drop_replica(key)

    def keys(self) -> Iterator[str]:
        """Iterate every key the service has accepted."""
        return iter(sorted(self._directory))

    def stored_bytes(self) -> int:
        """Logical bytes held (one count per blob, as the base class)."""
        return sum(self._directory.values())

    def blob_size(self, key: str) -> int:
        """Accounted size of a stored blob (0 when absent)."""
        return self._directory.get(key, 0)

    def physical_bytes(self) -> int:
        """Replica-weighted bytes actually on server disks.

        Counts only this store's replica entries, so the figure stays
        honest when the cluster is shared with an
        :class:`~repro.stablestore.ErasureStore` (whose shard entries
        live under namespaced server keys).
        """
        return sum(
            nb
            for s in self.storage.servers
            for rkey, (_obj, nb) in s.replicas.items()
            if rkey in self._directory
        )

    # ------------------------------------------------------------------
    @property
    def avg_write_latency_ns(self) -> float:
        """EWMA of client-visible write latency (autonomic feedback).

        Guarded: 0.0 before the first write, so fresh-cluster reporting
        never divides by ``None``.
        """
        return float(self._latency_ewma_ns or 0.0)

    @property
    def avg_read_latency_ns(self) -> float:
        """EWMA of client-visible read latency (0.0 before any read)."""
        return float(self._read_latency_ewma_ns or 0.0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ReplicatedStore rf={self.replication} "
            f"W={self.write_quorum} R={self.read_quorum} "
            f"keys={len(self._directory)}>"
        )


class ReplicaWriteStream:
    """An open pipelined write of one blob across its replica set.

    Opening the stream performs the rendezvous retry walk once (paying
    the ``timeout + backoff`` penalty for each dead preferred server,
    recorded in ``open_penalty_ns``) and pins the replica set.  Each
    :meth:`send` then forwards one extent over the shared ingress link
    and onto every pinned replica disk, returning the delay at which the
    write-quorum-th copy of that extent is durable -- the writeback
    pipeline schedules that instant as the extent's acknowledgement
    event.  :meth:`commit` charges the metadata remainder, installs the
    replicas and the directory entry; the blob becomes visible only
    then, so a crash mid-stream loses time but never publishes a torn
    image.

    If servers fail mid-stream and fewer than W pinned replicas remain
    up, the next ``send``/``commit`` raises
    :class:`~repro.errors.StorageLostError` exactly like a failed
    synchronous quorum write, which the capture paths already handle.
    """

    def __init__(self, store: ReplicatedStore, key: str, now_ns: int) -> None:
        self.store = store
        self.key = key
        self.opened_ns = now_ns
        self.sent_bytes = 0
        self.committed = False
        metrics = store.storage.engine.metrics
        placed: List[StorageServer] = []
        penalty = 0
        backoff = store.backoff_base_ns
        for server in store.candidates(key):
            if len(placed) >= store.replication:
                break
            if not server.up:
                penalty += store.timeout_ns + backoff
                store.write_retries += 1
                metrics.inc("storage.write_retries")
                store.backoff_ns_total += backoff
                backoff = min(int(backoff * store.backoff_factor), store.backoff_cap_ns)
                continue
            placed.append(server)
        if len(placed) < store.write_quorum:
            store.quorum_write_failures += 1
            metrics.inc("storage.quorum_write_failures")
            raise StorageLostError(
                f"write quorum unreachable for {key!r}: "
                f"{len(placed)} of {store.write_quorum} required replicas reachable"
            )
        self.servers = placed
        self.open_penalty_ns = penalty

    def _live_servers(self) -> List[StorageServer]:
        live = [s for s in self.servers if s.up]
        if len(live) < self.store.write_quorum:
            self.store.quorum_write_failures += 1
            self.store.storage.engine.metrics.inc("storage.quorum_write_failures")
            raise StorageLostError(
                f"write quorum lost mid-stream for {self.key!r}: "
                f"{len(live)} of {self.store.write_quorum} pinned replicas up"
            )
        return live

    def send(self, nbytes: int, now_ns: int) -> int:
        """Forward one extent to every live pinned replica; returns the
        delay at which the write-quorum-th copy is durable."""
        live = self._live_servers()
        delays: List[int] = []
        for server in live:
            link_delay = self.store.device.submit(now_ns, nbytes)
            disk_delay = server.disk.submit(now_ns + link_delay, nbytes)
            delays.append(link_delay + disk_delay)
        self.sent_bytes += int(nbytes)
        delays.sort()
        return delays[min(self.store.write_quorum, len(live)) - 1]

    def send_chunk(self, chunk: Any, now_ns: int) -> int:
        """Queue one captured chunk (dedup-aware streams override)."""
        return self.send(int(chunk.nbytes), now_ns)

    def commit(self, obj: Any, nbytes: int, now_ns: int) -> int:
        """Write the metadata remainder and make the blob visible.

        Charges only ``nbytes - sent_bytes`` (payload extents already
        travelled during :meth:`send`), so total link and disk traffic
        matches a monolithic :meth:`ReplicatedStore.store` of the same
        image.
        """
        if self.committed:
            raise StorageError(f"stream for {self.key!r} already committed")
        live = self._live_servers()
        remainder = max(0, int(nbytes) - self.sent_bytes)
        delays: List[int] = []
        for server in live:
            link_delay = self.store.device.submit(now_ns, remainder)
            disk_delay = server.disk.submit(now_ns + link_delay, remainder)
            delays.append(link_delay + disk_delay)
            server.put_replica(self.key, obj, nbytes)
        self.committed = True
        st = self.store
        st._directory[self.key] = nbytes
        st.bytes_written += nbytes * len(live)
        delays.sort()
        delay = delays[min(st.write_quorum, len(live)) - 1]
        metrics = st.storage.engine.metrics
        metrics.inc("storage.quorum_writes")
        metrics.inc("storage.replica_bytes_written", nbytes * len(live))
        metrics.observe("storage.write_ns", delay)
        st._observe_write_latency(delay)
        return delay
