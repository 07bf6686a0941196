"""Multi-level checkpoint storage: scratch, partner, erasure, remote.

The petascale C/R systems the paper's "direction forward" grew into
(SCR-style multi-level checkpointing, OpenCHK) do not write every
image to the slowest, most durable tier: they land it on fast
node-local scratch, protect it on a partner replica, erasure-code it
across a group, and only the images that must outlive a whole-machine
incident reach the remote tier.  :class:`HierarchicalStore` composes
any :class:`~repro.storage.backends.StorageBackend` instances into
that shape:

* each :class:`StorageLevel` has its own failure domain (the wrapped
  backend's), a **write policy** -- ``"through"`` (charged on the
  client's critical path) or ``"back"`` (copied asynchronously after
  ``writeback_delay_ns``) -- and an optional capacity bound;
* reads walk the levels fastest-first and **promote** the image into
  the faster levels it missed (charged in the background, after the
  read completes);
* a capacity-bound level **demotes** (evicts) its oldest images once
  they are protected by a deeper level;
* when a level *loses* a blob outright (every replica/shard gone --
  its own intra-level repairer can no longer help), the hierarchy
  **re-protects** it from a surviving level on the repair cadence.

The hierarchy is itself a ``StorageBackend`` with the full
``WriteStream`` protocol, so ``WritebackPipeline``, dedup wrappers,
generation GC and the distsnap cut manifests compose unchanged.  A
degenerate single-level hierarchy is charge-for-charge identical to
the wrapped backend (the E23 byte-identity gate), because every
operation forwards verbatim and only ``hierarchy.*`` metrics are
added.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import StorageError, StorageLostError
from ..simkernel.costs import NS_PER_MS
from ..storage.backends import StorageBackend, StorageKind

__all__ = ["StorageLevel", "HierarchicalStore", "HierarchyWriteStream"]


class StorageLevel:
    """One level of the hierarchy: a backend plus its placement policy.

    Parameters
    ----------
    name:
        Diagnostic label; also the metric tag (``hierarchy.<name>.*``).
    backend:
        The wrapped store (any ``StorageBackend``).
    write:
        ``"through"`` -- every store lands here synchronously;
        ``"back"`` -- a copy is scheduled ``writeback_delay_ns`` after
        the store commits (asynchronous protection).
    writeback_delay_ns:
        Delay before the write-back copy starts.
    capacity_bytes:
        When set, the level evicts its oldest blobs past this bound --
        but only blobs another level still holds (demotion, never data
        loss).
    durable:
        Whether this level survives compute-node failure; defaults to
        the backend's ``survives_node_failure``.
    """

    def __init__(
        self,
        name: str,
        backend: StorageBackend,
        write: str = "through",
        writeback_delay_ns: int = 2 * NS_PER_MS,
        capacity_bytes: Optional[int] = None,
        durable: Optional[bool] = None,
    ) -> None:
        if write not in ("through", "back"):
            raise StorageError(
                f"level {name!r}: write policy must be 'through' or 'back', "
                f"not {write!r}"
            )
        self.name = name
        self.backend = backend
        self.write = write
        self.writeback_delay_ns = int(writeback_delay_ns)
        self.capacity_bytes = capacity_bytes
        self.durable = (
            backend.survives_node_failure if durable is None else bool(durable)
        )
        #: Insertion-ordered residency map (key -> nbytes) this
        #: hierarchy maintains for capacity eviction.
        self._resident: Dict[str, int] = {}

    def resident_bytes(self) -> int:
        """Bytes the hierarchy believes are resident on this level."""
        return sum(self._resident.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<StorageLevel {self.name!r} {self.write} {self.backend!r}>"


class HierarchicalStore(StorageBackend):
    """A stack of storage levels behind one ``StorageBackend`` face.

    Parameters
    ----------
    engine:
        The shared simulation clock (write-back copies, promotions and
        re-protection run as engine events).
    levels:
        Fastest-first.  At least one level must be write-through (a
        store must land *somewhere* synchronously).
    promote_on_access:
        Copy an image into the faster levels it missed after a read
        hits a slower level.
    delta_updates:
        Route :meth:`store_delta` (and write-back copies carrying dirty
        extents) through a level backend's own ``store_delta`` when it
        has one -- the erasure tier's O(dirty) partial-stripe update.
        Off, every delta degrades to a plain full store on every level.
    reprotect:
        Watch each level's storage cluster (when it has one) and copy
        blobs the level lost outright back from a surviving level.
    detect_delay_ns / reprotect_scan_ns / max_reprotect_per_scan:
        Failure-detection latency, steady re-scan period and per-scan
        throttle of the re-protection walk.
    """

    kind = StorageKind.REMOTE

    def __init__(
        self,
        engine,
        levels: Sequence[StorageLevel],
        promote_on_access: bool = True,
        delta_updates: bool = True,
        reprotect: bool = True,
        detect_delay_ns: int = 2 * NS_PER_MS,
        reprotect_scan_ns: int = 10 * NS_PER_MS,
        max_reprotect_per_scan: int = 32,
    ) -> None:
        if not levels:
            raise StorageError("hierarchy needs at least one level")
        names = [lv.name for lv in levels]
        if len(set(names)) != len(names):
            raise StorageError(f"duplicate level names: {names}")
        if not any(lv.write == "through" for lv in levels):
            raise StorageError("hierarchy needs at least one write-through level")
        super().__init__(device=levels[0].backend.device)
        self.engine = engine
        self.levels: List[StorageLevel] = list(levels)
        self.survives_node_failure = any(lv.durable for lv in levels)
        self.promote_on_access = bool(promote_on_access)
        self.delta_updates = bool(delta_updates)
        self.detect_delay_ns = int(detect_delay_ns)
        self.reprotect_scan_ns = int(reprotect_scan_ns)
        self.max_reprotect_per_scan = int(max_reprotect_per_scan)
        #: key -> accounted nbytes of every blob the hierarchy accepted.
        self._directory: Dict[str, int] = {}
        self.promotions = 0
        self.demotions = 0
        self.reprotects = 0
        self.writeback_failures = 0
        if reprotect:
            for level in self.levels:
                cluster = getattr(level.backend, "storage", None)
                if cluster is not None and hasattr(cluster, "on_failure"):
                    cluster.on_failure(
                        lambda _s, lv=level: self.engine.after(
                            self.detect_delay_ns,
                            lambda: self._reprotect_scan(lv),
                            label="hier-reprotect",
                        )
                    )

    # ------------------------------------------------------------------
    def level(self, name: str) -> StorageLevel:
        """Level by name."""
        for lv in self.levels:
            if lv.name == name:
                return lv
        raise StorageError(f"no hierarchy level named {name!r}")

    def _metrics(self):
        return self.engine.metrics

    def _mark_resident(self, level: StorageLevel, key: str, nbytes: int) -> None:
        level._resident.pop(key, None)  # refresh insertion order
        level._resident[key] = nbytes

    # ------------------------------------------------------------------
    # StorageBackend protocol: writes
    # ------------------------------------------------------------------
    def store(self, key: str, obj: Any, nbytes: int, now_ns: int) -> int:
        """Write through the synchronous levels; schedule the rest.

        The client-visible delay is the slowest write-through level
        (they run concurrently on their own devices).  A write-through
        level that cannot accept the blob (its quorum is unreachable)
        is skipped and counted; the store fails only when *no* level
        accepted it.
        """
        metrics = self._metrics()
        delays: List[int] = []
        for level in self.levels:
            if level.write != "through":
                continue
            try:
                d = level.backend.store(key, obj, nbytes, now_ns)
            except StorageLostError:
                metrics.inc("hierarchy.write_errors")
                continue
            delays.append(d)
            self._mark_resident(level, key, nbytes)
            metrics.inc(f"hierarchy.{level.name}.writes")
            metrics.inc(f"hierarchy.{level.name}.level_bytes_written", nbytes)
        if not delays:
            raise StorageLostError(
                f"no hierarchy level accepted the write of {key!r}"
            )
        self._directory[key] = nbytes
        self.bytes_written += nbytes
        self._schedule_writebacks(key, obj, nbytes)
        self._evict_over_capacity()
        return max(delays)

    def store_delta(
        self,
        key: str,
        obj: Any,
        nbytes: int,
        dirty_extents: Sequence[Tuple[int, int]],
        now_ns: int,
        base_key: Optional[str] = None,
    ) -> int:
        """Write a partially dirty update through the hierarchy.

        Each write-through level whose backend has its own
        ``store_delta`` (the erasure tier) receives an O(dirty)
        partial-stripe update of its resident base copy; every other
        level -- and every level when ``delta_updates`` is off or the
        base is not resident there -- takes a plain full store, so the
        call never requires delta support anywhere.  ``base_key``
        (default ``key``) names the previous generation's blob; a
        rebasing level consumes it, and the level residency follows.
        Write-back levels get the dirty extents too, so the
        asynchronous copy is also O(dirty) where the backend allows.
        """
        metrics = self._metrics()
        base = base_key if base_key is not None else key
        delays: List[int] = []
        for level in self.levels:
            if level.write != "through":
                continue
            delta_fn = getattr(level.backend, "store_delta", None)
            use_delta = (
                self.delta_updates
                and delta_fn is not None
                and level.backend.exists(base)
            )
            try:
                if use_delta:
                    d = delta_fn(
                        key, obj, nbytes, dirty_extents, now_ns, base_key=base_key
                    )
                    metrics.inc(f"hierarchy.{level.name}.delta_writes")
                else:
                    d = level.backend.store(key, obj, nbytes, now_ns)
            except StorageLostError:
                metrics.inc("hierarchy.write_errors")
                continue
            delays.append(d)
            if use_delta and base != key and not level.backend.exists(base):
                level._resident.pop(base, None)  # rebase consumed it
            self._mark_resident(level, key, nbytes)
            metrics.inc(f"hierarchy.{level.name}.writes")
            metrics.inc(f"hierarchy.{level.name}.level_bytes_written", nbytes)
        if not delays:
            raise StorageLostError(
                f"no hierarchy level accepted the delta write of {key!r}"
            )
        self._directory[key] = nbytes
        self.bytes_written += nbytes
        self._schedule_writebacks(
            key, obj, nbytes, dirty_extents=dirty_extents, base_key=base_key
        )
        self._evict_over_capacity()
        return max(delays)

    def _schedule_writebacks(
        self,
        key: str,
        obj: Any,
        nbytes: int,
        dirty_extents: Optional[Sequence[Tuple[int, int]]] = None,
        base_key: Optional[str] = None,
    ) -> None:
        for level in self.levels:
            if level.write != "back":
                continue
            self.engine.after(
                level.writeback_delay_ns,
                lambda lv=level: self._writeback(
                    lv, key, obj, nbytes, dirty_extents, base_key
                ),
                label="hier-writeback",
            )

    def _writeback(
        self,
        level: StorageLevel,
        key: str,
        obj: Any,
        nbytes: int,
        dirty_extents: Optional[Sequence[Tuple[int, int]]] = None,
        base_key: Optional[str] = None,
    ) -> None:
        if key not in self._directory:
            return  # deleted before the copy started
        base = base_key if base_key is not None else key
        delta_fn = getattr(level.backend, "store_delta", None)
        use_delta = (
            self.delta_updates
            and dirty_extents is not None
            and delta_fn is not None
            and level.backend.exists(base)
        )
        # A plain copy that already landed (promotion, earlier copy) is
        # done; a *delta* copy must still run even though exists(key) is
        # true -- the resident bytes are the stale base generation.
        if not use_delta and level.backend.exists(key):
            return
        metrics = self._metrics()
        try:
            if use_delta:
                delta_fn(
                    key,
                    obj,
                    nbytes,
                    dirty_extents,
                    self.engine.now_ns,
                    base_key=base_key,
                )
                metrics.inc(f"hierarchy.{level.name}.delta_writes")
            else:
                level.backend.store(key, obj, nbytes, self.engine.now_ns)
        except StorageLostError:
            # The level is degraded right now; the re-protection scan
            # retries once it recovers.
            self.writeback_failures += 1
            metrics.inc("hierarchy.writeback_failures")
            return
        if use_delta and base != key and not level.backend.exists(base):
            level._resident.pop(base, None)  # rebase consumed it
        self._mark_resident(level, key, nbytes)
        metrics.inc(f"hierarchy.{level.name}.writes")
        metrics.inc(f"hierarchy.{level.name}.level_bytes_written", nbytes)
        metrics.inc("hierarchy.writeback_bytes", nbytes)
        self._evict_over_capacity()

    # ------------------------------------------------------------------
    # StorageBackend protocol: reads
    # ------------------------------------------------------------------
    def _read_from_levels(
        self, key: str, now_ns: int, fanout: bool
    ) -> Tuple[Any, int]:
        if key not in self._directory:
            raise StorageError(f"no blob stored under {key!r}")
        metrics = self._metrics()
        nbytes = self._directory[key]
        for i, level in enumerate(self.levels):
            if not level.backend.exists(key):
                metrics.inc(f"hierarchy.{level.name}.misses")
                continue
            reader = level.backend.load
            if fanout:
                reader = getattr(level.backend, "load_fanout", reader)
            obj, delay = reader(key, now_ns)
            metrics.inc(f"hierarchy.{level.name}.hits")
            if i > 0 and self.promote_on_access:
                self._schedule_promotion(key, obj, nbytes, self.levels[:i], delay)
            self.bytes_read += nbytes
            return obj, delay
        metrics.inc("hierarchy.lost_reads")
        raise StorageLostError(
            f"no hierarchy level can currently read {key!r}"
        )

    def load(self, key: str, now_ns: int) -> Tuple[Any, int]:
        """Serial read: fastest level holding the blob serves it."""
        return self._read_from_levels(key, now_ns, fanout=False)

    def load_fanout(self, key: str, now_ns: int) -> Tuple[Any, int]:
        """Fan-out read through the serving level's own fan-out path."""
        return self._read_from_levels(key, now_ns, fanout=True)

    def load_parallel(self, keys, now_ns: int) -> Tuple[Dict[str, Any], int]:
        """Prefetch several blobs issued at one instant (chain restore)."""
        objs: Dict[str, Any] = {}
        worst = 0
        for key in keys:
            obj, delay = self.load_fanout(key, now_ns)
            objs[key] = obj
            worst = max(worst, delay)
        return objs, worst

    def _schedule_promotion(
        self,
        key: str,
        obj: Any,
        nbytes: int,
        into: Sequence[StorageLevel],
        after_ns: int,
    ) -> None:
        self.engine.after(
            max(0, after_ns),
            lambda: self._promote(key, obj, nbytes, list(into)),
            label="hier-promote",
        )

    def _promote(
        self, key: str, obj: Any, nbytes: int, into: List[StorageLevel]
    ) -> None:
        if key not in self._directory:
            return
        metrics = self._metrics()
        for level in into:
            if level.backend.exists(key):
                continue
            try:
                level.backend.store(key, obj, nbytes, self.engine.now_ns)
            except StorageLostError:
                continue
            self._mark_resident(level, key, nbytes)
            self.promotions += 1
            metrics.inc("hierarchy.promotions")
            metrics.inc("hierarchy.promoted_bytes", nbytes)
            metrics.inc(f"hierarchy.{level.name}.level_bytes_written", nbytes)
        self._evict_over_capacity()

    # ------------------------------------------------------------------
    # Demotion (capacity eviction) and re-protection
    # ------------------------------------------------------------------
    def _held_elsewhere(self, key: str, excluding: StorageLevel) -> bool:
        return any(
            lv is not excluding and lv.backend.exists(key) for lv in self.levels
        )

    def _evict_over_capacity(self) -> None:
        metrics = self._metrics()
        for level in self.levels:
            if level.capacity_bytes is None:
                continue
            while level.resident_bytes() > level.capacity_bytes:
                victim = None
                for key in level._resident:  # oldest-first insertion order
                    if self._held_elsewhere(key, level):
                        victim = key
                        break
                if victim is None:
                    break  # nothing safely demotable; hold over capacity
                level._resident.pop(victim)
                level.backend.delete(victim)
                self.demotions += 1
                metrics.inc(f"hierarchy.{level.name}.evictions")

    def _reprotect_scan(self, level: StorageLevel) -> None:
        """Copy blobs ``level`` lost outright back from a survivor.

        A level's own repairer handles missing replicas/shards while
        the blob is still readable there; this scan covers the case the
        level cannot repair itself -- every copy it held is gone -- but
        another level still has the data.
        """
        backend = level.backend
        if hasattr(backend, "lost_keys"):
            lost = [k for k in backend.lost_keys() if k in self._directory]
        else:
            lost = [k for k in self._directory if not backend.exists(k)]
        metrics = self._metrics()
        repaired = 0
        now = self.engine.now_ns
        for key in lost:
            if repaired >= self.max_reprotect_per_scan:
                # More to do: rescan after the steady-state interval.
                self.engine.after(
                    self.reprotect_scan_ns,
                    lambda: self._reprotect_scan(level),
                    label="hier-reprotect",
                )
                break
            nbytes = self._directory[key]
            try:
                obj, read_delay = self._read_from_levels(key, now, fanout=True)
            except (StorageError, StorageLostError):
                continue  # no surviving copy anywhere: genuinely lost
            try:
                backend.delete(key)  # clear any partial shard/replica set
                backend.store(key, obj, nbytes, now + read_delay)
            except StorageLostError:
                continue
            self._mark_resident(level, key, nbytes)
            self.reprotects += 1
            repaired += 1
            metrics.inc("hierarchy.reprotects")
            metrics.inc("hierarchy.reprotected_bytes", nbytes)

    # ------------------------------------------------------------------
    # StorageBackend protocol: metadata
    # ------------------------------------------------------------------
    def open_stream(self, key: str, now_ns: int) -> "HierarchyWriteStream":
        """Open a pipelined write through every write-through level."""
        return HierarchyWriteStream(self, key, now_ns)

    def exists(self, key: str) -> bool:
        """Whether any level can currently read ``key``."""
        return key in self._directory and any(
            lv.backend.exists(key) for lv in self.levels
        )

    def peek(self, key: str) -> Any:
        """Inspect a blob without charging I/O (GC / availability)."""
        if key not in self._directory:
            raise StorageError(f"no blob stored under {key!r}")
        for level in self.levels:
            try:
                return level.backend.peek(key)
            except (StorageError, StorageLostError):
                continue
        raise StorageLostError(f"no hierarchy level can reach {key!r}")

    def delete(self, key: str) -> None:
        """Drop the blob from every level (idempotent)."""
        self._directory.pop(key, None)
        for level in self.levels:
            level._resident.pop(key, None)
            level.backend.delete(key)

    def keys(self) -> Iterator[str]:
        """Stored blob keys, sorted."""
        return iter(sorted(self._directory))

    def stored_bytes(self) -> int:
        """Logical bytes held (one count per blob)."""
        return sum(self._directory.values())

    def blob_size(self, key: str) -> int:
        """Accounted size of a stored blob (0 when absent)."""
        return self._directory.get(key, 0)

    def physical_bytes(self) -> int:
        """Bytes on physical media across every level (replica- and
        shard-weighted where the level's backend reports it)."""
        total = 0
        for level in self.levels:
            fn = getattr(level.backend, "physical_bytes", None)
            total += fn() if fn is not None else level.backend.stored_bytes()
        return total

    def level_physical_bytes(self) -> Dict[str, int]:
        """Per-level physical bytes (the E23 per-level table)."""
        out: Dict[str, int] = {}
        for level in self.levels:
            fn = getattr(level.backend, "physical_bytes", None)
            out[level.name] = fn() if fn is not None else level.backend.stored_bytes()
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        names = "/".join(lv.name for lv in self.levels)
        return f"<HierarchicalStore {names} keys={len(self._directory)}>"


class HierarchyWriteStream:
    """A pipelined write fanned across the write-through levels.

    Each level contributes its own stream (quorum-aware for replicated
    and erasure levels); sends and the commit return the slowest
    level's delay.  Write-back levels receive their copy after the
    commit, exactly like :meth:`HierarchicalStore.store`.  A level
    whose stream cannot open (quorum unreachable) is skipped -- the
    stream fails only when no level can accept it.
    """

    def __init__(self, store: HierarchicalStore, key: str, now_ns: int) -> None:
        self.store = store
        self.key = key
        self.opened_ns = now_ns
        self.sent_bytes = 0
        self.committed = False
        self.streams: List[Tuple[StorageLevel, Any]] = []
        for level in store.levels:
            if level.write != "through":
                continue
            try:
                self.streams.append((level, level.backend.open_stream(key, now_ns)))
            except StorageLostError:
                store._metrics().inc("hierarchy.write_errors")
        if not self.streams:
            raise StorageLostError(
                f"no hierarchy level can open a write stream for {key!r}"
            )

    def send(self, nbytes: int, now_ns: int) -> int:
        """Forward one extent to every level stream; slowest wins."""
        delay = 0
        for _, stream in self.streams:
            delay = max(delay, stream.send(nbytes, now_ns))
        self.sent_bytes += int(nbytes)
        return delay

    def send_chunk(self, chunk: Any, now_ns: int) -> int:
        """Forward one captured chunk to every level stream."""
        delay = 0
        for _, stream in self.streams:
            delay = max(delay, stream.send_chunk(chunk, now_ns))
        self.sent_bytes += int(chunk.nbytes)
        return delay

    def commit(self, obj: Any, nbytes: int, now_ns: int) -> int:
        """Commit on every level stream and publish the blob."""
        if self.committed:
            raise StorageError(f"stream for {self.key!r} already committed")
        st = self.store
        metrics = st._metrics()
        delay = 0
        for level, stream in self.streams:
            delay = max(delay, stream.commit(obj, nbytes, now_ns))
            st._mark_resident(level, self.key, nbytes)
            metrics.inc(f"hierarchy.{level.name}.writes")
            metrics.inc(f"hierarchy.{level.name}.level_bytes_written", nbytes)
        self.committed = True
        st._directory[self.key] = nbytes
        st.bytes_written += nbytes
        st._schedule_writebacks(self.key, obj, nbytes)
        st._evict_over_capacity()
        return delay
