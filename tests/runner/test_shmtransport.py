"""Tests for the zero-copy shared-memory transport.

Three layers under test:

* :class:`~repro.runner.shmtransport.ShmRing` -- the seqlock/doorbell
  frame ring itself (roundtrip, wraparound, capacity fallback, torn-
  frame detection);
* :class:`~repro.simkernel.parallel.EnvelopeBatch` -- the columnar
  envelope codec (property-based roundtrip, select/concat routing
  algebra);
* the transport end to end -- shm runs fold to the same bytes as the
  pipe and local backends (including with a ring so small every frame
  falls back to the pipe), and a worker that dies mid-run raises
  :class:`~repro.runner.WorkerDiedError` naming its shards instead of
  hanging the barrier.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.fold import fold_exports, strip_metrics
from repro.obs import to_json
from repro.runner import ProcessShardGroup, WorkerDiedError, run_parallel
from repro.runner.shmtransport import ShmRing, shm_available
from repro.simkernel.costs import NS_PER_S, NS_PER_US
from repro.simkernel.parallel import (
    Envelope,
    EnvelopeBatch,
    ParallelError,
    run_windows,
)

needs_shm = pytest.mark.skipif(not shm_available(),
                               reason="multiprocessing.shared_memory absent")


# ----------------------------------------------------------------------
# ShmRing
# ----------------------------------------------------------------------
@needs_shm
class TestShmRing:
    def test_roundtrip(self):
        ring = ShmRing(256)
        try:
            payload = b"hello frames"

            def fill(mv):
                mv[:] = payload
                return len(payload)

            bell = ring.write_frame(len(payload), fill)
            assert bell is not None
            seq, off = bell
            assert ring.read_frame(seq, off, len(payload)) == payload
        finally:
            ring.close(unlink=True)

    def test_oversized_frame_returns_none(self):
        ring = ShmRing(64)
        try:
            assert ring.write_frame(65, lambda mv: 65) is None
        finally:
            ring.close(unlink=True)

    def test_bump_allocator_wraps(self):
        ring = ShmRing(100)
        try:
            def make(b):
                def fill(mv):
                    mv[:] = b
                    return len(b)
                return fill

            offs = []
            for i in range(5):  # 5 x 40 bytes > 100: must wrap
                blob = bytes([i]) * 40
                seq, off = ring.write_frame(40, make(blob))
                offs.append(off)
                assert ring.read_frame(seq, off, 40) == blob
            assert 0 in offs[1:]  # wrapped back to the start
        finally:
            ring.close(unlink=True)

    def test_stale_doorbell_detected(self):
        ring = ShmRing(128)
        try:
            def fill(mv):
                mv[:] = b"x" * 8
                return 8

            seq, off = ring.write_frame(8, fill)
            ring.write_frame(8, fill)  # bump the seq past the doorbell
            with pytest.raises(ParallelError, match="torn"):
                ring.read_frame(seq, off, 8)
        finally:
            ring.close(unlink=True)

    def test_out_of_range_frame_rejected(self):
        ring = ShmRing(64)
        try:
            with pytest.raises(ParallelError, match="outside ring"):
                ring.read_frame(0, 60, 8)
        finally:
            ring.close(unlink=True)

    def test_close_is_idempotent(self):
        ring = ShmRing(64)
        ring.close(unlink=True)
        ring.close(unlink=True)


# ----------------------------------------------------------------------
# EnvelopeBatch codec
# ----------------------------------------------------------------------
def make_env(deliver_at, kind, dst, src, payload):
    return Envelope(
        deliver_at_ns=deliver_at, kind=kind, dst_shard=dst, src_shard=src,
        payload=payload,
        payload_key=json.dumps(payload, sort_keys=True,
                               separators=(",", ":")),
    )


payloads = st.dictionaries(
    st.sampled_from(["dst", "value", "bytes", "sent_ns", "tag"]),
    st.integers(0, 2**40) | st.text(max_size=8),
    max_size=4,
)
envelopes = st.builds(
    make_env,
    deliver_at=st.integers(0, 2**62),
    kind=st.sampled_from(["sstore.req", "sstore.ack", "ring.hop", "k"]),
    dst=st.integers(0, 15),
    src=st.integers(0, 15),
    payload=payloads,
)


class TestEnvelopeBatch:
    @settings(deadline=None, max_examples=60)
    @given(envs=st.lists(envelopes, max_size=40))
    def test_serialized_roundtrip_preserves_envelopes(self, envs):
        batch = EnvelopeBatch.from_envelopes(envs)
        buf = bytearray(batch.nbytes)
        written = batch.write_into(memoryview(buf))
        assert written == batch.nbytes
        assert EnvelopeBatch.read_from(bytes(buf)).to_envelopes() == envs

    @settings(deadline=None, max_examples=40)
    @given(envs=st.lists(envelopes, min_size=1, max_size=40),
           nworkers=st.integers(min_value=1, max_value=4))
    def test_select_concat_partition_is_lossless(self, envs, nworkers):
        """Routing algebra: partitioning by destination worker and
        re-concatenating loses nothing and keeps row contents."""
        batch = EnvelopeBatch.from_envelopes(envs)
        parts = [batch.select(batch.dst_shard % nworkers == w)
                 for w in range(nworkers)]
        assert sum(p.n for p in parts) == batch.n
        merged = EnvelopeBatch.concat([p for p in parts if p.n])
        assert sorted(e.sort_key for e in merged.to_envelopes()) == sorted(
            e.sort_key for e in batch.to_envelopes())

    def test_payload_key_is_the_wire_form(self):
        env = make_env(10, "k", 0, 1, {"b": 1, "a": "x"})
        out = EnvelopeBatch.from_envelopes([env]).to_envelopes()[0]
        assert out.payload == env.payload
        assert out.payload_key == env.payload_key
        assert out.sort_key == env.sort_key


# ----------------------------------------------------------------------
# End-to-end transport behavior
# ----------------------------------------------------------------------
RING_PARAMS = {"n_ranks": 12, "hop_ns": 50 * NS_PER_US, "hops": 5,
               "msgs_per_rank": 2}
RING_META = {"experiment": "shm-ring", "seed": 5}


def _ring_run(workers=1, transport="auto", **kw):
    return run_parallel(
        "repro.cluster.scenarios:ring_traffic", RING_PARAMS, 5,
        n_shards=3, horizon_ns=NS_PER_S, lookahead_ns=50 * NS_PER_US,
        workers=workers, transport=transport, meta=RING_META, **kw,
    )


def _group(transport, ring_bytes=None, workers=2):
    kw = {} if ring_bytes is None else {"ring_bytes": ring_bytes}
    return ProcessShardGroup(
        "repro.cluster.scenarios:ring_traffic", RING_PARAMS, 5,
        n_shards=3, lookahead_ns=50 * NS_PER_US, workers=workers,
        transport=transport, **kw,
    )


@needs_shm
class TestShmTransport:
    def test_shm_matches_local_and_pipe(self):
        local = _ring_run(workers=1)
        pipe = _ring_run(workers=2, transport="pipe")
        shm = _ring_run(workers=2, transport="shm")
        assert local.transport == "local"
        assert pipe.transport == "pipe"
        assert shm.transport == "shm"
        assert shm.obs_json == local.obs_json == pipe.obs_json
        assert shm.shard_results == local.shard_results
        assert (shm.stats.windows, shm.stats.exchanged, shm.stats.events) \
            == (local.stats.windows, local.stats.exchanged,
                local.stats.events)

    def test_auto_prefers_shm_under_fork(self):
        res = _ring_run(workers=2)  # transport="auto"
        assert res.transport == "shm"

    def test_tiny_ring_falls_back_to_pipe_frames(self):
        """Every frame overflows a 64-byte ring; the batch ships as raw
        bytes over the pipe and the run still folds byte-identically."""
        local = _ring_run(workers=1)
        group = _group("shm", ring_bytes=64)
        try:
            run_windows(group, horizon_ns=NS_PER_S,
                        window_ns=50 * NS_PER_US)
            docs, results = group.export_all(RING_META)
            fallbacks = group.fallback_frames
        finally:
            group.close()
        assert fallbacks > 0
        assert to_json(fold_exports(docs)) == local.obs_json
        assert results == local.shard_results

    def test_worker_folds_its_shards(self):
        """Shm export ships one pre-folded document per worker, and the
        driver-side fold of those equals the flat per-shard fold."""
        local = _ring_run(workers=1)
        shm = _ring_run(workers=2, transport="shm")
        assert len(shm.shard_obs) == 2  # one per worker, not per shard
        assert len(local.shard_obs) == 3
        assert to_json(fold_exports(shm.shard_obs)) == to_json(
            fold_exports([strip_metrics(d) for d in local.shard_obs]))

    def test_barrier_metrics_carried_by_batched_frame(self):
        shm = _ring_run(workers=2, transport="shm")
        h = shm.barrier_obs["histograms"]
        assert h["parallel.window_exchange"]["count"] == shm.stats.windows
        assert h["parallel.window_span_ns"]["count"] == shm.stats.windows
        c = shm.barrier_obs["counters"]
        assert c["parallel.shm_fallback_frames"] == 0


class TestWorkerDeath:
    @pytest.mark.parametrize("transport", ["pipe",
                                           pytest.param("shm",
                                                        marks=needs_shm)])
    def test_killed_worker_raises_named_error(self, transport):
        group = _group(transport)
        try:
            group.status_all()  # workers are alive and answering
            victim = group._procs[1]
            victim.kill()
            victim.join(timeout=10)
            with pytest.raises(WorkerDiedError) as exc_info:
                for _ in range(3):  # send may outlive the pipe buffer
                    group.window_all(NS_PER_S)
            err = exc_info.value
            assert err.worker == 1
            assert err.shards == [1]  # shard 1 is round-robin worker 1
            assert "shards [1]" in str(err)
        finally:
            group.close()

    def test_exit_leaves_no_error(self):
        group = _group("pipe")
        group.status_all()
        group.close()  # clean shutdown path
