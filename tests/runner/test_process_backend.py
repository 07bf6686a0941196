"""Tests for the process backend's frame protocol.

Two layers under test:

* :class:`~repro.simkernel.parallel.EnvelopeBatch` -- the columnar
  envelope codec every window frame uses (property-based roundtrip,
  select/concat routing algebra);
* the process backend end to end -- runs over worker processes fold to
  the same bytes as the in-process backend (including when one window
  frame is larger than the OS pipe buffer), workers fold their own
  shards, and a worker that dies at any lockstep verb raises
  :class:`~repro.runner.WorkerDiedError` naming its shards instead of
  hanging the barrier.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import to_json
from repro.obs.fold import fold_exports, strip_metrics
from repro.runner import ProcessShardGroup, WorkerDiedError, run_parallel
from repro.simkernel.costs import NS_PER_S, NS_PER_US
from repro.simkernel.parallel import (
    Envelope,
    EnvelopeBatch,
    envelope_sort_key,
)


# ----------------------------------------------------------------------
# EnvelopeBatch codec
# ----------------------------------------------------------------------
def make_env(deliver_at, kind, dst, src, payload):
    """An envelope whose payload tuple lists ``payload``'s values in
    sorted-key order and whose key is its canonical JSON.  The codec is
    type-agnostic, so text values ride along with ints."""
    return Envelope(
        deliver_at_ns=deliver_at, kind=kind, dst_shard=dst, src_shard=src,
        payload=tuple(v for _, v in sorted(payload.items())),
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
        frame = EnvelopeBatch.from_envelopes(envs).to_bytes()
        assert EnvelopeBatch.read_from(frame).to_envelopes() == envs

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
        assert sorted(map(envelope_sort_key, merged.to_envelopes())) == sorted(
            map(envelope_sort_key, batch.to_envelopes()))

    def test_payload_key_is_the_wire_form(self):
        env = make_env(10, "k", 0, 1, {"b": 1, "a": "x"})
        out = EnvelopeBatch.from_envelopes([env]).to_envelopes()[0]
        assert out.payload == env.payload
        assert out.payload_key == env.payload_key
        assert envelope_sort_key(out) == envelope_sort_key(env)


# ----------------------------------------------------------------------
# End-to-end process backend behavior
# ----------------------------------------------------------------------
RING_PARAMS = {"n_ranks": 12, "hop_ns": 50 * NS_PER_US, "hops": 5,
               "msgs_per_rank": 2}
RING_META = {"experiment": "procs-ring", "seed": 5}

#: Linux's default pipe and socket-pair buffer: a frame larger than
#: this cannot be written in one go and must be drained as it is sent.
PIPE_BUFFER_BYTES = 64 * 1024


def _ring_run(workers=1, params=RING_PARAMS, n_shards=3):
    return run_parallel(
        "repro.cluster.scenarios:ring_traffic", params, 5,
        n_shards=n_shards, horizon_ns=NS_PER_S,
        lookahead_ns=params["hop_ns"], workers=workers, meta=RING_META,
    )


def _group():
    """A 3-shard ring whose ranks all launch inside the first window,
    so every worker has envelopes to receive at the first exchange."""
    return ProcessShardGroup(
        "repro.cluster.scenarios:ring_traffic",
        dict(RING_PARAMS, spacing_ns=1), 5,
        n_shards=3, lookahead_ns=50 * NS_PER_US, workers=2,
    )


class TestProcessBackend:
    def test_process_matches_local(self):
        local = _ring_run(workers=1)
        procs = _ring_run(workers=2)
        assert procs.obs_json == local.obs_json
        assert procs.shard_results == local.shard_results
        assert (procs.stats.windows, procs.stats.exchanged,
                procs.stats.events) == (local.stats.windows,
                                        local.stats.exchanged,
                                        local.stats.events)

    def test_frame_over_pipe_buffer_crosses_intact(self, monkeypatch):
        """Every rank launches inside the first window, so each worker's
        first frame holds thousands of envelopes -- far more than the
        OS pipe buffer -- and the run still folds byte-identically."""
        params = {"n_ranks": 4096, "hop_ns": NS_PER_S // 1000, "hops": 2,
                  "msgs_per_rank": 1, "spacing_ns": 1}
        sizes = []
        read_from = EnvelopeBatch.read_from.__func__

        def spy(cls, buf):
            sizes.append(len(buf))
            return read_from(cls, buf)

        monkeypatch.setattr(EnvelopeBatch, "read_from", classmethod(spy))
        procs = _ring_run(workers=2, params=params, n_shards=2)
        monkeypatch.undo()
        local = _ring_run(workers=1, params=params, n_shards=2)
        assert max(sizes) > PIPE_BUFFER_BYTES
        assert procs.obs_json == local.obs_json
        assert procs.shard_results == local.shard_results

    def test_worker_folds_its_shards(self):
        """Export ships one pre-folded document per worker, and the
        driver-side fold of those equals the flat per-shard fold."""
        local = _ring_run(workers=1)
        procs = _ring_run(workers=2)
        assert len(procs.shard_obs) == 2  # one per worker, not per shard
        assert len(local.shard_obs) == 3
        assert to_json(fold_exports(procs.shard_obs)) == to_json(
            fold_exports([strip_metrics(d) for d in local.shard_obs]))

    def test_barrier_metrics_carried_by_batched_frame(self):
        procs = _ring_run(workers=2)
        h = procs.barrier_obs["histograms"]
        assert h["parallel.window_exchange"]["count"] == procs.stats.windows
        assert h["parallel.window_span_ns"]["count"] == procs.stats.windows
        c = procs.barrier_obs["counters"]
        assert c["parallel.envelopes"] == procs.stats.exchanged > 0


class TestWorkerDeath:
    def test_killed_worker_raises_named_error(self):
        """A worker killed before ``window_all``, ``exchange`` or
        ``export_all`` surfaces as a named error, never a hang."""
        verbs = {
            "window": lambda group, replies: group.window_all(NS_PER_S),
            "exchange": lambda group, replies: group.exchange(replies),
            "export": lambda group, replies: group.export_all(RING_META),
        }
        for phase, verb in verbs.items():
            group = _group()
            try:
                t0 = min(group.status_all())  # workers answer
                replies = group.window_all(t0 + 50 * NS_PER_US)
                if phase != "exchange":
                    group.exchange(replies)
                victim = group._procs[1]
                victim.kill()
                victim.join(timeout=10)
                with pytest.raises(WorkerDiedError) as exc_info:
                    verb(group, replies)
                err = exc_info.value
                assert err.worker == 1, phase
                assert err.shards == [1]  # shard 1 is round-robin worker 1
                assert "shards [1]" in str(err)
            finally:
                group.close()

    def test_exit_leaves_no_error(self):
        group = _group()
        group.status_all()
        group.close()  # clean shutdown path
