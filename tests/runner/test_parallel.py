"""Tests for the conservative time-windowed parallel engine.

The contract under test is the PR's hard gate: a scenario built on
shard-invariant state produces **byte-identical** folded ``repro.obs``
exports for any shard count and either backend.  Plus the supporting
invariants: canonical envelope ordering makes barrier merges
arrival-order-independent, the conservative condition is enforced at
send and deliver time, and the window driver skips idle virtual time.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import MetricsRegistry
from repro.simkernel import Engine
from repro.simkernel.costs import NS_PER_S, NS_PER_US
from repro.simkernel.parallel import (
    Envelope,
    EnvelopeKind,
    LocalShardGroup,
    ParallelError,
    ShardContext,
    derive_lookahead,
    envelope_sort_key,
    run_windows,
)
from repro.runner import run_parallel

#: A kind with no fields (payload ``()``, key ``{}``) for validation tests.
K = EnvelopeKind("k", ())


def make_ctx(shard_id=0, n_shards=1, lookahead_ns=1000):
    return ShardContext(Engine(seed=1), shard_id, n_shards,
                        lookahead_ns=lookahead_ns)


def make_env(deliver_at_ns, kind, dst_shard, src_shard, payload, key):
    return Envelope(deliver_at_ns=deliver_at_ns, kind=kind,
                    payload_key=key, src_shard=src_shard,
                    dst_shard=dst_shard, payload=payload)


def json_key(fields, values):
    """The reference canonical form the templated key must reproduce."""
    return json.dumps(dict(zip(fields, values)), sort_keys=True,
                      separators=(",", ":"))


# ----------------------------------------------------------------------
# Lookahead and send/deliver validation
# ----------------------------------------------------------------------
class TestConservativeConditions:
    def test_derive_lookahead_is_min_floor(self):
        assert derive_lookahead(5000, 2000, 9000) == 2000

    def test_derive_lookahead_rejects_nonpositive(self):
        with pytest.raises(ParallelError, match="positive"):
            derive_lookahead(5000, 0)
        with pytest.raises(ParallelError, match="floor"):
            derive_lookahead()

    def test_send_below_lookahead_rejected(self):
        ctx = make_ctx(lookahead_ns=1000)
        with pytest.raises(ParallelError, match="violates lookahead"):
            ctx.send(K, (), delay_ns=999, dst_shard=0)

    def test_send_without_channels_rejected(self):
        ctx = ShardContext(Engine(seed=1), 0, 1, lookahead_ns=None)
        with pytest.raises(ParallelError, match="no cross-shard channels"):
            ctx.send(K, (), delay_ns=10**9, dst_shard=0)

    def test_past_delivery_rejected(self):
        ctx = make_ctx()
        ctx.on(K, lambda p: None)
        ctx.engine.run(until_ns=5000)
        stale = make_env(4000, "k", 0, 0, (), "{}")
        with pytest.raises(ParallelError, match="lookahead violated"):
            ctx.deliver([stale])

    def test_wrong_shard_delivery_rejected(self):
        ctx = make_ctx(shard_id=0, n_shards=2)
        misrouted = make_env(10, "k", 1, 0, (), "{}")
        with pytest.raises(ParallelError, match="delivered to"):
            ctx.deliver([misrouted])

    def test_duplicate_handler_rejected(self):
        ctx = make_ctx()
        ctx.on(K, lambda p: None)
        with pytest.raises(ParallelError, match="duplicate handler"):
            ctx.on(EnvelopeKind("k", ("other",)), lambda p: None)

    def test_unknown_kind_rejected(self):
        ctx = make_ctx()
        env = make_env(10, "mystery", 0, 0, (), "{}")
        with pytest.raises(ParallelError, match="no handler"):
            ctx.deliver([env])

    def test_send_rejects_values_the_kind_cannot_render(self):
        """A rejected send leaves nothing in the outbox."""
        ctx = make_ctx()
        kind = EnvelopeKind("v", ("a", "b"))
        for bad in [(1,), (1, 2, 3), [1, 2], (1, True), (1, 2.0)]:
            with pytest.raises(ParallelError, match="takes a tuple"):
                ctx.send(kind, bad, delay_ns=1000, dst_shard=0)
        outbox, _ = ctx.run_window(0)
        assert outbox == []


# ----------------------------------------------------------------------
# Envelope kinds: the templated key is the canonical JSON, exactly
# ----------------------------------------------------------------------
field_names = st.lists(
    st.text(alphabet=st.characters(blacklist_categories=("Cs",)),
            max_size=6),
    unique=True, max_size=5,
).map(sorted)


class TestEnvelopeKind:
    @settings(deadline=None, max_examples=200)
    @given(data=st.data(), fields=field_names)
    def test_key_is_byte_identical_to_json_dumps(self, data, fields):
        values = tuple(data.draw(st.lists(
            st.integers(-2**70, 2**70),
            min_size=len(fields), max_size=len(fields))))
        kind = EnvelopeKind("k", fields)
        assert kind.key(values) == json_key(fields, values)
        # And the wire form decodes back to the payload tuple.
        assert tuple(json.loads(kind.key(values)).values()) == values

    def test_field_names_needing_escapes(self):
        fields = sorted(['%d', '"q"', "back\\slash", "caf\u00e9", "%%"])
        values = tuple(range(-2, 3))
        kind = EnvelopeKind("k", fields)
        assert kind.key(values) == json_key(fields, values)

    def test_last_field_orders_10_before_1(self):
        """``}`` sorts after the digits, so in the closing field the key
        string puts 10 before 1."""
        kind = EnvelopeKind("k", ("a", "z"))
        one, ten = kind.key((0, 1)), kind.key((0, 10))
        assert (one, ten) == ('{"a":0,"z":1}', '{"a":0,"z":10}')
        assert ten < one

    def test_inner_field_orders_1_before_10(self):
        """``,`` sorts before the digits, so in any other field 1 comes
        before 10."""
        kind = EnvelopeKind("k", ("a", "z"))
        one, ten = kind.key((1, 0)), kind.key((10, 0))
        assert (one, ten) == ('{"a":1,"z":0}', '{"a":10,"z":0}')
        assert one < ten

    def test_negative_values(self):
        kind = EnvelopeKind("k", ("a", "b"))
        for values in [(-1, -10), (-2**70, 2**70), (-9, -10)]:
            assert kind.key(values) == json_key(kind.fields, values)
        assert kind.key((-1, 0)) < kind.key((1, 0))  # "-" sorts first

    @pytest.mark.parametrize("bad", [
        (True,), (False,), (1.0,), ("1",), (np.int64(1),), (None,),
        (), (1, 2), [1],
    ], ids=["true", "false", "float", "str", "np.int64", "none",
            "too-few", "too-many", "list"])
    def test_malformed_values_rejected(self, bad):
        with pytest.raises(ParallelError, match="takes a tuple"):
            EnvelopeKind("k", ("a",)).key(bad)

    @pytest.mark.parametrize("fields", [
        ("b", "a"), ("a", "a"), ("a", "b", "a"), ("hops_left", "dst"),
    ])
    def test_unsorted_or_duplicate_fields_rejected(self, fields):
        with pytest.raises(ParallelError, match="sorted and unique"):
            EnvelopeKind("k", fields)

    def test_non_str_field_rejected(self):
        with pytest.raises(ParallelError, match="must be str"):
            EnvelopeKind("k", (1, 2))


# ----------------------------------------------------------------------
# Canonical envelope ordering
# ----------------------------------------------------------------------
V = EnvelopeKind("k", ("v",))


class TestCanonicalMerge:
    def _batch(self):
        envs = []
        for t, val in [(500, 3), (100, 2), (100, 1), (500, 1)]:
            envs.append(make_env(t, "k", 0, 0, (val,), V.key((val,))))
        return envs

    def _run(self, envelopes):
        ctx = make_ctx()
        seen = []
        ctx.on(V, lambda p: seen.append(p[0]))
        ctx.deliver(envelopes)
        ctx.engine.run()
        return seen

    def test_any_arrival_order_schedules_identically(self):
        """The barrier merge is a pure function of batch *contents*."""
        envs = self._batch()
        orders = [envs, list(reversed(envs)),
                  [envs[2], envs[0], envs[3], envs[1]]]
        results = [self._run(o) for o in orders]
        assert results[0] == results[1] == results[2]
        # And the canonical order itself: time first, then payload JSON.
        assert results[0] == [1, 2, 1, 3]

    def test_same_instant_follows_key_string_not_numbers(self):
        """9 < 10 numerically, but ``{"v":10}`` < ``{"v":9}`` as strings:
        the schedule follows the string, exactly as the JSON key did."""
        envs = [make_env(100, "k", 0, 0, (v,), V.key((v,))) for v in (9, 10)]
        assert self._run(envs) == self._run(envs[::-1]) == [10, 9]

    def test_src_shard_is_last_tiebreak(self):
        twins = [make_env(100, "k", 0, src, (7,), V.key((7,)))
                 for src in (3, 1)]
        keys = sorted(envelope_sort_key(e) for e in twins)
        assert [k[-1] for k in keys] == [1, 3]


# ----------------------------------------------------------------------
# Window driver mechanics
# ----------------------------------------------------------------------
PING = EnvelopeKind("ping", ("hops_left",))


class _PingPong:
    """Two shards lobbing one envelope back and forth ``rounds`` times."""

    def __init__(self, ctx, rounds, hop_ns):
        self.ctx = ctx
        self.rounds = rounds
        self.hop_ns = hop_ns
        self.got = 0
        ctx.on(PING, self._on_ping)
        if ctx.shard_id == 0:
            ctx.engine.at_anon(0, lambda: self._send(rounds))

    def _send(self, hops_left):
        self.ctx.send(PING, (hops_left,), self.hop_ns,
                      dst_shard=1 - self.ctx.shard_id)

    def _on_ping(self, payload):
        (hops_left,) = payload
        self.got += 1
        if hops_left > 1:
            self._send(hops_left - 1)


def pingpong_factory(rounds, hop_ns):
    def build(sid):
        ctx = ShardContext(Engine(seed=1), sid, 2, lookahead_ns=hop_ns)
        return ctx, _PingPong(ctx, rounds, hop_ns)
    return [build(0), build(1)]


class TestWindowDriver:
    def test_pingpong_crosses_barriers(self):
        shards = pingpong_factory(rounds=6, hop_ns=1000)
        group = LocalShardGroup(shards)
        stats = run_windows(group, horizon_ns=100_000, window_ns=1000)
        assert stats.exchanged == 6
        assert sum(s.got for _, s in shards) == 6
        # All clocks parked at the horizon.
        assert all(ctx.engine.now_ns == 100_000 for ctx, _ in shards)

    def test_idle_virtual_time_is_skipped(self):
        """A fleet whose next event is far away costs no extra windows."""
        eng = Engine(seed=1)
        ctx = ShardContext(eng, 0, 1, lookahead_ns=10)
        fired = []
        eng.at_anon(5_000_000, lambda: fired.append(eng.now_ns))
        eng.at_anon(9_000_000, lambda: fired.append(eng.now_ns))
        stats = run_windows(LocalShardGroup([(ctx, object())]),
                            horizon_ns=10_000_000, window_ns=10)
        assert fired == [5_000_000, 9_000_000]
        # Two occupied windows, not 10_000_000 / 10 empty ones.
        assert stats.windows == 2

    def test_stop_flag_parks_all_shards_at_same_barrier(self):
        class Stopper:
            def __init__(self, ctx, when):
                self.ctx = ctx
                self.hit = False
                ctx.engine.at_anon(when, self._fire)

            def _fire(self):
                self.hit = True

            def stop(self):
                return self.hit

        def build(sid, when):
            ctx = ShardContext(Engine(seed=1), sid, 2, lookahead_ns=100)
            return ctx, Stopper(ctx, when)

        shards = [build(0, 750), build(1, 10**9)]
        stats = run_windows(LocalShardGroup(shards), horizon_ns=10**9,
                            window_ns=100)
        assert stats.stopped
        clocks = {ctx.engine.now_ns for ctx, _ in shards}
        assert len(clocks) == 1  # both parked at the same window end
        assert clocks.pop() < 10**9

    def test_window_wider_than_lookahead_rejected(self):
        with pytest.raises(ParallelError, match="exceeds lookahead"):
            run_parallel("repro.cluster.scenarios:fleet_storm",
                         {"n_nodes": 4, "mtbf_s": 100.0}, 1,
                         n_shards=1, horizon_ns=10**9,
                         lookahead_ns=100, window_ns=200)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_zero_shards_rejected_by_both_backends(self, workers):
        with pytest.raises(ParallelError, match="need at least one shard"):
            run_parallel("repro.cluster.scenarios:fleet_storm",
                         {"n_nodes": 4, "mtbf_s": 100.0}, 1,
                         n_shards=0, horizon_ns=10**9, workers=workers)

    def test_barrier_metrics_reported(self):
        shards = pingpong_factory(rounds=3, hop_ns=1000)
        reg = MetricsRegistry()
        run_windows(LocalShardGroup(shards), horizon_ns=10**6,
                    window_ns=1000, registry=reg)
        doc = reg.to_dict()
        assert doc["counters"]["parallel.windows"] > 0
        assert doc["counters"]["parallel.envelopes"] == 3


# ----------------------------------------------------------------------
# The hard gate: byte-identical folded exports, property-based
# ----------------------------------------------------------------------
SCENARIOS = st.sampled_from(["storm", "restart", "ring"])


def _run(scenario, seed, size, shards, workers=1):
    if scenario == "storm":
        return run_parallel(
            "repro.cluster.scenarios:fleet_storm",
            {"n_nodes": size, "mtbf_s": 400.0, "repair_s": 50.0,
             "model": "weibull" if seed % 2 else "exp"},
            seed, n_shards=shards, horizon_ns=1800 * NS_PER_S,
            window_ns=30 * NS_PER_S, workers=workers,
            meta={"experiment": "prop-storm", "seed": seed, "size": size},
        )
    if scenario == "restart":
        prop = 2_000_000
        return run_parallel(
            "repro.cluster.scenarios:fleet_restart_traffic",
            {"n_nodes": size, "mtbf_s": 300.0, "repair_s": 60.0,
             "n_servers": 3, "image_bytes": 1 << 18,
             "propagation_ns": prop, "service_floor_ns": 4_000_000,
             "ns_per_byte": 0.05},
            seed, n_shards=shards, horizon_ns=600 * NS_PER_S,
            lookahead_ns=prop, workers=workers,
            meta={"experiment": "prop-restart", "seed": seed, "size": size},
        )
    hop = 50 * NS_PER_US
    return run_parallel(
        "repro.cluster.scenarios:ring_traffic",
        {"n_ranks": size, "hop_ns": hop, "hops": 5, "msgs_per_rank": 2},
        seed, n_shards=shards, horizon_ns=NS_PER_S,
        lookahead_ns=hop, workers=workers,
        meta={"experiment": "prop-ring", "seed": seed, "size": size},
    )


class TestByteIdentity:
    @settings(deadline=None, max_examples=12)
    @given(scenario=SCENARIOS,
           seed=st.integers(min_value=0, max_value=2**31),
           size=st.integers(min_value=8, max_value=96))
    def test_folded_export_independent_of_shard_count(
            self, scenario, seed, size):
        docs = {s: _run(scenario, seed, size, s).obs_json
                for s in (1, 2, 4)}
        assert docs[1] == docs[2] == docs[4]

    def test_ring_digest_and_exactly_once_across_shards(self):
        results = {}
        for shards in (1, 3):
            res = _run("ring", 23, 30, shards)
            digest = 0
            for r in res.shard_results:
                digest ^= r["digest"]
            c = res.obs["metrics"]["counters"]
            results[shards] = (digest, c["ring.sent"], c["ring.recv"])
        assert results[1] == results[3]
        digest, sent, recv = results[3]
        assert sent == recv > 0

    def test_process_backend_matches_local(self):
        local = _run("restart", 31, 24, 4, workers=1)
        procs = _run("restart", 31, 24, 4, workers=2)
        assert procs.obs_json == local.obs_json
        assert procs.shard_results == local.shard_results

    def test_single_shard_requires_no_lookahead(self):
        res = run_parallel(
            "repro.cluster.scenarios:fleet_storm",
            {"n_nodes": 16, "mtbf_s": 200.0}, 3,
            n_shards=1, horizon_ns=600 * NS_PER_S,
            meta={"experiment": "solo", "seed": 3},
        )
        assert res.obs["metrics"]["counters"]["fleet.failures"] > 0
        # No channels, no window cap: one window to the horizon.
        assert res.stats.windows == 1

    def test_meta_carrying_shard_identity_rejected(self):
        from repro.errors import ObservabilityError
        from repro.obs import export_obs, fold_exports

        docs = []
        for sid in range(2):
            eng = Engine(seed=1)
            eng.count("x")
            docs.append(export_obs(eng.metrics, meta={"shard": sid},
                                   now_ns=0))
        with pytest.raises(ObservabilityError, match="shard identity"):
            fold_exports(docs)
