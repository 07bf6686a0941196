"""Tests for the hybrid timer-wheel scheduler.

The engine overhaul replaced the single-``heapq`` schedule with a
two-level timer wheel, a far heap, slab-pooled events and
threshold-triggered compaction.  These tests pin the properties the
rewrite must preserve:

* exact ``(time_ns, seq)`` order across every storage tier (current
  slot, side heap, both wheel levels, far heap), including events that
  hop tiers as the clock advances;
* bounded memory under schedule/cancel churn (cancelled events used to
  sit in the heap until their scheduled time);
* the ``run()`` clock edge cases around ``until_ns``, ``until`` and
  ``max_events``.
"""

from __future__ import annotations

import heapq
import itertools

import pytest

from repro.errors import SimulationError
from repro.simkernel.costs import NS_PER_MS, NS_PER_S
from repro.simkernel.engine import _COMPACT_MIN_CANCELLED, _L0_BITS, _L1_BITS, Engine


# ----------------------------------------------------------------------
# Ordering across storage tiers
# ----------------------------------------------------------------------
def test_order_spans_wheel_levels_and_far_heap():
    """Events in the current slot, level-0, level-1 and the far heap
    must interleave in exact global (time, seq) order."""
    eng = Engine()
    fired = []
    slot = 1 << _L0_BITS
    times = [
        0,  # current slot
        7,  # current slot, same tick region
        3 * slot + 1,  # level 0
        200 * slot,  # level 0, far end of the window
        300 * slot,  # level 1
        (1 << _L1_BITS) * 200,  # level 1, far end
        20 * NS_PER_S,  # far heap (beyond the ~8.6 s horizon)
        25 * NS_PER_S,  # far heap
    ]
    # Schedule in shuffled order so seq does not accidentally sort.
    order = [5, 0, 7, 2, 4, 6, 1, 3]
    for i in order:
        eng.at_anon(times[i], lambda i=i: fired.append(i))
    eng.run()
    assert fired == sorted(range(len(times)), key=lambda i: times[i])
    assert eng.now_ns == max(times)


def test_far_events_cascade_into_wheel():
    """An event hours out must still fire, and in order with nearer ones."""
    eng = Engine()
    fired = []
    eng.after_anon(3600 * NS_PER_S, lambda: fired.append("far"))
    eng.after_anon(NS_PER_MS, lambda: fired.append("near"))
    eng.run()
    assert fired == ["near", "far"]
    assert eng.now_ns == 3600 * NS_PER_S


def test_zero_delay_events_scheduled_during_run_fire_in_seq_order():
    """0-delay chains (the dispatch pattern) land in the side heap and
    must still respect seq order against slot entries."""
    eng = Engine()
    fired = []

    def first():
        fired.append("first")
        eng.after_anon(0, lambda: fired.append("child"))

    eng.after_anon(0, first)
    eng.after_anon(0, lambda: fired.append("second"))
    eng.run()
    assert fired == ["first", "second", "child"]


def test_randomized_differential_vs_reference_heap():
    """Drive the engine and a plain sorted-reference schedule with the
    same randomized workload (schedules from inside callbacks, varied
    horizons spanning slot/level/far boundaries) and require the exact
    same firing order."""
    eng = Engine(seed=7)
    rng = eng.spawn_rng()
    fired = []
    reference = []
    counter = itertools.count()
    ref_heap = []

    delays = rng.integers(0, 12 * NS_PER_S, size=400).tolist()
    # Mix in boundary-hugging delays the uniform draw would miss.
    delays += [0, 1, (1 << _L0_BITS) - 1, 1 << _L0_BITS, (1 << _L0_BITS) + 1,
               (1 << _L1_BITS) - 1, 1 << _L1_BITS, 256 << _L0_BITS,
               (256 << _L1_BITS) + 5]
    chain = iter(delays)

    def fire(tag):
        fired.append((eng.now_ns, tag))
        # Every callback schedules up to two more events.
        for _ in range(2):
            d = next(chain, None)
            if d is not None:
                schedule(int(d))

    def schedule(delay):
        tag = next(counter)
        eng.after_anon(delay, lambda tag=tag: fire(tag))
        heapq.heappush(ref_heap, (eng.now_ns + delay, tag))

    for _ in range(8):
        schedule(int(next(chain)))
    eng.run()
    while ref_heap:
        reference.append(heapq.heappop(ref_heap))
    assert fired == reference


def test_labelled_and_anonymous_events_interleave_deterministically():
    eng = Engine()
    fired = []
    eng.at(100, lambda: fired.append("a"), label="x")
    eng.at_anon(100, lambda: fired.append("b"))
    eng.at(100, lambda: fired.append("c"))
    eng.run()
    assert fired == ["a", "b", "c"]


# ----------------------------------------------------------------------
# Cancelled-event retention / compaction
# ----------------------------------------------------------------------
def test_schedule_cancel_churn_keeps_storage_bounded():
    """Regression for the seed behaviour where cancelled events stayed
    in the heap until their scheduled time: 100k schedule/cancel cycles
    against a far-future horizon must not accumulate 100k entries."""
    eng = Engine()
    keep = eng.at(3600 * NS_PER_S, lambda: None, label="keeper")
    for i in range(100_000):
        ev = eng.after(1800 * NS_PER_S + i, lambda: None)
        ev.cancel()
    assert eng.pending() == 1
    # Compaction kicked in: storage is bounded by the trigger threshold,
    # nowhere near the 100k cancelled timers.
    assert eng.stored_events() <= 2 * _COMPACT_MIN_CANCELLED
    assert eng.metrics.counter("engine.compactions").value > 0
    assert not keep.cancelled
    eng.run()
    assert eng.now_ns == 3600 * NS_PER_S


def test_compaction_preserves_order_and_live_events():
    eng = Engine()
    fired = []
    for i in range(2000):
        ev = eng.after(NS_PER_MS + i * 1000, lambda i=i: fired.append(i))
        if i % 2:
            ev.cancel()
    assert eng.metrics.counter("engine.compactions").value == 0
    for i in range(2000, 4000):
        ev = eng.after(NS_PER_MS + i * 1000, lambda i=i: fired.append(i))
        ev.cancel()
    assert eng.metrics.counter("engine.compactions").value > 0
    eng.run()
    assert fired == [i for i in range(2000) if not i % 2]


def test_compaction_triggered_from_within_callback():
    """Cancelling en masse from inside a running callback compacts the
    schedule mid-drain; the remaining events must still fire in order."""
    eng = Engine()
    fired = []
    victims = [
        eng.after(5 * NS_PER_MS + i, lambda: fired.append("victim"))
        for i in range(2 * _COMPACT_MIN_CANCELLED)
    ]

    def massacre():
        fired.append("massacre")
        for v in victims:
            v.cancel()

    eng.after_anon(NS_PER_MS, massacre)
    eng.after_anon(NS_PER_MS, lambda: fired.append("same-slot-survivor"))
    eng.after_anon(10 * NS_PER_MS, lambda: fired.append("later-survivor"))
    eng.run()
    assert fired == ["massacre", "same-slot-survivor", "later-survivor"]
    assert eng.metrics.counter("engine.compactions").value >= 1
    assert eng.pending() == 0


def test_pooled_events_are_recycled():
    eng = Engine()
    fired = []
    ev1 = eng.after(10, lambda: fired.append(1), pooled=True)
    eng.run()
    ev2 = eng.after(10, lambda: fired.append(2), pooled=True)
    assert ev2 is ev1  # slab reuse
    eng.run()
    assert fired == [1, 2]


def test_unpooled_events_are_not_recycled():
    eng = Engine()
    ev1 = eng.after(10, lambda: None)
    eng.run()
    ev2 = eng.after(10, lambda: None)
    assert ev2 is not ev1


# ----------------------------------------------------------------------
# run() clock edge cases
# ----------------------------------------------------------------------
def test_until_ns_landing_exactly_on_event_time_fires_it():
    eng = Engine()
    fired = []
    eng.at_anon(100, lambda: fired.append("on-bound"))
    eng.at_anon(101, lambda: fired.append("past-bound"))
    n = eng.run(until_ns=100)
    assert fired == ["on-bound"]
    assert n == 1
    assert eng.now_ns == 100
    # The later event is intact and fires on the next run.
    assert eng.run() == 1
    assert fired == ["on-bound", "past-bound"]
    assert eng.now_ns == 101


def test_until_ns_between_events_leaves_clock_at_bound():
    eng = Engine()
    eng.at_anon(10, lambda: None)
    eng.at_anon(10_000_000, lambda: None)
    eng.run(until_ns=5000)
    assert eng.now_ns == 5000
    assert eng.pending() == 1
    eng.run(until_ns=5000)  # idempotent: nothing due, clock stays
    assert eng.now_ns == 5000
    eng.run()
    assert eng.now_ns == 10_000_000


def test_until_predicate_stops_mid_batch_of_simultaneous_events():
    """The predicate is evaluated after every event, including between
    events scheduled at the same time."""
    eng = Engine()
    fired = []
    for i in range(5):
        eng.at_anon(50, lambda i=i: fired.append(i))
    n = eng.run(until=lambda: len(fired) == 2)
    assert fired == [0, 1]
    assert n == 2
    assert eng.pending() == 3
    eng.run()
    assert fired == [0, 1, 2, 3, 4]


def test_max_events_does_not_count_cancelled_skips():
    """Skipped cancelled entries are reaped for free: max_events bounds
    *processed* events only."""
    eng = Engine()
    fired = []
    for i in range(4):
        ev = eng.at(10 + i, lambda i=i: fired.append(i))
        if i < 2:
            ev.cancel()
    n = eng.run(max_events=2)
    assert n == 2
    assert fired == [2, 3]  # both cancelled entries skipped "for free"


def test_max_events_zero_processes_nothing():
    eng = Engine()
    eng.at_anon(10, lambda: None)
    assert eng.run(max_events=0) == 0
    assert eng.pending() == 1
    assert eng.now_ns == 0


def test_run_with_horizon_before_any_event_only_advances_clock():
    eng = Engine()
    fired = []
    eng.at_anon(NS_PER_S, lambda: fired.append(1))
    n = eng.run(until_ns=NS_PER_MS)
    assert n == 0
    assert fired == []
    assert eng.now_ns == NS_PER_MS


def test_run_on_empty_schedule_clamps_clock_to_until_ns():
    eng = Engine()
    assert eng.run(until_ns=123456) == 0
    assert eng.now_ns == 123456
    # A later, smaller horizon must not move the clock backwards.
    assert eng.run(until_ns=5) == 0
    assert eng.now_ns == 123456


def test_events_iterator_reports_live_labelled_events():
    eng = Engine()
    a = eng.at(10, lambda: None, label="a")
    eng.at_anon(20, lambda: None)
    b = eng.at(30, lambda: None, label="b")
    b.cancel()
    live = list(eng.events())
    assert live == [a]
    eng.run()
    assert list(eng.events()) == []


def test_anon_past_schedule_rejected():
    eng = Engine()
    eng.at_anon(100, lambda: None)
    eng.run()
    with pytest.raises(SimulationError):
        eng.at_anon(50, lambda: None)
    with pytest.raises(SimulationError):
        eng.after_anon(-1, lambda: None)


def test_stored_events_matches_entry_count_under_churn():
    eng = Engine(seed=3)
    rng = eng.spawn_rng()
    handles = []
    for _ in range(500):
        handles.append(eng.after(int(rng.integers(0, 10 * NS_PER_S)),
                                 lambda: None))
    for h in handles[::3]:
        h.cancel()
    assert eng.stored_events() == len(list(eng._entries()))
    eng.run(until_ns=5 * NS_PER_S)
    assert eng.stored_events() == len(list(eng._entries()))
    eng.run()
    assert eng.stored_events() == 0


# ----------------------------------------------------------------------
# claim(): running the next step inline
# ----------------------------------------------------------------------
def _claim_at(eng, t, at=0, **run_kw):
    """From a callback at ``at``, try to claim ``t``; returns the answer
    and the clock right after the attempt."""
    got = []

    def cb():
        got.append((eng.claim(t), eng.now_ns))

    eng.at_anon(at, cb)
    eng.run(**run_kw)
    return got[0]


def test_claim_granted_advances_clock_when_nothing_else_is_due():
    eng = Engine()
    eng.at_anon(5 * NS_PER_MS, lambda: None)
    assert _claim_at(eng, 3 * NS_PER_MS) == (True, 3 * NS_PER_MS)


def test_claim_refused_by_earlier_seq_entry_at_same_time():
    eng = Engine()
    eng.at_anon(100, lambda: None)
    assert _claim_at(eng, 100) == (False, 0)
    eng = Engine()
    eng.at_anon(100, lambda: None)
    assert _claim_at(eng, 99) == (True, 99)


def test_claim_refused_by_side_heap_entry():
    eng = Engine()
    got = []

    def cb():
        eng.after_anon(50, lambda: None)  # same slot: lands in the side heap
        got.append(eng.claim(60))
        got.append(eng.claim(40))

    eng.at_anon(0, cb)
    eng.run()
    assert got == [False, True]


def test_claim_refused_by_next_level0_slot():
    """An occupied level-0 slot up to the target refuses the claim, even
    when its entry is later than the target (the check is per slot)."""
    slot = 1 << _L0_BITS
    for target, ok in ((3 * slot + 10, False), (3 * slot, False), (3 * slot - 1, True)):
        eng = Engine()
        eng.at_anon(3 * slot + 50, lambda: None)
        assert _claim_at(eng, target)[0] is ok


def test_claim_refused_across_level1_bucket():
    eng = Engine()
    assert _claim_at(eng, 1 << _L1_BITS) == (False, 0)
    eng = Engine()
    assert _claim_at(eng, (1 << _L1_BITS) - 1) == (True, (1 << _L1_BITS) - 1)


def test_claim_refused_past_far_heap_head():
    eng = Engine()
    eng.at_anon(20 * NS_PER_S, lambda: None)
    assert _claim_at(eng, 21 * NS_PER_S) == (False, 0)


def test_claim_refused_beyond_horizon():
    eng = Engine()
    assert _claim_at(eng, 1001, until_ns=1000) == (False, 0)
    eng = Engine()
    assert _claim_at(eng, 1000, until_ns=1000) == (True, 1000)


def test_claim_refused_after_stop():
    eng = Engine()
    got = []

    def cb():
        eng.stop()
        got.append(eng.claim(10))

    eng.at_anon(0, cb)
    eng.run()
    assert got == [False]


def test_claim_refused_with_max_events():
    eng = Engine()
    assert _claim_at(eng, 10, max_events=100) == (False, 0)


def test_claim_refused_outside_run():
    eng = Engine()
    assert eng.claim(10) is False
    eng.run()
    assert eng.claim(10) is False


def test_claim_refused_by_cancelled_head():
    """A cancelled entry still stored before the target refuses the
    claim (conservatively: the engine does not look inside entries)."""
    eng = Engine()
    got = []

    def cb():
        eng.after(50, lambda: None, label="dead").cancel()
        got.append(eng.claim(60))

    eng.at_anon(0, cb)
    eng.run()
    assert got == [False]


def test_claim_evaluates_until_once_per_logical_event():
    """The run's predicate is asked at every claim (after the event the
    claim ends) and, once true, not asked again by run()."""
    eng = Engine()
    calls = []
    limit = [3]

    def until():
        calls.append(eng.now_ns)
        return len(calls) >= limit[0]

    got = []

    def cb():
        for t in (10, 20, 30, 40):
            ok = eng.claim(t)
            got.append(ok)
            if not ok:
                eng.at_anon(t, lambda: None)
                return

    eng.at_anon(0, cb)
    assert eng.run(until=until) == 3  # the callback plus two claims
    assert got == [True, True, False]
    assert calls == [0, 10, 20]
    assert eng.pending() == 1


def test_claims_count_as_events_and_leave_pending_unchanged():
    eng = Engine()
    eng.at_anon(NS_PER_MS, lambda: None)
    got = []

    def cb():
        got.extend(eng.claim(t) for t in (10, 20, 30))

    eng.at_anon(0, cb)
    before = eng.pending()
    assert eng.run(until_ns=100) == 4
    assert got == [True, True, True]
    assert eng.pending() == before - 1
    assert eng.metrics.counter("engine.events").value == 4
    assert eng.run() == 1
    assert eng.metrics.counter("engine.events").value == 5


def test_nested_run_restores_outer_bounds():
    eng = Engine()
    got = []

    def inner():
        got.append(("inner", eng.claim(eng.now_ns + 1)))  # max_events set

    def outer():
        eng.at_anon(5, inner)
        assert eng.run(max_events=1) == 1
        got.append(("past horizon", eng.claim(2000)))
        got.append(("outer", eng.claim(500)))

    eng.at_anon(0, outer)
    assert eng.run(until_ns=1000) == 2  # outer callback + its claim
    assert got == [("inner", False), ("past horizon", False), ("outer", True)]
    assert eng.metrics.counter("engine.events").value == 3
    assert eng.claim(1000) is False  # no run active any more
