"""Unit tests for the event queue."""

import pytest

from repro.errors import SimulationError
from repro.sim import Simulator
from repro.sim.events import (ARGS, CALLBACK, PRIORITY_HIGH, PRIORITY_LOW,
                               PRIORITY_NORMAL, SEQ, EventQueue)


def test_pop_orders_by_time():
    q = EventQueue()
    seen = []
    q.push(3.0, seen.append, ("c",))
    q.push(1.0, seen.append, ("a",))
    q.push(2.0, seen.append, ("b",))
    while (event := q.pop()) is not None:
        event[CALLBACK](*event[ARGS])
    assert seen == ["a", "b", "c"]


def test_same_time_orders_by_priority_then_fifo():
    q = EventQueue()
    order = []
    q.push(1.0, order.append, ("normal-1",), priority=PRIORITY_NORMAL)
    q.push(1.0, order.append, ("low",), priority=PRIORITY_LOW)
    q.push(1.0, order.append, ("high",), priority=PRIORITY_HIGH)
    q.push(1.0, order.append, ("normal-2",), priority=PRIORITY_NORMAL)
    while (event := q.pop()) is not None:
        event[CALLBACK](*event[ARGS])
    assert order == ["high", "normal-1", "normal-2", "low"]


def test_cancel_skips_event():
    q = EventQueue()
    fired = []
    event = q.push(1.0, fired.append, ("x",))
    q.cancel(event)
    assert q.pop() is None
    assert fired == []
    assert len(q) == 0


def test_len_counts_only_live_events():
    q = EventQueue()
    e1 = q.push(1.0, lambda: None)
    q.push(2.0, lambda: None)
    assert len(q) == 2
    q.cancel(e1)
    assert len(q) == 1


def test_peek_time_skips_cancelled():
    q = EventQueue()
    e1 = q.push(1.0, lambda: None)
    q.push(2.0, lambda: None)
    q.cancel(e1)
    assert q.peek_time() == 2.0


def test_nan_time_rejected():
    q = EventQueue()
    with pytest.raises(SimulationError):
        q.push(float("nan"), lambda: None)


def test_clear_empties_queue():
    q = EventQueue()
    q.push(1.0, lambda: None)
    q.push(2.0, lambda: None)
    q.clear()
    assert len(q) == 0
    assert q.pop() is None


# ----------------------------------------------------------------------
# Heap compaction


def test_heap_stays_bounded_under_cancel_churn():
    # Regression: lazy cancellation used to leave every cancelled entry
    # in the heap until it reached the top, so a constantly re-armed
    # far-future timer grew the heap without bound.
    q = EventQueue()
    for i in range(10_000):
        event = q.push(1000.0 + i, lambda: None)
        q.cancel(event)
        # One live far-future event so the heap is never trivially empty.
        if i == 0:
            q.push(2000.0, lambda: None)
    assert len(q) == 1
    assert q.heap_size <= 2 * (len(q) + 1) + 64
    assert q.compactions > 0
    assert q.stats()["compacted_entries"] >= 10_000 - q.heap_size


def test_compaction_preserves_pop_order():
    q = EventQueue()
    fired = []
    keep = [q.push(float(t), fired.append, (t,)) for t in range(100)]
    cancelled = [q.push(t + 0.5, fired.append, (-t,)) for t in range(200)]
    for event in cancelled:
        q.cancel(event)
    assert q.compactions > 0
    while (event := q.pop()) is not None:
        event[CALLBACK](*event[ARGS])
    assert fired == list(range(100))
    assert len(keep) == 100  # silence unused warning


def test_no_compaction_below_min_heap_size():
    q = EventQueue()
    events = [q.push(float(i), lambda: None) for i in range(20)]
    for event in events[:15]:
        q.cancel(event)
    # 15 dead vs 5 live, but the heap is tiny: not worth a sweep.
    assert q.compactions == 0
    assert q.heap_size == 20


def test_queue_stats_counters():
    q = EventQueue()
    e1 = q.push(1.0, lambda: None)
    q.push(2.0, lambda: None)
    q.cancel(e1)
    q.pop()
    stats = q.stats()
    assert stats["pushes"] == 2
    assert stats["pops"] == 1
    assert stats["cancellations"] == 1
    assert stats["peak_heap"] == 2
    assert stats["live"] == 0


# ----------------------------------------------------------------------
# Bounded draining (the sharded kernel's ``Simulator.run_before``)


def test_compaction_correct_under_bounded_drain():
    """Heap compaction must not lose or reorder events when the queue is
    drained window-by-window with live events parked beyond the bound."""
    sim = Simulator()
    fired = []
    far = [sim.schedule_at(100.0 + i, fired.append, 100.0 + i)
           for i in range(10)]
    for window in range(8):
        base = float(window)
        events = [sim.schedule_at(base + i / 1000.0, fired.append,
                                  base + i / 1000.0)
                  for i in range(200)]
        for i, event in enumerate(events):
            if i % 4 != 0:                    # cancel 3 of every 4
                sim.cancel(event)
        sim.run_before(base + 1.0)
    assert fired == sorted(fired)
    assert len(fired) == 8 * 50               # survivors of each window
    assert sim.queue_stats()["compactions"] >= 1  # churn actually compacted
    assert sim.pending_events() == len(far)   # parked events all intact
    sim.run()
    assert fired[8 * 50:] == [100.0 + i for i in range(10)]


# ----------------------------------------------------------------------
# Reserved places (docs/PERF.md, "One event per uncontended hop")


def test_reserved_number_is_a_place_in_the_order():
    q = EventQueue()
    order = []
    q.push(1.0, order.append, ("first",))
    held = q.reserve()                        # where "second" would be
    q.push(1.0, order.append, ("third",))
    q._next_seq = held                        # the next push fills it ...
    late = q.push(1.0, order.append, ("second",))
    fresh = q.push(1.0, order.append, ("fourth",))   # ... and only that one
    assert late[SEQ] == held
    assert fresh[SEQ] == held + 2
    while (event := q.pop()) is not None:
        event[CALLBACK](*event[ARGS])
    assert order == ["first", "second", "third", "fourth"]


def test_reserving_consumes_the_number_an_event_would_have():
    eager, lazy = EventQueue(), EventQueue()
    eager.push(1.0, lambda: None)
    lazy.reserve()
    assert (eager.push(2.0, lambda: None)[SEQ]
            == lazy.push(2.0, lambda: None)[SEQ])
    assert lazy.stats()["pushes"] == 1        # nothing was queued for it


def test_compaction_keeps_late_filled_places_in_order():
    q = EventQueue()
    fired = []
    held = []
    for t in range(100):
        q.push(float(t), fired.append, ((t, "a"),))
        held.append(q.reserve())
        q.push(float(t), fired.append, ((t, "c"),))
    cancelled = [q.push(t + 0.5, fired.append, (None,)) for t in range(400)]
    # Fill the places out of order, half before the sweep and half after.
    for t in range(99, -1, -2):
        q._next_seq = held[t]
        q.push(float(t), fired.append, ((t, "b"),))
    for event in cancelled:
        q.cancel(event)
    assert q.compactions > 0
    for t in range(0, 100, 2):
        q._next_seq = held[t]
        q.push(float(t), fired.append, ((t, "b"),))
    while (event := q.pop()) is not None:
        event[CALLBACK](*event[ARGS])
    assert fired == [(t, tag) for t in range(100) for tag in "abc"]
