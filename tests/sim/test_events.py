"""Unit tests for the kernel's pending events: order, cancellation,
compaction and reserved places, driven through :class:`Simulator`."""

import pytest

from repro.errors import SimulationError
from repro.sim import Simulator
from repro.sim.events import PRIORITY_HIGH, PRIORITY_LOW, PRIORITY_NORMAL, SEQ
from repro.sim.simulator import COMPACT_MIN_HEAP


def test_pop_orders_by_time():
    sim = Simulator()
    seen = []
    sim.schedule_at(3.0, seen.append, "c")
    sim.schedule_at(1.0, seen.append, "a")
    sim.schedule_at(2.0, seen.append, "b")
    while sim.step():
        pass
    assert seen == ["a", "b", "c"]


def test_same_time_orders_by_priority_then_fifo():
    sim = Simulator()
    order = []
    sim.schedule_at(1.0, order.append, "normal-1", priority=PRIORITY_NORMAL)
    sim.schedule_at(1.0, order.append, "low", priority=PRIORITY_LOW)
    sim.schedule_at(1.0, order.append, "high", priority=PRIORITY_HIGH)
    sim.schedule_at(1.0, order.append, "normal-2", priority=PRIORITY_NORMAL)
    sim.run()
    assert order == ["high", "normal-1", "normal-2", "low"]


def test_cancel_skips_event():
    sim = Simulator()
    fired = []
    event = sim.schedule_at(1.0, fired.append, "x")
    sim.cancel(event)
    assert sim.step() is False
    assert fired == []
    assert sim.pending_events() == 0


def test_len_counts_only_live_events():
    sim = Simulator()
    e1 = sim.schedule_at(1.0, lambda: None)
    sim.schedule_at(2.0, lambda: None)
    assert sim.pending_events() == 2
    sim.cancel(e1)
    assert sim.pending_events() == 1


def test_nan_time_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule_at(float("nan"), lambda: None)
    with pytest.raises(SimulationError):
        sim.schedule(float("nan"), lambda: None)


def test_cancelling_every_event_empties_queue():
    sim = Simulator()
    events = [sim.schedule_at(1.0, lambda: None),
              sim.schedule_at(2.0, lambda: None)]
    for event in events:
        sim.cancel(event)
    assert sim.pending_events() == 0
    assert sim.step() is False


# ----------------------------------------------------------------------
# Heap compaction


def test_heap_stays_bounded_under_cancel_churn():
    # Regression: lazy cancellation used to leave every cancelled entry
    # in the heap until it reached the top, so a constantly re-armed
    # far-future timer grew the heap without bound.
    sim = Simulator()
    for i in range(10_000):
        event = sim.schedule_at(1000.0 + i, lambda: None)
        sim.cancel(event)
        # One live far-future event so the heap is never trivially empty.
        if i == 0:
            sim.schedule_at(2000.0, lambda: None)
    stats = sim.queue_stats()
    assert sim.pending_events() == 1
    assert stats["heap_size"] <= 2 * (sim.pending_events() + 1) + 64
    assert stats["compactions"] > 0
    assert stats["compacted_entries"] >= 10_000 - stats["heap_size"]


def test_compaction_preserves_pop_order():
    sim = Simulator()
    fired = []
    keep = [sim.schedule_at(float(t), fired.append, t) for t in range(100)]
    cancelled = [sim.schedule_at(t + 0.5, fired.append, -t)
                 for t in range(200)]
    for event in cancelled:
        sim.cancel(event)
    assert sim.queue_stats()["compactions"] > 0
    sim.run()
    assert fired == list(range(100))
    assert len(keep) == 100  # silence unused warning


def test_no_compaction_below_min_heap_size():
    sim = Simulator()
    events = [sim.schedule_at(float(i), lambda: None) for i in range(20)]
    for event in events[:15]:
        sim.cancel(event)
    # 15 dead vs 5 live, but the heap is tiny: not worth a sweep.
    assert 20 < COMPACT_MIN_HEAP
    assert sim.queue_stats()["compactions"] == 0
    assert sim.queue_stats()["heap_size"] == 20


def test_queue_stats_counters():
    sim = Simulator()
    e1 = sim.schedule_at(1.0, lambda: None)
    sim.schedule_at(2.0, lambda: None)
    sim.cancel(e1)
    sim.step()
    stats = sim.queue_stats()
    assert stats["pushes"] == 2
    assert stats["pops"] == 1
    assert stats["cancellations"] == 1
    assert stats["peak_heap"] == 2
    assert stats["live"] == 0


# ----------------------------------------------------------------------
# Bounded draining (``run(until)`` windows)


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
        sim.run(until=base + 1.0)
    assert fired == sorted(fired)
    assert len(fired) == 8 * 50               # survivors of each window
    assert sim.queue_stats()["compactions"] >= 1  # churn actually compacted
    assert sim.pending_events() == len(far)   # parked events all intact
    sim.run()
    assert fired[8 * 50:] == [100.0 + i for i in range(10)]


# ----------------------------------------------------------------------
# Reserved places (docs/PERF.md, "One event per uncontended hop")


def test_reserved_number_is_a_place_in_the_order():
    sim = Simulator()
    order = []
    sim.schedule_at(1.0, order.append, "first")
    held = sim.reserve()                      # where "second" would be
    sim.schedule_at(1.0, order.append, "third")
    # The reserved push fills the held place ...
    late = sim.schedule_reserved(1.0, held, order.append, "second")
    # ... and only that one.
    fresh = sim.schedule_at(1.0, order.append, "fourth")
    assert late[SEQ] == held
    assert fresh[SEQ] == held + 2
    sim.run()
    assert order == ["first", "second", "third", "fourth"]


def test_reserving_consumes_the_number_an_event_would_have():
    eager, lazy = Simulator(), Simulator()
    eager.schedule_at(1.0, lambda: None)
    lazy.reserve()
    assert (eager.schedule_at(2.0, lambda: None)[SEQ]
            == lazy.schedule_at(2.0, lambda: None)[SEQ])
    assert lazy.queue_stats()["pushes"] == 1  # nothing was queued for it


def test_compaction_keeps_late_filled_places_in_order():
    sim = Simulator()
    fired = []
    held = []
    for t in range(100):
        sim.schedule_at(float(t), fired.append, (t, "a"))
        held.append(sim.reserve())
        sim.schedule_at(float(t), fired.append, (t, "c"))
    cancelled = [sim.schedule_at(t + 0.5, fired.append, None)
                 for t in range(400)]
    # Fill the places out of order, half before the sweep and half after.
    for t in range(99, -1, -2):
        sim.schedule_reserved(float(t), held[t], fired.append, (t, "b"))
    for event in cancelled:
        sim.cancel(event)
    assert sim.queue_stats()["compactions"] > 0
    for t in range(0, 100, 2):
        sim.schedule_reserved(float(t), held[t], fired.append, (t, "b"))
    sim.run()
    assert fired == [(t, tag) for t in range(100) for tag in "abc"]
