"""Unit tests for the simulator core."""

import pytest

from repro.errors import SimulationError
from repro.sim import PeriodicTask, Simulator, Timer
from repro.sim.events import PRIORITY_HIGH, PRIORITY_NORMAL, SEQ
from repro.topology import build_portland_fabric


def test_schedule_and_run_advances_clock():
    sim = Simulator()
    times = []
    sim.schedule(1.5, lambda: times.append(sim.now))
    sim.schedule(0.5, lambda: times.append(sim.now))
    end = sim.run()
    assert times == [0.5, 1.5]
    assert end == 1.5


def test_run_until_stops_before_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "early")
    sim.schedule(5.0, fired.append, "late")
    sim.run(until=2.0)
    assert fired == ["early"]
    assert sim.now == 2.0
    sim.run(until=10.0)
    assert fired == ["early", "late"]


def test_run_until_advances_clock_even_when_queue_drains():
    sim = Simulator()
    sim.run(until=3.0)
    assert sim.now == 3.0


def test_schedule_in_past_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5, lambda: None)


def test_cancel_via_simulator():
    sim = Simulator()
    fired = []
    event = sim.schedule(1.0, fired.append, "x")
    sim.cancel(event)
    sim.cancel(event)  # idempotent
    sim.cancel(None)  # no-op
    sim.run()
    assert fired == []
    assert sim.pending_events() == 0


def test_cancelling_an_event_that_ran_changes_nothing():
    sim = Simulator()
    fired = []
    first = sim.schedule(1.0, fired.append, "a")
    sim.schedule(2.0, fired.append, "b")
    sim.run(until=1.5)
    sim.cancel(first)
    assert sim.pending_events() == 1
    assert sim.queue_stats()["cancellations"] == 0
    sim.run()
    assert fired == ["a", "b"]


def test_cancel_inside_an_event_tells_taken_from_pending():
    sim = Simulator()
    fired = []
    handles = {}

    def first():
        fired.append("first")
        sim.cancel(handles["first"])          # itself: running, a no-op
        # Ahead of this event in the order, yet still pending.
        handles["urgent"] = sim.schedule(0.0, fired.append, "urgent",
                                         priority=PRIORITY_HIGH)
        sim.cancel(handles["urgent"])

    handles["first"] = sim.schedule(1.0, first)
    sim.schedule(2.0, fired.append, "last")
    sim.run(until=1.0)
    # Scheduled at the instant a run ended in: pending, not passed.
    late = sim.schedule(0.0, fired.append, "late")
    sim.cancel(late)
    sim.run()
    assert fired == ["first", "last"]
    assert sim.queue_stats()["cancellations"] == 2
    assert sim.pending_events() == 0


def test_stop_interrupts_run():
    sim = Simulator()
    fired = []

    def first():
        fired.append("first")
        sim.stop()

    sim.schedule(1.0, first)
    sim.schedule(2.0, fired.append, "second")
    sim.run()
    assert fired == ["first"]
    # A later run picks the remaining event up.
    sim.run()
    assert fired == ["first", "second"]


def test_step_executes_single_event():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, 1)
    sim.schedule(2.0, fired.append, 2)
    assert sim.step() is True
    assert fired == [1]
    assert sim.step() is True
    assert sim.step() is False


def test_step_stops_at_max_events():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(2.0, fired.append, "b")
    sim.max_events = 1
    assert sim.step() is True
    with pytest.raises(SimulationError):
        sim.step()
    # The event over the cap stays queued, as under run().
    assert fired == ["a"]
    assert sim.events_executed == 1
    assert sim.pending_events() == 1
    sim.max_events = None
    assert sim.step() is True
    assert fired == ["a", "b"]


def test_step_inside_an_event_is_refused():
    sim = Simulator()
    fired = []
    answers = []

    def outer():
        fired.append("outer")
        with pytest.raises(SimulationError):
            sim.step()
        # Nothing nested ran: the event executing is still this one.
        answers.append(sim.has_fired(1.0, held))

    sim.schedule(1.0, outer)
    held = sim.reserve()
    sim.schedule(1.0, fired.append, "inner")
    sim.run()
    assert fired == ["outer", "inner"]
    assert answers == [False]


def test_events_scheduled_during_run_execute():
    sim = Simulator()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 3:
            sim.schedule(1.0, chain, n + 1)

    sim.schedule(0.0, chain, 0)
    sim.run()
    assert fired == [0, 1, 2, 3]
    assert sim.now == 3.0


def test_max_events_guard():
    sim = Simulator()
    sim.max_events = 10

    def loop():
        sim.schedule(0.0, loop)

    sim.schedule(0.0, loop)
    with pytest.raises(SimulationError):
        sim.run()


def test_event_over_the_cap_waits_for_the_next_run():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(2.0, fired.append, "b")
    sim.max_events = 1
    with pytest.raises(SimulationError):
        sim.run()
    assert fired == ["a"]
    assert sim.events_executed == 1
    assert sim.pending_events() == 1
    assert sim.now == 1.0
    sim.max_events = None
    sim.run()
    assert fired == ["a", "b"]
    assert sim.events_executed == 2


def test_reentrant_run_rejected():
    sim = Simulator()

    def inner():
        with pytest.raises(SimulationError):
            sim.run()

    sim.schedule(0.0, inner)
    sim.run()


# ----------------------------------------------------------------------
# Reserved places: an end of serialization that is an event only if a
# frame waits for it (docs/PERF.md, "One event per uncontended hop")


def test_event_filled_in_late_fires_where_it_would_have():
    def run(late: bool):
        sim = Simulator()
        order = []
        sim.schedule(1.0, order.append, "before")
        if late:
            held = sim.reserve()
        else:
            sim.schedule(1.0, order.append, "held")
        sim.schedule(1.0, order.append, "after")
        if late:
            # Decided at 0.5, long after the neighbours were scheduled.
            sim.schedule(0.5, sim.schedule_reserved, 1.0, held,
                         order.append, "held")
        sim.schedule(1.0, order.append, "last")
        sim.run()
        return order

    assert run(late=True) == run(late=False) == [
        "before", "held", "after", "last"]


def test_filling_a_place_that_has_passed_is_refused():
    sim = Simulator()
    held = sim.reserve()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_reserved(1.0, held, lambda: None)
    # The refusal left nothing behind for the next push to trip over.
    assert sim.schedule(1.0, lambda: None)[SEQ] == held + 2


@pytest.mark.parametrize("priority", [PRIORITY_NORMAL, PRIORITY_HIGH])
def test_has_fired_on_both_sides_of_a_tie(priority):
    sim = Simulator()
    answers = {}

    def ask(label):
        answers[label] = sim.has_fired(1.0, held)

    sim.schedule(1.0, ask, "earlier", priority=priority)
    held = sim.reserve()
    sim.schedule(1.0, ask, "later", priority=priority)
    sim.schedule(0.5, ask, "well before")
    sim.schedule(1.5, ask, "well after")
    sim.run()
    assert answers == {
        "well before": False,
        "earlier": False,
        # Scheduled after the place was taken: behind it at equal
        # priority (the sequence number decides), still ahead of it at
        # a higher one.
        "later": priority == PRIORITY_NORMAL,
        "well after": True,
    }


def test_has_fired_outside_events_follows_the_kind_of_run():
    sim = Simulator()
    sim.schedule(0.25, lambda: None)
    held = sim.reserve()
    assert not sim.has_fired(1.0, held)       # nothing has run at all
    sim.run(until=1.0)
    assert sim.now == 1.0
    assert sim.has_fired(1.0, held)           # everything at `until` has


def test_has_fired_under_step():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    held = sim.reserve()
    sim.schedule(1.0, lambda: None)
    assert sim.step()
    assert not sim.has_fired(1.0, held)       # between its neighbours
    assert sim.step()
    assert sim.has_fired(1.0, held)


def test_has_fired_after_stop_is_relative_to_the_last_event_run():
    sim = Simulator()
    sim.schedule(1.0, sim.stop)
    held = sim.reserve()
    sim.schedule(1.0, lambda: None)
    sim.run()
    assert not sim.has_fired(1.0, held)
    sim.run()
    assert sim.has_fired(1.0, held)


# ----------------------------------------------------------------------
# What a simulator subclass may rely on: every event, however it is
# made, passes through the public ``schedule`` / ``schedule_at`` once
# (the ledger's tracing simulator wraps only those two).


class _Wrapping(Simulator):
    def __init__(self, seed: int) -> None:
        super().__init__(seed=seed)
        self.wraps = 0
        self.ran = 0

    def schedule(self, delay, callback, *args, priority=PRIORITY_NORMAL):
        self.wraps += 1
        return super().schedule(delay, self._run, callback, args,
                                priority=priority)

    def schedule_at(self, time, callback, *args, priority=PRIORITY_NORMAL):
        self.wraps += 1
        return super().schedule_at(time, self._run, callback, args,
                                   priority=priority)

    def _run(self, callback, args) -> None:
        self.ran += 1
        callback(*args)


def test_a_subclass_wrapping_scheduling_sees_every_event_once():
    sim = _Wrapping(seed=5)
    fired = []
    held = sim.reserve()
    sim.schedule(0.2, lambda: None)
    sim.schedule(0.1, sim.schedule_reserved, 0.2, held, fired.append,
                 "reserved")
    timer = Timer(sim, fired.append, "timer")
    timer.start(0.1)
    timer.start(0.3)                  # later: the event re-arms itself
    timer.start(0.25)                 # earlier: cancel and push again
    task = PeriodicTask(sim, 0.1, fired.append, "tick", jitter=0.1)
    task.start()
    sim.run(until=1.0)
    task.stop()
    assert fired.count("reserved") == fired.count("timer") == 1
    assert fired.count("tick") >= 8
    fabric = build_portland_fabric(sim, k=4)
    fabric.bring_up()
    stats = sim.queue_stats()
    assert stats["cancellations"] > 0
    assert sim.wraps == stats["pushes"]
    assert sim.ran == sim.events_executed == stats["pops"]
    assert set(stats) == {"pushes", "pops", "cancellations", "compactions",
                          "compacted_entries", "peak_heap", "heap_size",
                          "live"}
