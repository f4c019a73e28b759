"""Unit tests for timers and periodic tasks."""

import pytest

from repro.sim import PeriodicTask, Simulator, Timer


def test_timer_fires_once():
    sim = Simulator()
    fired = []
    timer = Timer(sim, fired.append, "x")
    timer.start(1.0)
    assert timer.armed
    assert timer.expires_at == 1.0
    sim.run()
    assert fired == ["x"]
    assert not timer.armed


def test_timer_restart_replaces_earlier_arming():
    sim = Simulator()
    fired = []
    timer = Timer(sim, lambda: fired.append(sim.now))
    timer.start(1.0)
    timer.start(3.0)  # re-arm before expiry
    sim.run()
    assert fired == [3.0]


def test_timer_stop_prevents_firing():
    sim = Simulator()
    fired = []
    timer = Timer(sim, fired.append, "x")
    timer.start(1.0)
    timer.stop()
    sim.run()
    assert fired == []


def test_timer_can_be_rearmed_from_callback():
    sim = Simulator()
    fired = []
    timer = Timer(sim, lambda: None)

    def cb():
        fired.append(sim.now)
        if len(fired) < 3:
            timer.start(1.0)

    timer._callback = cb
    timer.start(1.0)
    sim.run()
    assert fired == [1.0, 2.0, 3.0]


def test_timer_rearm_later_reuses_pending_event():
    # The slotted re-arm path: pushing the deadline out must not push a
    # fresh heap entry per call (the TCP-retransmit-on-every-ACK pattern).
    sim = Simulator()
    fired = []
    timer = Timer(sim, lambda: fired.append(sim.now))
    timer.start(1.0)
    pushes_before = sim.queue_stats()["pushes"]
    for _ in range(500):
        timer.start(1.0)  # same deadline: reuse
    timer.start(5.0)  # later deadline: still reuse
    assert sim.queue_stats()["pushes"] == pushes_before
    assert timer.expires_at == 5.0
    sim.run()
    # One deferral hop (the old t=1.0 entry sliding to t=5.0) is allowed.
    assert fired == [5.0]


def test_timer_rearm_earlier_fires_early():
    sim = Simulator()
    fired = []
    timer = Timer(sim, lambda: fired.append(sim.now))
    timer.start(3.0)
    timer.start(1.0)  # earlier: must cancel + re-push
    assert timer.expires_at == 1.0
    sim.run()
    assert fired == [1.0]


def test_timer_stop_during_deferral_window():
    sim = Simulator()
    fired = []
    timer = Timer(sim, lambda: fired.append(sim.now))
    timer.start(1.0)
    timer.start(4.0)  # deadline slides out; heap entry still at t=1.0
    sim.run(until=2.0)  # the stale entry pops and defers itself
    assert timer.armed and timer.expires_at == 4.0
    timer.stop()
    sim.run()
    assert fired == []
    assert not timer.armed


def test_timer_heap_bounded_under_repeated_rearm():
    # Regression for the unbounded-heap bug: a timer re-armed on every
    # "ACK" must keep O(1) heap entries, not one cancelled entry per ACK.
    sim = Simulator()
    timer = Timer(sim, lambda: None)
    rearms = 5000

    def ack(n: int) -> None:
        timer.start(10.0)  # watchdog far beyond the next ack
        if n:
            sim.schedule(0.001, ack, n - 1)

    ack(rearms)
    sim.run(until=rearms * 0.001 + 0.5)
    heap = sim.queue_stats()["heap_size"]
    assert heap <= 70, f"heap grew to {heap} entries under timer re-arm"


def test_periodic_task_fires_at_period():
    sim = Simulator()
    ticks = []
    task = PeriodicTask(sim, 0.5, lambda: ticks.append(sim.now))
    task.start()
    sim.run(until=2.2)
    assert ticks == [0.5, 1.0, 1.5, 2.0]


def test_periodic_task_stop_and_restart():
    sim = Simulator()
    ticks = []
    task = PeriodicTask(sim, 1.0, lambda: ticks.append(sim.now))
    task.start(0.0)
    sim.run(until=2.5)
    task.stop()
    sim.run(until=5.0)
    count_after_stop = len(ticks)
    task.start()
    sim.run(until=7.5)
    assert len(ticks) > count_after_stop


def test_periodic_task_jitter_stays_in_bounds():
    sim = Simulator(seed=42)
    ticks = []
    task = PeriodicTask(sim, 1.0, lambda: ticks.append(sim.now), jitter=0.2)
    task.start(0.0)
    sim.run(until=50.0)
    gaps = [b - a for a, b in zip(ticks, ticks[1:])]
    assert gaps, "task never ticked"
    assert all(0.8 <= g <= 1.2 for g in gaps)
    assert len(set(round(g, 9) for g in gaps)) > 1, "jitter had no effect"


def test_periodic_task_rejects_bad_params():
    sim = Simulator()
    with pytest.raises(ValueError):
        PeriodicTask(sim, 0.0, lambda: None)
    with pytest.raises(ValueError):
        PeriodicTask(sim, 1.0, lambda: None, jitter=1.5)


def test_periodic_start_is_idempotent():
    sim = Simulator()
    ticks = []
    task = PeriodicTask(sim, 1.0, lambda: ticks.append(sim.now))
    task.start(0.5)
    task.start(0.1)  # ignored: already running
    sim.run(until=1.4)
    assert ticks == [0.5]


def test_timer_slotted_rearm_across_run_before_windows():
    """The slotted re-arm optimisation (a deferred heap entry sliding to
    a later deadline) must behave identically when time advances via
    bounded ``run(until)`` windows instead of one ``run``."""
    def scenario(windowed: bool) -> tuple[list[float], float]:
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(0.5)
        # Push the deadline out repeatedly: each re-arm keeps the old
        # heap entry, which must defer itself across window boundaries.
        for i in range(1, 6):
            sim.schedule(i * 0.3, timer.start, 0.5)
        if windowed:
            bound = 0.0
            while bound < 3.0:
                bound += 0.25                 # boundaries hit deferrals
                sim.run(until=bound)
            sim.run(until=3.0)
        else:
            sim.run(until=3.0)
        return fired, sim.now

    assert scenario(windowed=True) == scenario(windowed=False)
    fired, now = scenario(windowed=True)
    assert fired == [pytest.approx(2.0)]      # last re-arm at 1.5 + 0.5
    assert now == 3.0
