"""Unit tests for the trace bus."""

from repro.sim import Simulator
from repro.sim.trace import TraceBus, TraceCollector


def test_exact_subscription_receives_records():
    bus = TraceBus()
    seen = []
    bus.subscribe("link.drop", seen.append)
    bus.emit(1.0, "link.drop", "l0", reason="full")
    assert len(seen) == 1
    assert seen[0].detail["reason"] == "full"


def test_prefix_subscription_matches_children():
    bus = TraceBus()
    seen = []
    bus.subscribe("link", seen.append)
    bus.emit(1.0, "link.drop", "l0")
    bus.emit(2.0, "link.fail", "l1")
    bus.emit(3.0, "host.arp", "h0")
    assert [r.category for r in seen] == ["link.drop", "link.fail"]


def test_wildcard_receives_everything():
    bus = TraceBus()
    seen = []
    bus.subscribe("*", seen.append)
    bus.emit(1.0, "a.b", "x")
    bus.emit(2.0, "c", "y")
    assert len(seen) == 2


def test_unsubscribed_categories_are_cheap_and_silent():
    bus = TraceBus()
    assert not bus.wants("link.drop")
    bus.emit(1.0, "link.drop", "l0")  # no handler: no error
    bus.subscribe("link.drop", lambda r: None)
    assert bus.wants("link.drop")
    assert bus.wants("link.other")  # same top-level prefix is active


def test_unsubscribe_removes_handler():
    bus = TraceBus()
    seen = []
    bus.subscribe("x", seen.append)
    bus.unsubscribe("x", seen.append)
    bus.emit(1.0, "x", "s")
    assert seen == []
    bus.unsubscribe("x", seen.append)  # idempotent
    bus.unsubscribe("*", seen.append)  # not registered: no error


def test_unsubscribe_deactivates_prefix():
    # Regression: unsubscribe used to leave the top-level prefix marked
    # active forever, so guarded emitters kept paying to build records
    # nobody would receive.
    bus = TraceBus()
    seen = []
    bus.subscribe("verify.hop", seen.append)
    assert bus.wants("verify.hop")
    bus.unsubscribe("verify.hop", seen.append)
    assert not bus.wants("verify.hop")
    assert not bus.wants("verify.anything")


def test_unsubscribe_keeps_prefix_while_peers_remain():
    bus = TraceBus()
    first, second = [], []
    bus.subscribe("verify.hop", first.append)
    bus.subscribe("verify.miss", second.append)
    bus.unsubscribe("verify.hop", first.append)
    # Another subscriber still shares the "verify" prefix.
    assert bus.wants("verify.miss")
    bus.emit(1.0, "verify.miss", "s")
    assert len(second) == 1
    bus.unsubscribe("verify.miss", second.append)
    assert not bus.wants("verify.miss")


def test_duplicate_subscribe_unsubscribe_balances_prefix():
    bus = TraceBus()
    seen = []
    bus.subscribe("x.y", seen.append)
    bus.subscribe("x.y", seen.append)  # same handler registered twice
    bus.unsubscribe("x.y", seen.append)
    assert bus.wants("x.y")  # one registration remains
    bus.unsubscribe("x.y", seen.append)
    assert not bus.wants("x.y")


def test_hop_wanted_follows_the_subscriptions():
    # Resolved on subscribe and unsubscribe, so a frame reads a flag;
    # it answers exactly what wants("verify.hop") answers.
    bus = TraceBus()
    assert not bus.hop_wanted
    for category in ("verify.hop", "verify.miss", "verify", "*", "link"):
        seen = []
        bus.subscribe(category, seen.append)
        assert bus.hop_wanted == bus.wants("verify.hop") == (
            category != "link")
        bus.unsubscribe(category, seen.append)
        assert not bus.hop_wanted


def test_collector_close_detaches():
    sim = Simulator()
    collector = TraceCollector(sim.trace, "evt")
    sim.trace.emit(1.0, "evt", "s")
    collector.close()
    assert not sim.trace.wants("evt")
    sim.trace.emit(2.0, "evt", "s")
    assert collector.times() == [1.0]
    collector.close()  # idempotent


def test_collector_gathers_times():
    sim = Simulator()
    collector = TraceCollector(sim.trace, "evt")
    sim.trace.emit(1.0, "evt", "s")
    sim.trace.emit(2.0, "evt.sub", "s")
    assert collector.times() == [1.0, 2.0]
    assert len(collector) == 2
