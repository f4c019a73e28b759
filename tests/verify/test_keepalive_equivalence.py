"""Accounted keepalives must be unobservable.

Every LDM that crosses a healthy, data-idle link to a located neighbour
is accounted instead of sent (docs/PERF.md, "Keepalive floor"). The
reference is the same seed with a no-op handler subscribed to
``keepalive.ldm``, which turns every LDM back into a frame. Under any
schedule of ``fail`` / ``recover`` / ``fail_direction`` the two runs
must agree *exactly*: LDP trace records and their times, fabric-manager
traffic and fault matrix, installed tables, every port counter, LDM
counts, neighbour liveness stamps, and the delivery times of a UDP and
a TCP probe workload.

Fault instants are drawn both freely and relative to a beacon of the
link they hit — before it by less than one LDM serialization time,
while the LDM is on the wire (~1.7 us), while it sits in the receiving
switch's software path (50 us), and just after — because those are the
windows in which an accounted LDM is neither here nor there. Beacon
instants do not depend on faults (each switch jitters from its own
random stream), so one unfaulted reference run per seed supplies them.
"""

import functools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.host.apps import UdpStreamReceiver, UdpStreamSender
from repro.host.apps.tcp_bulk import TcpBulkSender, TcpSink
from repro.sim import Simulator, TraceCollector
from repro.topology import build_portland_fabric
from repro.topology.builder import LinkParams

#: Simulated seconds of probes and faults after registration.
WINDOW_S = 0.09
#: Offsets from a beacon instant that land in each in-flight window.
NEAR_BEACON_S = (-0.5e-6, -0.05e-6, 0.0, 0.3e-6, 1.0e-6, 1.68e-6, 5e-6,
                 30e-6, 51.6e-6, 51.7e-6, 53e-6)


def _noop(record) -> None:
    pass


def _switch_links(fabric):
    return [link for (a, b), link in sorted(fabric.links.items())
            if a in fabric.switches and b in fabric.switches]


def _run(seed: int, k: int, carrier: bool, faults, reference: bool,
         beacons: list | None = None) -> tuple:
    """One run; ``faults`` is a list of (seconds after registration,
    operation, link index, end). Returns the fabric and everything
    observable about the run."""
    sim = Simulator(seed=seed)
    if reference:
        sim.trace.subscribe("keepalive.ldm",
                            beacons.append if beacons is not None else _noop)
    ldp_records = TraceCollector(sim.trace, "ldp")
    fabric = build_portland_fabric(
        sim, k=k, link_params=LinkParams(carrier_detect=carrier))
    fabric.start()
    fabric.run_until_located()
    fabric.announce_hosts()
    fabric.run_until_registered()
    start = sim.now

    hosts = fabric.host_list()
    far = len(hosts) - 1
    receivers = []
    for i, (src, dst) in enumerate(((0, far), (1, far - 2), (far - 1, 2))):
        receivers.append(UdpStreamReceiver(hosts[dst], 7300 + i))
        UdpStreamSender(hosts[src], hosts[dst].ip, 7300 + i,
                        rate_pps=2000.0).start(first_delay=0.0003 * i)
    sink = TcpSink(hosts[far - 3], 7400)
    arrivals: list = []
    record = sink._on_receive
    sink._on_receive = lambda n, now: (arrivals.append((now, n)),
                                       record(n, now))
    TcpBulkSender(hosts[3], hosts[far - 3].ip, 7400, total_bytes=300_000)

    links = _switch_links(fabric)
    for offset, operation, index, end in faults:
        link = links[index % len(links)]
        if operation == "fail_direction":
            action = functools.partial(link.fail_direction,
                                       link.b if end else link.a)
        else:
            action = getattr(link, operation)
        sim.schedule_at(start + offset, action)
    sim.run(until=start + WINDOW_S)
    ldp_records.close()

    fm = fabric.fabric_manager
    nodes = list(fabric.switches.values()) + hosts + [fm]
    now = sim.now
    return fabric, {
        "start": start,
        "ldp": [(r.time, r.category, r.source, sorted(r.detail.items()))
                for r in ldp_records.records],
        "fm": (fm.messages_sent, fm.messages_received, fm.bytes_sent,
               sorted(sorted(pair) for pair in fm.fault_matrix)),
        "tables": {
            name: [sorted((e.name, e.priority, repr(e.match),
                           repr(e.actions), e.packets, e.bytes)
                          for e in table)
                   for table in (switch.table, switch.rewrite_table)]
            for name, switch in fabric.switches.items()},
        "counters": {
            port.name: (port.counters.tx_frames, port.counters.tx_bytes,
                        port.counters.rx_frames, port.counters.rx_bytes,
                        port.counters.drops)
            for node in nodes for port in node.ports},
        "ldms_sent": {name: agent.ldp.ldms_sent
                      for name, agent in fabric.agents.items()},
        # An accounted LDM still in flight has its stamp set ahead of
        # the clock; what counts at this instant is the one before.
        "neighbors": {
            name: sorted(
                (index, info.switch_id, info.level, info.pod, info.position,
                 info.last_heard if info.last_heard <= now
                 else info._heard_before)
                for index, info in agent.ldp.neighbors.items())
            for name, agent in fabric.agents.items()},
        "udp": [receiver.arrival_times() for receiver in receivers],
        "tcp": arrivals,
        "events": sim.events_executed,
    }


@functools.lru_cache(maxsize=None)
def _beacons(seed: int, k: int) -> tuple:
    """(seconds after registration, link index, end) of every LDM a
    switch sent to a switch inside the window, fault-free."""
    seen: list = []
    fabric, result = _run(seed, k, True, (), reference=True, beacons=seen)
    index_of = {}
    for i, link in enumerate(_switch_links(fabric)):
        index_of[link.a.node.name, link.a.index] = (i, 0)
        index_of[link.b.node.name, link.b.index] = (i, 1)
    start = result["start"]
    return tuple(
        (r.time - start, *index_of[r.source, r.detail["port"]])
        for r in seen
        if 0.0 < r.time - start < WINDOW_S - 0.03
        and (r.source, r.detail["port"]) in index_of)


def _faults(draw, seed: int, k: int) -> list:
    beacons = _beacons(seed, k)
    faults = []
    for _ in range(draw(st.integers(1, 4))):
        operation = draw(st.sampled_from(("fail", "fail_direction")))
        if draw(st.booleans()):
            at, index, end = draw(st.sampled_from(beacons))
            at += draw(st.sampled_from(NEAR_BEACON_S))
            if draw(st.booleans()):
                end = 1 - end  # hit the LDM's receiving side instead
        else:
            at = draw(st.floats(0.001, WINDOW_S - 0.03))
            index = draw(st.integers(0, 255))
            end = draw(st.integers(0, 1))
        faults.append((at, operation, index, end))
        if draw(st.booleans()):
            # Recoveries from 1 us (the LDM still on the wire) and 20 us
            # (still in the software path) to 40 ms.
            after = draw(st.sampled_from((1e-6, 20e-6, 200e-6, 3e-3, 12e-3,
                                          40e-3)))
            faults.append((min(at + after, WINDOW_S - 0.001), "recover",
                           index, end))
    return sorted(faults)


def _assert_equivalent(seed, k, carrier, faults):
    _, reference = _run(seed, k, carrier, faults, reference=True)
    _, accounted = _run(seed, k, carrier, faults, reference=False)
    # The point of the exercise, and proof that accounting was active.
    assert accounted.pop("events") < reference.pop("events")
    for section in reference:
        assert accounted[section] == reference[section], (
            f"{section} differs with keepalives accounted; seed={seed} "
            f"k={k} carrier_detect={carrier} faults={faults}")


@pytest.mark.parametrize("carrier", [True, False])
@settings(max_examples=12, deadline=None,
          suppress_health_check=list(HealthCheck))
@given(data=st.data())
def test_accounted_keepalives_are_unobservable_k4(carrier, data):
    seed = data.draw(st.sampled_from((3, 11, 29)))
    faults = _faults(data.draw, seed, 4)
    _assert_equivalent(seed, 4, carrier, faults)


@pytest.mark.parametrize("carrier", [True, False])
@pytest.mark.parametrize("fail_after, recover_after", [
    (0.3e-6, 1e-6),    # cut and healed while the LDM is on the wire
    (5e-6, 20e-6),     # ... while it is in the receiver's software path
])
def test_link_flap_inside_one_ldm_flight(carrier, fail_after, recover_after):
    """The rarest schedule, spelled out because random draws seldom hit
    it: the frame in flight survives such a flap, so the accounted one
    has to turn back into events and survive it too."""
    for at, index, end in _beacons(3, 4)[40:120:40]:
        faults = [(at + fail_after, "fail", index, end),
                  (at + fail_after + recover_after, "recover", index, end)]
        _assert_equivalent(3, 4, carrier, faults)


@pytest.mark.slow
@pytest.mark.parametrize("carrier", [True, False])
@settings(max_examples=3, deadline=None,
          suppress_health_check=list(HealthCheck))
@given(data=st.data())
def test_accounted_keepalives_are_unobservable_k8(carrier, data):
    faults = _faults(data.draw, 17, 8)
    _assert_equivalent(17, 8, carrier, faults)


def test_unfaulted_run_accounts_nearly_every_keepalive():
    """Sanity for the property the gain depends on: once the fabric is
    located, an idle healthy fabric schedules no LDM at all."""
    sim = Simulator(seed=5)
    fabric = build_portland_fabric(sim, k=4)
    fabric.start()
    fabric.run_until_located()
    fabric.announce_hosts()
    fabric.run_until_registered()
    sim.run(until=sim.now + 0.02)  # pins and pods settle
    sent = sum(agent.ldp.ldms_sent for agent in fabric.agents.values())
    events = sim.events_executed
    sim.run(until=sim.now + 0.1)
    sent = sum(agent.ldp.ldms_sent for agent in fabric.agents.values()) - sent
    # 32 switch-to-switch links, two directions, ten beacons each.
    assert sent == pytest.approx(32 * 2 * 10, rel=0.1)
    # Three events per switch per period (beacon + two checks), plus
    # the fabric's slow soft-state timers: nothing per LDM.
    assert sim.events_executed - events < 20 * 3 * 10 * 1.2
