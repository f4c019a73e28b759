"""Events the link leaves out, and decisions the switch does not
re-derive, must be unobservable.

Two kinds of event are left out, and each has a reference run that puts
them back (docs/PERF.md, "Keepalive floor" and "One event per
uncontended hop"):

* every LDM that crosses a healthy, data-idle link to a located
  neighbour is streamed instead of sent. Reference ``"frames"``: the
  same seed with a no-op handler subscribed to ``keepalive.ldm``, which
  turns every LDM back into a frame;
* the end of a frame's serialization is an event only if another frame
  has to wait for it. Reference ``"eager"``: a patch, living here and
  nowhere under ``src/``, that turns every one into its event the moment
  the frame starts, through the method ``Link.transmit`` itself uses —
  the event sequence of the code before the rule existed.

A third reference, ``"interpreted"``, leaves no event out: a patch,
living here, that makes ``FlowTable.decide`` memoise nothing, so every
switch walks its table and compiles its plan for every frame instead of
executing a memoised one (docs/PERF.md, "The hop as a plan") — the same
events, and everything below must still agree.

Under any schedule of ``fail`` / ``recover`` / ``fail_direction``, and
of disabling and re-enabling one end's port, the run and its reference
must agree *exactly*: LDP trace records and their times, every
``verify.hop`` record and its time, fabric-manager traffic
and fault matrix, installed tables, every port counter and per-class
link counter, LDM counts, neighbour liveness stamps, and the delivery
times of UDP, strict-priority UDP and TCP probe workloads — with
strictly fewer events executed.

Fault instants are drawn both freely and relative to a beacon of the
link they hit — before it by less than one LDM serialization time,
while the LDM is on the wire (~1.7 us), while it sits in the receiving
switch's software path (50 us), and just after — because those are the
windows in which a streamed LDM is neither here nor there. They are
also drawn at exactly the instant an LDM reaches the far port or the
far switch's software, as absolute times: there only the kernel's event
order tells the cut from the arrival. Beacon
instants do not depend on faults (each switch jitters from its own
random stream), so one unfaulted reference run per seed supplies them.
The same run supplies the instants at which data frames start on
switch-to-switch links; faults are also drawn around such a frame's
start, its end of serialization (where the left-out event would be) and
its delivery.
"""

import collections
import contextlib
import functools
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.host.apps import UdpStreamReceiver, UdpStreamSender
from repro.host.apps.tcp_bulk import TcpBulkSender, TcpSink
from repro.net.ethernet import ETHERTYPE_LDP
from repro.net.link import BeaconLog, Link
from repro.net.packet import AppData
from repro.policy.classes import DSCP_EF
from repro.portland.config import PortlandConfig
from repro.portland.ldp import LdpProcess
from repro.portland.messages import LocationDiscoveryMessage
from repro.sim import Simulator, TraceCollector
from repro.switching.flow_table import FlowTable, compile_plan, decision_key
from repro.topology import build_portland_fabric
from repro.topology.builder import LinkParams

#: Simulated seconds of probes and faults after registration.
WINDOW_S = 0.09
#: Offsets from a beacon instant that land in each in-flight window.
NEAR_BEACON_S = (-0.5e-6, -0.05e-6, 0.0, 0.3e-6, 1.0e-6, 1.68e-6, 5e-6,
                 30e-6, 51.6e-6, 51.7e-6, 53e-6)
#: TCP probe flows: (sending host, receiving host counted from the far
#: end of the host list), each of ``TCP_BYTES``.
TCP_PAIRS = ((3, 3), (4, 3), (5, 4), (6, 4), (7, 3))
TCP_BYTES = 150_000
#: Offsets around an instant in a data frame's life on a link.
NEAR_FRAME_S = (-0.05e-6, 0.0, 0.05e-6)


def _noop(record) -> None:
    pass


class _Exact(float):
    """A fault instant that is absolute, not seconds after registration."""


def _switch_links(fabric):
    return [link for (a, b), link in sorted(fabric.links.items())
            if a in fabric.switches and b in fabric.switches]


@contextlib.contextmanager
def _after_every_start(hook):
    """Call ``hook(link, src_port, direction, frame)`` each time a link
    has put a frame on the wire: in ``transmit``, when it found the wire
    free (it leaves nothing waiting then), or in ``_start_transmission``,
    when it took the frame off the queue."""
    transmit, start = Link.transmit, Link._start_transmission

    def hooked_transmit(self, src_port, frame):
        sent = transmit(self, src_port, frame)
        if sent and not src_port._tx.transmitting:
            hook(self, src_port, src_port._tx, frame)
        return sent

    def hooked_start(self, src_port, direction, frame):
        start(self, src_port, direction, frame)
        hook(self, src_port, direction, frame)

    Link.transmit, Link._start_transmission = hooked_transmit, hooked_start
    try:
        yield
    finally:
        Link.transmit, Link._start_transmission = transmit, start


def _compiled_per_frame(table, frame, in_port, ports):
    """The ``"interpreted"`` reference: ``FlowTable.decide`` as a table
    that memoises nothing runs it — the walk and its plan, every frame."""
    entry = table.lookup(frame, in_port)
    return (None if entry is None
            else compile_plan(entry, decision_key(frame)[3], ports))


def _end_of_serialization_now(link, src_port, direction, frame) -> None:
    """The ``"eager"`` reference: what ``transmit`` does for the first
    frame that has to wait, done for every frame as it starts."""
    if not direction.transmitting:
        link._await_wire(src_port, direction)


def _record_tcp(arrivals: list, sink: int, record, nbytes: int,
                now: float) -> None:
    arrivals.append((now, sink, nbytes))
    record(nbytes, now)


def _priority_stream(host, dst_ip, port: int, count: int,
                     interval_s: float) -> None:
    """Expedited-forwarding datagrams: they take the strict-priority
    queues wherever they meet bulk traffic at an egress."""
    socket = host.udp_socket()

    def send(n: int) -> None:
        socket.sendto(dst_ip, port, AppData(200, seq=n, sent_at=host.sim.now),
                      dscp=DSCP_EF)
        if n + 1 < count:
            host.sim.schedule(interval_s, send, n + 1)

    host.sim.schedule(0.0002, send, 0)


def _run(seed: int, k: int, carrier: bool, faults, reference: str | None,
         landmarks: dict | None = None,
         config: PortlandConfig | None = None,
         read_every_s: float | None = None) -> tuple:
    """One run; ``faults`` is a list of (seconds after registration, or
    an :class:`_Exact` instant, operation, link index, end).
    ``reference`` is ``None`` for the code as it is, or the kind of
    left-out work to put back: ``"frames"``, ``"eager"`` or
    ``"interpreted"``. Returns the fabric and everything observable
    about the run; ``landmarks``, if given, collects the run's beacons,
    data-frame starts and LDM arrivals. With ``read_every_s``, every
    port's counters and every neighbour's stamp are read that often
    between events."""
    sim = Simulator(seed=seed)
    beacons = landmarks["beacons"] if landmarks is not None else None
    if reference == "frames":
        sim.trace.subscribe("keepalive.ldm",
                            beacons.append if beacons is not None else _noop)
    ldp_records = TraceCollector(sim.trace, "ldp")
    hop_records = TraceCollector(sim.trace, "verify.hop")
    fabric = build_portland_fabric(
        sim, k=k, config=config,
        link_params=LinkParams(carrier_detect=carrier))
    with contextlib.ExitStack() as patches:
        if reference == "interpreted":
            patches.enter_context(
                mock.patch.object(FlowTable, "decide", _compiled_per_frame))
        if reference == "eager":
            patches.enter_context(
                _after_every_start(_end_of_serialization_now))
        if landmarks is not None:
            def note_data_start(link, port, direction, frame) -> None:
                if frame.ethertype != ETHERTYPE_LDP:
                    landmarks["starts"].append(
                        (sim.now, port, direction.busy_until - sim.now,
                         link.delay_s))
                else:  # delivered at, as Link._start_transmission has it
                    landmarks["arrivals"].append(
                        (sim.now + (link.serialization_time(frame, port)
                                    + link.delay_s), port))

            patches.enter_context(_after_every_start(note_data_start))
        return fabric, _observe(sim, fabric, faults, ldp_records,
                                hop_records, read_every_s)


def _read_everything(fabric) -> None:
    for node in (list(fabric.switches.values()) + fabric.host_list()
                 + [fabric.fabric_manager]):
        for port in node.ports:
            port.counters
    for agent in fabric.agents.values():
        for info in agent.ldp.neighbors.values():
            info.last_heard


def _observe(sim, fabric, faults, ldp_records, hop_records,
             read_every_s=None) -> dict:
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
    # Bulk TCP flows that converge, pairwise and all together: equal
    # segments on equal-rate links are what makes frames arrive at an
    # egress at the very instant it frees.
    arrivals: list = []
    for dst in sorted({dst for _src, dst in TCP_PAIRS}):
        sink = TcpSink(hosts[far - dst], 7400)
        sink._on_receive = functools.partial(_record_tcp, arrivals, dst,
                                             sink._on_receive)
    for src, dst in TCP_PAIRS:
        TcpBulkSender(hosts[src], hosts[far - dst].ip, 7400,
                      total_bytes=TCP_BYTES)
    # Priority datagrams from the bulk sender's rack to the bulk sink:
    # the two classes meet at the sink's edge-switch egress at the least.
    receivers.append(UdpStreamReceiver(hosts[far - 3], 7500))
    _priority_stream(hosts[2], hosts[far - 3].ip, 7500, count=400,
                     interval_s=0.0002)
    engine = fabric.flow_engine
    if engine is not None:
        # Hybrid: fluid load under the probes stretches their frames'
        # serialization, and changes while frames are on the wire.
        for src, dst, demand in ((2, far - 3, 500e6), (0, far, 300e6),
                                 (far - 1, 2, 700e6)):
            engine.start_flow(hosts[src], hosts[dst].ip, demand_bps=demand)

    links = _switch_links(fabric)
    for offset, operation, index, end in faults:
        link = links[index % len(links)]
        port = link.b if end else link.a
        if operation == "fail_direction":
            action = functools.partial(link.fail_direction, port)
        elif operation in ("disable", "enable"):
            action = functools.partial(setattr, port, "enabled",
                                       operation == "enable")
        else:
            action = getattr(link, operation)
        sim.schedule_at(
            offset if isinstance(offset, _Exact) else start + offset, action)
    if read_every_s is not None:
        while sim.now < start + WINDOW_S:
            sim.run(until=min(sim.now + read_every_s, start + WINDOW_S))
            _read_everything(fabric)
    sim.run(until=start + WINDOW_S)
    ldp_records.close()
    hop_records.close()
    if engine is not None:
        engine.settle_now()

    fm = fabric.fabric_manager
    nodes = list(fabric.switches.values()) + hosts + [fm]
    now = sim.now
    return {
        "start": start,
        "ldp": [(r.time, r.category, r.source, sorted(r.detail.items()))
                for r in ldp_records.records],
        "hops": [(r.time, r.source, r.detail["entry"], r.detail["in_port"],
                  r.detail["dst"], r.detail["ethertype"],
                  r.detail["payload"].wire_length())
                 for r in hop_records.records],
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
        "class counters": {
            port.name: (port.link.class_tx_bytes(port),
                        port.link.class_drops(port))
            for node in nodes for port in node.ports
            if port.link is not None},
        "ldms_sent": {name: agent.ldp.ldms_sent
                      for name, agent in fabric.agents.items()},
        # A streamed LDM still in flight has its stamp set ahead of
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
        "flows": ([(flow.name, flow.transferred_bytes, flow.rate_log)
                   for flow in engine.flows] if engine is not None else []),
        "events": sim.events_executed,
    }


@functools.lru_cache(maxsize=None)
def _landmarks(seed: int, k: int) -> tuple:
    """From one fault-free run: (seconds after registration, link
    index, end) of every LDM a switch sent to a switch inside the
    window; (seconds after registration, link index, end,
    serialization time, propagation delay) of every data frame a switch
    started toward a switch; and (seconds after registration, the
    :class:`_Exact` instant, link index, end) of every such LDM's
    arrival at the far port and at the far switch's software."""
    seen: dict = {"beacons": [], "starts": [], "arrivals": []}
    fabric, result = _run(seed, k, True, (), reference="frames",
                          landmarks=seen)
    index_of = {}
    for i, link in enumerate(_switch_links(fabric)):
        index_of[link.a.node.name, link.a.index] = (i, 0)
        index_of[link.b.node.name, link.b.index] = (i, 1)
    start = result["start"]

    def in_window(at: float) -> bool:
        return 0.0 < at - start < WINDOW_S - 0.03

    beacons = tuple(
        (r.time - start, *index_of[r.source, r.detail["port"]])
        for r in seen["beacons"]
        if in_window(r.time) and (r.source, r.detail["port"]) in index_of)
    starts = tuple(
        (at - start, *index_of[port.node.name, port.index], duration, delay)
        for at, port, duration, delay in seen["starts"]
        if in_window(at) and (port.node.name, port.index) in index_of)
    arrivals = tuple(
        (at - start, _Exact(at), *index_of[port.node.name, port.index])
        for delivered, port in seen["arrivals"]
        if in_window(delivered) and (port.node.name, port.index) in index_of
        for at in (delivered,
                   delivered + port.peer.node.agent_delay_s))
    return beacons, starts, arrivals


def _beacons(seed: int, k: int) -> tuple:
    return _landmarks(seed, k)[0]


def _faults(draw, seed: int, k: int) -> list:
    beacons, starts, arrivals = _landmarks(seed, k)
    faults = []
    for _ in range(draw(st.integers(1, 4))):
        operation = draw(st.sampled_from(("fail", "fail_direction",
                                          "disable")))
        near = draw(st.sampled_from(("beacon", "frame", "arrival",
                                     "nothing")))
        if near == "beacon":
            at, index, end = draw(st.sampled_from(beacons))
            at += draw(st.sampled_from(NEAR_BEACON_S))
            if draw(st.booleans()):
                end = 1 - end  # hit the LDM's receiving side instead
        elif near == "frame":
            at, index, end, duration, delay = draw(st.sampled_from(starts))
            # Its start, its end of serialization, its delivery.
            at += draw(st.sampled_from((0.0, duration, duration + delay)))
            at += draw(st.sampled_from(NEAR_FRAME_S))
            if draw(st.booleans()):
                end = 1 - end  # cut only the reverse direction
        elif near == "arrival":
            at, exact, index, end = draw(st.sampled_from(arrivals))
        else:
            at = draw(st.floats(0.001, WINDOW_S - 0.03))
            index = draw(st.integers(0, 255))
            end = draw(st.integers(0, 1))
        faults.append((exact if near == "arrival" else at, operation,
                       index, end))
        if draw(st.booleans()):
            # Recoveries from 1 us (the LDM still on the wire) and 20 us
            # (still in the software path) to 40 ms.
            after = draw(st.sampled_from((1e-6, 20e-6, 200e-6, 3e-3, 12e-3,
                                          40e-3)))
            faults.append((min(at + after, WINDOW_S - 0.001),
                           "enable" if operation == "disable" else "recover",
                           index, end))
    return sorted(faults)


def _assert_equivalent(seed, k, carrier, faults, reference="frames",
                       config=None):
    _, expected = _run(seed, k, carrier, faults, reference, config=config)
    _, got = _run(seed, k, carrier, faults, None, config=config)
    if reference == "interpreted":
        assert got.pop("events") == expected.pop("events")
    else:
        # The point of the exercise, and proof that events were left out.
        assert got.pop("events") < expected.pop("events")
    for section in expected:
        assert got[section] == expected[section], (
            f"{section} differs from the {reference!r} reference; "
            f"seed={seed} k={k} carrier_detect={carrier} faults={faults}")


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
    it: a frame in flight is lost to such a flap although the link is
    whole again when it would have arrived, so the streamed one has to
    be taken back as well."""
    for at, index, end in _beacons(3, 4)[40:120:40]:
        faults = [(at + fail_after, "fail", index, end),
                  (at + fail_after + recover_after, "recover", index, end)]
        _assert_equivalent(3, 4, carrier, faults)


@pytest.mark.parametrize("carrier", [True, False])
@pytest.mark.parametrize("software", [False, True])
def test_link_cut_at_the_instant_an_ldm_arrives(carrier, software):
    """A tie the clock cannot break: cut at exactly the instant an LDM
    reaches the far port (or the far switch's software), the LDM is lost
    or not by the kernel's order of the two events alone. The cut was
    scheduled long before, so it comes first."""
    arrivals = _landmarks(3, 4)[2]
    for _, exact, index, end in arrivals[40 + software:160:60]:
        _assert_equivalent(3, 4, carrier, [(exact, "fail", index, end)])


@pytest.mark.parametrize("back_after", [0.3e-6, 3e-3])
def test_far_port_disabled_under_an_ldm_on_the_wire(back_after):
    """The receiving port goes down while an LDM is on the wire and
    comes back before it arrives (0.3 us) or long after (3 ms): the LDM
    is delivered or dropped by the port's state at arrival, streamed or
    not."""
    for at, index, end in _beacons(3, 4)[50:130:40]:
        _assert_equivalent(3, 4, False, [
            (at + 1e-6, "disable", index, 1 - end),
            (at + 1e-6 + back_after, "enable", index, 1 - end)])


@pytest.mark.parametrize("carrier", [True, False])
def test_reading_counters_and_stamps_changes_nothing(carrier):
    """What a keepalive stream owes is written in when it is read, and
    reading must be all it does: a run whose port counters and neighbour
    stamps are all read every simulated millisecond, under faults, is
    the unread run exactly, events included."""
    beacons, _, arrivals = _landmarks(3, 4)
    at, index, end = beacons[60]
    _, exact, other, other_end = arrivals[140]
    faults = [(at + 1e-6, "fail", index, end),
              (at + 3e-3, "recover", index, end),
              (exact, "fail_direction", other, other_end),
              (exact + 12e-3, "recover", other, other_end)]
    _, expected = _run(3, 4, carrier, faults, None)
    _, got = _run(3, 4, carrier, faults, None, read_every_s=1e-3)
    for section in expected:
        assert got[section] == expected[section], section


@pytest.mark.slow
@pytest.mark.parametrize("carrier", [True, False])
@settings(max_examples=3, deadline=None,
          suppress_health_check=list(HealthCheck))
@given(data=st.data())
def test_accounted_keepalives_are_unobservable_k8(carrier, data):
    faults = _faults(data.draw, 17, 8)
    _assert_equivalent(17, 8, carrier, faults)


# ----------------------------------------------------------------------
# The "eager" reference: every end of serialization an event


@pytest.mark.parametrize("carrier", [True, False])
@settings(max_examples=12, deadline=None,
          suppress_health_check=list(HealthCheck))
@given(data=st.data())
def test_lazy_end_of_serialization_is_unobservable_k4(carrier, data):
    seed = data.draw(st.sampled_from((3, 11, 29)))
    faults = _faults(data.draw, seed, 4)
    _assert_equivalent(seed, 4, carrier, faults, reference="eager")


@pytest.mark.slow
@pytest.mark.parametrize("carrier", [True, False])
@settings(max_examples=3, deadline=None,
          suppress_health_check=list(HealthCheck))
@given(data=st.data())
def test_lazy_end_of_serialization_is_unobservable_k8(carrier, data):
    faults = _faults(data.draw, 17, 8)
    _assert_equivalent(17, 8, carrier, faults, reference="eager")


# ----------------------------------------------------------------------
# The "interpreted" reference: no decision cache, a plan per frame


@pytest.mark.parametrize("carrier", [True, False])
@settings(max_examples=4, deadline=None,
          suppress_health_check=list(HealthCheck))
@given(data=st.data())
def test_cached_plans_are_unobservable_k4(carrier, data):
    seed = data.draw(st.sampled_from((3, 11, 29)))
    faults = _faults(data.draw, seed, 4)
    _assert_equivalent(seed, 4, carrier, faults, reference="interpreted")


@pytest.mark.slow
@pytest.mark.parametrize("carrier", [True, False])
@settings(max_examples=2, deadline=None,
          suppress_health_check=list(HealthCheck))
@given(data=st.data())
def test_cached_plans_are_unobservable_k8(carrier, data):
    faults = _faults(data.draw, 17, 8)
    _assert_equivalent(17, 8, carrier, faults, reference="interpreted")


def test_lazy_end_of_serialization_under_fluid_load():
    """Hybrid mode stretches a frame's serialization by the fluid load
    on its direction at the instant it starts, and the load moves while
    the frame is on the wire: the noted end must be the one the event
    would have carried."""
    config = PortlandConfig(flow_mode="hybrid")
    _, starts, _ = _landmarks(3, 4)
    at, index, end, duration, _delay = starts[len(starts) // 2]
    faults = [(at + duration, "fail", index, end),
              (at + duration + 3e-3, "recover", index, end)]
    _assert_equivalent(3, 4, True, faults, reference="eager", config=config)
    _assert_equivalent(3, 4, False, (), reference="eager", config=config)


def test_reference_catches_a_tie_rule_that_ignores_event_order(monkeypatch):
    """The harness has teeth. Equal segments on equal-rate links reach an
    egress at the very instant the previous frame stops serializing
    there, so whether the wire is free is regularly decided by the order
    of two events at one instant. Asking the clock alone
    (``now >= busy_until``) starts some frames one event early, and even
    a fault-free run then differs from the reference."""
    _, expected = _run(3, 4, True, (), "eager")
    monkeypatch.setattr(
        Link, "_wire_free",
        lambda self, direction: (not direction.transmitting
                                 and self.sim.now >= direction.busy_until))
    _, got = _run(3, 4, True, (), None)
    assert got["hops"] != expected["hops"]


def _changed_keeping_plans(table) -> None:
    """``FlowTable._changed`` without its flush of the memo."""
    table.version += 1
    table.cache_safe = table._non_key_entries == 0
    table.by_ingress.clear()
    for listener in table._listeners:
        listener()


def test_reference_catches_a_plan_that_outlives_its_table(monkeypatch):
    """A change of its table is the only thing that retires a memoised
    plan. Keep the plans across it, and after one link failure the
    switches that rerouted around it keep executing the plans they
    compiled before: frames the reference sends the new way go the old
    one."""
    faults = [(0.01, "fail", 0, 0)]
    _, expected = _run(3, 4, True, faults, "interpreted")
    monkeypatch.setattr(FlowTable, "_changed", _changed_keeping_plans)
    _, got = _run(3, 4, True, faults, None)
    assert got["hops"] != expected["hops"]
    assert got["counters"] != expected["counters"]


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
    starts = []
    with _after_every_start(lambda *frame_start: starts.append(frame_start)):
        sim.run(until=sim.now + 0.1)
    sent = sum(agent.ldp.ldms_sent for agent in fabric.agents.values()) - sent
    # Not one LDM is put on a wire: each beacon is logged once for all.
    assert starts == []
    # 32 switch-to-switch links, two directions, ten beacons each.
    assert sent == pytest.approx(32 * 2 * 10, rel=0.1)
    # Three events per switch per period (beacon + two checks), plus
    # the fabric's slow soft-state timers: nothing per LDM.
    assert sim.events_executed - events < 20 * 3 * 10 * 1.2


@pytest.mark.parametrize("observed", [False, True])
def test_every_ldm_frame_arrives_as_its_sender_beaconed_it(observed,
                                                           monkeypatch):
    """A beacon's ports send one shared frame object, not a copy each
    (docs/PERF.md, "Per-event floor"). Through a k=4 bring-up and a
    fail/recover schedule — with every LDM a frame, and as streamed —
    every LDM a switch receives as a frame is field for field (wire
    bytes, VLAN tag, class) what its sender beaconed: a stage that
    rewrote an LDP frame in place would show here."""
    beaconed: dict = {}
    delivered: list = []

    def fields(frame) -> tuple:
        return frame.encode(), frame.vlan, frame.tclass

    beacon = BeaconLog.beacon
    on_frame = LdpProcess.on_frame

    def noting_beacon(log, frame) -> None:
        beaconed[frame.src, frame.payload.seq] = fields(frame)
        beacon(log, frame)

    def noting_arrival(ldp, frame, in_port) -> None:
        if isinstance(frame.payload, LocationDiscoveryMessage):
            delivered.append(((frame.src, frame.payload.seq), fields(frame)))
        on_frame(ldp, frame, in_port)

    monkeypatch.setattr(BeaconLog, "beacon", noting_beacon)
    monkeypatch.setattr(LdpProcess, "on_frame", noting_arrival)
    sim = Simulator(seed=7)
    if observed:
        sim.trace.subscribe("keepalive.ldm", _noop)
    fabric = build_portland_fabric(
        sim, k=4, link_params=LinkParams(carrier_detect=False))
    fabric.start()
    fabric.run_until_located()
    links = _switch_links(fabric)
    links[0].fail()
    links[5].fail_direction(links[5].b)
    sim.run(until=sim.now + 0.1)
    for link in (links[0], links[5]):
        link.recover()
    sim.run(until=sim.now + 0.1)
    arrivals = collections.Counter(key for key, _ in delivered)
    assert max(arrivals.values()) > 1  # one beacon, frames on several ports
    for key, arrived in delivered:
        assert arrived == beaconed[key]
