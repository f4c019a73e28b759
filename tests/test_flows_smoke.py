"""Tier-1 flow-mode smoke: fluid simulation must agree with the frame
path and must be dramatically cheaper in simulator events.

Reduced scale (k=4, short windows) so plain ``pytest`` — and therefore
CI — catches a fluid engine that drifted away from frame-path
semantics; the performance ledger runs both k=8 shuffles end to end
(``frame_shuffle_k8``, ``fluid_shuffle_k8``). Three properties are
gated:

* **agreement** — the same permutation of CBR flows run in frame mode
  (real UDP senders) and in flow mode (fluid rates) must place the same
  bytes on the same links (every link within 2%) and deliver the same
  per-flow rate (within 5% of the frame-mode receiver's goodput). The
  fluid engine resolves paths from a *representative frame* with the
  flow's real 5-tuple, so the ECMP choice — and hence the per-link
  placement — must match exactly, not just statistically;
* **event reduction** — a finite permutation shuffle must cost at
  least 10x fewer simulator events to complete in flow mode than the
  frame path needs — raw counts over each mode's own completion window,
  LDP's beacon and liveness ticks included;
* **FCT agreement** — the same shuffle's mean flow completion time must
  agree between modes within 10%: the RTT-aware fluid TCP model
  (handshake setup, cwnd ramp, FIN drain — see docs/FLOWS.md) has to
  reproduce what the frame path's real TCP stack measures, not just
  move the same bytes. The fluid model constrains only a compiled
  path's ingress host link, so its frame reference is cut-through: the
  frame shuffle runs with switches that never wait for the wire
  (:func:`_switches_never_wait_for_the_wire`).
"""

import contextlib
import math

from repro.host.apps.udp_stream import UdpStreamReceiver, UdpStreamSender
from repro.metrics.utilization import snapshot
from repro.net.link import Link
from repro.portland.config import PortlandConfig
from repro.portland.switch import PortlandSwitch
from repro.sim import Simulator
from repro.topology import build_portland_fabric
from repro.workloads.shuffle import FluidShuffleWorkload, ShuffleWorkload
from repro.workloads.traffic import random_permutation_pairs

LINK_BYTES_TOLERANCE = 0.02
RATE_TOLERANCE = 0.05
EVENT_REDUCTION_FLOOR = 10.0
FCT_DIVERGENCE_FLOOR = 0.10

#: Per-link absolute slack (bytes) on top of the 2% relative gate —
#: covers the one-shot ARP resolution frames the frame path sends and
#: the fluid path never does, plus ±1 in-flight frame per flow.
LINK_BYTES_SLACK = 6_000

WINDOW_S = 0.25
RATE_PPS = 2000.0
PAYLOAD = 1000


def _converged(seed: int, flow_mode: bool):
    sim = Simulator(seed=seed)
    fabric = build_portland_fabric(
        sim, k=4, config=PortlandConfig(flow_mode=flow_mode))
    fabric.start()
    fabric.run_until_located()
    fabric.announce_hosts()
    fabric.run_until_registered()
    return fabric


@contextlib.contextmanager
def _switches_never_wait_for_the_wire():
    """Cut-through frames: a frame a switch sends never waits for the
    wire. Before ``Link.transmit`` sends from a switch port, a streaming
    direction is settled and the wire marked free, so the frame starts
    serializing at once and nothing queues inside the fabric; hosts'
    NICs queue as ever."""
    transmit = Link.transmit

    def cut_through(self, src_port, frame):
        if isinstance(src_port.node, PortlandSwitch):
            direction = src_port._tx
            if direction.stream_log is not None:
                self.settle(close=True)
            direction.busy_until = -math.inf
        return transmit(self, src_port, frame)

    Link.transmit = cut_through
    try:
        yield
    finally:
        Link.transmit = transmit


def _pair_names(fabric):
    rng = fabric.sim.random.stream("flows-smoke")
    return [(a.name, b.name)
            for a, b in random_permutation_pairs(fabric.host_list(), rng)]


def _bytes_since(links, baseline) -> dict:
    """Bytes each link carried since ``baseline``, both directions."""
    now = snapshot(links)
    return {key: now[key][0] - baseline[key][0] for key in now}


def test_fluid_rates_and_link_bytes_agree_with_frame_path():
    frame_fab = _converged(99, flow_mode=False)
    fluid_fab = _converged(99, flow_mode=True)
    # Same seed, same topology, same RNG stream: identical permutation.
    pairs = _pair_names(frame_fab)
    assert pairs == _pair_names(fluid_fab)

    # Frame mode: real CBR UDP senders.
    senders, receivers = [], []
    for i, (src_name, dst_name) in enumerate(pairs):
        src = frame_fab.hosts[src_name]
        dst = frame_fab.hosts[dst_name]
        receivers.append(UdpStreamReceiver(dst, 6000 + i))
        sender = UdpStreamSender(src, dst.ip, 6000 + i,
                                 rate_pps=RATE_PPS, payload_bytes=PAYLOAD)
        sender.start()
        senders.append(sender)
    frame_base = snapshot(frame_fab.links)
    t0 = frame_fab.sim.now
    frame_fab.sim.run(until=t0 + WINDOW_S)
    frame_usage = _bytes_since(frame_fab.links, frame_base)

    # Flow mode: the same permutation as fluid flows with the same
    # demand AND the same 5-tuple — sport copied from the frame-mode
    # sender's ephemeral socket, so decision_key (hence ECMP) matches.
    flows = []
    engine = fluid_fab.flow_engine
    for i, (src_name, dst_name) in enumerate(pairs):
        src = fluid_fab.hosts[src_name]
        dst = fluid_fab.hosts[dst_name]
        flows.append(engine.start_flow(
            src, dst.ip, demand_bps=RATE_PPS * PAYLOAD * 8,
            sport=senders[i].socket.port, dport=6000 + i,
            payload_bytes=PAYLOAD))
    fluid_base = snapshot(fluid_fab.links)
    t0 = fluid_fab.sim.now
    fluid_fab.sim.run(until=t0 + WINDOW_S)
    engine.settle_now()
    fluid_usage = _bytes_since(fluid_fab.links, fluid_base)

    # Per-flow rates: fluid allocation vs what the receiver measured.
    for i, flow in enumerate(flows):
        frame_goodput = len(receivers[i].arrivals) * PAYLOAD * 8 / WINDOW_S
        assert frame_goodput > 0
        fluid_rate = flow.average_rate_bps(fluid_fab.sim.now)
        assert abs(fluid_rate - frame_goodput) <= RATE_TOLERANCE * frame_goodput, (
            f"flow {flow.name}: fluid {fluid_rate:.0f} bps vs frame "
            f"{frame_goodput:.0f} bps")

    # Per-link bytes: every link, both directions summed. Same ECMP
    # placement means the same links are hot in both modes.
    assert frame_usage.keys() == fluid_usage.keys()
    mismatches = [
        (name, frame_usage[name], fluid_usage[name])
        for name in frame_usage
        if abs(frame_usage[name] - fluid_usage[name])
        > LINK_BYTES_TOLERANCE * max(frame_usage[name], fluid_usage[name])
        + LINK_BYTES_SLACK
    ]
    assert not mismatches, f"per-link byte divergence: {mismatches[:5]}"
    # And the comparison is not vacuous: data actually crossed the core.
    hot = [n for n in fluid_usage.values() if n > 100_000]
    assert len(hot) >= len(pairs)


def test_fluid_shuffle_needs_far_fewer_events():
    frame_fab = _converged(99, flow_mode=False)
    fluid_fab = _converged(99, flow_mode=True)
    pairs = _pair_names(frame_fab)

    frame_pairs = [(frame_fab.hosts[a], frame_fab.hosts[b]) for a, b in pairs]
    before = frame_fab.sim.events_executed
    with _switches_never_wait_for_the_wire():
        frame_shuffle = ShuffleWorkload(frame_fab.sim, frame_fab.host_list(),
                                        pairs=frame_pairs,
                                        bytes_per_flow=200_000)
        frame_shuffle.start()
        frame_shuffle.run_until_done(timeout_s=30.0)
    frame_events = frame_fab.sim.events_executed - before

    fluid_pairs = [(fluid_fab.hosts[a], fluid_fab.hosts[b]) for a, b in pairs]
    before = fluid_fab.sim.events_executed
    fluid_shuffle = FluidShuffleWorkload(fluid_fab, pairs=fluid_pairs,
                                         bytes_per_flow=200_000)
    fluid_shuffle.start()
    fluid_shuffle.run_until_done(timeout_s=30.0)
    fluid_events = fluid_fab.sim.events_executed - before

    assert frame_shuffle.all_done() and fluid_shuffle.all_done()
    # Same payload moved in both modes.
    assert fluid_shuffle.total_bytes_moved() == len(pairs) * 200_000
    reduction = frame_events / fluid_events
    assert reduction >= EVENT_REDUCTION_FLOOR, (
        f"flow mode used {fluid_events} events vs {frame_events} frame-mode "
        f"events — only {reduction:.1f}x fewer (floor "
        f"{EVENT_REDUCTION_FLOOR}x); 'make ledger' has the k=8 numbers")
    # FCT agreement: the fluid TCP model must reproduce the frame
    # path's completion times, not just its byte totals.
    frame_mean = frame_shuffle.fct_stats().mean
    fluid_mean = fluid_shuffle.fct_stats().mean
    divergence = abs(fluid_mean - frame_mean) / frame_mean
    assert divergence <= FCT_DIVERGENCE_FLOOR, (
        f"fluid fct_mean {fluid_mean * 1e3:.3f}ms vs frame "
        f"{frame_mean * 1e3:.3f}ms — {100 * divergence:.1f}% divergence "
        f"(floor {100 * FCT_DIVERGENCE_FLOOR:.0f}%)")
