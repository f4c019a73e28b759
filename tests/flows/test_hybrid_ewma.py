"""Regression tests for the hybrid frame-load EWMA metering.

Each link direction fluid crosses gets its *own* epoch accumulator —
a (byte watermark, timestamp) pair seeded the moment the direction
joins the tracked set. Two historical bugs this pins down:

* a direction joining mid-run must not have its whole pre-join frame
  history attributed to its first epoch (a one-tick load spike that
  could spuriously starve fluid flows on that link);
* the instantaneous rate must be measured over the direction's own
  elapsed span, not the nominal epoch length — ticks are irregular
  when the epoch timer stops (no fluid flows) and restarts.

The fluid flows here carry a ``demand_bps`` cap so they leave the
frame stream its full offered rate; a greedy flow would squeeze the
frames to the residual floor, and the EWMA would (correctly) report
that smaller achieved load instead of the stream's rate.
"""

import pytest

from repro.flows.engine import HYBRID_EPOCH_S as EPOCH_S
from repro.host.apps.udp_stream import UdpStreamSender
from repro.portland.config import PortlandConfig
from repro.sim import Simulator
from repro.topology import LinkParams, build_portland_fabric

STREAM_BPS = 20e6
PAYLOAD = 500
FLUID_DEMAND_BPS = 100e6


def hybrid_fabric(seed=71):
    sim = Simulator(seed=seed)
    fabric = build_portland_fabric(
        sim, k=4,
        config=PortlandConfig(flow_mode="hybrid"),
        link_params=LinkParams(carrier_detect=True))
    fabric.start()
    fabric.run_until_located()
    fabric.announce_hosts()
    fabric.run_until_registered()
    return fabric


def uplink_direction(fabric, host):
    """(link, port) of the host's uplink toward its edge switch."""
    port = host.port(0)
    return port.link, port


def start_stream(sim, src, dst, bps=STREAM_BPS):
    stream = UdpStreamSender(src, dst.ip, 9999,
                             rate_pps=bps / (PAYLOAD * 8),
                             payload_bytes=PAYLOAD)
    stream.start()
    return stream


def start_fluid(engine, src, dst, sport, name):
    return engine.start_flow(src, dst.ip, size_bytes=None, sport=sport,
                             dport=sport, demand_bps=FLUID_DEMAND_BPS,
                             name=name)


def test_direction_joining_midrun_ignores_frame_history():
    fabric = hybrid_fabric()
    sim = fabric.sim
    hosts = fabric.host_list()
    src, frame_dst, fluid_dst = hosts[0], hosts[5], hosts[-1]

    # 100 ms of frame history on src's uplink before fluid ever looks
    # at it: ~2.5 Mbit transmitted.
    stream = start_stream(sim, src, frame_dst)
    sim.run(until=sim.now + 0.1)
    link, port = uplink_direction(fabric, src)
    history_bytes = link.frame_tx_bytes(port)
    assert history_bytes * 8 > STREAM_BPS * 0.08

    # Fluid joins the direction now. Its first epochs must estimate the
    # stream's *rate*, not (history bytes / epoch) — which would be
    # ~40x the real load here.
    engine = fabric.flow_engine
    start_fluid(engine, src, fluid_dst, 7000, "probe")
    sim.run(until=sim.now + 6 * EPOCH_S)
    pid = id(port)
    assert pid in engine._frame_ewma
    estimate = engine._frame_ewma[pid]
    # EWMA from a cold start needs a few epochs to converge; by six it
    # must be within a factor of 2 of the true offered rate, and far
    # below the history-misattribution value.
    spurious = history_bytes * 8 / EPOCH_S
    assert estimate < STREAM_BPS * 2, (
        f"frame-load estimate {estimate:.0f} bps looks like misattributed "
        f"history (stream is {STREAM_BPS:.0f} bps, spurious would be "
        f"~{spurious:.0f})")
    assert estimate > STREAM_BPS * 0.5
    stream.stop()


def test_each_direction_meters_independently():
    fabric = hybrid_fabric(seed=72)
    sim = fabric.sim
    hosts = fabric.host_list()
    src_a, src_b, dst = hosts[0], hosts[4], hosts[-1]

    # Direction A carries 20 Mb/s of frames, direction B none.
    stream = start_stream(sim, src_a, hosts[5])
    engine = fabric.flow_engine
    start_fluid(engine, src_a, dst, 7001, "fluid-a")
    start_fluid(engine, src_b, dst, 7002, "fluid-b")
    sim.run(until=sim.now + 8 * EPOCH_S)

    _link_a, port_a = uplink_direction(fabric, src_a)
    _link_b, port_b = uplink_direction(fabric, src_b)
    est_a = engine._frame_ewma.get(id(port_a), 0.0)
    est_b = engine._frame_ewma.get(id(port_b), 0.0)
    assert est_a > STREAM_BPS * 0.5
    assert est_b == 0.0, (
        f"direction B inherited {est_b:.0f} bps from direction A's "
        f"accumulator")
    stream.stop()


def test_rejoining_direction_reseeds_watermark():
    """A direction retired (fluid left) and rejoined later must re-seed:
    bytes sent during the gap belong to no epoch."""
    fabric = hybrid_fabric(seed=73)
    sim = fabric.sim
    hosts = fabric.host_list()
    src, frame_dst, fluid_dst = hosts[0], hosts[5], hosts[-1]
    engine = fabric.flow_engine
    link, port = uplink_direction(fabric, src)
    pid = id(port)

    flow = start_fluid(engine, src, fluid_dst, 7003, "first")
    sim.run(until=sim.now + 3 * EPOCH_S)
    assert pid in engine._frame_seen
    engine.stop_flow(flow)
    sim.run(until=sim.now + EPOCH_S)          # let the recompute land
    assert pid not in engine._frame_seen      # retired and cleared

    # 50 ms of frame traffic while fluid is absent.
    stream = start_stream(sim, src, frame_dst)
    sim.run(until=sim.now + 0.05)
    gap_bytes = link.frame_tx_bytes(port)

    t_join = sim.now
    start_fluid(engine, src, fluid_dst, 7004, "second")
    sim.run(until=sim.now + 1e-6)             # same-instant recompute
    seen_bytes, seen_t = engine._frame_seen[pid]
    assert seen_bytes >= gap_bytes            # watermark at rejoin, not 0
    assert seen_t == pytest.approx(t_join)
    sim.run(until=sim.now + 6 * EPOCH_S)
    estimate = engine._frame_ewma[pid]
    assert estimate < STREAM_BPS * 2
    stream.stop()
