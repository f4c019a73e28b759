"""The frame path, pinned: host TCP, UDP, links and the switch pipeline
must do the same work at the same instants, with tracing off.

The golden trace subscribes ``verify.hop``, so every frame it pins takes
the traced branch of ``PortlandSwitch.receive``; the ledger times the
untraced one. Here nothing subscribes. A k=4 fabric with silent links
carries a TCP shuffle and a set of CBR UDP flows while one edge uplink
fails and later recovers, so retransmissions, drops, ECMP over a
shrunken group and the recovery all take part. Changes that make the
per-hop or per-segment path cheaper must leave every value here alone:
the events executed and pushed, the frames, bytes and drops of every
port, the TCP retransmissions, every flow's completion instant, the
UDP datagrams delivered, and every flow entry's packet and byte
counters. The values were recorded before those changes.
"""

import hashlib
import random

import pytest

from repro.host.tcp.stack import TcpStack
from repro.sim import Simulator
from repro.topology import build_portland_fabric
from repro.topology.builder import LinkParams
from repro.workloads.failures import FailureInjector, pick_failures
from repro.workloads.shuffle import ShuffleWorkload
from repro.workloads.traffic import UdpFlowSet, random_permutation_pairs

#: seed -> (events, pushes, tx_frames, tx_bytes, drops, TCP
#: retransmissions, UDP datagrams delivered, digest of every flow's
#: (src, dst, start, completion), digest of every flow entry's
#: (switch, table, name, packets, bytes)).
PINNED = {
    31: (241014, 241232, 197474, 30038368, 131, 96, 32048,
         "598e46488d9ded0e", "bcdbbd117872e6f1"),
    97: (238920, 239142, 199536, 29214884, 295, 1, 31855,
         "6f7836d38dbf0dcf", "994c8ab98d2ec319"),
}


def _digest(rows) -> str:
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


def _run(seed: int, monkeypatch) -> tuple:
    opened = []
    connect = TcpStack.connect

    def recording_connect(self, *args, **kwargs):
        conn = connect(self, *args, **kwargs)
        opened.append(conn)
        return conn

    monkeypatch.setattr(TcpStack, "connect", recording_connect)
    sim = Simulator(seed=seed)
    fabric = build_portland_fabric(
        sim, k=4, link_params=LinkParams(carrier_detect=False))
    fabric.bring_up()
    rng = random.Random(seed)
    hosts = fabric.host_list()
    shuffle = ShuffleWorkload(sim, hosts,
                              pairs=random_permutation_pairs(hosts, rng),
                              bytes_per_flow=100_000, stagger_s=100e-6)
    udp = UdpFlowSet(random_permutation_pairs(hosts, rng), rate_pps=2000.0)
    injector = FailureInjector(sim, fabric.link_between)
    start = sim.now
    # Mid-shuffle; LDP notices after its keepalive timeout, TCP after
    # an RTO, and the link is back before the UDP flows stop.
    failed = pick_failures(fabric.tree, 1, rng, kinds=("edge-agg",))
    injector.fail_at(start + 0.3e-3, failed)
    injector.recover_at(start + 0.1)
    shuffle.start()
    udp.start(stagger=1e-4)
    shuffle.run_until_done(timeout_s=5.0, step_s=0.005)
    sim.run(until=max(sim.now, start + 0.2))
    udp.stop()
    sim.run(until=sim.now + 0.01)

    nodes = [*fabric.switches.values(), *fabric.hosts.values(),
             fabric.fabric_manager]
    counters = [port.counters for node in nodes for port in node.ports]
    flows = [(r.src, r.dst, r.started_at, r.completed_at)
             for r in shuffle.results]
    entries = [(name, table_name, entry.name, entry.packets, entry.bytes)
               for name, switch in sorted(fabric.switches.items())
               for table_name, table in (("rewrite", switch.rewrite_table),
                                         ("forwarding", switch.table))
               for entry in table]
    return (sim.events_executed, sim.queue_stats()["pushes"],
            sum(c.tx_frames for c in counters),
            sum(c.tx_bytes for c in counters),
            sum(c.drops for c in counters),
            sum(c.segments_retransmitted for c in opened),
            sum(receiver.received for receiver in udp.receivers()),
            _digest(flows), _digest(entries))


@pytest.mark.parametrize("seed", sorted(PINNED))
def test_frame_path_is_pinned(seed, monkeypatch):
    assert _run(seed, monkeypatch) == PINNED[seed]
