"""Link-utilization accounting plus a k=6 (3-position pods) end-to-end
sanity check."""

from repro.host.apps import UdpEchoServer, UdpPinger
from repro.metrics.utilization import snapshot
from repro.portland.messages import SwitchLevel
from repro.sim import Simulator
from repro.topology import build_portland_fabric
from repro.workloads.shuffle import ShuffleWorkload


def test_utilization_accounting_tracks_shuffle():
    sim = Simulator(seed=91)
    fabric = build_portland_fabric(sim, k=4)
    fabric.start()
    fabric.run_until_located()
    fabric.announce_hosts()
    fabric.run_until_registered()

    baseline = snapshot(fabric.links)
    hosts = fabric.host_list()[:6]
    shuffle = ShuffleWorkload(sim, hosts, bytes_per_flow=30_000)
    shuffle.start()
    shuffle.run_until_done(timeout_s=30.0)

    after = snapshot(fabric.links)
    sent = {link: after[link][0] - baseline[link][0] for link in after}
    senders = {host.name for host in hosts}
    # Every shuffling host's link carried its flows' bytes both ways,
    # more than a flow's worth, and no other host link carried any.
    for (a, _b), nbytes in sent.items():
        if a in fabric.hosts:
            assert (nbytes > 2 * 30_000) == (a in senders), a
    layers: dict[str, list[int]] = {}
    for (a, b), nbytes in sent.items():
        pair = "-".join(sorted((a.split("-")[0], b.split("-")[0])))
        layers.setdefault(pair, []).append(nbytes)
    # All three layers carried shuffle traffic (hosts span pods).
    assert sorted(layers) == ["agg-core", "agg-edge", "edge-host"]
    totals = {pair: sum(counts) for pair, counts in layers.items()}
    assert all(total > 0 for total in totals.values()), totals
    # Host links carry each byte exactly once in and once out; upper
    # layers carry only the inter-switch subset.
    assert totals["edge-host"] >= totals["agg-core"]
    # ECMP keeps core-layer imbalance (max/mean) bounded.
    core = layers["agg-core"]
    assert max(core) < 4.0 * totals["agg-core"] / len(core)
    # No link carried more than line rate x elapsed time, both ways.
    elapsed = max(r.fct for r in shuffle.results if r.fct)
    for link, nbytes in sent.items():
        assert 0 <= nbytes * 8 <= 2 * 1e9 * elapsed, link

def test_k6_fabric_end_to_end():
    """k=6: pods with 3 edges/3 positions — exercises non-power-of-two
    position agreement and 9-way core ECMP."""
    sim = Simulator(seed=92)
    fabric = build_portland_fabric(sim, k=6)
    fabric.start()
    fabric.run_until_located()
    fabric.announce_hosts()
    fabric.run_until_registered()

    by_pod: dict[int, list[int]] = {}
    for agent in fabric.agents.values():
        if agent.level is SwitchLevel.EDGE:
            by_pod.setdefault(agent.ldp.pod, []).append(agent.ldp.position)
    assert len(by_pod) == 6
    for positions in by_pod.values():
        assert sorted(positions) == [0, 1, 2]

    hosts = fabric.host_list()
    UdpEchoServer(hosts[-1], 7)
    pinger = UdpPinger(hosts[0], hosts[-1].ip)
    pinger.ping()
    sim.run(until=sim.now + 0.5)
    assert pinger.answered == 1
