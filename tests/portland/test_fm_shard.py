"""Sharded fabric manager: placement, facade, failover, partitions."""

from repro.host.apps import UdpEchoServer, UdpPinger
from repro.net.addresses import IPv4Address
from repro.portland.config import PortlandConfig
from repro.portland.fabric_manager import FabricManager
from repro.portland.fm_shard import (
    FmShardCluster,
    owner_index_for_ip,
    pod_hint_from_name,
)
from repro.sim import Simulator
from repro.topology import LinkParams, build_portland_fabric
from repro.verify import InvariantOracle

REFRESH = 0.5


def converged(sim, shards=4, carrier=False, **config_kwargs):
    config = PortlandConfig(soft_state_refresh_s=REFRESH, fm_shards=shards,
                            **config_kwargs)
    fabric = build_portland_fabric(
        sim, k=4, config=config,
        link_params=LinkParams(carrier_detect=carrier))
    fabric.start()
    fabric.run_until_located()
    fabric.announce_hosts()
    fabric.run_until_registered()
    return fabric


# ----------------------------------------------------------------------
# Placement functions


def test_owner_index_partitions_by_pod_octet():
    # 10.pod.edge.host: the pod octet picks the shard.
    assert owner_index_for_ip(IPv4Address.parse("10.0.0.2"), 4) == 0
    assert owner_index_for_ip(IPv4Address.parse("10.3.1.2"), 4) == 3
    assert owner_index_for_ip(IPv4Address.parse("10.5.0.2"), 4) == 1
    assert owner_index_for_ip(IPv4Address.parse("10.3.9.9"), 2) == 1


def test_owner_index_hash_fallback_balances_flat_ip_plans():
    # The two-layer plan puts every host in 10.0.edge.host: by-pod
    # placement would pin the whole registry onto shard 0. The
    # full-IP hash fallback (pod_plan=False) must spread it.
    ips = [IPv4Address.parse(f"10.0.{e}.{h + 2}")
           for e in range(16) for h in range(8)]
    by_pod = {owner_index_for_ip(ip, 4) for ip in ips}
    assert by_pod == {0}  # the imbalance the fallback exists to fix
    counts: dict[int, int] = {}
    for ip in ips:
        idx = owner_index_for_ip(ip, 4, pod_plan=False)
        counts[idx] = counts.get(idx, 0) + 1
    assert set(counts) == {0, 1, 2, 3}
    assert max(counts.values()) <= 2 * min(counts.values())


def test_cluster_placement_mode_follows_scheme():
    from repro.topology.scheme import scheme_for_backend

    sim = Simulator(seed=84)
    config = PortlandConfig(fm_shards=4)
    # A bare cluster, and the builder's default fat tree: by-pod placement.
    assert FmShardCluster(sim, config).pod_ip_plan
    assert build_portland_fabric(
        sim, k=4, config=config).fabric_manager.pod_ip_plan
    # Flat IP plans: the builder tells the cluster to hash instead.
    for backend in ("twolayer", "jellyfish"):
        cluster = build_portland_fabric(
            sim, config=config,
            scheme=scheme_for_backend(backend, k=4)).fabric_manager
        assert not cluster.pod_ip_plan
        ip = IPv4Address.parse("10.0.1.2")
        assert cluster.owner_shard(ip) is cluster.shards[
            owner_index_for_ip(ip, 4, pod_plan=False)]


def test_pod_hint_from_name():
    assert pod_hint_from_name("edge-p3-s1") == 3
    assert pod_hint_from_name("agg-p12-s0") == 12
    assert pod_hint_from_name("core-2") is None
    assert pod_hint_from_name(None) is None


def test_default_config_builds_single_fm():
    sim = Simulator(seed=81)
    config = PortlandConfig()  # fm_shards=0
    fabric = build_portland_fabric(sim, k=4, config=config)
    assert type(fabric.fabric_manager) is FabricManager


# ----------------------------------------------------------------------
# Converged sharded fabric


def test_sharded_convergence_and_placement():
    sim = Simulator(seed=82)
    fabric = converged(sim)
    cluster = fabric.fabric_manager
    assert isinstance(cluster, FmShardCluster)
    # Every host registered, and the facade merges all shard registries.
    assert len(cluster.hosts_by_ip) == len(fabric.hosts)
    # Each record lives on exactly its owner shard.
    for shard in cluster.shards:
        for ip in shard.hosts_by_ip:
            assert cluster.owner_shard(ip) is shard
    # Switches are homed by structural pod; cores spread round-robin.
    for name, agent in fabric.agents.items():
        pod = pod_hint_from_name(name)
        if pod is not None:
            assert cluster.home_index(agent.switch_id) == pod % 4


def test_cross_pod_and_same_pod_arp_resolution():
    sim = Simulator(seed=83)
    fabric = converged(sim)
    hosts = fabric.host_list()
    # hosts[0] is in pod 0; hosts[-1] in pod 3: cross-pod (one
    # inter-shard hop); hosts[1] shares pod 0 (pure shard-local).
    for target in (hosts[-1], hosts[1]):
        UdpEchoServer(target, 7)
        pinger = UdpPinger(hosts[0], target.ip)
        hosts[0].arp_cache.invalidate(target.ip)
        pinger.ping()
        sim.run(until=sim.now + 0.5)
        assert pinger.answered == 1
    assert fabric.fabric_manager.intershard_messages > 0


def test_cluster_restart_rebuilds_all_servers():
    sim = Simulator(seed=84)
    fabric = converged(sim)
    cluster = fabric.fabric_manager
    hosts_before = set(cluster.hosts_by_ip)
    switches_before = set(cluster.switches)

    cluster.restart()
    assert cluster.hosts_by_ip == {}
    assert cluster.switches == {}
    sim.run(until=sim.now + 2.5 * REFRESH)

    assert set(cluster.switches) == switches_before
    assert set(cluster.hosts_by_ip) == hosts_before
    assert cluster.restarts == len(cluster.servers)


def test_single_shard_restart_resyncs_replica():
    sim = Simulator(seed=85)
    fabric = converged(sim, carrier=True)
    cluster = fabric.fabric_manager
    link = fabric.link_between("agg-p1-s0", "core-0")
    link.fail()
    sim.run(until=sim.now + 0.3)
    assert len(cluster.fault_matrix) == 1

    shard = cluster.shards[2]
    edges_before = shard._edge_switch_ids()
    assert edges_before
    shard.restart()
    assert shard._edge_switch_ids() == []
    sim.run(until=sim.now + 2.5 * REFRESH)
    # The resync replica restores the edge directory and fault matrix.
    assert set(shard._edge_switch_ids()) == set(edges_before)
    assert shard.fault_matrix == cluster.fault_matrix
    link.recover()
    sim.run(until=sim.now + 0.5)
    assert len(cluster.fault_matrix) == 0


def test_shard_partition_heals_clean():
    sim = Simulator(seed=86)
    fabric = converged(sim, carrier=True,
                       fm_batch_interval_s=0.02)
    cluster = fabric.fabric_manager
    oracle = InvariantOracle(fabric)
    victim = cluster.shards[1]
    links = [fabric.control.links_by_switch[sid]
             for sid, shard in cluster._home_by_switch.items()
             if shard is victim]
    assert links

    for link in links:
        link.fail()
    cluster.set_partitioned(victim, True)
    sim.run(until=sim.now + 0.3)
    assert cluster.intershard_dropped >= 0  # drops only if traffic flowed

    for link in links:
        link.recover()
    cluster.set_partitioned(victim, False)
    sim.run(until=sim.now + 2.5 * REFRESH)

    # Fabric is healed: registries complete, data path clean end to end.
    assert len(cluster.hosts_by_ip) == len(fabric.hosts)
    hosts = fabric.host_list()
    UdpEchoServer(hosts[-1], 7)
    pinger = UdpPinger(hosts[0], hosts[-1].ip)
    hosts[0].arp_cache.invalidate(hosts[-1].ip)
    pinger.ping()
    sim.run(until=sim.now + 0.5)
    assert pinger.answered == 1
    oracle.check_now()
    assert oracle.violations == []
    oracle.close()


def test_busy_time_accrues_per_shard():
    sim = Simulator(seed=87)
    fabric = converged(sim)
    cluster = fabric.fabric_manager
    # Registration/refresh traffic touched every shard's queue.
    assert all(shard.busy_time > 0 for shard in cluster.shards)
    assert cluster.busy_time >= sum(s.busy_time for s in cluster.shards)
