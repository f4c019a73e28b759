"""Seeded property-based fault campaigns with failing-case shrinking.

A *campaign* runs N independent *scenarios*. Each scenario builds a
fresh fabric (its k drawn from a configurable set), converges it,
attaches the runtime :class:`~repro.verify.oracle.InvariantOracle`,
starts a handful of probe flows, and then performs a random sequence of
steps — multi-link failures, whole-switch failures, recoveries, VM
migrations — running the full static invariant suite after each step
settles. Everything derives from the scenario seed, so a reported
failure is replayed bit-for-bit by rerunning with that seed.

When a scenario fails on a set of concurrently failed links, the
campaign *shrinks* it: links are removed one at a time and the static
checks re-run on a fresh fabric of the scenario's shape, until no single
link can be dropped without the violation disappearing. The result —
seed, k, and a minimal link list — is the reproducer printed in the
report (see ``docs/VERIFY.md`` for how to replay one).

The configurations the campaign is run in are the rows of :data:`LANES`,
the one place a lane is spelled (``portland-sim verify LANE``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

from repro.host.apps import UdpStreamReceiver, UdpStreamSender
from repro.portland.config import PortlandConfig
from repro.portland.migration import VmMigration
from repro.sim.simulator import Simulator
from repro.topology.builder import build_portland_fabric
from repro.topology.scheme import scheme_for_backend
from repro.verify.invariants import Violation
from repro.verify.oracle import InvariantOracle


@dataclass(frozen=True)
class CampaignConfig:
    """Knobs for one campaign run (the named ones are :data:`LANES`)."""

    scenarios: int = 25
    seed: int = 7
    #: Topology backend scenarios run on ("fattree", "jellyfish",
    #: "twolayer"); see :func:`repro.topology.scheme.scheme_for_backend`
    #: for how ``ks`` scales the non-fat-tree backends.
    backend: str = "fattree"
    #: Fat-tree degrees to draw from, one per scenario.
    ks: tuple[int, ...] = (4,)
    #: Random steps per scenario; a scenario stops at its first
    #: violating step.
    steps: int = 4
    #: Probe flows kept running so the runtime oracle sees real traffic.
    probe_pairs: int = 4
    probe_rate_pps: float = 200.0
    #: Allow VM-migration steps.
    migrate: bool = True
    #: Add live Jellyfish-expansion steps to the op mix (jellyfish
    #: backend only): splice a new ToR into the running fabric
    #: (:func:`repro.topology.expansion.expand_jellyfish_live`) and
    #: require the oracle to come back clean once settled. Off by
    #: default so existing campaign draw sequences are unchanged; note
    #: the splice needs an even switch degree, so it engages on odd
    #: ``ks`` (degree ``k-1``) and records a skip otherwise.
    expand: bool = False
    #: Shape of every scenario fabric, carried whole. With ``flow_mode``
    #: on, probes become open-ended fluid flows and the oracle also
    #: checks every ``verify.flow`` hop list (loop freedom, up*-down*
    #: validity, host delivery), including the paths flows re-pin after
    #: each step; ``"hybrid"`` alternates probe pairs between fluid flows
    #: and frame-level UDP streams, so both executors are under the
    #: oracle on the same faulted fabric. ``path_cache_entries`` > 0
    #: proves compiled paths never survive a fault the oracle would
    #: flag; ``fm_shards`` / ``fm_batch_interval_s`` pick the
    #: fabric-manager deployment.
    fabric: PortlandConfig = field(default_factory=PortlandConfig)
    #: Worker processes scenarios are sharded over (1 = in-process
    #: sequential). Scenarios are independent by construction — each
    #: builds a fresh fabric from its own derived seed — so results are
    #: identical at any worker count; only wall time changes. Shrinking
    #: stays sequential in the parent.
    parallel: int = 1
    #: Add fabric-manager failure steps to the op mix: ``fm-restart``
    #: (crash the FM — or one random cluster server — mid-campaign) and,
    #: on sharded fabrics, ``fm-partition`` (sever one shard's control
    #: links and its cluster-internal delivery for a window, then heal).
    #: Implies a fast soft-state refresh (:data:`FM_REFRESH_S`) so
    #: scenarios heal within :data:`FM_SETTLE_S`.
    fm_ops: bool = False
    #: Add edge-ACL steps to the op mix: ``acl-install`` blocks a random
    #: host pair through the fabric manager (cluster-routed on sharded
    #: fabrics) and ``acl-revoke`` lifts a previously installed rule.
    #: The static checks then additionally prove every ACL'd pair's
    #: drops are justified (never blackholes) and that no frame is ever
    #: delivered across an installed rule (``acl-leak``).
    policy: bool = False
    #: Host-churn stress: run a background ARP storm for the whole
    #: scenario and weight the op mix toward VM migrations, so the
    #: registry (and, with ``policy``, the ACL re-push machinery) is
    #: exercised under continuous re-registration traffic.
    churn: bool = False
    #: Add ``port-toggle`` steps to the op mix: disable the far port of
    #: a live switch link while a keepalive is on the wire toward it,
    #: and enable it again :data:`TOGGLE_HOLD_S` later; a disabled port
    #: must receive nothing meanwhile (``disabled-rx``).
    ports: bool = False
    #: Add ``ldm-cut`` steps: fail a live switch link while a keepalive
    #: sent across it is in the far switch's software path; no neighbour
    #: may then be listed on the dead port (``ghost-neighbor``).
    ldm_cuts: bool = False


#: The verify lanes: every configuration the campaign is run in, by name
#: (``portland-sim verify LANE``, ``make verify-LANE``). A configuration
#: that is not a lane is ``dataclasses.replace`` on a row.
LANES: dict[str, CampaignConfig] = {
    "default": CampaignConfig(),
    # Fluid probes; the oracle checks every resolved flow path.
    "flows": CampaignConfig(fabric=PortlandConfig(flow_mode=True)),
    # Probe pairs alternate between fluid flows and frame UDP streams on
    # capacity-coupled links.
    "hybrid": CampaignConfig(fabric=PortlandConfig(flow_mode="hybrid")),
    # Sharded over 4 worker processes: results identical to "default".
    "parallel": CampaignConfig(parallel=4),
    # acl-install/acl-revoke steps: justified drops, no acl-leak.
    "policy": CampaignConfig(policy=True),
    # 4-way FM shard cluster, batched override pushes, fm-restart and
    # fm-partition steps ...
    "fm": CampaignConfig(
        fabric=PortlandConfig(fm_shards=4, fm_batch_interval_s=0.02),
        fm_ops=True),
    # ... and the same at k=8 under host churn.
    "fm-churn": CampaignConfig(
        scenarios=5, ks=(8,),
        fabric=PortlandConfig(fm_shards=4, fm_batch_interval_s=0.02),
        fm_ops=True, churn=True),
    # The cross-fabric conformance gate (the fat tree is "default").
    "topo-jellyfish": CampaignConfig(backend="jellyfish"),
    "topo-twolayer": CampaignConfig(backend="twolayer"),
    # port-toggle steps at keepalive arrivals: no disabled-rx.
    "ports": CampaignConfig(ports=True),
    # Link cuts under a keepalive's packet-in: no ghost-neighbor.
    "ldm-cuts": CampaignConfig(ldm_cuts=True),
    # Compiled-path (cut-through) transit under every fault.
    "path-cache": CampaignConfig(
        fabric=PortlandConfig(path_cache_entries=4096)),
    # Live Jellyfish expansion steps (odd k: even degree, so the splice
    # engages); no fault outlives its link (stale-fault).
    "expand": CampaignConfig(backend="jellyfish", ks=(5,), expand=True),
}


@dataclass
class ScenarioResult:
    """Outcome of one scenario."""

    seed: int
    k: int
    steps: list[str] = field(default_factory=list)
    #: Switch-switch links failed at the moment of the (first) violation.
    failed_links: list[tuple[str, str]] = field(default_factory=list)
    violations: list[Violation] = field(default_factory=list)
    hops: int = 0
    #: Compiled-path launches in this scenario (0 when the cache is off).
    path_launches: int = 0
    #: Oracle-checked fluid path resolutions (flow-mode scenarios only).
    flow_paths: int = 0
    #: Fluid-engine counters at scenario end (flow-mode scenarios only).
    flow_stats: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass
class Reproducer:
    """A minimal, replayable witness for a failing scenario."""

    scenario_seed: int
    k: int
    links: list[tuple[str, str]]
    kinds: tuple[str, ...]
    #: True when the shrunk link set alone reproduces the violation on a
    #: fresh fabric; False means it was not statically minimised (the
    #: failure is sequence-dependent, or the shrink budget ran out) and
    #: must be replayed from the scenario seed.
    static: bool = True
    #: Topology backend the scenario ran on (replay must match it).
    backend: str = "fattree"

    def __str__(self) -> str:
        tag = "" if self.backend == "fattree" else f" backend={self.backend}"
        if self.static:
            how = " + ".join(f"{a}<->{b}" for a, b in self.links) or "(no links)"
            return (f"seed={self.scenario_seed} k={self.k}{tag} "
                    f"fail[{how}] -> {'/'.join(self.kinds)}")
        return (f"seed={self.scenario_seed} k={self.k}{tag} not statically "
                f"minimised (replay the scenario seed) -> "
                f"{'/'.join(self.kinds)}")


@dataclass
class CampaignReport:
    """Everything a campaign run produced."""

    config: CampaignConfig
    results: list[ScenarioResult] = field(default_factory=list)
    reproducers: list[Reproducer] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(result.ok for result in self.results)

    @property
    def violation_count(self) -> int:
        return sum(len(result.violations) for result in self.results)

    def summary_rows(self) -> list[list]:
        rows = []
        for result in self.results:
            rows.append([
                result.seed, result.k, len(result.steps),
                # Frame-mode scenarios check per-frame hops; flow-mode
                # scenarios check whole resolved flow paths. Exactly one
                # of the two is non-zero, so one column serves both.
                result.hops + result.flow_paths, len(result.violations),
                "ok" if result.ok else ",".join(
                    sorted({v.kind for v in result.violations})),
            ])
        return rows


def scenario_seed_for(config: CampaignConfig, index: int) -> int:
    """The derived seed of scenario ``index`` (stable across runs)."""
    return config.seed * 1000 + index


# ----------------------------------------------------------------------
# One scenario


#: Hosts wired per edge switch (fewer than k/2 leaves migration targets).
HOSTS_PER_EDGE = 1
#: Soft-state refresh period of the fabric when ``fm_ops`` is on.
FM_REFRESH_S = 0.5


def _converged_fabric(sim: Simulator, k: int, config: CampaignConfig,
                      topo_seed: int):
    """A converged fabric of the shape ``config``'s scenarios run on —
    the one fabric a scenario, its static re-check and its shrinking
    all build."""
    shape = config.fabric
    if config.fm_ops:
        shape = replace(shape, soft_state_refresh_s=FM_REFRESH_S)
    scheme = scheme_for_backend(config.backend, k=k,
                                hosts_per_edge=HOSTS_PER_EDGE,
                                topo_seed=topo_seed)
    fabric = build_portland_fabric(sim, config=shape, scheme=scheme)
    fabric.bring_up()
    return fabric


#: Payload rate per fluid probe flow (flow-mode scenarios only).
FLUID_PROBE_BPS = 50e6


def _start_probes(fabric, rng: random.Random, config: CampaignConfig):
    hosts = fabric.host_list()
    receivers = []
    count = min(config.probe_pairs, len(hosts) // 2)
    shuffled = hosts[:]
    rng.shuffle(shuffled)
    flow_mode = config.fabric.flow_mode
    hybrid = flow_mode == "hybrid"
    for i in range(count):
        src, dst = shuffled[2 * i], shuffled[2 * i + 1]
        if flow_mode and not (hybrid and i % 2):
            # Open-ended fluid flows: they survive the whole scenario,
            # re-resolving (and re-emitting ``verify.flow``) after every
            # fault step — exactly the trajectories the oracle must vet.
            fabric.flow_engine.start_flow(
                src, dst.ip, demand_bps=FLUID_PROBE_BPS,
                dport=6000 + i, name=f"probe-{i}")
        else:
            # Frame-level probes — all of them in frame mode, every
            # other pair in hybrid mode (both executors under oracle).
            receivers.append(UdpStreamReceiver(dst, 6000 + i))
            UdpStreamSender(src, dst.ip, 6000 + i,
                            rate_pps=config.probe_rate_pps).start()
    return receivers


class _MigrationPlanner:
    """Tracks host attachments and free host-facing edge ports."""

    def __init__(self, fabric) -> None:
        self.fabric = fabric
        scheme = fabric.scheme
        self.attachment = {spec.name: (spec.edge_switch, spec.edge_port)
                           for spec in fabric.tree.hosts}
        occupied: dict[str, set[int]] = {}
        for edge, port in self.attachment.values():
            occupied.setdefault(edge, set()).add(port)
        self.free: dict[str, set[int]] = {
            edge: scheme.host_port_capacity(edge) - occupied.get(edge, set())
            for edge in fabric.tree.edge_names
        }

    def pick(self, rng: random.Random):
        """A random (host, new_edge, new_port) move, or None."""
        hosts = sorted(self.attachment)
        rng.shuffle(hosts)
        for host in hosts:
            current_edge, _port = self.attachment[host]
            targets = sorted(edge for edge, ports in self.free.items()
                             if ports and edge != current_edge)
            if targets:
                edge = rng.choice(targets)
                port = min(self.free[edge])
                return host, edge, port
        return None

    def commit(self, host: str, edge: str, port: int) -> None:
        old_edge, old_port = self.attachment[host]
        self.free[old_edge].add(old_port)
        self.free[edge].discard(port)
        self.attachment[host] = (edge, port)

    def adopt_switch(self, fabric, expansion) -> None:
        """Register a freshly spliced-in switch and its hosts (live
        Jellyfish expansion) without disturbing tracked migrations."""
        scheme = fabric.scheme
        new_hosts = {spec.name: (spec.edge_switch, spec.edge_port)
                     for spec in fabric.tree.hosts
                     if spec.name in set(expansion.hosts)}
        self.attachment.update(new_hosts)
        occupied = {port for _edge, port in new_hosts.values()}
        self.free[expansion.new_switch] = (
            scheme.host_port_capacity(expansion.new_switch) - occupied)


#: How long a partitioned shard stays severed before healing.
FM_PARTITION_S = 0.3


def _fm_partition(fabric, rng: random.Random) -> str:
    """Partition the fabric manager (or one shard of it) from the control
    network for :data:`FM_PARTITION_S` seconds, then heal.

    Sharded cluster: pick one shard, cut the control links of every switch
    homed on it and mark the shard partitioned (inter-shard traffic to/from
    it drops too); healing un-partitions the shard, which triggers a replica
    resync from the coordinator.  Classic single FM: total control outage.
    """
    control = fabric.control
    fm = fabric.fabric_manager
    sim = fabric.sim

    if hasattr(fm, "servers"):
        shard = rng.choice(fm.shards)
        links = [control.links_by_switch[sid]
                 for sid in sorted(control.links_by_switch)
                 if fm.home_index(sid) == shard.index]
        fm.set_partitioned(shard, True)
        label = f"fm-partition {shard.name}"

        def heal() -> None:
            for link in links:
                link.recover()
            fm.set_partitioned(shard, False)
    else:
        links = [control.links_by_switch[sid]
                 for sid in sorted(control.links_by_switch)]
        label = "fm-partition all"

        def heal() -> None:
            for link in links:
                link.recover()

    for link in links:
        link.fail()
    sim.schedule(FM_PARTITION_S, heal)
    return label


def _toggle_port(fabric, oracle: InvariantOracle, rng: random.Random,
                 pair: tuple[str, str]) -> str:
    """Disable one end of the switch link ``pair`` while the other end's
    next keepalive is serializing or on the wire toward it (an LDM
    arrival landmark, :data:`TOGGLE_OFFSETS_S`), and enable it again
    :data:`TOGGLE_HOLD_S` later. What reached the port is read at both
    instants; a disabled port receives nothing, so a difference is a
    ``disabled-rx`` violation (a streamed keepalive booked as received
    though its port was off when it arrived)."""
    sender, receiver = pair if rng.random() < 0.5 else pair[::-1]
    offset = rng.choice(TOGGLE_OFFSETS_S)
    link = fabric.link_between(*pair)
    port = link.a if link.a.node.name == receiver else link.b
    label = f"port-toggle {port.name} +{offset * 1e6:.1f}us"
    beacon_at = fabric.agents[sender].ldp.next_beacon_at
    if beacon_at is None:
        return label + " (sender silent)"
    sim = fabric.sim
    received = []

    def disable() -> None:
        port.enabled = False
        received.append(port.counters.rx_frames)

    def enable() -> None:
        if port.counters.rx_frames != received[0]:
            oracle.violations.append(Violation(
                "disabled-rx", port.name, sim.now,
                {"frames": port.counters.rx_frames - received[0]}))
        port.enabled = True

    sim.schedule_at(beacon_at + offset, disable)
    sim.schedule_at(beacon_at + offset + TOGGLE_HOLD_S, enable)
    return label


def _cut_under_an_ldm(fabric, oracle: InvariantOracle, rng: random.Random,
                      pair: tuple[str, str]) -> str:
    """Fail the switch link ``pair`` while the next keepalive one end
    beacons across it is in the other end's software path
    (:data:`CUT_OFFSETS_S`), and look :data:`CUT_CHECK_S` later: a
    neighbour listed on the dead port is a ``ghost-neighbor`` (its agent
    reported the link up)."""
    sender, receiver = pair if rng.random() < 0.5 else pair[::-1]
    offset = rng.choice(CUT_OFFSETS_S)
    link = fabric.link_between(*pair)
    port = link.a if link.a.node.name == receiver else link.b
    label = f"ldm-cut {port.name} +{offset * 1e6:.1f}us"
    beacon_at = fabric.agents[sender].ldp.next_beacon_at
    if beacon_at is None:
        link.fail()
        return label + " (sender silent)"
    sim = fabric.sim
    neighbors = fabric.agents[receiver].ldp.neighbors

    def check() -> None:
        if link.failed and port.index in neighbors:
            oracle.violations.append(Violation(
                "ghost-neighbor", port.name, sim.now,
                {"neighbor": neighbors[port.index].switch_id}))

    sim.schedule_at(beacon_at + offset, link.fail)
    sim.schedule_at(beacon_at + offset + CUT_CHECK_S, check)
    return label


#: Settling time after fail/recover steps before invariants are checked.
SETTLE_S = 0.4
#: Settling time after a migration step (downtime + adoption grace).
MIGRATE_SETTLE_S = 1.2
#: Settling time after an FM op (must cover heal + ≥2 refresh cycles).
FM_SETTLE_S = 1.6
#: Max links taken down by a single multi-link failure step.
MAX_LINKS_PER_FAILURE = 3
#: After the beacon that sends it, a keepalive on a campaign link (64
#: bytes at 1 Gb/s, 1 us of propagation) is serializing at the first
#: offset and on the wire at the second.
TOGGLE_OFFSETS_S = (0.3e-6, 1.0e-6)
#: How long a toggled port stays disabled: well inside LDP's miss
#: window, so the control plane does not react.
TOGGLE_HOLD_S = 0.002
#: After its beacon, a keepalive has reached the far switch (~1.7 us)
#: and is in its 50 us software path at both offsets.
CUT_OFFSETS_S = (5e-6, 30e-6)
#: When an ``ldm-cut``'s far end is looked at: after that packet-in,
#: well inside LDP's miss window.
CUT_CHECK_S = 100e-6
#: Aggregate background ARP-storm rate while ``churn`` is on (queries/s).
CHURN_RATE_PPS = 200.0


def run_scenario(scenario_seed: int, config: CampaignConfig) -> ScenarioResult:
    """Run one seeded scenario; returns its result (never raises on
    violations — they are data)."""
    rng = random.Random(scenario_seed)
    k = rng.choice(tuple(config.ks))
    result = ScenarioResult(seed=scenario_seed, k=k)

    sim = Simulator(seed=scenario_seed)
    fabric = _converged_fabric(sim, k, config, topo_seed=scenario_seed)
    oracle = InvariantOracle(fabric)
    _start_probes(fabric, rng, config)
    if config.churn:
        from repro.workloads.arp_workload import ArpStorm

        ArpStorm(sim, fabric.host_list(),
                 per_host_rate=CHURN_RATE_PPS
                 / max(1, len(fabric.host_list())),
                 rng=random.Random(scenario_seed ^ 0x5A5A)).start()
    sim.run(until=sim.now + 0.1)

    hosts = fabric.host_list()
    #: (src, dst) host pairs currently ACL-blocked (policy ops only).
    acls: list[tuple] = []

    candidates = fabric.scheme.fault_candidate_links()
    failed: dict[tuple[str, str], object] = {}
    planner = _MigrationPlanner(fabric)
    by_switch: dict[str, list[tuple[str, str]]] = {}
    for a, b in candidates:
        by_switch.setdefault(a, []).append((a, b))
        by_switch.setdefault(b, []).append((a, b))

    for _step in range(config.steps):
        settle = SETTLE_S
        alive =[link for link in candidates if link not in failed]
        ops = ["fail", "fail", "fail-switch", "recover"]
        if config.migrate:
            ops.append("migrate")
            if config.churn:
                # Churn scenarios: weight the mix toward re-registration
                # pressure (migrations ride on the background ARP storm).
                ops.append("migrate")
        if config.fm_ops:
            ops.extend(["fm-restart", "fm-partition"])
        if config.expand and config.backend == "jellyfish":
            ops.append("expand")
        if config.policy:
            ops.extend(["acl-install", "acl-install", "acl-revoke"])
        if config.ports:
            ops.append("port-toggle")
        if config.ldm_cuts:
            ops.append("ldm-cut")
        op = rng.choice(ops)
        if op == "recover" and not failed:
            op = "fail"
        if (op in ("fail", "fail-switch", "port-toggle", "ldm-cut")
                and not alive):
            op = "recover"
        if op == "acl-revoke" and not acls:
            op = "acl-install"

        if op == "fail":
            count = rng.randint(1, min(MAX_LINKS_PER_FAILURE, len(alive)))
            chosen = rng.sample(alive, count)
            for pair in chosen:
                failed[pair] = fabric.link_between(*pair)
                failed[pair].fail()
            result.steps.append(
                "fail " + " ".join(f"{a}<->{b}" for a, b in chosen))
        elif op == "fail-switch":
            name = rng.choice(sorted(by_switch))
            chosen = [pair for pair in by_switch[name] if pair not in failed]
            for pair in chosen:
                failed[pair] = fabric.link_between(*pair)
                failed[pair].fail()
            result.steps.append(f"fail-switch {name}")
        elif op == "recover":
            pairs = sorted(failed)
            count = rng.randint(1, len(pairs))
            for pair in rng.sample(pairs, count):
                failed.pop(pair).recover()
            result.steps.append(f"recover x{count}")
        elif op == "migrate":
            move = planner.pick(rng)
            if move is None:
                result.steps.append("migrate (no target)")
                continue
            host, edge, port = move
            VmMigration(fabric, host, new_edge=edge, new_port=port,
                        downtime_s=0.1).start()
            planner.commit(host, edge, port)
            settle = MIGRATE_SETTLE_S
            result.steps.append(f"migrate {host}->{edge}:{port}")
        elif op == "expand":
            from repro.errors import TopologyError
            from repro.topology.expansion import expand_jellyfish_live

            try:
                expansion = expand_jellyfish_live(
                    fabric, seed=rng.randrange(2 ** 31))
            except TopologyError as exc:
                result.steps.append(f"expand (skipped: {exc})")
                continue
            # Spliced links no longer exist: drop them from the fault
            # bookkeeping and recompute the candidate pool (which now
            # includes the new switch's links).
            for pair in expansion.spliced:
                failed.pop(pair, None)
            candidates = fabric.scheme.fault_candidate_links()
            by_switch = {}
            for a, b in candidates:
                by_switch.setdefault(a, []).append((a, b))
                by_switch.setdefault(b, []).append((a, b))
            planner.adopt_switch(fabric, expansion)
            settle = max(settle, MIGRATE_SETTLE_S)
            result.steps.append(
                f"expand +{expansion.new_switch}"
                f" (spliced {len(expansion.spliced)})")
        elif op == "fm-restart":
            fm = fabric.fabric_manager
            if hasattr(fm, "servers"):
                # Sharded: crash one random server (shard or coordinator).
                target = rng.choice(fm.servers)
                target.restart()
                result.steps.append(f"fm-restart {target.name}")
            else:
                fm.restart()
                result.steps.append("fm-restart")
            settle = max(settle, FM_SETTLE_S)
        elif op == "fm-partition":
            settle = max(settle, FM_SETTLE_S)
            result.steps.append(_fm_partition(fabric, rng))
        elif op == "port-toggle":
            result.steps.append(
                _toggle_port(fabric, oracle, rng, rng.choice(alive)))
        elif op == "ldm-cut":
            pair = rng.choice(alive)
            failed[pair] = fabric.link_between(*pair)
            result.steps.append(_cut_under_an_ldm(fabric, oracle, rng, pair))
        elif op == "acl-install":
            src, dst = rng.sample(hosts, 2)
            fabric.fabric_manager.install_acl(src.ip, dst.ip)
            acls.append((src, dst))
            result.steps.append(f"acl-install {src.name}->{dst.name}")
        elif op == "acl-revoke":
            src, dst = acls.pop(rng.randrange(len(acls)))
            fabric.fabric_manager.revoke_acl(src.ip, dst.ip)
            result.steps.append(f"acl-revoke {src.name}->{dst.name}")

        sim.run(until=sim.now + settle)
        oracle.check_now()
        if oracle.violations:
            break

    result.failed_links = sorted(failed)
    result.violations = list(oracle.violations)
    result.hops = oracle.hops
    result.path_launches = fabric.path_cache_stats().get("launches", 0)
    result.flow_paths = oracle.flow_paths
    result.flow_stats = fabric.flow_engine_stats()
    oracle.close()
    return result


# ----------------------------------------------------------------------
# Shrinking


#: Settling time of a static re-check after its links are failed.
STATIC_SETTLE_S = 0.6


def static_violations_for_links(k: int, links,
                                config: CampaignConfig | None = None,
                                topo_seed: int = 0) -> list[Violation]:
    """Static-check violations after failing ``links`` simultaneously on
    a fresh, converged fabric of ``config``'s shape (its ``fabric``,
    backend and FM-op refresh period; the default row when omitted). The
    reproduction predicate for shrinking."""
    sim = Simulator(seed=1)
    fabric = _converged_fabric(sim, k, config or CampaignConfig(), topo_seed)
    for a, b in links:
        fabric.link_between(a, b).fail()
    sim.run(until=sim.now + STATIC_SETTLE_S)
    oracle = InvariantOracle(fabric, track_hops=False)
    found = oracle.check_now()
    oracle.close()
    return found


def shrink_failure_links(k: int, links, predicate=None,
                         config: CampaignConfig | None = None,
                         topo_seed: int = 0) -> list[tuple[str, str]]:
    """Greedy one-at-a-time minimisation of a failing link set.

    ``predicate(candidate_links) -> bool`` decides whether the violation
    still reproduces; the default re-runs the static checks on a fresh
    fabric of ``config``'s shape. Returns a subset no single element of
    which can be removed.
    """
    if predicate is None:
        def predicate(candidate):
            return bool(static_violations_for_links(
                k, candidate, config, topo_seed=topo_seed))
    current = list(links)
    changed = True
    while changed:
        changed = False
        for link in list(current):
            candidate = [l for l in current if l != link]
            if predicate(candidate):
                current = candidate
                changed = True
    return current


# ----------------------------------------------------------------------
# The campaign


def _plain_value(value):
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    if isinstance(value, (tuple, list)):
        return tuple(_plain_value(v) for v in value)
    return str(value)


def _sanitize_result(result: ScenarioResult) -> ScenarioResult:
    """Render violation details to primitives so results cross a process
    boundary (details may reference live frames/switches)."""
    result.violations = [
        Violation(v.kind, v.where, v.time,
                  {k: _plain_value(val) for k, val in v.detail.items()})
        for v in result.violations
    ]
    return result


def _scenario_worker(payload) -> ScenarioResult:
    """Module-level so multiprocessing can import it in workers."""
    seed, config = payload
    return _sanitize_result(run_scenario(seed, config))


def _compute_results(config: CampaignConfig) -> list[ScenarioResult]:
    """All scenario results, in index order, sharded over
    ``config.parallel`` worker processes when asked to."""
    payloads = [(scenario_seed_for(config, index), config)
                for index in range(config.scenarios)]
    workers = min(max(1, config.parallel), len(payloads))
    if workers > 1:
        import multiprocessing

        ctx = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else "spawn")
        with ctx.Pool(workers) as pool:
            # chunksize=1: scenarios vary a lot in cost (k is drawn per
            # seed), so fine-grained dispatch balances the pool.
            return pool.map(_scenario_worker, payloads, chunksize=1)
    return [_scenario_worker(payload) for payload in payloads]


#: How many failing scenarios a campaign shrinks (shrinking rebuilds
#: fabrics).
MAX_SHRINKS = 3


def run_campaign(config: CampaignConfig | None = None,
                 log=None) -> CampaignReport:
    """Run a full campaign. ``log`` (e.g. ``print``) gets progress lines."""
    config = config or CampaignConfig()
    report = CampaignReport(config=config)
    shrinks_left = MAX_SHRINKS
    for index, result in enumerate(_compute_results(config)):
        seed = result.seed
        report.results.append(result)
        if log is not None:
            status = "ok" if result.ok else (
                "VIOLATION: " + ", ".join(str(v) for v in result.violations[:3]))
            log(f"scenario {index + 1}/{config.scenarios} seed={seed} "
                f"k={result.k} [{'; '.join(result.steps)}] -> {status}")
        if result.ok:
            continue
        kinds = tuple(sorted({v.kind for v in result.violations}))
        if result.failed_links and shrinks_left > 0 and bool(
                static_violations_for_links(result.k, result.failed_links,
                                            config, topo_seed=seed)):
            shrinks_left -= 1
            minimal = shrink_failure_links(result.k, result.failed_links,
                                           config=config, topo_seed=seed)
            reproducer = Reproducer(seed, result.k, minimal, kinds,
                                    static=True, backend=config.backend)
        else:
            reproducer = Reproducer(seed, result.k, result.failed_links,
                                    kinds, static=False,
                                    backend=config.backend)
        report.reproducers.append(reproducer)
        if log is not None:
            log(f"  reproducer: {reproducer}")
    return report
