"""Seeded property-based fault campaigns with failing-case shrinking.

A *campaign* runs N independent *scenarios*. Each scenario builds a
fresh fabric (its k drawn from a configurable set), converges it,
attaches the runtime :class:`~repro.verify.oracle.InvariantOracle`,
starts a handful of probe flows, and then performs a random sequence of
steps — multi-link failures, whole-switch failures, recoveries, VM
migrations and the rest of the rows of :data:`OPS` — running the full
static invariant suite after each step settles. Everything derives from
the scenario seed, so a reported failure is replayed bit-for-bit by
rerunning with that seed.

A scenario that fails on a set of concurrently failed links is *shrunk*
to a minimal link set that still fails the static checks on a fresh
fabric of its shape: the reproducer the report prints (``docs/VERIFY.md``
says how to replay one).

The configurations the campaign is run in are the rows of :data:`LANES`,
the one place a lane is spelled (``portland-sim verify LANE``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Callable

from repro.host.apps import UdpStreamReceiver, UdpStreamSender
from repro.net import AppData, EthernetFrame, mac
from repro.net.link import DEFAULT_DELAY_S, DEFAULT_RATE_BPS
from repro.portland.config import PortlandConfig
from repro.portland.migration import VmMigration
from repro.sim.simulator import Simulator
from repro.topology.builder import build_portland_fabric
from repro.topology.scheme import scheme_for_backend
from repro.verify.invariants import Violation
from repro.verify.oracle import InvariantOracle


#: The op mix of every lane whose row does not name its own.
BASE_OPS = ("fail", "fail", "fail-switch", "recover", "migrate")


@dataclass(frozen=True)
class CampaignConfig:
    """Knobs for one campaign run (the named ones are :data:`LANES`)."""

    scenarios: int = 25
    seed: int = 7
    #: "fattree", "jellyfish" or "twolayer" (``ks`` scales all three:
    #: :func:`repro.topology.scheme.scheme_for_backend`).
    backend: str = "fattree"
    #: Fat-tree degrees to draw from, one per scenario.
    ks: tuple[int, ...] = (4,)
    #: Random steps per scenario (it stops at its first violating one).
    steps: int = 4
    #: Probe flows kept running so the runtime oracle sees real traffic.
    probe_pairs: int = 4
    probe_rate_pps: float = 200.0
    #: What each step draws from, uniformly: names of :data:`OPS` rows,
    #: repeated to weigh them. ``expand`` needs the jellyfish backend;
    #: an ``fm-`` op implies a fast soft-state refresh
    #: (:data:`FM_REFRESH_S`) so scenarios heal within :data:`FM_SETTLE_S`.
    ops: tuple[str, ...] = BASE_OPS
    #: Shape of every scenario fabric, carried whole. With ``flow_mode``
    #: on, probes become open-ended fluid flows whose every re-pinned
    #: ``verify.flow`` hop list the oracle checks too; ``"hybrid"``
    #: alternates fluid and frame probes on the same faulted fabric.
    fabric: PortlandConfig = field(default_factory=PortlandConfig)
    #: Worker processes scenarios are sharded over (1 = in-process). Each
    #: builds a fresh fabric from its own seed, so results are identical
    #: at any worker count; shrinking stays in the parent.
    parallel: int = 1
    #: Run a background ARP storm for the whole scenario: the registry
    #: (and the ACL re-push) under continuous re-registration traffic.
    churn: bool = False

    def __post_init__(self) -> None:
        unknown = sorted(set(self.ops) - set(OPS))
        if unknown:
            raise ValueError(f"unknown campaign ops {unknown} "
                             f"(choose from {', '.join(OPS)})")
        if "expand" in self.ops and self.backend != "jellyfish":
            raise ValueError("the expand op splices a Jellyfish fabric; "
                             f"backend is {self.backend!r}")


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
    #: Whether the shrunk link set alone reproduces the violation on a
    #: fresh fabric; if not (sequence-dependent, or out of shrink budget)
    #: replay the scenario seed.
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
        # Frame-mode scenarios check per-frame hops, flow-mode ones whole
        # resolved flow paths: one of the two is 0, so one column serves.
        return [[r.seed, r.k, len(r.steps), r.hops + r.flow_paths,
                 len(r.violations), "ok" if r.ok else ",".join(
                     sorted({v.kind for v in r.violations}))]
                for r in self.results]


def scenario_seed_for(config: CampaignConfig, index: int) -> int:
    """The derived seed of scenario ``index`` (stable across runs)."""
    return config.seed * 1000 + index


# ----------------------------------------------------------------------
# One scenario


#: Hosts wired per edge switch (fewer than k/2 leaves migration targets).
HOSTS_PER_EDGE = 1
#: Soft-state refresh period of the fabric when a lane draws ``fm-`` ops.
FM_REFRESH_S = 0.5


def _converged_fabric(sim: Simulator, k: int, config: CampaignConfig,
                      topo_seed: int):
    """A converged fabric of ``config``'s shape: what a scenario, its
    static re-check and its shrinking all build."""
    shape = config.fabric
    if any(op.startswith("fm-") for op in config.ops):
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
    count = min(config.probe_pairs, len(hosts) // 2)
    shuffled = hosts[:]
    rng.shuffle(shuffled)
    flow_mode = config.fabric.flow_mode
    hybrid = flow_mode == "hybrid"
    for i in range(count):
        src, dst = shuffled[2 * i], shuffled[2 * i + 1]
        if flow_mode and not (hybrid and i % 2):
            # Open-ended: re-resolved (``verify.flow``) after every step.
            fabric.flow_engine.start_flow(
                src, dst.ip, demand_bps=FLUID_PROBE_BPS,
                dport=6000 + i, name=f"probe-{i}")
        else:  # every pair in frame mode, every other one in hybrid mode
            UdpStreamReceiver(dst, 6000 + i)
            UdpStreamSender(src, dst.ip, 6000 + i,
                            rate_pps=config.probe_rate_pps).start()


class _Scenario:
    """What the ops of one scenario act on and keep between its steps:
    the step labels, the links failed now (and their links), the host
    pairs ACL-blocked now, the links faults are drawn from, and where
    each host is attached and which host ports are free."""

    def __init__(self, fabric, oracle: InvariantOracle,
                 steps: list[str]) -> None:
        self.fabric, self.oracle, self.steps = fabric, oracle, steps
        self.hosts = fabric.host_list()
        self.failed: dict[tuple[str, str], object] = {}
        self.acls: list[tuple] = []
        self.attachment: dict[str, tuple[str, int]] = {}
        self.free: dict[str, set[int]] = {}
        self.adopt(set(fabric.tree.edge_names))
        self.index_links()

    def index_links(self) -> None:
        self.candidates = self.fabric.scheme.fault_candidate_links()
        self.by_switch: dict[str, list[tuple[str, str]]] = {}
        for a, b in self.candidates:
            self.by_switch.setdefault(a, []).append((a, b))
            self.by_switch.setdefault(b, []).append((a, b))

    def adopt(self, edges: set[str]) -> None:
        """Track ``edges`` and the hosts wired to them: every edge at the
        start, and a switch live Jellyfish expansion spliced in."""
        for spec in self.fabric.tree.hosts:
            if spec.edge_switch in edges:
                self.attachment[spec.name] = (spec.edge_switch, spec.edge_port)
        for edge in edges:
            self.free[edge] = self.fabric.scheme.host_port_capacity(edge) - {
                port for at, port in self.attachment.values() if at == edge}

    def move(self, rng: random.Random):
        """A random (host, new_edge, new_port) move, booked, or None."""
        hosts = sorted(self.attachment)
        rng.shuffle(hosts)
        for host in hosts:
            old_edge, old_port = self.attachment[host]
            targets = sorted(edge for edge, ports in self.free.items()
                             if ports and edge != old_edge)
            if targets:
                edge = rng.choice(targets)
                port = min(self.free[edge])
                self.free[old_edge].add(old_port)
                self.free[edge].discard(port)
                self.attachment[host] = (edge, port)
                return host, edge, port
        return None

    @property
    def alive(self) -> list[tuple[str, str]]:
        return [link for link in self.candidates if link not in self.failed]

    def fail(self, pairs) -> None:
        for pair in pairs:
            link = self.failed[pair] = self.fabric.link_between(*pair)
            link.fail()


# ----------------------------------------------------------------------
# The ops: each takes a step, logs its label and returns how long to
# settle before the checks (None: it did nothing, so neither happens).


#: Settling time after fail/recover steps before invariants are checked.
SETTLE_S = 0.4
#: Settling time after a migration step (downtime + adoption grace).
MIGRATE_SETTLE_S = 1.2
#: Settling time after an FM op (must cover heal + ≥2 refresh cycles).
FM_SETTLE_S = 1.6
#: Max links taken down by a single multi-link failure step.
MAX_LINKS_PER_FAILURE = 3


def _fail(s: _Scenario, rng: random.Random) -> float:
    alive = s.alive
    count = rng.randint(1, min(MAX_LINKS_PER_FAILURE, len(alive)))
    chosen = rng.sample(alive, count)
    s.fail(chosen)
    s.steps.append("fail " + " ".join(f"{a}<->{b}" for a, b in chosen))
    return SETTLE_S


def _fail_switch(s: _Scenario, rng: random.Random) -> float:
    name = rng.choice(sorted(s.by_switch))
    s.fail([pair for pair in s.by_switch[name] if pair not in s.failed])
    s.steps.append(f"fail-switch {name}")
    return SETTLE_S


def _recover(s: _Scenario, rng: random.Random) -> float:
    pairs = sorted(s.failed)
    count = rng.randint(1, len(pairs))
    for pair in rng.sample(pairs, count):
        s.failed.pop(pair).recover()
    s.steps.append(f"recover x{count}")
    return SETTLE_S


def _migrate(s: _Scenario, rng: random.Random) -> float | None:
    move = s.move(rng)
    if move is None:
        s.steps.append("migrate (no target)")
        return None
    host, edge, port = move
    VmMigration(s.fabric, host, new_edge=edge, new_port=port,
                downtime_s=0.1).start()
    s.steps.append(f"migrate {host}->{edge}:{port}")
    return MIGRATE_SETTLE_S


def _expand(s: _Scenario, rng: random.Random) -> float | None:
    """Splice a new switch into the running Jellyfish fabric
    (:func:`repro.topology.expansion.expand_jellyfish_live`). The splice
    needs an even switch degree: it engages on odd ``ks`` (degree
    ``k-1``) and records a skip otherwise."""
    from repro.errors import TopologyError
    from repro.topology.expansion import expand_jellyfish_live

    try:
        expansion = expand_jellyfish_live(
            s.fabric, seed=rng.randrange(2 ** 31))
    except TopologyError as exc:
        s.steps.append(f"expand (skipped: {exc})")
        return None
    # Spliced links no longer exist; the new switch's links are candidates.
    for pair in expansion.spliced:
        s.failed.pop(pair, None)
    s.index_links()
    s.adopt({expansion.new_switch})
    s.steps.append(f"expand +{expansion.new_switch}"
                   f" (spliced {len(expansion.spliced)})")
    return MIGRATE_SETTLE_S


def _fm_restart(s: _Scenario, rng: random.Random) -> float:
    """Crash the fabric manager, or one random server of its cluster."""
    fm = s.fabric.fabric_manager
    target = rng.choice(fm.servers) if hasattr(fm, "servers") else fm
    target.restart()
    s.steps.append("fm-restart" if target is fm else f"fm-restart {target.name}")
    return FM_SETTLE_S


#: How long a partitioned shard stays severed before healing.
FM_PARTITION_S = 0.3


def _fm_partition(s: _Scenario, rng: random.Random) -> float:
    """Cut the fabric manager's control links for :data:`FM_PARTITION_S`
    seconds, then heal. On a sharded cluster only one shard's switches
    lose them, and the shard is marked partitioned (inter-shard traffic
    drops too) until healing triggers its resync from the coordinator."""
    control = s.fabric.control
    fm = s.fabric.fabric_manager
    shard = rng.choice(fm.shards) if hasattr(fm, "servers") else None
    links = [control.links_by_switch[sid]
             for sid in sorted(control.links_by_switch)
             if shard is None or fm.home_index(sid) == shard.index]
    if shard is not None:
        fm.set_partitioned(shard, True)
    s.steps.append(f"fm-partition {'all' if shard is None else shard.name}")

    def heal() -> None:
        for link in links:
            link.recover()
        if shard is not None:
            fm.set_partitioned(shard, False)

    for link in links:
        link.fail()
    s.fabric.sim.schedule(FM_PARTITION_S, heal)
    return FM_SETTLE_S


def _after_a_beacon(s: _Scenario, rng: random.Random, name: str,
                    offsets: tuple[float, ...]):
    """A live link for a keepalive-timed op: the link, the port the next
    keepalive across it reaches, the op's label and the instant one of
    ``offsets`` after that keepalive's beacon (None: the sender is silent)."""
    pair = rng.choice(s.alive)
    sender, receiver = pair if rng.random() < 0.5 else pair[::-1]
    offset = rng.choice(offsets)
    link = s.fabric.link_between(*pair)
    port = link.a if link.a.node.name == receiver else link.b
    label = f"{name} {port.name} +{offset * 1e6:.1f}us"
    beacon_at = s.fabric.agents[sender].ldp.next_beacon_at
    if beacon_at is None:
        return pair, link, port, label + " (sender silent)", None
    return pair, link, port, label, beacon_at + offset


#: After the beacon that sends it, a keepalive on a campaign link (64
#: bytes at 1 Gb/s, 1 us of propagation) is serializing at the first
#: offset and on the wire at the second.
TOGGLE_OFFSETS_S = (0.3e-6, 1.0e-6)
#: How long a toggled port stays disabled: well inside LDP's miss
#: window, so the control plane does not react.
TOGGLE_HOLD_S = 0.002


def _toggle_port(s: _Scenario, rng: random.Random) -> float:
    """Disable the port a keepalive is serializing or on the wire toward
    (:data:`TOGGLE_OFFSETS_S`) and enable it :data:`TOGGLE_HOLD_S` later.
    A disabled port receives nothing: a frame counted in between is a
    ``disabled-rx`` violation (a streamed keepalive booked as received)."""
    _pair, _link, port, label, at = _after_a_beacon(
        s, rng, "port-toggle", TOGGLE_OFFSETS_S)
    s.steps.append(label)
    if at is None:
        return SETTLE_S
    sim = s.fabric.sim
    received = []

    def disable() -> None:
        port.enabled = False
        received.append(port.counters.rx_frames)

    def enable() -> None:
        if port.counters.rx_frames != received[0]:
            s.oracle.violations.append(Violation(
                "disabled-rx", port.name, sim.now,
                {"frames": port.counters.rx_frames - received[0]}))
        port.enabled = True

    sim.schedule_at(at, disable)
    sim.schedule_at(at + TOGGLE_HOLD_S, enable)
    return SETTLE_S


#: After its beacon, a keepalive has reached the far switch (~1.7 us)
#: and is in its 50 us software path at both offsets.
CUT_OFFSETS_S = (5e-6, 30e-6)
#: An ``arrival-cut``'s offset: a keepalive's flight on a campaign link
#: (64 bytes plus preamble and gap at 1 Gb/s, then 1 us), to the bit.
ARRIVAL_OFFSETS_S = ((64 + 20) * (8.0 / DEFAULT_RATE_BPS) + DEFAULT_DELAY_S,)
#: When an ``ldm-cut``'s far end is looked at: after that packet-in,
#: well inside LDP's miss window.
CUT_CHECK_S = 100e-6


def _cut_under_an_ldm(s: _Scenario, rng: random.Random, name="ldm-cut",
                      offsets=CUT_OFFSETS_S) -> float:
    """Fail a live switch link while a keepalive sent across it is in the
    receiving switch's software path (:data:`CUT_OFFSETS_S`) or, as an
    ``arrival-cut``, at the exact instant it reaches the far port, and
    look :data:`CUT_CHECK_S` later: a neighbour listed on the dead port
    is a ``ghost-neighbor`` (its agent reported the link up). The cut is
    scheduled before the keepalive is sent, so it wins a tie: a frame
    the far port counted from 1 ns before it on is a ``cut-arrival``."""
    pair, link, port, label, at = _after_a_beacon(s, rng, name, offsets)
    s.failed[pair] = link
    s.steps.append(label)
    if at is None:
        link.fail()
        return SETTLE_S
    sim, before = s.fabric.sim, []
    neighbors = s.fabric.agents[port.node.name].ldp.neighbors

    def check() -> None:
        if link.failed and port.index in neighbors:
            s.oracle.violations.append(Violation(
                "ghost-neighbor", port.name, sim.now,
                {"neighbor": neighbors[port.index].switch_id}))
        if port.counters.rx_frames != before[0]:
            s.oracle.violations.append(
                Violation("cut-arrival", port.name, at, {}))

    sim.schedule_at(at - 1e-9, lambda: before.append(port.counters.rx_frames))
    sim.schedule_at(at, link.fail)
    sim.schedule_at(at + CUT_CHECK_S, check)
    return SETTLE_S


#: A ``flap``'s frame: Ethernet loopback-test to a multicast address no
#: group uses, dropped within a hop or two and outside every flow the
#: oracle follows; 1,400 bytes hold a campaign link for 11.5 us.
FLAP_FRAME = (mac("03:00:00:00:00:00"), mac("02:00:00:00:00:00"), 0x9000)
FLAP_BYTES = 1400
#: When a ``flap``'s arrivals are judged: its last frame is due 27 us in.
FLAP_CHECK_S = 200e-6


def _flap(s: _Scenario, rng: random.Random) -> float:
    """Send two frames back to back across a live link (one serializes,
    one waits), cut it 1 us later, make it whole 1 us after that and send
    two more. Two arrivals closer than a serialization time are an
    ``overlap`` (a frame clocked out over another, as an end of
    serialization that died in the cut would start one)."""
    link = s.fabric.link_between(*rng.choice(s.alive))
    port = link.a if rng.random() < 0.5 else link.b
    far = link.other_end(port)
    frames = [EthernetFrame(*FLAP_FRAME, AppData(FLAP_BYTES))
              for _ in range(4)]
    serialization = link.serialization_time(frames[0])
    sim = s.fabric.sim
    arrivals = []
    far.node.rx_tap = lambda frame, _port: arrivals.extend(
        sim.now for mine in frames if frame is mine)

    def check() -> None:
        far.node.rx_tap = None
        for before, after in zip(arrivals, arrivals[1:]):
            if after - before < serialization - 1e-12:
                s.oracle.violations.append(Violation(
                    "overlap", far.name, after,
                    {"gap_us": round((after - before) * 1e6, 3)}))

    port.send(frames[0])
    port.send(frames[1])
    sim.schedule(1e-6, link.fail)
    sim.schedule(2e-6, link.recover)
    sim.schedule(3e-6, port.send, frames[2])
    sim.schedule(4e-6, port.send, frames[3])
    sim.schedule(FLAP_CHECK_S, check)
    s.steps.append(f"flap {port.name}")
    return SETTLE_S


def _acl_install(s: _Scenario, rng: random.Random) -> float:
    """Block a random host pair through the fabric manager. The static
    checks then also prove every ACL'd pair's drops are justified (never
    blackholes) and that nothing is delivered across an installed rule
    (``acl-leak``)."""
    src, dst = rng.sample(s.hosts, 2)
    s.fabric.fabric_manager.install_acl(src.ip, dst.ip)
    s.acls.append((src, dst))
    s.steps.append(f"acl-install {src.name}->{dst.name}")
    return SETTLE_S


def _acl_revoke(s: _Scenario, rng: random.Random) -> float:
    src, dst = s.acls.pop(rng.randrange(len(s.acls)))
    s.fabric.fabric_manager.revoke_acl(src.ip, dst.ip)
    s.steps.append(f"acl-revoke {src.name}->{dst.name}")
    return SETTLE_S


#: Every op a lane can draw (``CampaignConfig.ops``): name -> (its step,
#: the :class:`_Scenario` attribute the step needs non-empty, and the op
#: taken instead when it is empty).
OPS: dict[str, tuple[Callable, str | None, str | None]] = {
    "fail": (_fail, "alive", "recover"),
    "fail-switch": (_fail_switch, "alive", "recover"),
    "recover": (_recover, "failed", "fail"),
    "migrate": (_migrate, None, None),
    "expand": (_expand, None, None),
    "fm-restart": (_fm_restart, None, None),
    "fm-partition": (_fm_partition, None, None),
    "port-toggle": (_toggle_port, "alive", "recover"),
    "ldm-cut": (_cut_under_an_ldm, "alive", "recover"),
    "flap": (_flap, "alive", "recover"),
    "arrival-cut": (lambda s, rng: _cut_under_an_ldm(
        s, rng, "arrival-cut", ARRIVAL_OFFSETS_S), "alive", "recover"),
    "acl-install": (_acl_install, None, None),
    "acl-revoke": (_acl_revoke, "acls", "acl-install"),
}


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

    scenario = _Scenario(fabric, oracle, result.steps)
    for _step in range(config.steps):
        step, needs, fallback = OPS[rng.choice(config.ops)]
        if needs and not getattr(scenario, needs):
            step = OPS[fallback][0]
        settle = step(scenario, rng)
        if settle is None:
            continue
        sim.run(until=sim.now + settle)
        oracle.check_now()
        if oracle.violations:
            break

    result.failed_links = sorted(scenario.failed)
    result.violations = list(oracle.violations)
    result.hops = oracle.hops
    result.flow_paths = oracle.flow_paths
    result.flow_stats = fabric.flow_engine_stats()
    oracle.close()
    return result


#: The verify lanes: every configuration the campaign is run in, by name
#: (``portland-sim verify LANE``, ``make verify-LANE``). A configuration
#: that is not a lane is ``dataclasses.replace`` on a row. A new op goes
#: into a new row, so the existing rows draw exactly as before.
LANES: dict[str, CampaignConfig] = {
    "default": CampaignConfig(),
    # Fluid probes; the oracle checks every resolved flow path.
    "flows": CampaignConfig(fabric=PortlandConfig(flow_mode=True)),
    # Probe pairs alternate between fluid flows and frame UDP streams on
    # capacity-coupled links.
    "hybrid": CampaignConfig(fabric=PortlandConfig(flow_mode="hybrid")),
    # Sharded over 4 worker processes: results identical to "default".
    "parallel": CampaignConfig(parallel=4),
    # ACL steps: justified drops, no acl-leak.
    "policy": CampaignConfig(
        ops=BASE_OPS + ("acl-install", "acl-install", "acl-revoke")),
    # 4-way FM shard cluster, batched override pushes, FM crashes and
    # partitions ...
    "fm": CampaignConfig(
        fabric=PortlandConfig(fm_shards=4, fm_batch_interval_s=0.02),
        ops=BASE_OPS + ("fm-restart", "fm-partition")),
    # ... and the same at k=8 under host churn and more migrations.
    "fm-churn": CampaignConfig(
        scenarios=5, ks=(8,),
        fabric=PortlandConfig(fm_shards=4, fm_batch_interval_s=0.02),
        ops=BASE_OPS + ("migrate", "fm-restart", "fm-partition"),
        churn=True),
    # The cross-fabric conformance gate (the fat tree is "default").
    "topo-jellyfish": CampaignConfig(backend="jellyfish"),
    "topo-twolayer": CampaignConfig(backend="twolayer"),
    # Port toggles at keepalive arrivals: no disabled-rx.
    "ports": CampaignConfig(ops=BASE_OPS + ("port-toggle",)),
    # Link cuts under a keepalive's packet-in: no ghost-neighbor.
    "ldm-cuts": CampaignConfig(ops=BASE_OPS + ("ldm-cut",)),
    # Live Jellyfish expansion (odd k: even degree, so the splice
    # engages); no fault outlives its link (stale-fault).
    "expand": CampaignConfig(backend="jellyfish", ks=(5,),
                             ops=BASE_OPS + ("expand",)),
    # 1 us link flaps under a waiting frame: no overlap.
    "flaps": CampaignConfig(ops=BASE_OPS + ("flap",)),
    # Link cuts at a keepalive's exact arrival instant: no cut-arrival.
    "arrival-cuts": CampaignConfig(ops=BASE_OPS + ("arrival-cut",)),
}


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
    """Greedy one-at-a-time minimisation of a failing link set: a subset
    no single link of which can be dropped while ``predicate(links)``
    (default: the static checks on a fresh fabric of ``config``'s shape)
    still holds."""
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


def _scenario_worker(payload) -> ScenarioResult:
    """One scenario, its violation details rendered to primitives so the
    result crosses a process boundary (details may reference live frames
    and switches). Module-level so multiprocessing can import it."""
    result = run_scenario(*payload)
    result.violations = [
        Violation(v.kind, v.where, v.time,
                  {k: _plain_value(val) for k, val in v.detail.items()})
        for v in result.violations
    ]
    return result


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
        links = result.failed_links
        static = bool(links and shrinks_left > 0 and static_violations_for_links(
            result.k, links, config, topo_seed=seed))
        if static:
            shrinks_left -= 1
            links = shrink_failure_links(result.k, links, config=config,
                                         topo_seed=seed)
        reproducer = Reproducer(seed, result.k, links, kinds, static=static,
                                backend=config.backend)
        report.reproducers.append(reproducer)
        if log is not None:
            log(f"  reproducer: {reproducer}")
    return report
