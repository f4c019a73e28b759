"""Sharded fabric manager: scaled-out mechanism, centralized policy.

The paper's fabric manager is one process; production descendants
(VL2's directory service, Jupiter) kept the centralized *policy* but
scaled out the *mechanism*. This module models that split:

* **Shards** (:class:`FmShard`) own the switch control links and a
  pod-aligned slice of the IP→PMAC registry. Each shard is its own
  single-server queue with its own ``fm_service_time_s`` accounting, so
  ARP service capacity scales with the shard count. A switch's *home
  shard* is chosen by its structural pod (parsed from the topology
  name, falling back to round-robin); a host record's *owner shard* is
  chosen by the pod octet of its IP (``10.pod.edge.host``), so for fat
  trees same-pod lookups stay local and only cross-pod queries pay one
  inter-shard hop.
* **The coordinator** (:class:`FmCoordinator`) owns everything that
  needs a global view: pod assignment, the topology view and the
  authoritative fault matrix, multicast trees, and the override
  push. It has no switch links — shards relay its messages — and it
  replicates the fault matrix plus the edge directory to the shards so
  they can fan out ARP floods and broadcasts without a coordinator
  round-trip.
* **The cluster facade** (:class:`FmShardCluster`) presents the same
  surface a single :class:`FabricManager` does (``hosts_by_ip``,
  ``view()``, counters, ``restart()``), so the builder, the invariant
  oracle, and the workloads run unchanged against either deployment.

Inter-shard traffic is modeled as internal messages that pay the
control-network propagation delay plus a normal service slot at the
receiving server, and is counted separately (``intershard_messages`` /
``intershard_bytes``) from switch-facing control traffic so fig. 14
comparisons stay apples-to-apples. Partitioning a shard severs this
internal delivery too (see :meth:`FmShardCluster.set_partitioned`).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.net.addresses import IPv4Address, MacAddress
from repro.net.link import Port
from repro.portland.config import PortlandConfig
from repro.portland.control import CONTROL_DELAY_S
from repro.portland.fabric_manager import FabricManager, FmHostRecord
from repro.portland.messages import (
    ArpQuery,
    ArpResponse,
    BroadcastRelay,
    FmMessage,
    IgmpRelay,
    LinkFail,
    LinkRecover,
    McastMiss,
    NeighborReport,
    OverrideReport,
    PodRequest,
    RegisterHost,
)
from repro.sim.simulator import Simulator

#: Structural-pod hint in builder switch names (``edge-p3-s1`` → 3).
_POD_IN_NAME = re.compile(r"-p(\d+)-")

#: Accounting overhead per internal message (type tag + routing header).
_INTERNAL_HEADER = 8


def owner_index_for_ip(ip: IPv4Address, n_shards: int,
                       pod_plan: bool = True) -> int:
    """Registry owner shard for ``ip``.

    With ``pod_plan`` (the fat-tree ``10.pod.edge.host`` layout): the
    pod octet modulo the shard count — a true by-pod partition, so
    same-pod ARP lookups stay on the querier's home shard. Backends
    whose IP plan has no pod structure (``pod_ip_plan`` False —
    the two-layer design packs every host into pod 0, which would pin
    the whole registry onto shard 0) use a stable FNV-1a hash over all
    four octets instead: balanced, and independent of Python's
    randomized ``hash()``.
    """
    if pod_plan:
        return ((ip.value >> 16) & 0xFF) % n_shards
    h = 0x811C9DC5
    for shift in (24, 16, 8, 0):
        h ^= (ip.value >> shift) & 0xFF
        h = (h * 0x01000193) & 0xFFFFFFFF
    return h % n_shards


def pod_hint_from_name(name: str | None) -> int | None:
    """Structural pod parsed from a builder switch name, if present."""
    if not name:
        return None
    match = _POD_IN_NAME.search(name)
    return int(match.group(1)) if match else None


# ----------------------------------------------------------------------
# Cluster-internal messages (never serialized onto a switch link; their
# wire_length feeds the intershard byte accounting only).


@dataclass(frozen=True)
class _Forwarded:
    """A protocol message relayed from the receiving server to the one
    that owns its state (ARP query → registry owner, report → coordinator)."""

    message: FmMessage

    def wire_length(self) -> int:
        return _INTERNAL_HEADER + self.message.wire_length()


@dataclass(frozen=True)
class _Deliver:
    """Coordinator/shard → home shard: put ``message`` on the control
    link of ``switch_id`` (cluster-internal last hop)."""

    switch_id: int
    message: FmMessage

    def wire_length(self) -> int:
        return _INTERNAL_HEADER + 6 + self.message.wire_length()


@dataclass(frozen=True)
class _Replica:
    """Coordinator → shards: replicated edge directory + fault matrix."""

    edge_ids: tuple[int, ...]
    failed: tuple[frozenset[int], ...]

    def wire_length(self) -> int:
        return _INTERNAL_HEADER + 6 * len(self.edge_ids) + 12 * len(self.failed)


@dataclass(frozen=True)
class _ResyncRequest:
    """Restarted shard → coordinator: re-send me a :class:`_Replica`."""

    shard_index: int

    def wire_length(self) -> int:
        return _INTERNAL_HEADER


_INTERNAL_TYPES = (_Forwarded, _Deliver, _Replica, _ResyncRequest)

#: Switch messages about global state: a shard relays them to the
#: coordinator, which owns it.
_COORDINATOR_TYPES = (PodRequest, NeighborReport, LinkFail, LinkRecover,
                      IgmpRelay, McastMiss, OverrideReport)
#: Those of them that change what the coordinator replicates to shards.
_REPLICATED_TYPES = frozenset((NeighborReport, LinkFail, LinkRecover))


# ----------------------------------------------------------------------


class FmShard(FabricManager):
    """One registry shard: owns control links for its home switches and
    the host records whose IPs hash to it."""

    def __init__(self, sim: Simulator, config: PortlandConfig,
                 cluster: "FmShardCluster", index: int) -> None:
        super().__init__(sim, config, name=f"fm-shard-{index}")
        self.cluster = cluster
        self.index = index
        #: Replicated edge directory (coordinator keeps it current).
        self._edge_ids: list[int] = []

    # -- replicated state ---------------------------------------------

    def _edge_switch_ids(self) -> list[int]:
        return list(self._edge_ids)

    # -- routing ------------------------------------------------------

    def send_to_switch(self, switch_id: int, message: FmMessage) -> None:
        if switch_id in self._port_by_switch:
            super().send_to_switch(switch_id, message)
            return
        self.cluster.relay(self, switch_id, message)

    # -- dispatch -----------------------------------------------------

    def _handler_table(self) -> dict:
        return {
            _Deliver: self._on_deliver,
            _Replica: self._on_replica,
            _Forwarded: self._on_forwarded,
            ArpQuery: self._serve_arp,
            RegisterHost: self._route_registration,
            # Served locally from the replicated edge directory.
            BroadcastRelay: self._on_broadcast_relay,
            **dict.fromkeys(_COORDINATOR_TYPES, self._to_coordinator),
        }

    def _on_deliver(self, deliver: _Deliver) -> None:
        # Last hop of a cluster-routed send: our switch, our link.
        FabricManager.send_to_switch(self, deliver.switch_id, deliver.message)

    def _on_replica(self, replica: _Replica) -> None:
        self._edge_ids = list(replica.edge_ids)
        self.fault_matrix.clear()
        self.fault_matrix.update(replica.failed)

    def _on_forwarded(self, forwarded: _Forwarded) -> None:
        inner = forwarded.message
        if type(inner) is ArpQuery:
            self._serve_arp(inner, forwarded=True)
        else:
            # RegisterHost relayed to us as its registry owner.
            self._dispatch(inner)

    def _route_registration(self, reg: RegisterHost) -> None:
        owner = self.cluster.owner_shard(reg.ip)
        if owner is self:
            self._on_register_host(reg)
        else:
            self.cluster.forward(self, owner, reg)

    def _to_coordinator(self, message: FmMessage) -> None:
        self.cluster.forward(self, self.cluster.coordinator, message)

    def _serve_arp(self, query: ArpQuery, forwarded: bool = False) -> None:
        if not forwarded:
            # Count each client query once, at its home shard.
            self.arp_queries += 1
        record = self.hosts_by_ip.get(query.target_ip)
        if record is not None:
            self.send_to_switch(query.edge_id, ArpResponse(
                query.request_id, query.target_ip, record.pmac, True))
            return
        owner = self.cluster.owner_shard(query.target_ip)
        if owner is not self and not forwarded:
            self.cluster.forward(self, owner, query)
            return
        # We are the owner (or the query was already forwarded here) and
        # have no record: genuine miss.
        self._arp_miss(query)

    # -- registration -------------------------------------------------

    def _on_register_host(self, reg: RegisterHost) -> None:
        # ACL rules live at the coordinator, not on this shard, so the
        # base class's policy hook never fires here — notify the cluster
        # instead so the coordinator can re-materialise any rule that
        # touches the (re-)registered host.
        existing = self.hosts_by_ip.get(reg.ip)
        super()._on_register_host(reg)
        self.cluster.repush_policies(reg, existing)

    # -- restart ------------------------------------------------------

    def restart(self) -> None:
        self._edge_ids = []
        super().restart()
        self.cluster.request_resync(self)


class FmCoordinator(FabricManager):
    """The policy brain: topology view, fault matrix, pod assignment,
    multicast, and the (optionally batched) override push. No switch
    links — every switch-bound message is relayed through home shards."""

    def __init__(self, sim: Simulator, config: PortlandConfig,
                 cluster: "FmShardCluster", computer=None) -> None:
        super().__init__(sim, config, name="fm-coordinator",
                         computer=computer)
        self.cluster = cluster
        self._last_replica: tuple | None = None

    def send_to_switch(self, switch_id: int, message: FmMessage) -> None:
        self.cluster.relay(self, switch_id, message)

    def _policy_record(self, ip: IPv4Address):
        # Host records live on the shards; the coordinator resolves
        # policy endpoints against the registry's owner shard.
        return self.cluster.owner_shard(ip).hosts_by_ip.get(ip)

    def _handler_table(self) -> dict:
        table = super()._handler_table()
        table[_ResyncRequest] = lambda _request: self._replicate(force=True)
        return table

    def _dispatch(self, message) -> None:
        if type(message) is _Forwarded:
            message = message.message
        super()._dispatch(message)
        # View/fault changes must reach the shards' replicas.
        if type(message) in _REPLICATED_TYPES:
            self._replicate()

    def _replicate(self, force: bool = False) -> None:
        edge_ids = tuple(self._edge_switch_ids())
        failed = tuple(sorted(self.fault_matrix, key=sorted))
        snapshot = (edge_ids, failed)
        if not force and snapshot == self._last_replica:
            return
        self._last_replica = snapshot
        replica = _Replica(edge_ids, failed)
        for shard in self.cluster.shards:
            self.cluster.forward(self, shard, replica)

    def restart(self) -> None:
        self._last_replica = None
        super().restart()


def _summed(name: str) -> property:
    """Facade counter: ``name`` summed over every server."""
    return property(lambda cluster: sum(getattr(server, name)
                                        for server in cluster.servers))


def _of_coordinator(name: str) -> property:
    """Facade attribute that the coordinator owns."""
    return property(lambda cluster: getattr(cluster.coordinator, name))


class FmShardCluster:
    """Facade over the shards + coordinator, presenting the single-FM
    surface the rest of the system expects."""

    def __init__(self, sim: Simulator, config: PortlandConfig,
                 computer=None, pod_ip_plan: bool = True) -> None:
        self.sim = sim
        self.config = config
        self.name = "fm-cluster"
        #: Whether the backend's IP plan carries pod structure in the
        #: second octet (fat trees do; see :func:`owner_index_for_ip`).
        self.pod_ip_plan = pod_ip_plan
        n = max(1, config.fm_shards)
        self.coordinator = FmCoordinator(sim, config, self, computer)
        self.shards = [FmShard(sim, config, self, i) for i in range(n)]
        self._home_by_switch: dict[int, FmShard] = {}
        self._next_rr = 0
        self._partitioned: set[FabricManager] = set()
        self.intershard_messages = 0
        self.intershard_bytes = 0
        self.intershard_dropped = 0

    # -- construction-time wiring -------------------------------------

    def attach_switch(self, switch_id: int, name: str | None = None) -> Port:
        pod = pod_hint_from_name(name)
        if pod is not None:
            shard = self.shards[pod % len(self.shards)]
        else:
            shard = self.shards[self._next_rr % len(self.shards)]
            self._next_rr += 1
        self._home_by_switch[switch_id] = shard
        return shard.attach_switch(switch_id)

    def mac_for(self, switch_id: int) -> MacAddress:
        return self._home_by_switch[switch_id].mac

    @property
    def mac(self) -> MacAddress:
        # Only meaningful per home shard; kept for surface compatibility.
        return self.shards[0].mac

    def home_index(self, switch_id: int) -> int | None:
        shard = self._home_by_switch.get(switch_id)
        return shard.index if shard is not None else None

    # -- cluster message plane ----------------------------------------

    @property
    def servers(self) -> list[FabricManager]:
        return [self.coordinator, *self.shards]

    def owner_shard(self, ip: IPv4Address) -> FmShard:
        return self.shards[owner_index_for_ip(ip, len(self.shards),
                                              self.pod_ip_plan)]

    def forward(self, sender: FabricManager, target: FabricManager,
                message) -> None:
        """Ship one internal message ``sender`` → ``target``: one
        control-propagation delay, then a service slot at the target."""
        if sender in self._partitioned or target in self._partitioned:
            self.intershard_dropped += 1
            return
        if not isinstance(message, _INTERNAL_TYPES):
            message = _Forwarded(message)
        self.intershard_messages += 1
        self.intershard_bytes += message.wire_length()
        self.sim.schedule(CONTROL_DELAY_S, target.enqueue_internal, message)

    def relay(self, sender: FabricManager, switch_id: int,
              message: FmMessage) -> None:
        """Route a switch-bound message through its home shard."""
        home = self._home_by_switch.get(switch_id)
        if home is None or home is sender:
            return  # unknown switch, or its link is gone: drop
        self.forward(sender, home, _Deliver(switch_id, message))

    def request_resync(self, shard: FmShard) -> None:
        self.forward(shard, self.coordinator, _ResyncRequest(shard.index))

    def set_partitioned(self, server: FabricManager, partitioned: bool) -> None:
        """Sever (or heal) a server's cluster-internal delivery — the
        campaign pairs this with failing its control links."""
        if partitioned:
            self._partitioned.add(server)
            return
        self._partitioned.discard(server)
        if isinstance(server, FmShard):
            # Healed shards re-pull the replicated directory.
            self.request_resync(server)

    # -- single-FM facade ---------------------------------------------

    @property
    def hosts_by_ip(self) -> dict[IPv4Address, FmHostRecord]:
        merged: dict[IPv4Address, FmHostRecord] = {}
        for shard in self.shards:
            merged.update(shard.hosts_by_ip)
        return merged

    #: Edge-ACL policy — centralized at the coordinator (operator
    #: intent, like pod assignment), surviving cluster restarts.
    policy = _of_coordinator("policy")
    switches = _of_coordinator("switches")
    fault_matrix = _of_coordinator("fault_matrix")
    multicast = _of_coordinator("multicast")
    _sent_overrides = _of_coordinator("_sent_overrides")
    override_updates_sent = _of_coordinator("override_updates_sent")
    override_clears_sent = _of_coordinator("override_clears_sent")
    override_recomputes = _of_coordinator("override_recomputes")
    override_batches = _of_coordinator("override_batches")
    override_edges_examined = _of_coordinator("override_edges_examined")

    messages_received = _summed("messages_received")
    bytes_received = _summed("bytes_received")
    messages_sent = _summed("messages_sent")
    bytes_sent = _summed("bytes_sent")
    arp_queries = _summed("arp_queries")
    arp_misses = _summed("arp_misses")
    busy_time = _summed("busy_time")
    malformed_dropped = _summed("malformed_dropped")
    restarts = _summed("restarts")

    def install_acl(self, src_ip, dst_ip):
        """Block a pair; the coordinator's push relays through the
        source edge's home shard like any switch-bound message."""
        return self.coordinator.install_acl(src_ip, dst_ip)

    def revoke_acl(self, src_ip, dst_ip) -> None:
        self.coordinator.revoke_acl(src_ip, dst_ip)

    def repush_policies(self, reg: RegisterHost,
                        existing: FmHostRecord | None) -> None:
        """A shard (re-)registered a host: re-materialise any rules
        touching it from the coordinator's table (covers registration
        before the rule's other endpoint was known, re-registration
        after restarts, and VM migration edge moves)."""
        if self.coordinator.policy:
            self.coordinator._repush_policies(reg, existing)

    def view(self):
        return self.coordinator.view()

    def restart(self) -> None:
        """Fail over the whole cluster (every server loses its state)."""
        for server in self.servers:
            server.restart()

    def utilization(self, elapsed: float) -> float:
        """Busiest single server — the cluster's bottleneck CPU."""
        if elapsed <= 0:
            return 0.0
        return max(server.utilization(elapsed) for server in self.servers)
