"""Flow-entry construction for PortLand's PMAC forwarding (paper §3.4).

Priorities encode the longest-prefix-match order: exact host PMACs and
per-position/pod prefixes sit above the pod-internal drop guard, which
sits above fault overrides, which sit above the default-up ECMP route.
The resulting table is provably loop-free: every entry either sends a
frame strictly *down* the tree (toward a more specific prefix) or
strictly *up* (default route), and a frame that has started descending
can never match an up entry again — the property tests exercise this on
random topologies with random failures.
"""

from __future__ import annotations

from repro.net.addresses import MacAddress
from repro.net.ethernet import ETHERTYPE_ARP
from repro.net.ipv4 import IPPROTO_IGMP
from repro.portland.pmac import pod_prefix, position_prefix
from repro.switching.flow_table import (
    Drop,
    Match,
    Output,
    OutputMany,
    SelectByHash,
    SetEthDst,
    SetEthSrc,
    ToAgent,
    mac_prefix_mask,
)

# Forwarding-table priorities, highest first.
PRIO_ARP = 500
PRIO_ACL = 460
PRIO_IGMP = 450
PRIO_HOST = 400
PRIO_DOWN = 400
PRIO_TRAP = 380
PRIO_MCAST_GROUP = 300
PRIO_MCAST_MISS = 250
PRIO_OWN_PREFIX_DROP = 200
PRIO_FAULT = 150
PRIO_DEFAULT_UP = 100

# Rewrite-table priorities.
REWRITE_PRIO_HOST = 500
REWRITE_PRIO_NEW_HOST = 100

#: A match on "any Ethernet multicast destination" (I/G bit set).
MULTICAST_BIT_MATCH = Match(eth_dst=MacAddress(1 << 40), eth_dst_mask=1 << 40)

#: Name prefixes of the entries that are a function of what LDP
#: discovered and what the fabric manager prescribed: the agent's
#: ``_refresh_entries`` owns every entry named under them.
TOPOLOGY_ENTRIES = ("default-up", "fault:", "down:", "pod:", "route:")


def entry_direction(name: str) -> str:
    """Classify a forwarding-entry name by which way it moves a frame.

    Returns one of ``"up"`` (default ECMP route or fault-constrained up
    route), ``"down"`` (descending toward a more specific prefix),
    ``"deliver"`` (host egress), ``"drop"`` (loop-guard drop entries),
    or ``"control"`` (punts, multicast, traps — frames that leave the
    unicast up*-down* pipeline). The invariant oracle uses this to
    observe the paper's loop-freedom argument at runtime: a frame that
    has matched a *down* entry anywhere must never match an *up* entry
    afterwards.
    """
    if name == "default-up" or name.startswith("fault:"):
        return "up"
    if name.startswith("route:"):
        # Scheme-resolved routes (e.g. Jellyfish's shortest-path DAG)
        # have no up/down polarity; their loop-freedom argument is
        # monotone distance descent, checked by the scheme's oracle,
        # not by the up*-down* automaton.
        return "route"
    if name.startswith(("down:", "pod:")):
        return "down"
    if name.startswith("host:"):
        return "deliver"
    if name in ("own-prefix-drop", "own-pod-drop") or name.startswith("acl:"):
        return "drop"
    return "control"


def arp_intercept() -> tuple[Match, tuple, int, str]:
    """Edge: punt every ARP frame to the agent (proxy ARP)."""
    return (Match(ethertype=ETHERTYPE_ARP), (ToAgent("arp"),), PRIO_ARP, "arp")


def igmp_intercept() -> tuple[Match, tuple, int, str]:
    """Edge: punt IGMP so joins/leaves reach the fabric manager."""
    return (Match(ip_proto=IPPROTO_IGMP), (ToAgent("igmp"),), PRIO_IGMP, "igmp")


def mcast_miss() -> tuple[Match, tuple, int, str]:
    """Edge: punt multicast frames with no installed group entry."""
    return (MULTICAST_BIT_MATCH, (ToAgent("mcast-miss"),), PRIO_MCAST_MISS,
            "mcast-miss")


def host_name(pmac_mac: MacAddress) -> str:
    """Name of the egress entry toward one local host."""
    return f"host:{pmac_mac}"


def host_egress(pmac_mac: MacAddress, amac: MacAddress,
                port: int) -> tuple[Match, tuple, int, str]:
    """Edge: deliver to a local host, rewriting PMAC back to AMAC."""
    return (Match(eth_dst=pmac_mac), (SetEthDst(amac), Output(port)),
            PRIO_HOST, host_name(pmac_mac))


def ingress_name(amac: MacAddress) -> str:
    """Name of the rewrite-table entry for one local host's source."""
    return f"ingress:{amac}"


def host_ingress(pmac_mac: MacAddress, amac: MacAddress,
                 port: int) -> tuple[Match, tuple, int, str]:
    """Edge rewrite table: a known host's frames leave with its PMAC."""
    return (Match(in_port=port, eth_src=amac), (SetEthSrc(pmac_mac),),
            REWRITE_PRIO_HOST, ingress_name(amac))


def new_host_trap(port: int) -> tuple[Match, tuple, int, str]:
    """Edge rewrite table: punt a host port's not-yet-known sources."""
    return (Match(in_port=port), (ToAgent("new-host"),),
            REWRITE_PRIO_NEW_HOST, f"new-host:{port}")


def own_prefix_drop(pod: int, position: int) -> tuple[Match, tuple, int, str]:
    """Edge: drop traffic for our own prefix with no matching host.

    Prevents unknown-vmid frames from bouncing back up the tree.
    """
    value, bits = position_prefix(pod, position)
    return (Match(eth_dst=value, eth_dst_mask=mac_prefix_mask(bits)), (),
            PRIO_OWN_PREFIX_DROP, "own-prefix-drop")


def own_pod_drop(pod: int) -> tuple[Match, tuple, int, str]:
    """Aggregation: never send own-pod traffic up (loop guard)."""
    value, bits = pod_prefix(pod)
    return (Match(eth_dst=value, eth_dst_mask=mac_prefix_mask(bits)), (),
            PRIO_OWN_PREFIX_DROP, "own-pod-drop")


def down_name(pod: int, position: int | None = None) -> str:
    """Name of the entry toward one edge switch, or one pod without
    ``position``."""
    return f"pod:{pod}" if position is None else f"down:{pod}.{position}"


def down_to_position(pod: int, position: int,
                     port: int) -> tuple[Match, tuple, int, str]:
    """Aggregation: descend toward one edge switch."""
    value, bits = position_prefix(pod, position)
    return (Match(eth_dst=value, eth_dst_mask=mac_prefix_mask(bits)),
            (Output(port),), PRIO_DOWN, down_name(pod, position))


def down_to_pod(pod: int, ports: tuple[int, ...]) -> tuple[Match, tuple, int, str]:
    """Core: descend toward one pod (ECMP if multiply connected)."""
    value, bits = pod_prefix(pod)
    action = (Output(ports[0]),) if len(ports) == 1 else (SelectByHash(ports),)
    return (Match(eth_dst=value, eth_dst_mask=mac_prefix_mask(bits)),
            action, PRIO_DOWN, down_name(pod))


def default_up(ports: tuple[int, ...]) -> tuple[Match, tuple, int, str]:
    """Edge/aggregation: everything else goes up, ECMP-hashed."""
    return (Match(), (SelectByHash(ports),), PRIO_DEFAULT_UP, "default-up")


def route_entry(pod: int, position: int,
                ports: tuple[int, ...]) -> tuple[Match, tuple, int, str]:
    """Scheme-resolved route toward one destination locator prefix.

    Sits at default-up priority so prescriptive fault overrides
    (PRIO_FAULT) shadow it for their prefix, exactly as they shadow the
    fat tree's default-up entry. Empty ``ports`` is an explicit drop
    (destination currently next-hop-less from here).
    """
    value, bits = position_prefix(pod, position)
    return (Match(eth_dst=value, eth_dst_mask=mac_prefix_mask(bits)),
            (SelectByHash(ports),) if ports else (),
            PRIO_DEFAULT_UP, f"route:{pod}.{position}")


def fault_name(prefix: MacAddress, prefix_len: int) -> str:
    """Name of the override entry for one destination prefix."""
    return f"fault:{prefix}/{prefix_len}"


def fault_override(prefix: MacAddress, prefix_len: int,
                   ports: tuple[int, ...]) -> tuple[Match, tuple, int, str]:
    """Fault-constrained up route for one destination prefix."""
    return (Match(eth_dst=prefix, eth_dst_mask=mac_prefix_mask(prefix_len)),
            (SelectByHash(ports),) if ports else (),
            PRIO_FAULT, fault_name(prefix, prefix_len))


def mcast_name(group_mac: MacAddress) -> str:
    """Name of one multicast group's tree entry."""
    return f"mcast:{group_mac}"


def mcast_group(group_mac: MacAddress,
                ports: tuple[int, ...]) -> tuple[Match, tuple, int, str]:
    """Installed multicast tree entry."""
    return (Match(eth_dst=group_mac), (OutputMany(ports),),
            PRIO_MCAST_GROUP, mcast_name(group_mac))


def trap_name(old_pmac: MacAddress) -> str:
    """Name of the migration trap for one stale PMAC."""
    return f"trap:{old_pmac}"


def migration_trap(old_pmac: MacAddress) -> tuple[Match, tuple, int, str]:
    """Old edge after migration: trap frames for the stale PMAC."""
    return (Match(eth_dst=old_pmac), (ToAgent("migrated"),), PRIO_TRAP,
            trap_name(old_pmac))


def acl_name(src_ip, dst_ip) -> str:
    """Name of the ACL entry blocking one (src IP, dst IP) pair."""
    return f"acl:{src_ip}->{dst_ip}"


def acl_drop(in_port: int, dst_pmac: MacAddress, src_ip: str,
             dst_ip: str) -> tuple[Match, tuple, int, str]:
    """Edge ACL: drop the blocked pair's traffic at the source's edge.

    Matched on (source host's ingress port, destination PMAC) — the
    exact shape a frame from the blocked source has after ingress
    rewrite, and one the symbolic table walker reproduces verbatim.
    The ``in_port`` component makes the entry non-key-only, which
    automatically disables the decision cache and compiled-path cache
    at this switch (``FlowTable.cache_safe``), so no cached verdict can
    ever bypass the ACL.
    """
    return (Match(in_port=in_port, eth_dst=dst_pmac), (Drop("acl"),),
            PRIO_ACL, acl_name(src_ip, dst_ip))
