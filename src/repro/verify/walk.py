"""Exhaustive walks over the *installed* forwarding tables.

The reachability module says what the alive wiring permits; this module
checks what the switches would actually do, by symbolically forwarding a
unicast frame through every flow table it can reach. Every ECMP branch
(``SelectByHash``) is explored — a hash could pick any member — so a
single dead branch shows up even if most flows would have been lucky.

Walk outcomes per path:

* **delivered** — a host-egress entry rewrote the PMAC back to the AMAC
  and output the frame onto the destination host's port;
* **punted** — a ``ToAgent`` entry took over (e.g. a migration trap);
  software forwarding is the agent's business, not a data-plane fault;
* **dropped** — a table miss, an empty-action (guard/override) entry, or
  transmission into a failed link. A drop is a *blackhole* violation iff
  the independent oracle says the destination edge was reachable;
* **looped** — the frame re-entered a switch already on its path; always
  a violation, reachable or not;
* **misdelivered** — the frame reached a host other than the intended
  one, or reached the right host still carrying its PMAC (the
  identifier leak the locator/identifier-split literature warns about).

For a pair the fabric manager's :class:`~repro.policy.PolicyTable`
blocks, the polarity flips: every drop is *justified* (never a
blackhole) and a delivery is the ``acl-leak`` violation.
"""

from __future__ import annotations

from repro.net.ethernet import ETHERTYPE_IPV4, EthernetFrame
from repro.switching.flow_table import (
    FlowEntry,
    Output,
    OutputMany,
    SelectByHash,
    SetEthDst,
    SetEthSrc,
    ToAgent,
)
from repro.portland.switch import PortlandSwitch
from repro.verify.invariants import Violation, agents_by_switch_id

#: Walk-depth backstop; a fat-tree unicast path has at most 5 switch hops,
#: so hitting this means the loop detector is about to fire anyway.
MAX_PATH_LEN = 16


def _branches(entry: FlowEntry, frame: EthernetFrame, in_port: int):
    """All (out_port, frame) pairs ``entry`` could produce, plus whether
    any action punts to the agent. Mirrors ``PortlandSwitch.apply_actions``,
    with ``SelectByHash`` expanded to every member port."""
    outs: list[tuple[int, EthernetFrame]] = []
    punted = False
    current = frame
    for action in entry.actions:
        if isinstance(action, SetEthDst):
            current = current.copy()
            current.dst = action.mac
        elif isinstance(action, SetEthSrc):
            current = current.copy()
            current.src = action.mac
        elif isinstance(action, Output):
            outs.append((action.port, current))
        elif isinstance(action, OutputMany):
            outs.extend((p, current) for p in action.ports if p != in_port)
        elif isinstance(action, SelectByHash):
            outs.extend((p, current) for p in action.ports)
        elif isinstance(action, ToAgent):
            punted = True
    return outs, punted


def _wire_alive(port) -> bool:
    link = port.link
    # (A unidirectionally failed transmit direction also eats the frame.)
    return link is not None and port.enabled and link.can_carry(port)


def walk_unicast(fabric, src_host, dst_record, dst_host,
                 view=None) -> list[Violation]:
    """Walk one (src host, destination binding) pair through the tables.

    ``dst_record`` is the fabric manager's
    :class:`~repro.portland.fabric_manager.FmHostRecord` for the
    destination — the binding a proxy-ARP reply would hand the source,
    so its ``pmac`` is exactly what the source would put on the wire.
    """
    fm = fabric.fabric_manager
    assert fm is not None
    if view is None:
        view = fm.view()
    now = fabric.sim.now
    attach = src_host.nic
    if attach.link is None or attach.link.failed or attach.peer is None:
        return []  # source is detached (mid-migration): nothing on the wire
    first_switch = attach.peer.node
    if not isinstance(first_switch, PortlandSwitch):
        return []
    agents = agents_by_switch_id(fabric)
    src_agent = fabric.agents.get(first_switch.name)
    src_edge_id = src_agent.switch_id if src_agent is not None else None

    frame = EthernetFrame(dst_record.pmac, src_host.mac, ETHERTYPE_IPV4, None)
    violations: list[Violation] = []
    drops: list[tuple[str, str]] = []
    delivered = punted = False

    stack = [(first_switch, attach.peer.index, frame, (first_switch.name,))]
    while stack:
        node, in_index, current, path = stack.pop()
        entry = node.table.lookup(current, in_index)
        if entry is None:
            drops.append((node.name, "table-miss"))
            continue
        outs, did_punt = _branches(entry, current, in_index)
        punted = punted or did_punt
        if not outs and not did_punt:
            drops.append((node.name, f"drop-entry:{entry.name or '?'}"))
            continue
        for port_index, out_frame in outs:
            if port_index == in_index or not 0 <= port_index < len(node.ports):
                drops.append((node.name, f"bad-port:{port_index}"))
                continue
            port = node.ports[port_index]
            if not _wire_alive(port):
                drops.append((port.name, "dead-wire"))
                continue
            peer = port.peer
            next_node = peer.node
            if isinstance(next_node, PortlandSwitch):
                if next_node.name in path or len(path) >= MAX_PATH_LEN:
                    violations.append(Violation(
                        "loop", next_node.name, now,
                        {"dst": str(dst_record.pmac),
                         "path": "->".join(path + (next_node.name,))}))
                    continue
                stack.append((next_node, peer.index, out_frame,
                              path + (next_node.name,)))
            else:
                if next_node is not dst_host:
                    violations.append(Violation(
                        "misdelivery", next_node.name, now,
                        {"dst_pmac": str(dst_record.pmac),
                         "expected": dst_host.name,
                         "via": "->".join(path)}))
                elif out_frame.dst != dst_record.amac:
                    violations.append(Violation(
                        "misdelivery", next_node.name, now,
                        {"dst_pmac": str(dst_record.pmac),
                         "delivered_dst": str(out_frame.dst),
                         "reason": "PMAC leaked past the fabric boundary"}))
                else:
                    delivered = True

    policy = getattr(fm, "policy", None)
    if policy is not None and policy.blocks(str(src_host.ip),
                                            str(dst_host.ip)):
        # The pair is ACL-blocked: every drop is *justified* — the walk
        # normally dies on the source edge's ``acl:`` entry — so none of
        # them is a blackhole. A delivery, though, means some branch
        # forwarded around the installed drop: the leak the policy
        # oracle exists to catch. (Callers settle after ACL ops, so the
        # install has reached the edge by the time the walker runs.)
        if delivered:
            violations.append(Violation(
                "acl-leak", first_switch.name, now,
                {"src": src_host.name, "dst": dst_host.name,
                 "src_ip": str(src_host.ip), "dst_ip": str(dst_host.ip)}))
        return violations

    if drops:
        # Whether a drop is a blackhole is the topology scheme's call:
        # its reachability oracle knows which paths the backend's
        # forwarding discipline is even allowed to take.
        dst_agent = agents.get(dst_record.edge_id)
        reachable = (
            src_edge_id is not None and dst_agent is not None
            and fabric.scheme.edge_reachable(
                view, src_edge_id, dst_agent.switch_id)
        )
        if reachable:
            for where, reason in sorted(set(drops)):
                violations.append(Violation(
                    "blackhole", where, now,
                    {"src": src_host.name, "dst": dst_host.name,
                     "dst_pmac": str(dst_record.pmac), "reason": reason}))
    return violations


def check_all_pairs_delivery(fabric, pairs=None) -> list[Violation]:
    """Walk every registered, attached (src, dst) host pair.

    ``pairs`` optionally restricts the walk to an iterable of
    ``(src_host, dst_host)`` tuples; by default all ordered pairs in the
    fabric manager's registry are checked.
    """
    fm = fabric.fabric_manager
    if fm is None:
        return []
    view = fm.view()
    hosts_by_ip = {host.ip: host for host in fabric.hosts.values()}
    records = {
        host.name: record
        for ip, record in fm.hosts_by_ip.items()
        if (host := hosts_by_ip.get(ip)) is not None
    }

    def attached(host) -> bool:
        return host.nic.link is not None and not host.nic.link.failed

    violations: list[Violation] = []
    if pairs is None:
        live = [h for h in fabric.host_list()
                if h.name in records and attached(h)]
        pairs = [(s, d) for s in live for d in live if s is not d]
    for src_host, dst_host in pairs:
        record = records.get(dst_host.name)
        if record is None or not attached(dst_host) or not attached(src_host):
            continue
        violations.extend(walk_unicast(fabric, src_host, record, dst_host,
                                       view=view))
    return violations
