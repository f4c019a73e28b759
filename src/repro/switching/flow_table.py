"""OpenFlow-like flow tables: masked matches, priorities, actions.

PortLand's data plane is expressed entirely in this vocabulary, exactly
as the paper implemented it on OpenFlow switches: longest-prefix PMAC
forwarding becomes masked ``eth_dst`` matches at descending priorities;
ARP interception is an ``ethertype`` match whose action is "send to the
local agent"; ECMP is a select-by-hash action over the uplink set.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

from repro.errors import SwitchError
from repro.net.addresses import MacAddress
from repro.net.ethernet import ETHERTYPE_IPV4, EthernetFrame
from repro.net.ipv4 import IPPROTO_TCP, IPPROTO_UDP, IPv4Packet
from repro.net.packet import payload_as
from repro.net.tcp_wire import TcpSegment
from repro.net.udp import UdpDatagram

MAC_MASK_ALL = (1 << 48) - 1


def mac_prefix_mask(prefix_bits: int) -> int:
    """A mask covering the top ``prefix_bits`` of a 48-bit MAC."""
    if not 0 <= prefix_bits <= 48:
        raise SwitchError(f"bad MAC prefix length: {prefix_bits}")
    if prefix_bits == 0:
        return 0
    return MAC_MASK_ALL ^ ((1 << (48 - prefix_bits)) - 1)


@dataclass(frozen=True, slots=True)
class Match:
    """Fields a frame must satisfy. ``None`` means wildcard.

    ``eth_dst``/``eth_src`` match under their masks: the frame field is
    AND-ed with the mask and compared to ``value & mask``.
    """

    in_port: int | None = None
    eth_dst: MacAddress | None = None
    eth_dst_mask: int = MAC_MASK_ALL
    eth_src: MacAddress | None = None
    eth_src_mask: int = MAC_MASK_ALL
    ethertype: int | None = None
    ip_proto: int | None = None

    @property
    def key_only(self) -> bool:
        """Whether this match depends only on (eth_dst, ethertype,
        ip_proto) — the fields captured by a :func:`decision_key`.

        Two frames with equal decision keys are indistinguishable to a
        key-only match, which is what makes caching its verdict sound.
        Matches constrained by ``in_port`` or ``eth_src`` can tell such
        frames apart, so one entry of that shape disables the decision
        cache for the whole table (see ``FlowTable.cache_safe``).
        """
        return self.in_port is None and self.eth_src is None

    def matches(self, frame: EthernetFrame, in_port: int) -> bool:
        """Whether ``frame`` arriving on ``in_port`` satisfies this match."""
        if self.in_port is not None and in_port != self.in_port:
            return False
        if self.ethertype is not None and frame.ethertype != self.ethertype:
            return False
        if self.eth_dst is not None:
            if (frame.dst.value & self.eth_dst_mask) != (
                self.eth_dst.value & self.eth_dst_mask
            ):
                return False
        if self.eth_src is not None:
            if (frame.src.value & self.eth_src_mask) != (
                self.eth_src.value & self.eth_src_mask
            ):
                return False
        if self.ip_proto is not None:
            if frame.ethertype != ETHERTYPE_IPV4:
                return False
            packet = payload_as(frame.payload, IPv4Packet)
            if packet is None or packet.protocol != self.ip_proto:
                return False
        return True


# ----------------------------------------------------------------------
# Actions


@dataclass(frozen=True)
class Output:
    """Forward out one port."""

    port: int


@dataclass(frozen=True)
class OutputMany:
    """Replicate out a set of ports (multicast/flood entries)."""

    ports: tuple[int, ...]


@dataclass(frozen=True)
class SelectByHash:
    """ECMP: pick one port from ``ports`` by the frame's flow hash."""

    ports: tuple[int, ...]


@dataclass(frozen=True)
class SetEthDst:
    """Rewrite the destination MAC (PMAC→AMAC at egress edge)."""

    mac: MacAddress


@dataclass(frozen=True)
class SetEthSrc:
    """Rewrite the source MAC (AMAC→PMAC at ingress edge)."""

    mac: MacAddress


@dataclass(frozen=True)
class ToAgent:
    """Punt the frame to the switch's software agent (packet-in)."""

    reason: str = ""


@dataclass(frozen=True)
class Drop:
    """Discard the frame deliberately (ACL/policy drop).

    Unlike an empty action list (a guard/override entry, a *routing*
    dead-end), a ``Drop`` is explicit operator intent: the switch emits
    a ``verify.policy_drop`` trace record and the verification oracle
    treats the discarded frame as *justified*, never a blackhole.
    """

    reason: str = ""


Action = (Output | OutputMany | SelectByHash | SetEthDst | SetEthSrc
          | ToAgent | Drop)


@dataclass(slots=True)
class FlowEntry:
    """One table entry: match + priority + action list + counters."""

    match: Match
    priority: int
    actions: tuple[Action, ...]
    name: str = ""
    packets: int = 0
    bytes: int = 0

    def touch(self, frame: EthernetFrame) -> None:
        """Update hit counters."""
        self.packets += 1
        self.bytes += frame.wire_length()


class FlowTable:
    """Priority-ordered flow table with first-match semantics.

    Every mutation bumps ``version`` and fires the registered change
    listeners — the invalidation hooks decision caches hang off so a
    table install/remove (base entries, fault overrides, ECMP membership
    refreshes) immediately retires any cached verdicts derived from the
    old contents. :meth:`sync` is how an owner states the entries it
    wants: what is already there stays (counters included) and the
    listeners hear about it once, and only if something changed.
    """

    def __init__(self) -> None:
        self._entries: list[FlowEntry] = []
        #: Bumped on every mutation: a count of changes for tests to
        #: read. Caches hear of a change through the listeners instead.
        self.version = 0
        self._listeners: list = []
        # Entries whose match inspects fields outside the decision key
        # (in_port / eth_src); any such entry makes cached decisions
        # unsound for this table.
        self._non_key_entries = 0
        #: Whether every installed match is decision-key-only (so a
        #: decision cache keyed by :func:`decision_key` is sound).
        self.cache_safe = True
        # Ingress port -> the entries a frame arriving there can match
        # (``match.in_port`` unset or equal), in table order. Filled by
        # the first lookup from that port, dropped by every mutation.
        self._candidates: dict[int, tuple[FlowEntry, ...]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    def add_change_listener(self, listener) -> None:
        """Call ``listener()`` after every mutation of this table."""
        self._listeners.append(listener)

    def _changed(self) -> None:
        self.version += 1
        self.cache_safe = self._non_key_entries == 0
        self._candidates.clear()
        for listener in self._listeners:
            listener()

    def install(
        self,
        match: Match,
        actions: tuple[Action, ...] | list[Action],
        priority: int = 100,
        name: str = "",
    ) -> FlowEntry:
        """Add an entry. Entries with equal priority keep insertion order."""
        entry = self._place(match, tuple(actions), priority, name)
        self._changed()
        return entry

    def _place(self, match: Match, actions: tuple[Action, ...],
               priority: int, name: str) -> FlowEntry:
        """Insert a new entry before the first one of lower priority."""
        entry = FlowEntry(match=match, priority=priority, actions=actions,
                          name=name)
        index = len(self._entries)
        for i, existing in enumerate(self._entries):
            if existing.priority < priority:
                index = i
                break
        self._entries.insert(index, entry)
        if not match.key_only:
            self._non_key_entries += 1
        return entry

    def sync(self, owned: tuple[str, ...], specs, gone=()) -> bool:
        """Make the owned entries exactly ``specs``; True if any changed.

        ``specs`` are ``(match, actions, priority, name)`` tuples with
        distinct names. An entry is *owned* when its name is one of
        theirs or of ``gone``, or starts with an ``owned`` prefix. An owned
        entry that already is its spec — same match, actions and
        priority — stays where it is and keeps its counters; every other
        owned entry goes, and the specs still missing are placed as
        :meth:`install` would place them, in ``specs`` order. Listeners
        are told once, and only if the entry list changed.
        """
        wanted = {name: (match, tuple(actions), priority)
                  for match, actions, priority, name in specs}
        kept = []
        for entry in self._entries:
            name = entry.name
            if name in wanted:
                if wanted[name] != (entry.match, entry.actions,
                                    entry.priority):
                    continue
                wanted[name] = None  # satisfied; a later duplicate goes
            elif name in gone or name.startswith(owned):
                continue
            kept.append(entry)
        if len(kept) == len(self._entries) and not any(wanted.values()):
            return False
        self._entries = kept
        self._non_key_entries = sum(
            1 for e in kept if not e.match.key_only)
        for name, spec in wanted.items():
            if spec is not None:
                self._place(*spec, name)
        self._changed()
        return True

    def remove(self, entry: FlowEntry) -> bool:
        """Remove one entry. Returns False if it was not present."""
        try:
            self._entries.remove(entry)
        except ValueError:
            return False
        if not entry.match.key_only:
            self._non_key_entries -= 1
        self._changed()
        return True

    def remove_by_name(self, name: str) -> int:
        """Remove all entries whose ``name`` equals ``name``; returns count."""
        return self.remove_where(lambda e: e.name == name)

    def remove_where(self, predicate) -> int:
        """Remove all entries for which ``predicate(entry)`` is true."""
        before = len(self._entries)
        self._entries = [e for e in self._entries if not predicate(e)]
        removed = before - len(self._entries)
        if removed:
            self._non_key_entries = sum(
                1 for e in self._entries if not e.match.key_only)
            self._changed()
        return removed

    def clear(self) -> None:
        """Drop every entry."""
        if self._entries:
            self._entries.clear()
            self._non_key_entries = 0
            self._changed()

    def lookup(self, frame: EthernetFrame, in_port: int,
               skip_punts: bool = False) -> FlowEntry | None:
        """Highest-priority entry matching ``frame`` on ``in_port``.

        With ``skip_punts`` true, entries that would punt to the agent are
        passed over — used for agent-*sourced* frames, which must be
        forwarded rather than bounced back into software.

        Only the entries that can match on ``in_port`` are evaluated: an
        edge switch's rewrite table names a host port in every entry, so
        a frame from an uplink evaluates none and a frame from a host
        only that host's, however many hosts the switch has.
        """
        candidates = self._candidates.get(in_port)
        if candidates is None:
            candidates = self._candidates[in_port] = tuple(
                entry for entry in self._entries
                if entry.match.in_port is None
                or entry.match.in_port == in_port)
        for entry in candidates:
            if skip_punts and any(isinstance(a, ToAgent) for a in entry.actions):
                continue
            if entry.match.matches(frame, in_port):
                return entry
        return None


# ----------------------------------------------------------------------
# Flow hashing (for ECMP)


def _hash_and_proto(frame: EthernetFrame) -> tuple[int, int | None]:
    """``(flow hash, IP protocol)`` of a frame; protocol is ``None`` for
    non-IPv4 (or unparseable) payloads."""
    protocol: int | None = None
    material = frame.src.to_bytes() + frame.dst.to_bytes()
    material += frame.ethertype.to_bytes(2, "big")
    if frame.ethertype == ETHERTYPE_IPV4:
        packet = payload_as(frame.payload, IPv4Packet)
        if packet is not None:
            protocol = packet.protocol
            material += packet.src.to_bytes() + packet.dst.to_bytes()
            material += bytes([packet.protocol])
            ports = _transport_ports(packet)
            if ports is not None:
                material += ports[0].to_bytes(2, "big") + ports[1].to_bytes(2, "big")
    return zlib.crc32(material), protocol


def flow_hash(frame: EthernetFrame) -> int:
    """Deterministic per-flow hash over L2–L4 headers.

    All packets of a transport flow hash identically, so ECMP never
    reorders a flow — the property the paper relies on for TCP.
    """
    return decision_key(frame)[3]


#: A cache key: (dst MAC value, ethertype, IP protocol, flow hash).
DecisionKey = tuple[int, int, int | None, int]


def decision_key(frame: EthernetFrame) -> DecisionKey:
    """The exact-match key a decision cache indexes by.

    Covers every frame field a ``cache_safe`` table can branch on
    (``eth_dst``, ``ethertype``, ``ip_proto``) plus the flow hash, which
    pins the ECMP member a ``SelectByHash`` action would pick — so one
    cached verdict replays both the LPM walk and the hash selection.

    The key is memoised on the frame: a frame crosses ~5 switches and
    the hash material is identical at each, so recomputing the CRC per
    hop would dominate the fast path. The memo records the (src, dst)
    address objects and the ethertype it was derived from and is
    recomputed whenever any of them was replaced (PMAC/AMAC rewrites,
    in-place router rewrites) — addresses are immutable, so the same
    object is the same value, and the check costs no call. The payload
    needs no check because the library treats payloads as immutable
    once sent.
    """
    memo = frame._fwd_memo
    if (memo is not None and memo[0] is frame.src and memo[1] is frame.dst
            and (key := memo[2])[1] == frame.ethertype):
        return key
    fhash, protocol = _hash_and_proto(frame)
    key = (frame.dst.value, frame.ethertype, protocol, fhash)
    frame._fwd_memo = (frame.src, frame.dst, key)
    return key


def resolve_actions(actions: tuple[Action, ...],
                    fhash: int) -> tuple[Action, ...]:
    """Specialise an action list for one flow hash.

    ``SelectByHash`` collapses to the ``Output`` it would choose (the
    hash is part of the decision key, so the choice is fixed per key);
    everything else — rewrites, punts, ``OutputMany`` with its at-apply
    ingress exclusion — is applied per-frame and passes through as-is.
    So does a ``SelectByHash`` that follows a rewrite: it selects by the
    hash of the *rewritten* frame, which is not the key's.
    """
    resolved: list[Action] = []
    rewritten = False
    for action in actions:
        if isinstance(action, SelectByHash) and not rewritten:
            if action.ports:
                resolved.append(Output(action.ports[fhash % len(action.ports)]))
        else:
            rewritten = rewritten or isinstance(action, (SetEthDst, SetEthSrc))
            resolved.append(action)
    return tuple(resolved)


def _transport_ports(packet: IPv4Packet) -> tuple[int, int] | None:
    if packet.protocol == IPPROTO_UDP:
        header = payload_as(packet.payload, UdpDatagram)
    elif packet.protocol == IPPROTO_TCP:
        header = payload_as(packet.payload, TcpSegment)
    else:
        return None
    return None if header is None else (header.src_port, header.dst_port)
