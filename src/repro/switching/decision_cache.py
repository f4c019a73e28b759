"""Exact-match decision cache in front of a flow table's LPM walk.

PortLand's forwarding state is O(k) per switch, but the simulated data
plane used to pay the full longest-prefix walk (priority-ordered ``Match``
evaluation) plus an ECMP hash for every packet at every hop. A
:class:`DecisionCache` memoises the *verdict* of that walk as a
:class:`Plan` — the matched entry, its actions with ``SelectByHash``
pre-resolved and, when the verdict is "send it out of that port", the
port itself — keyed by
:func:`~repro.switching.flow_table.decision_key` (dst PMAC, ethertype,
IP protocol, flow hash). Steady-state forwarding then costs one hash +
one dict probe per hop, and nothing on that path looks at an action.

Correctness rests on two guarantees:

* **Key sufficiency** — the cache only serves a table whose every match
  is ``key_only`` (``FlowTable.cache_safe``): two frames with equal keys
  are then indistinguishable to every installed entry, so the cached
  verdict is exactly what the walk would return. Per-frame behaviour
  that legitimately depends on the ingress port (``OutputMany``'s
  ingress exclusion, the no-reflection rule) is re-applied when the
  plan is executed, not baked into it.
* **Invalidation** — a plan is a function of one table entry and the
  switch's ports, so the table's change listener is the only thing that
  retires it: every install/remove (base entries, fault-override diffs,
  ECMP membership refreshes pushed by the fabric manager) flushes all
  cached verdicts before the next lookup, and nothing else does. A
  whole-cache flush keeps the hook O(1); table changes are
  control-plane-rare next to packets. A plan holds a ``Port``, which a
  node never replaces; whether that port is enabled and wired is
  ``Port.send``'s question, per frame.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Sequence

from repro.switching.flow_table import (
    Action,
    DecisionKey,
    FlowEntry,
    FlowTable,
    Output,
    SetEthDst,
    resolve_actions,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.addresses import MacAddress
    from repro.net.link import Port

#: Default per-switch capacity. A k=48 fabric has ~27k hosts; one edge
#: switch's working set (its hosts' flows) is far smaller.
DEFAULT_CAPACITY = 4096


class Plan(NamedTuple):
    """What a switch does with every frame of one decision key.

    ``port`` is set for the two shapes a unicast verdict has —
    ``Output(p)`` and ``SetEthDst(mac), Output(p)`` with ``p`` a port the
    switch has: rewrite the destination to ``set_dst`` if there is one,
    then ``port.send``, unless ``port`` is where the frame came in. Every
    other verdict (punt, replication, drop, no action, a rewrite of the
    source or after the output) has ``port`` ``None`` and is executed by
    ``PortlandSwitch.apply_actions`` from ``actions``.
    """

    entry: FlowEntry
    #: ``entry.actions`` with ``SelectByHash`` resolved for the key's hash.
    actions: tuple[Action, ...]
    port: "Port | None"
    set_dst: "MacAddress | None"


def compile_plan(entry: FlowEntry, fhash: int,
                 ports: "Sequence[Port]") -> Plan:
    """The plan for frames of flow hash ``fhash`` that matched ``entry``
    on the switch owning ``ports`` — the one place that reads the shape
    of an action list on behalf of everything that forwards or walks."""
    actions = resolve_actions(entry.actions, fhash)
    last = actions[-1] if actions else None
    if type(last) is Output and 0 <= last.port < len(ports):
        if len(actions) == 1:
            return Plan(entry, actions, ports[last.port], None)
        if len(actions) == 2 and type(actions[0]) is SetEthDst:
            return Plan(entry, actions, ports[last.port], actions[0].mac)
    return Plan(entry, actions, None, None)


class DecisionCache:
    """Memoised forwarding decisions for one :class:`FlowTable`."""

    __slots__ = ("_ports", "_capacity", "plans",
                 "hits", "misses", "installs", "evictions", "flushes")

    def __init__(self, table: FlowTable, capacity: int = DEFAULT_CAPACITY,
                 ports: "Sequence[Port]" = ()) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        #: The owning switch's port list (the live one: ports may still
        #: be appended). Without it every plan goes to the interpreter.
        self._ports = ports
        self._capacity = capacity
        #: The memo itself. The switch probes it directly on its
        #: per-frame path and counts the hit; everyone else goes through
        #: :meth:`lookup` / :meth:`install`.
        self.plans: dict[DecisionKey, Plan] = {}
        self.hits = 0
        self.misses = 0
        self.installs = 0
        self.evictions = 0
        self.flushes = 0
        table.add_change_listener(self._on_table_change)

    def lookup(self, key: DecisionKey) -> Plan | None:
        """The cached plan for ``key``, or ``None``."""
        plan = self.plans.get(key)
        if plan is None:
            self.misses += 1
            return None
        self.hits += 1
        return plan

    def install(self, key: DecisionKey, entry: FlowEntry) -> Plan:
        """Compile, memoise and return the walk verdict for ``key``.

        The caller has just looked ``entry`` up in the table, so the
        plan reflects the table's current version; any later mutation
        flushes it via the change listener.
        """
        if len(self.plans) >= self._capacity:
            # FIFO eviction: drop the oldest insertion (dict order).
            self.plans.pop(next(iter(self.plans)))
            self.evictions += 1
        plan = self.plans[key] = compile_plan(entry, key[3], self._ports)
        self.installs += 1
        return plan

    def invalidate_all(self) -> None:
        """Drop every cached decision."""
        self.plans.clear()
        self.flushes += 1

    def _on_table_change(self) -> None:
        # Cheap when already empty (common during convergence bursts
        # where many entries are installed before any packet flows).
        if self.plans:
            self.invalidate_all()

    def __len__(self) -> int:
        return len(self.plans)

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when unused)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict[str, int]:
        """Counter snapshot, aggregatable via ``stats.aggregate_counters``."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "installs": self.installs,
            "evictions": self.evictions,
            "flushes": self.flushes,
            "entries": len(self.plans),
        }
