"""The fabric manager's view of the topology.

Built from the :class:`NeighborReport` messages switches send as LDP
converges, combined with the fault matrix. All fault-recovery and
multicast computations run against this view — the fabric manager never
peeks at simulator internals.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.portland.messages import NO_POD, NO_POSITION, SwitchLevel


@dataclass
class SwitchRecord:
    """Everything the fabric manager knows about one switch."""

    switch_id: int
    level: SwitchLevel = SwitchLevel.UNKNOWN
    pod: int | None = None
    position: int | None = None
    #: port index -> (neighbor switch id, neighbor level)
    neighbors: dict[int, tuple[int, SwitchLevel]] = field(default_factory=dict)

    def update_from_report(self, level: SwitchLevel, pod: int, position: int,
                           neighbors) -> bool:
        """Apply a NeighborReport; True if anything actually changed."""
        new = (level,
               None if pod == NO_POD else pod,
               None if position == NO_POSITION else position,
               {port: (nbr, lvl) for port, nbr, lvl in neighbors})
        changed = new != (self.level, self.pod, self.position, self.neighbors)
        self.level, self.pod, self.position, self.neighbors = new
        return changed


class FabricView:
    """Topology queries over the switch records plus the fault matrix.

    The *physical* structure (who is wired to whom, core groups) ignores
    the fault matrix; :meth:`alive` applies it.

    A view is made for one computation (``FabricManager.view()`` builds
    one per push, the checkers one per check) and remembers its
    structural answers — the per-level id lists, ``aggs_in_pod``,
    ``neighbors_of``, the neighbour-id sets :meth:`adjacent` tests,
    ``core_neighbors`` and the :meth:`uplink_index` — the first time each
    is asked: an override push asks the same few hundred thousand times.
    So make a new view once the switch records have changed; the fault
    matrix is always read live. The containers handed out are the
    remembered ones: read them, do not change them.
    """

    def __init__(self, switches: dict[int, SwitchRecord],
                 failed: set[frozenset[int]]) -> None:
        self.switches = switches
        self.failed = failed
        self._at_level: dict[SwitchLevel, tuple[int, ...]] = {}
        self._aggs_in_pod: dict[int | None, tuple[int, ...]] | None = None
        self._neighbors_of: dict[int, dict[int, int]] = {}
        self._neighbor_ids: dict[int, set[int]] = {}
        self._core_neighbors: dict[int, tuple[int, ...]] = {}
        self._uplink_index: tuple[dict, dict] | None = None

    def fresh(self) -> "FabricView":
        """A view of the same records with nothing remembered yet."""
        return FabricView(self.switches, self.failed)

    # ------------------------------------------------------------------
    # Structure

    def level(self, switch_id: int) -> SwitchLevel:
        record = self.switches.get(switch_id)
        return record.level if record is not None else SwitchLevel.UNKNOWN

    def pod(self, switch_id: int) -> int | None:
        record = self.switches.get(switch_id)
        return record.pod if record is not None else None

    def position(self, switch_id: int) -> int | None:
        record = self.switches.get(switch_id)
        return record.position if record is not None else None

    def _ids_at(self, level: SwitchLevel) -> tuple[int, ...]:
        ids = self._at_level.get(level)
        if ids is None:
            ids = self._at_level[level] = tuple(
                sid for sid, r in self.switches.items() if r.level is level)
        return ids

    def edges(self) -> tuple[int, ...]:
        """All edge-switch ids."""
        return self._ids_at(SwitchLevel.EDGE)

    def aggregations(self) -> tuple[int, ...]:
        """All aggregation-switch ids."""
        return self._ids_at(SwitchLevel.AGGREGATION)

    def cores(self) -> tuple[int, ...]:
        """All core-switch ids."""
        return self._ids_at(SwitchLevel.CORE)

    def aggs_in_pod(self, pod: int) -> tuple[int, ...]:
        if self._aggs_in_pod is None:  # every pod's in one pass
            by_pod: dict[int | None, list[int]] = {}
            for sid in self.aggregations():
                by_pod.setdefault(self.switches[sid].pod, []).append(sid)
            self._aggs_in_pod = {
                key: tuple(ids) for key, ids in by_pod.items()}
        return self._aggs_in_pod.get(pod, ())

    def neighbors_of(self, switch_id: int) -> dict[int, int]:
        """port -> neighbor id for one switch (physical)."""
        neighbors = self._neighbors_of.get(switch_id)
        if neighbors is None:
            record = self.switches.get(switch_id)
            neighbors = self._neighbors_of[switch_id] = {} if record is None else {
                port: nbr for port, (nbr, _lvl) in record.neighbors.items()}
        return neighbors

    def port_toward(self, switch_id: int, neighbor_id: int) -> int | None:
        """The (lowest) port on ``switch_id`` wired to ``neighbor_id``."""
        for port, nbr in sorted(self.neighbors_of(switch_id).items()):
            if nbr == neighbor_id:
                return port
        return None

    def _wired_to(self, switch_id: int) -> set[int]:
        """The ids ``switch_id`` reports wired to it (physical)."""
        ids = self._neighbor_ids.get(switch_id)
        if ids is None:
            ids = self._neighbor_ids[switch_id] = set(
                self.neighbors_of(switch_id).values())
        return ids

    def adjacent(self, a: int, b: int) -> bool:
        """Physically wired (either side reported it)."""
        return b in self._wired_to(a) or a in self._wired_to(b)

    def alive(self, a: int, b: int) -> bool:
        """Wired and not in the fault matrix."""
        return self.adjacent(a, b) and frozenset((a, b)) not in self.failed

    # ------------------------------------------------------------------
    # Core groups

    def core_neighbors(self, agg_id: int) -> tuple[int, ...]:
        """Cores physically wired to an aggregation switch."""
        cores = self._core_neighbors.get(agg_id)
        if cores is None:
            cores = self._core_neighbors[agg_id] = tuple(
                nbr for nbr in self.neighbors_of(agg_id).values()
                if self.level(nbr) is SwitchLevel.CORE)
        return cores

    def uplink_index(self) -> tuple[dict[int, tuple[int | None, set[int]]],
                                    dict[int, tuple[int | None, set[int]]]]:
        """``(edges, aggs)``: edge id -> (pod, the aggregation switches it
        reports wired to), in :meth:`edges` order, and aggregation id ->
        (pod, the set of its :meth:`core_neighbors`), in
        :meth:`aggregations` order — one pass over the records (physical;
        the override derivation's set algebra reads it)."""
        if self._uplink_index is None:
            aggregation = SwitchLevel.AGGREGATION
            edges = {
                edge: (self.pod(edge), {
                    nbr for nbr in self.neighbors_of(edge).values()
                    if self.level(nbr) is aggregation})
                for edge in self.edges()}
            aggs = {agg: (self.pod(agg), set(self.core_neighbors(agg)))
                    for agg in self.aggregations()}
            self._uplink_index = edges, aggs
        return self._uplink_index
