"""Fault-matrix → prescriptive forwarding overrides (paper §3.6).

When a switch reports a failed link, the fabric manager does not flood
the event fabric-wide (the link-state approach it replaces); it computes
exactly which switches' forwarding decisions are invalidated and sends
each of them one :class:`~repro.portland.messages.FaultUpdate` naming
the destination prefix and the next-hop neighbours to avoid. Recovery
sends the matching clears.

The computation is a reachability analysis on the *alive* graph (wiring
minus fault matrix), done per destination edge switch — i.e. per
position prefix, the granularity of PortLand forwarding:

* ``D_aggs(e)`` — aggregation switches that can still deliver *down* to
  edge ``e`` (alive agg↔e link);
* ``D_cores(e)`` — cores with an alive link to some member of
  ``D_aggs(e)``.

Then, for traffic addressed to ``e``'s prefix:

* another edge in the same pod may only use uplinks into ``D_aggs(e)``;
* an edge in a different pod may only use uplinks to aggregation
  switches that still have an alive link to some core in ``D_cores(e)``;
* an aggregation switch in a different pod may only use uplinks to
  cores in ``D_cores(e)``.

A switch whose default ECMP set already satisfies the constraint gets no
message; a prefix with an empty allowed set gets an empty override
(drop — the prefix is genuinely unreachable). Local failures (a
switch's own ports) are pruned by the switch agent itself and need no
message. This handles arbitrary combinations of simultaneous failures,
which the paper's single-failure narrative composes implicitly.
"""

from __future__ import annotations

from repro.portland.messages import SwitchLevel
from repro.portland.pmac import position_prefix
from repro.portland.topology_view import FabricView

#: switch_id -> {(prefix_value, prefix_len): set of neighbor ids to avoid}
Overrides = dict[int, dict[tuple[int, int], set[int]]]


def compute_overrides(view: FabricView) -> Overrides:
    """Full override map implied by the current fault matrix.

    Derived from scratch, rule by rule and sender by sender — simple,
    idempotent, and naturally correct for overlapping failures and
    recoveries. The fabric manager runs :class:`OverrideComputer`, which
    maintains the same map by set algebra over the view's
    :meth:`~FabricView.uplink_index`, re-deriving only the prefixes a
    given change can touch; this function shares none of that
    derivation and is the independent reference its tests compare
    against.
    """
    overrides: Overrides = {}
    if not view.failed:
        return overrides
    view = view.fresh()  # the caller's may predate a change to the records
    for edge in view.edges():
        pod = view.pod(edge)
        position = view.position(edge)
        if pod is None or position is None:
            continue
        if not _touched_by_failure(view, edge, _pod_relevance(view, pod)):
            continue
        prefix, d_aggs, d_cores = _dest_state(view, edge, pod, position)
        for other in view.edges():
            if other == edge:
                continue
            avoid = _avoid_for_edge(view, other, pod, d_aggs, d_cores)
            if avoid:
                overrides.setdefault(other, {})[prefix] = avoid
        for agg in view.aggregations():
            if view.pod(agg) == pod:
                continue  # same-pod aggs route down directly or drop
            avoid = _avoid_for_agg(view, agg, d_cores)
            if avoid:
                overrides.setdefault(agg, {})[prefix] = avoid
    return overrides


def _dest_state(view: FabricView, edge: int, pod: int,
                position: int) -> tuple[tuple[int, int], set[int], set[int]]:
    """``(prefix, D_aggs, D_cores)`` for one destination edge."""
    value, bits = position_prefix(pod, position)
    d_aggs = {agg for agg in view.aggs_in_pod(pod) if view.alive(agg, edge)}
    d_cores = {
        core
        for agg in d_aggs
        for core in view.core_neighbors(agg)
        if view.alive(agg, core)
    }
    return (value.value, bits), d_aggs, d_cores


def _pod_relevance(view: FabricView, pod: int) -> set[int]:
    """Switches whose links feed the reachability analysis of an edge in
    ``pod``, besides the edge: the pod's aggregation switches and their
    cores. Every quantity in :func:`_dest_state` and the per-sender avoid
    sets reads only links with an endpoint there or at the edge (an
    uplink chosen by any sender must land on a core wired to the
    destination pod to matter, and that core is in the set)."""
    relevant: set[int] = set()
    for agg in view.aggs_in_pod(pod):
        relevant.add(agg)
        relevant.update(view.core_neighbors(agg))
    return relevant


def _touched_by_failure(view: FabricView, edge: int,
                        relevant: set[int]) -> bool:
    """Whether any failed link could affect reachability of ``edge``:
    a link touching the edge itself or ``relevant``, its pod's
    :func:`_pod_relevance`."""
    return any(edge in link or not relevant.isdisjoint(link)
               for link in view.failed)


def _avoid_for_edge(view: FabricView, other: int, pod: int,
                    d_aggs: set[int], d_cores: set[int]) -> set[int]:
    """Uplinks edge ``other`` must avoid for the prefix of a destination
    edge in ``pod`` with viable sets ``d_aggs``/``d_cores``."""
    phys_up = {nbr for nbr in view.neighbors_of(other).values()
               if view.level(nbr) is SwitchLevel.AGGREGATION}
    if view.pod(other) == pod:
        allowed = phys_up & d_aggs
    else:
        allowed = {
            agg for agg in phys_up
            if any(view.alive(agg, core)
                   for core in view.core_neighbors(agg)
                   if core in d_cores)
        }
    return phys_up - allowed


def _avoid_for_agg(view: FabricView, agg: int, d_cores: set[int]) -> set[int]:
    """Core uplinks an other-pod aggregation switch must avoid."""
    phys_cores = set(view.core_neighbors(agg))
    return phys_cores - (phys_cores & d_cores)


class _Algebra:
    """One update's derivation, as set algebra over ``view``'s
    :meth:`~FabricView.uplink_index`: the same rules as
    :func:`compute_overrides`, each sender's avoid set one difference.

    ``live_cores`` maps each aggregation switch to its cores whose link
    is not in the fault matrix, read once; so an algebra lives for one
    update and never outlasts the matrix it read.
    """

    def __init__(self, view: FabricView) -> None:
        self.view = view
        self.edges, self.aggs = view.uplink_index()
        cut: dict[int, set[int]] = {}
        for link in view.failed:
            for end in link:
                cut.setdefault(end, set()).update(link)
        self.live_cores = {agg: cores - cut[agg] if agg in cut else cores
                           for agg, (_pod, cores) in self.aggs.items()}
        self._feeding: dict[frozenset[int], set[int]] = {}

    def dest_state(self, edge: int, pod: int, position: int
                   ) -> tuple[tuple[int, int], set[int], set[int]]:
        """``(prefix, D_aggs, D_cores)`` for one destination edge."""
        value, bits = position_prefix(pod, position)
        d_aggs = {agg for agg in self.view.aggs_in_pod(pod)
                  if self.view.alive(agg, edge)}
        d_cores: set[int] = set()
        for agg in d_aggs:
            d_cores |= self.live_cores[agg]
        return (value.value, bits), d_aggs, d_cores

    def feeding(self, d_cores: set[int]) -> set[int]:
        """Aggregation switches with a live link to some core in
        ``d_cores`` — the uplinks an edge outside the destination's pod
        may keep (remembered per ``d_cores``: many prefixes share one)."""
        key = frozenset(d_cores)
        feeding = self._feeding.get(key)
        if feeding is None:
            feeding = self._feeding[key] = {
                agg for agg, live in self.live_cores.items()
                if not live.isdisjoint(d_cores)}
        return feeding

    def avoid_for(self, sender: int, pod: int, d_aggs: set[int],
                  d_cores: set[int]) -> set[int]:
        """The avoid set of one sender for a destination in ``pod``."""
        if sender in self.edges:
            sender_pod, uplinks = self.edges[sender]
            return uplinks - (d_aggs if sender_pod == pod
                              else self.feeding(d_cores))
        if sender in self.aggs:
            sender_pod, cores = self.aggs[sender]
            if sender_pod != pod:
                return cores - d_cores
        return set()


def _edge_overrides(algebra: _Algebra, overrides: Overrides, edge: int,
                    pod: int, prefix: tuple[int, int],
                    d_aggs: set[int], d_cores: set[int]) -> None:
    feeding = algebra.feeding(d_cores)
    for other, (other_pod, uplinks) in algebra.edges.items():
        if other == edge:
            continue
        avoid = uplinks - (d_aggs if other_pod == pod else feeding)
        if avoid:
            overrides.setdefault(other, {})[prefix] = avoid


def _agg_overrides(algebra: _Algebra, overrides: Overrides, pod: int,
                   prefix: tuple[int, int], d_cores: set[int]) -> None:
    for agg, (agg_pod, cores) in algebra.aggs.items():
        if agg_pod == pod:
            continue  # same-pod aggs route down directly or drop
        avoid = cores - d_cores
        if avoid:
            overrides.setdefault(agg, {})[prefix] = avoid


class OverrideComputer:
    """Incrementally maintained override map.

    Tracks the same ``Overrides`` that :func:`compute_overrides` would
    return for the current view, but on each change re-derives only the
    destination prefixes the change can affect:

    * a fault-matrix flip on link *l* touches exactly the prefixes whose
      destination edge or :func:`_pod_relevance` set meets *l*'s
      endpoints;
    * a wiring change at switch *s* (LDP pruning or re-adding links in
      its neighbour report) additionally rewrites *s*'s own avoid rows
      for every prefix, since a sender's uplinks and cores are read from
      its own record only — rows are recomputed from the cached
      ``(D_aggs, D_cores)`` of each unaffected destination.

    A prefix is derived by set algebra (:class:`_Algebra`): per
    destination, ``D_aggs``, ``D_cores`` and the aggregation switches
    still feeding ``D_cores``; per sender, one set difference.

    Level/pod/position changes (and anything else the caller cannot
    attribute) must come as a full update, which starts over with
    *every* switch marked changed. ``edges_examined`` counts
    destination prefixes re-derived over the computer's lifetime — the
    per-event recompute-work metric the fig. 15 bench reports.
    """

    def __init__(self) -> None:
        self.edges_examined = 0
        self.full_recomputes = 0
        self.incremental_updates = 0
        self.reset()

    def reset(self) -> None:
        """Forget everything (fabric-manager restart)."""
        self.overrides: Overrides = {}
        #: edge_id -> (prefix, pod, d_aggs, d_cores) for touched edges.
        self._dest: dict[int, tuple[tuple[int, int], int,
                                    set[int], set[int]]] = {}
        #: (edge, pod, position) by id of the edges with both, read from
        #: the records once after a full update (the roles hold till the
        #: next).
        self._located: list[tuple[int, int, int]] | None = None
        self._primed = False

    def update(self, view: FabricView,
               changed_links: set[frozenset[int]] | None = None,
               changed_switches: set[int] | None = None) -> Overrides:
        """Bring the map up to date with ``view`` and return it.

        ``changed_links`` are links whose fault or wiring state flipped
        since the last update; ``changed_switches`` are switches whose
        reported neighbour set changed. ``None`` (or an unprimed
        computer) means "unknown": start over with every switch changed
        — required when a switch's level, pod or position changed.
        """
        view = view.fresh()  # the caller's may predate the change
        if changed_links is None or not self._primed:
            self.full_recomputes += 1
            self.reset()
            self._primed = True
            if view.failed:  # a clean fabric has nothing to derive
                self._recompute_affected(view, set(view.switches))
            return self.overrides
        self.incremental_updates += 1
        changed_ids: set[int] = set(changed_switches or ())
        for link in changed_links:
            changed_ids.update(link)
        algebra = self._recompute_affected(view, changed_ids)
        if changed_switches and self._dest:
            self._recompute_rows(algebra or _Algebra(view),
                                 set(changed_switches))
        return self.overrides

    def _recompute_affected(self, view: FabricView,
                            changed_ids: set[int]) -> _Algebra | None:
        """Re-derive every destination prefix whose edge or pod
        relevance set meets ``changed_ids`` — the computer's one way to
        derive a prefix. An edge without a pod or a position has none.
        Returns the update's algebra, made only if a prefix needed it
        (a fault-free run builds no index)."""
        algebra = None
        if self._located is None:
            self._located = sorted(
                (edge, record.pod, record.position)
                for edge, record in view.switches.items()
                if record.level is SwitchLevel.EDGE
                and record.pod is not None and record.position is not None)
        relevance: dict[int, set[int]] = {}  # per pod
        for edge, pod, position in self._located:
            relevant = relevance.get(pod)
            if relevant is None:
                relevant = relevance[pod] = _pod_relevance(view, pod)
            if edge not in changed_ids and relevant.isdisjoint(changed_ids):
                continue
            self.edges_examined += 1
            cached = self._dest.pop(edge, None)
            if cached is not None:
                self._strip_prefix(cached[0])
            if not _touched_by_failure(view, edge, relevant):
                continue
            if algebra is None:
                algebra = _Algebra(view)
            prefix, d_aggs, d_cores = algebra.dest_state(edge, pod, position)
            self._strip_prefix(prefix)
            self._dest[edge] = (prefix, pod, d_aggs, d_cores)
            _edge_overrides(algebra, self.overrides, edge, pod, prefix,
                            d_aggs, d_cores)
            _agg_overrides(algebra, self.overrides, pod, prefix, d_cores)
        return algebra

    def _recompute_rows(self, algebra: _Algebra, senders: set[int]) -> None:
        """Rewrite the avoid rows of wiring-changed sender switches for
        every prefix that was *not* re-derived this round."""
        for sender in senders:
            for edge, (prefix, pod, d_aggs, d_cores) in self._dest.items():
                if sender != edge:
                    avoid = algebra.avoid_for(sender, pod, d_aggs, d_cores)
                    self._set_row(sender, prefix, avoid)

    def _set_row(self, switch_id: int, prefix: tuple[int, int],
                 avoid: set[int]) -> None:
        if avoid:
            self.overrides.setdefault(switch_id, {})[prefix] = avoid
            return
        prefix_map = self.overrides.get(switch_id)
        if prefix_map is not None:
            prefix_map.pop(prefix, None)
            if not prefix_map:
                del self.overrides[switch_id]

    def _strip_prefix(self, prefix: tuple[int, int]) -> None:
        for switch_id in list(self.overrides):
            prefix_map = self.overrides[switch_id]
            prefix_map.pop(prefix, None)
            if not prefix_map:
                del self.overrides[switch_id]


def diff_overrides(old: Overrides, new: Overrides):
    """Changes needed to move a fabric from ``old`` to ``new``.

    Returns ``(updates, clears)`` where ``updates`` is a list of
    ``(switch_id, prefix, avoid_ids)`` to (re)send and ``clears`` a list
    of ``(switch_id, prefix)`` to retract.
    """
    updates: list[tuple[int, tuple[int, int], tuple[int, ...]]] = []
    clears: list[tuple[int, tuple[int, int]]] = []
    switch_ids = set(old) | set(new)
    for switch_id in switch_ids:
        old_map = old.get(switch_id, {})
        new_map = new.get(switch_id, {})
        for prefix, avoid in new_map.items():
            if old_map.get(prefix) != avoid:
                updates.append((switch_id, prefix, tuple(sorted(avoid))))
        for prefix in old_map:
            if prefix not in new_map:
                clears.append((switch_id, prefix))
    return updates, clears


def apply_diff(base: Overrides, updates, clears) -> Overrides:
    """Apply a :func:`diff_overrides` result to ``base``.

    Returns a new override map; ``base`` is not mutated. By construction
    ``apply_diff(old, *diff_overrides(old, new)) == new`` — the round-trip
    property tests rely on this to prove that the incremental
    FaultUpdate/FaultClear stream a fabric receives always lands it in
    the same state a from-scratch recomputation would.
    """
    result: Overrides = {
        switch_id: {prefix: set(avoid) for prefix, avoid in prefix_map.items()}
        for switch_id, prefix_map in base.items()
    }
    for switch_id, prefix, avoid in updates:
        result.setdefault(switch_id, {})[prefix] = set(avoid)
    for switch_id, prefix in clears:
        prefix_map = result.get(switch_id)
        if prefix_map is None:
            continue
        prefix_map.pop(prefix, None)
        if not prefix_map:
            del result[switch_id]
    return result
