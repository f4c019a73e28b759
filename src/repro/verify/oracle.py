"""Runtime invariant oracle: a TraceBus subscriber watching every hop.

:class:`InvariantOracle` attaches to a built fabric and listens to the
``verify.hop``/``verify.miss`` records the PortLand switches emit for
each forwarded frame (the emissions are guarded by
``TraceBus.wants`` — when no oracle is attached they cost one set
lookup). From the hop stream it enforces the two *trajectory*
invariants the paper proves by construction:

* **loop-freedom** — no (payload, destination) ever enters the same
  switch twice. Keyed on destination as well as payload identity so a
  legitimate rewrite (a migration trap repointing a stale PMAC) starts
  a fresh trajectory rather than a false loop;
* **up-after-down** — once a frame has matched a *down* entry
  (descending toward a more specific prefix) it must never match an
  *up* entry again; this is the ordering argument behind the paper's
  loop-freedom proof, checked per hop via
  :func:`repro.portland.forwarding.entry_direction`.

The oracle also listens to ``verify.flow`` records — the pinned hop
lists the flow-level engine (:mod:`repro.flows`) emits whenever a fluid
flow resolves or re-resolves its path — and enforces the same two
invariants on each list as a whole, plus that the path terminates at a
host-delivery entry. This is how flow-mode campaigns prove that fluid
flows only ever occupy valid up*-down* paths, including the re-resolved
path after a fault.

``check_now()`` additionally runs the static checks (PMAC consistency,
override soundness, no stale fault state, all-pairs table walks) against
the current fabric state, for use after the fabric has settled.
"""

from __future__ import annotations

from repro.net.ethernet import ETHERTYPE_IPV4
from repro.portland.forwarding import entry_direction
from repro.sim.trace import TraceRecord
from repro.verify.invariants import (
    Violation,
    check_fault_state,
    check_override_soundness,
    check_pmac_consistency,
)
from repro.verify.walk import check_all_pairs_delivery

#: The Ethernet I/G bit: group-addressed frames legitimately fan out and
#: are excluded from the unicast trajectory invariants.
_MULTICAST_BIT = 1 << 40


class _Trajectory:
    """Per-(payload, destination) forwarding history."""

    __slots__ = ("payload", "visited", "descended")

    def __init__(self, payload) -> None:
        self.payload = payload  # strong ref: keeps id() stable
        self.visited: set[str] = set()
        self.descended = False


class InvariantOracle:
    """Watches a fabric for invariant violations.

    Usage::

        oracle = InvariantOracle(fabric)
        ...  # run traffic, inject faults
        oracle.check_now()            # static checks, after settling
        assert oracle.violations == []
        oracle.close()
    """

    def __init__(self, fabric, track_hops: bool = True) -> None:
        self.fabric = fabric
        self.sim = fabric.sim
        self.violations: list[Violation] = []
        self.hops = 0
        self.misses = 0
        #: Fluid-path resolutions checked (flow-mode fabrics only).
        self.flow_paths = 0
        #: Deliberate ACL discards observed (each must be justified by
        #: an installed policy rule — the table walker proves that).
        self.policy_drops = 0
        self._trajectories: dict[tuple[int, int], _Trajectory] = {}
        self._subscribed = False
        if track_hops:
            self.sim.trace.subscribe("verify.hop", self._on_hop)
            self.sim.trace.subscribe("verify.miss", self._on_miss)
            self.sim.trace.subscribe("verify.flow", self._on_flow)
            self.sim.trace.subscribe("verify.policy_drop",
                                     self._on_policy_drop)
            self.sim.trace.subscribe("verify.class_inversion",
                                     self._on_class_inversion)
            self._subscribed = True

    # ------------------------------------------------------------------
    # Runtime (per-hop) checks

    def _track_for(self, record: TraceRecord) -> _Trajectory | None:
        detail = record.detail
        if detail.get("ethertype") != ETHERTYPE_IPV4:
            return None
        dst = detail["dst"]
        if dst & _MULTICAST_BIT:
            return None
        payload = detail.get("payload")
        if payload is None:
            return None
        key = (id(payload), dst)
        track = self._trajectories.get(key)
        if track is None:
            track = self._trajectories[key] = _Trajectory(payload)
        return track

    def _on_hop(self, record: TraceRecord) -> None:
        self.hops += 1
        track = self._track_for(record)
        if track is None:
            return
        if record.source in track.visited:
            self.violations.append(Violation(
                "loop", record.source, record.time,
                {"dst": f"{record.detail['dst']:#014x}",
                 "entry": record.detail.get("entry"),
                 "revisits": sorted(track.visited)}))
        track.visited.add(record.source)
        direction = entry_direction(record.detail.get("entry", ""))
        if direction in ("down", "deliver"):
            track.descended = True
        elif direction == "up" and track.descended:
            self.violations.append(Violation(
                "up-after-down", record.source, record.time,
                {"dst": f"{record.detail['dst']:#014x}",
                 "entry": record.detail.get("entry"),
                 "path_so_far": sorted(track.visited)}))

    def _on_miss(self, record: TraceRecord) -> None:
        # Misses are expected during convergence windows; they are
        # counted for diagnostics and judged post-hoc by the table
        # walker, which knows whether the destination was reachable.
        self.misses += 1

    def _on_policy_drop(self, record: TraceRecord) -> None:
        # Counted for campaign accounting; whether each drop is
        # justified (an installed rule blocks the pair) is the table
        # walker's call — see repro.verify.walk.
        self.policy_drops += 1

    def _on_class_inversion(self, record: TraceRecord) -> None:
        """A strict-priority port dequeued a bulk frame while a higher
        class was waiting — the per-class latency invariant (mice never
        queue behind elephant bytes) failed at this link."""
        self.violations.append(Violation(
            "class-inversion", record.source, record.time,
            dict(record.detail)))

    def _on_flow(self, record: TraceRecord) -> None:
        """Check one fluid flow's pinned hop list.

        The list arrives whole (``((switch, entry, in_port), ...)``), so
        the trajectory invariants are checked in one pass rather than
        incrementally: no switch may repeat, no up-entry may follow a
        down-entry, and the final hop must be a host-delivery entry —
        a fluid flow must never be pinned to a path that strands its
        bytes inside the fabric.
        """
        self.flow_paths += 1
        hops = record.detail.get("hops") or ()
        visited: list[str] = []
        descended = False
        for switch_name, entry_name, _in_index in hops:
            if switch_name in visited:
                self.violations.append(Violation(
                    "flow-loop", record.source, record.time,
                    {"switch": switch_name, "hops": visited}))
            direction = entry_direction(entry_name or "")
            if direction == "up" and descended:
                self.violations.append(Violation(
                    "flow-up-after-down", record.source, record.time,
                    {"switch": switch_name, "entry": entry_name,
                     "hops": visited}))
            elif direction in ("down", "deliver"):
                descended = True
            visited.append(switch_name)
        if hops and entry_direction(hops[-1][1] or "") != "deliver":
            self.violations.append(Violation(
                "flow-no-delivery", record.source, record.time,
                {"last_entry": hops[-1][1], "hops": visited}))

    # ------------------------------------------------------------------
    # Static (settled-state) checks

    def check_now(self, pairs=None, pmac: bool = True,
                  overrides: bool = True, delivery: bool = True
                  ) -> list[Violation]:
        """Run the post-hoc invariant checks against the current state.

        Returns only the *new* violations found by this call (they are
        also appended to :attr:`violations`). Call on a settled fabric.
        """
        found: list[Violation] = []
        if pmac:
            found.extend(check_pmac_consistency(self.fabric))
        if overrides:
            found.extend(check_override_soundness(self.fabric))
            found.extend(check_fault_state(self.fabric))
        if delivery:
            found.extend(check_all_pairs_delivery(self.fabric, pairs=pairs))
        self.violations.extend(found)
        return found

    # ------------------------------------------------------------------
    # Lifecycle

    def reset(self) -> None:
        """Forget all trajectories and violations (e.g. between steps)."""
        self._trajectories.clear()
        self.violations.clear()
        self.hops = 0
        self.misses = 0
        self.flow_paths = 0
        self.policy_drops = 0

    def close(self) -> None:
        """Unsubscribe from the trace bus. Idempotent."""
        if self._subscribed:
            self.sim.trace.unsubscribe("verify.hop", self._on_hop)
            self.sim.trace.unsubscribe("verify.miss", self._on_miss)
            self.sim.trace.unsubscribe("verify.flow", self._on_flow)
            self.sim.trace.unsubscribe("verify.policy_drop",
                                       self._on_policy_drop)
            self.sim.trace.unsubscribe("verify.class_inversion",
                                       self._on_class_inversion)
            self._subscribed = False

    def __enter__(self) -> "InvariantOracle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
