"""The fabric manager's one override path, attacked at its own level.

``tests/portland/test_faults.py`` drives :class:`OverrideComputer`
directly; this drives a real single :class:`FabricManager` — service
queue, batching timer, pending-change bookkeeping, diff and send — with
hypothesis-generated schedules of everything that can move its view:

* ``LinkFail`` / ``LinkRecover`` and duplicates of either (the far end
  reporting the same event),
* ``NeighborReport``s that prune and re-add a neighbour (LDP dropping a
  long-dead link, then hearing it again), that change a neighbour's
  level, that re-arbitrate an edge's position or first-report a switch
  the manager has never heard of (the two "everything changed"
  triggers),
* ``restart()`` followed by the switches' re-reports.

The reference is the from-scratch :func:`compute_overrides` on the
manager's own view. After *every* push (unbatched: every serviced
message that moved the view; batched: every ``_flush_override_batch``)
the manager must believe exactly the reference, and the
``FaultUpdate``/``FaultClear`` messages that push sent must be exactly
the diff between the reference at the previous push and the reference
now — no more, no fewer, none stale.

Views: the hand-built k=4 and k=6 fat trees, and a two-layer leaf–spine
fabric (every leaf in pod 0, no cores — the Solnushkin design's shape,
served by the same computer).
"""

from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.portland.config import PortlandConfig
from repro.portland.fabric_manager import FabricManager
from repro.portland.faults import compute_overrides, diff_overrides
from repro.portland.messages import (
    NO_POD,
    NO_POSITION,
    FaultClear,
    FaultUpdate,
    LinkFail,
    LinkRecover,
    NeighborReport,
    SwitchLevel,
)
from repro.portland.topology_view import FabricView, SwitchRecord
from repro.sim import Simulator
from tests.portland.test_faults import _candidate_links, make_fat_tree_view

#: Added to an edge's position when it is "re-arbitrated": far from every
#: position in use, so prefixes stay unique (arbitration's own guarantee).
POSITION_SHIFT = 64


def make_leaf_spine_view(leaves=4, spines=2) -> FabricView:
    """Leaves 100+i (EDGE, pod 0, position i), spines 200+j
    (AGGREGATION, pod 0), full bipartite, no core layer."""
    switches = {}
    for i in range(leaves):
        switches[100 + i] = SwitchRecord(100 + i, SwitchLevel.EDGE, 0, i)
    for j in range(spines):
        switches[200 + j] = SwitchRecord(200 + j, SwitchLevel.AGGREGATION, 0)
    for i in range(leaves):
        for j in range(spines):
            switches[100 + i].neighbors[8 + j] = (200 + j,
                                                  SwitchLevel.AGGREGATION)
            switches[200 + j].neighbors[i] = (100 + i, SwitchLevel.EDGE)
    return FabricView(switches, set())


VIEWS = {
    "fat-tree k=4": lambda: make_fat_tree_view(k=4),
    "fat-tree k=6": lambda: make_fat_tree_view(k=6),
    "leaf-spine": make_leaf_spine_view,
}


class _Switches:
    """The switches' side of the conversation: what each would report
    right now, and which links they believe are down."""

    def __init__(self, view: FabricView, late: int) -> None:
        self.truth = view.switches
        self.links = _candidate_links(view)
        ids = sorted(self.truth)
        #: Switches the manager has not heard from yet (first reports
        #: arrive mid-schedule).
        self.unreported = [ids[(late * 7 + i * 5) % len(ids)]
                           for i in range(2)]
        self.reported = [sid for sid in ids if sid not in self.unreported]
        self.pruned: dict[tuple[int, int], tuple[int, SwitchLevel]] = {}
        self.failed: set[tuple[int, int]] = set()
        self.last_link_message = None

    def report(self, sid: int) -> NeighborReport:
        record = self.truth[sid]
        return NeighborReport(
            sid, record.level,
            NO_POD if record.pod is None else record.pod,
            NO_POSITION if record.position is None else record.position,
            tuple((port, nbr, level)
                  for port, (nbr, level) in sorted(record.neighbors.items())))

    def port(self, n: int) -> tuple[int, int]:
        """A (switch, port) among the reported switches' wired ports."""
        ports = [(sid, port) for sid in self.reported
                 for port in sorted(set(self.truth[sid].neighbors)
                                    | {p for s, p in self.pruned if s == sid})]
        return ports[n % len(ports)]

    # -- one message per operation -------------------------------------

    def fail(self, n: int):
        a, b = self.links[n % len(self.links)]
        self.failed.add((a, b))
        self.last_link_message = LinkFail(a, 0, b)
        return self.last_link_message

    def recover(self, n: int):
        if not self.failed:
            return self.fail(n)
        a, b = sorted(self.failed)[n % len(self.failed)]
        self.failed.discard((a, b))
        self.last_link_message = LinkRecover(b, 0, a)
        return self.last_link_message

    def duplicate(self, n: int):
        last = self.last_link_message
        if last is None:
            return self.fail(n)
        # The other endpoint reports the same event.
        return type(last)(last.neighbor_id, 0, last.reporter_id)

    def rewire(self, n: int):
        sid, port = self.port(n)
        neighbors = self.truth[sid].neighbors
        if (sid, port) in self.pruned:
            neighbors[port] = self.pruned.pop((sid, port))
        else:
            self.pruned[sid, port] = neighbors.pop(port)
        return self.report(sid)

    def relevel(self, n: int):
        sid, port = self.port(n)
        neighbors = self.truth[sid].neighbors
        if port not in neighbors:
            return self.rewire(n)
        nbr, level = neighbors[port]
        real = self.truth[nbr].level
        neighbors[port] = (nbr, SwitchLevel.UNKNOWN if level is real else real)
        return self.report(sid)

    def reposition(self, n: int):
        edges = [sid for sid in self.reported
                 if self.truth[sid].level is SwitchLevel.EDGE]
        record = self.truth[edges[n % len(edges)]]
        record.position = (record.position + POSITION_SHIFT) % (
            2 * POSITION_SHIFT)
        return self.report(record.switch_id)

    def first_report(self, n: int):
        if not self.unreported:
            # Nobody new: an unchanged refresh, which must push nothing.
            return self.report(self.reported[n % len(self.reported)])
        sid = self.unreported.pop()
        self.reported.append(sid)
        return self.report(sid)

    def everything(self) -> list:
        """What a restarted manager hears over the next refresh."""
        return ([self.report(sid) for sid in self.reported]
                + [LinkFail(a, 0, b) for a, b in sorted(self.failed)])


_OPERATIONS = ("fail", "fail", "recover", "duplicate", "rewire", "rewire",
               "relevel", "reposition", "first_report", "restart")
#: Gaps that put several changes inside one 20 ms batching round and
#: others in rounds of their own.
_GAPS_S = (0.0, 0.0005, 0.004, 0.03)
_schedules = st.lists(
    st.tuples(st.sampled_from(_OPERATIONS), st.integers(0, 10**6),
              st.sampled_from(_GAPS_S)),
    min_size=1, max_size=14)


def _override_messages(sent) -> Counter:
    return Counter(
        (sid, type(msg).__name__, msg.prefix.value, msg.prefix_len,
         getattr(msg, "avoid_neighbor_ids", None))
        for sid, msg in sent if isinstance(msg, (FaultUpdate, FaultClear)))


def _expected_messages(previous, reference) -> Counter:
    updates, clears = diff_overrides(previous, reference)
    return Counter(
        [(sid, "FaultUpdate", value, bits, avoid)
         for sid, (value, bits), avoid in updates]
        + [(sid, "FaultClear", value, bits, None)
           for sid, (value, bits) in clears])


def _drive(view_name: str, batch_s: float, late: int, schedule) -> int:
    """Run one schedule; returns the number of pushes checked."""
    sim = Simulator(seed=1)
    fm = FabricManager(sim, PortlandConfig(fm_batch_interval_s=batch_s))
    sent: list = []
    fm.send_to_switch = lambda sid, msg: sent.append((sid, msg))
    switches = _Switches(VIEWS[view_name](), late)
    context = f"{view_name} batch={batch_s} late={late} schedule={schedule}"

    previous: dict = {}
    pushes = 0
    push = fm._push_override_changes

    def checked_push(view, changed_links=None, changed_switches=None):
        nonlocal previous, pushes
        mark = len(sent)
        push(view, changed_links, changed_switches)
        reference = compute_overrides(fm.view())
        assert fm._sent_overrides == reference, (
            f"push {pushes}: manager's belief differs from the "
            f"from-scratch reference; {context}")
        assert (_override_messages(sent[mark:])
                == _expected_messages(previous, reference)), (
            f"push {pushes}: messages sent are not the reference diff; "
            f"{context}")
        previous = reference
        pushes += 1

    fm._push_override_changes = checked_push

    for message in switches.everything():
        fm.enqueue_internal(message)
    sim.run(until=sim.now + 0.05)
    for operation, n, gap_s in schedule:
        if operation == "restart":
            fm.restart()
            previous = {}  # the new instance has sent nothing
            messages = switches.everything()
        else:
            messages = [getattr(switches, operation)(n)]
        for message in messages:
            fm.enqueue_internal(message)
        sim.run(until=sim.now + gap_s)
    sim.run(until=sim.now + 0.1)  # drain the queue and the last round

    assert not fm._batch_timer.armed
    assert fm._sent_overrides == compute_overrides(fm.view()), context
    assert fm.override_recomputes == pushes
    if batch_s:
        assert fm.override_batches == pushes
    return pushes


@pytest.mark.parametrize("batch_s", [0.0, 0.02])
@pytest.mark.parametrize("view_name", list(VIEWS))
@settings(max_examples=60, deadline=None,
          suppress_health_check=list(HealthCheck))
@given(late=st.integers(0, 50), schedule=_schedules)
def test_every_push_matches_the_from_scratch_reference(view_name, batch_s,
                                                       late, schedule):
    assert _drive(view_name, batch_s, late, schedule) > 0


@pytest.mark.parametrize("batch_s", [0.0, 0.02])
def test_pruned_uplink_under_a_standing_failure(batch_s):
    """The case that needs ``_recompute_rows``, spelled out: with a
    failure already overridden, a *remote* edge prunes the uplink its
    override avoids — its row for the untouched prefix must shrink even
    though that prefix is not re-derived."""
    # Link 2 is edge 101 <-> agg 200; port 2 is edge 102's uplink to agg
    # 202, which 102 must avoid for 101's prefix while it has it.
    schedule = [("fail", 2, 0.03), ("rewire", 2, 0.03), ("rewire", 2, 0.03)]
    assert _drive("fat-tree k=4", batch_s, 0, schedule) >= 3
