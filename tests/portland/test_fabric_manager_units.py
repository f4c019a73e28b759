"""Direct unit tests for fabric-manager request handling."""

from repro.net.addresses import IPv4Address, MacAddress
from repro.portland.config import PortlandConfig
from repro.portland.fabric_manager import FabricManager
from repro.portland.faults import compute_overrides
from repro.portland.messages import (
    ArpQuery,
    FaultUpdate,
    NeighborReport,
    OverrideReport,
    PodRequest,
    RegisterHost,
    SwitchLevel,
)
from repro.sim import Simulator
from tests.portland.test_faults import make_fat_tree_view

EDGE_A = 0x020000000001
EDGE_B = 0x020000000002
IP_1 = IPv4Address.parse("10.0.0.2")
AMAC_1 = MacAddress.parse("02:00:00:00:00:01")
PMAC_1 = MacAddress.parse("00:00:00:00:00:01")
PMAC_2 = MacAddress.parse("00:01:00:01:00:01")


def make_fm(config=None):
    sim = Simulator(seed=1)
    fm = FabricManager(sim, config or PortlandConfig())
    sent = []
    fm.send_to_switch = lambda sid, msg: sent.append((sid, msg))
    return sim, fm, sent


def load_fat_tree(fm, failed=()):
    """Install the hand-built k=4 view's records into a live FM."""
    view = make_fat_tree_view(k=4, failed=failed)
    fm.switches.update(view.switches)
    fm.fault_matrix |= view.failed


def test_pod_assignment_is_idempotent_and_monotone():
    _sim, fm, sent = make_fm()
    fm._dispatch(PodRequest(EDGE_A))
    fm._dispatch(PodRequest(EDGE_A))  # same switch asks twice
    fm._dispatch(PodRequest(EDGE_B))
    pods = [msg.pod for _sid, msg in sent]
    assert pods == [0, 0, 1]


def test_arp_query_hit_and_miss():
    _sim, fm, sent = make_fm()
    fm._dispatch(RegisterHost(EDGE_A, 0, AMAC_1, IP_1, PMAC_1))
    fm._dispatch(ArpQuery(7, EDGE_B, IPv4Address.parse("10.0.1.2"),
                          PMAC_2, IP_1))
    sid, response = sent[-1]
    assert sid == EDGE_B
    assert response.found and response.pmac == PMAC_1
    assert fm.arp_misses == 0

    # Miss: not-found response to the asker plus a flood to every edge.
    fm._on_neighbor_report(NeighborReport(EDGE_A, SwitchLevel.EDGE, 0, 0, ()))
    fm._on_neighbor_report(NeighborReport(EDGE_B, SwitchLevel.EDGE, 1, 0, ()))
    sent.clear()
    fm._dispatch(ArpQuery(8, EDGE_B, IPv4Address.parse("10.0.1.2"),
                          PMAC_2, IPv4Address.parse("10.9.9.9")))
    assert fm.arp_misses == 1
    kinds = [type(msg).__name__ for _sid, msg in sent]
    assert kinds.count("ArpResponse") == 1
    assert kinds.count("ArpFlood") == 2  # both edges


def test_reregistration_same_place_is_not_migration():
    _sim, fm, sent = make_fm()
    fm._dispatch(RegisterHost(EDGE_A, 0, AMAC_1, IP_1, PMAC_1))
    sent.clear()
    fm._dispatch(RegisterHost(EDGE_A, 0, AMAC_1, IP_1, PMAC_1))
    assert sent == []  # no Invalidate for a soft-state refresh


def test_move_triggers_invalidate_to_old_edge():
    _sim, fm, sent = make_fm()
    fm._dispatch(RegisterHost(EDGE_A, 0, AMAC_1, IP_1, PMAC_1))
    sent.clear()
    fm._dispatch(RegisterHost(EDGE_B, 1, AMAC_1, IP_1, PMAC_2))
    assert len(sent) == 1
    sid, msg = sent[0]
    assert sid == EDGE_A
    assert type(msg).__name__ == "Invalidate"
    assert msg.old_pmac == PMAC_1 and msg.new_pmac == PMAC_2
    assert fm.hosts_by_ip[IP_1].edge_id == EDGE_B


def test_duplicate_link_fail_reports_are_idempotent():
    _sim, fm, sent = make_fm()
    fm._on_neighbor_report(NeighborReport(EDGE_A, SwitchLevel.EDGE, 0, 0, ()))
    fm._on_link_change(EDGE_A, EDGE_B, failed=True)
    after_first = len(sent)
    fm._on_link_change(EDGE_B, EDGE_A, failed=True)  # other side reports
    assert len(sent) == after_first  # no duplicate fan-out
    assert len(fm.fault_matrix) == 1
    fm._on_link_change(EDGE_A, EDGE_B, failed=False)
    fm._on_link_change(EDGE_A, EDGE_B, failed=False)
    assert len(fm.fault_matrix) == 0


def test_utilization_accounting():
    sim, fm, _sent = make_fm()
    assert fm.utilization(0.0) == 0.0
    fm.busy_time = 0.25
    assert fm.utilization(1.0) == 0.25


def test_neighbor_report_updates_pod_watermark():
    _sim, fm, _sent = make_fm()
    fm._on_neighbor_report(NeighborReport(EDGE_A, SwitchLevel.EDGE, 5, 0, ()))
    assert fm._next_pod == 6
    # UNKNOWN pod sentinel (0xFFFF) must not poison the watermark.
    fm._on_neighbor_report(NeighborReport(EDGE_B, SwitchLevel.EDGE,
                                          0xFFFF, 0xFF, ()))
    assert fm._next_pod == 6


# ----------------------------------------------------------------------
# Service-queue accounting


def test_busy_time_charged_on_completion_not_at_schedule():
    sim, fm, sent = make_fm()
    slot = fm.config.fm_service_time_s
    fm.enqueue_internal(PodRequest(EDGE_A))
    # Mid-service: the slot is scheduled but not finished — no charge yet.
    sim.run(until=slot / 2)
    assert fm.busy_time == 0.0 and sent == []
    sim.run(until=slot * 2)
    assert fm.busy_time == slot
    assert len(sent) == 1


def test_service_event_scheduled_before_restart_is_dead():
    """Regression: a ``_service_one`` event in flight across ``restart()``
    must not service the new instance's queue.

    Without the epoch guard the stale event starts a second service
    chain: the first post-restart message is handled one event early and
    ``busy_time`` is charged by both chains.
    """
    sim, fm, sent = make_fm()
    slot = fm.config.fm_service_time_s
    fm.enqueue_internal(PodRequest(EDGE_A))   # chain scheduled at +slot
    fm.restart()                              # ...crashes before it fires
    fm.enqueue_internal(PodRequest(EDGE_B))   # new instance, new chain
    sim.run(until=1.0)
    # Pre-restart message died with the queue; post-restart message is
    # serviced exactly once, charging exactly one slot.
    assert [sid for sid, _msg in sent] == [EDGE_B]
    assert fm.busy_time == slot
    assert not fm._busy


def test_restart_mid_service_discards_queue_without_charge():
    sim, fm, sent = make_fm()
    fm.enqueue_internal(PodRequest(EDGE_A))
    fm.enqueue_internal(PodRequest(EDGE_B))
    sim.run(until=fm.config.fm_service_time_s / 2)
    fm.restart()
    sim.run(until=1.0)
    # Neither message completed service: nothing sent, nothing charged.
    assert sent == [] and fm.busy_time == 0.0


# ----------------------------------------------------------------------
# Override push: batching, incremental recompute, reconciliation


LINK_A = (200, 300)  # pod0 agg <-> core, in the hand-built k=4 view
LINK_B = (202, 300)  # pod1 agg <-> same core


def test_batching_coalesces_a_burst_into_one_push():
    config = PortlandConfig(fm_batch_interval_s=0.02)
    sim, fm, sent = make_fm(config)
    load_fat_tree(fm)
    fm._on_link_change(*LINK_A, failed=True)
    fm._on_link_change(*LINK_B, failed=True)
    # Inside the window: nothing recomputed or pushed yet (the DisableLink
    # unicasts to the endpoints are not override traffic).
    assert fm.override_recomputes == 0
    assert not any(isinstance(m, FaultUpdate) for _s, m in sent)
    sim.run(until=0.05)
    assert fm.override_batches == 1
    assert fm.override_recomputes == 1
    pushed = {(sid, m.prefix, m.prefix_len, m.avoid_neighbor_ids)
              for sid, m in sent if isinstance(m, FaultUpdate)}
    # The single push carries the combined two-failure override set.
    expected = compute_overrides(fm.view())
    want = {(sid, MacAddress(value), bits, tuple(sorted(avoid)))
            for sid, rows in expected.items()
            for (value, bits), avoid in rows.items()}
    assert pushed == want


def test_flap_inside_batch_window_pushes_nothing():
    config = PortlandConfig(fm_batch_interval_s=0.02)
    sim, fm, sent = make_fm(config)
    load_fat_tree(fm)
    fm._on_link_change(*LINK_A, failed=True)
    fm._on_link_change(*LINK_A, failed=True)  # duplicate report: idempotent
    sim.run(until=0.01)
    fm._on_link_change(*LINK_A, failed=False)
    sim.run(until=0.05)
    assert fm.override_batches == 1
    assert fm.override_updates_sent == 0
    assert fm.override_clears_sent == 0


def test_incremental_push_matches_full_recompute():
    sim, fm, sent = make_fm()
    load_fat_tree(fm)
    for link, failed in ((LINK_A, True), (LINK_B, True), ((101, 201), True),
                         (LINK_A, False), ((101, 201), False)):
        fm._on_link_change(*link, failed=failed)
        assert fm._sent_overrides == compute_overrides(fm.view())
    # The incremental path did real incremental work, not hidden fulls.
    assert fm._computer.incremental_updates > 0
    assert fm._computer.full_recomputes == 1  # priming only


def test_override_report_reconciles_restart_hole():
    _sim, fm, sent = make_fm()
    prefix_stale = (0x000200000000, 16)
    prefix_lost = (0x000100000000, 16)
    fm._sent_overrides = {EDGE_A: {prefix_lost: {5}}}
    # The switch holds a prefix the (restarted) FM no longer believes in,
    # and is missing one the FM thinks it sent.
    fm._dispatch(OverrideReport(EDGE_A, (prefix_stale,)))
    kinds = {type(m).__name__: (sid, m) for sid, m in sent}
    sid, clear = kinds["FaultClear"]
    assert sid == EDGE_A and clear.prefix == MacAddress(prefix_stale[0])
    sid, update = kinds["FaultUpdate"]
    assert sid == EDGE_A and update.prefix == MacAddress(prefix_lost[0])
    assert update.avoid_neighbor_ids == (5,)
    # A report that matches _sent_overrides is a no-op.
    sent.clear()
    fm._dispatch(OverrideReport(EDGE_A, (prefix_lost,)))
    assert sent == []
