"""Unit tests for the fabric manager's fault-override computation."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.portland.faults import (
    OverrideComputer,
    apply_diff,
    compute_overrides,
    diff_overrides,
)
from repro.portland.messages import SwitchLevel
from repro.portland.pmac import position_prefix
from repro.portland.topology_view import FabricView, SwitchRecord


def make_fat_tree_view(k=4, failed=()):
    """A hand-built k=4 fat-tree FabricView with integer switch ids.

    Ids: edges 100+index, aggs 200+index, cores 300+index, where index =
    pod * (k/2) + pos for edges/aggs.
    """
    half = k // 2
    switches = {}

    def add(sid, level, pod=None, position=None):
        record = SwitchRecord(sid)
        record.level = level
        record.pod = pod
        record.position = position
        switches[sid] = record
        return record

    for pod in range(k):
        for i in range(half):
            add(100 + pod * half + i, SwitchLevel.EDGE, pod, i)
            add(200 + pod * half + i, SwitchLevel.AGGREGATION, pod)
    for c in range(half * half):
        add(300 + c, SwitchLevel.CORE)

    # Wire: edge <-> agg (full bipartite per pod); agg a <-> core group a.
    for pod in range(k):
        for e in range(half):
            edge = switches[100 + pod * half + e]
            for a in range(half):
                agg = switches[200 + pod * half + a]
                edge.neighbors[half + a] = (agg.switch_id, SwitchLevel.AGGREGATION)
                agg.neighbors[e] = (edge.switch_id, SwitchLevel.EDGE)
        for a in range(half):
            agg = switches[200 + pod * half + a]
            for j in range(half):
                core = switches[300 + a * half + j]
                agg.neighbors[half + j] = (core.switch_id, SwitchLevel.CORE)
                core.neighbors[pod] = (agg.switch_id, SwitchLevel.AGGREGATION)

    return FabricView(switches, set(frozenset(f) for f in failed))


def test_view_structure_queries():
    view = make_fat_tree_view()
    assert len(view.edges()) == 8
    assert len(view.aggregations()) == 8
    assert len(view.cores()) == 4
    assert view.pod(100) == 0 and view.position(101) == 1
    assert view.port_toward(100, 200) == 2
    assert view.adjacent(100, 200)
    assert not view.adjacent(100, 300)
    # Agg a of every pod wires to core group a.
    assert set(view.core_neighbors(200)) == {300, 301}
    assert set(view.core_neighbors(203)) == {302, 303}


def test_alive_respects_fault_matrix():
    view = make_fat_tree_view(failed=[(100, 200)])
    assert not view.alive(100, 200)
    assert view.alive(100, 201)


def test_no_failures_no_overrides():
    assert compute_overrides(make_fat_tree_view()) == {}


def test_agg_edge_failure_overrides():
    # Fail agg 200 (pod0, group0) <-> edge 101 (pod0, pos1).
    view = make_fat_tree_view(failed=[(200, 101)])
    overrides = compute_overrides(view)
    prefix = position_prefix(0, 1)
    key = (prefix[0].value, prefix[1])
    # Every other edge gets an update, plus the remote group-0 aggs
    # (whose cores can no longer descend to the broken edge).
    assert set(overrides) == {100, 102, 103, 104, 105, 106, 107,
                              202, 204, 206}
    # Same-pod edge avoids just the broken agg.
    assert overrides[100][key] == {200}
    # A remote edge avoids its local group-0 aggregation switch.
    assert overrides[102][key] == {202}
    # Remote group-0 aggs avoid their (now useless) cores for the prefix.
    assert overrides[202][key] == {300, 301}


def test_core_agg_failure_overrides():
    # Fail core 300 <-> agg 200 (pod0, group 0).
    view = make_fat_tree_view(failed=[(300, 200)])
    overrides = compute_overrides(view)
    # Other group-0 aggs (in pods 1..3) avoid core 300 for both pod-0
    # position prefixes; no edge needs an update (every local agg still
    # reaches pod 0 through some core).
    assert set(overrides) == {202, 204, 206}
    for position in (0, 1):
        prefix = position_prefix(0, position)
        key = (prefix[0].value, prefix[1])
        for sid in (202, 204, 206):
            assert overrides[sid][key] == {300}


def test_multiple_failures_merge_avoid_sets():
    # Both pod-0 aggs lose their link to edge 101.
    view = make_fat_tree_view(failed=[(200, 101), (201, 101)])
    overrides = compute_overrides(view)
    prefix = position_prefix(0, 1)
    key = (prefix[0].value, prefix[1])
    # The prefix is unreachable: every uplink everywhere is avoided.
    assert overrides[102][key] == {202, 203}
    assert overrides[100][key] == {200, 201}
    assert overrides[202][key] == {300, 301}


def test_host_and_unknown_links_ignored():
    view = make_fat_tree_view(failed=[(100, 999)])  # unknown endpoint
    assert compute_overrides(view) == {}


def test_diff_overrides():
    old = {1: {(0xA, 24): {7}}, 2: {(0xB, 16): {8}}}
    new = {1: {(0xA, 24): {7, 9}}, 3: {(0xC, 24): {5}}}
    updates, clears = diff_overrides(old, new)
    assert (1, (0xA, 24), (7, 9)) in updates
    assert (3, (0xC, 24), (5,)) in updates
    assert (2, (0xB, 16)) in clears
    assert len(updates) == 2 and len(clears) == 1


def test_diff_overrides_no_change_is_empty():
    state = {1: {(0xA, 24): {7}}}
    updates, clears = diff_overrides(state, {1: {(0xA, 24): {7}}})
    assert updates == [] and clears == []


# ----------------------------------------------------------------------
# diff/apply round-trip properties

# Override maps as the FM builds them: no switch entry without at least
# one prefix (compute_overrides only creates entries via setdefault on a
# real avoid set); empty *avoid* sets are legal and mean "drop".
_prefix = st.tuples(st.integers(0, 2**48 - 1), st.sampled_from((24, 40)))
_avoid = st.sets(st.integers(0, 40), max_size=4)
_overrides = st.dictionaries(
    st.integers(0, 20),
    st.dictionaries(_prefix, _avoid, min_size=1, max_size=3),
    max_size=6,
)


@settings(max_examples=200, deadline=None)
@given(old=_overrides, new=_overrides)
def test_apply_diff_roundtrip_forward(old, new):
    # The incremental FaultUpdate/FaultClear stream lands the fabric in
    # exactly the state a from-scratch recomputation would.
    updates, clears = diff_overrides(old, new)
    assert apply_diff(old, updates, clears) == new


@settings(max_examples=200, deadline=None)
@given(old=_overrides, new=_overrides)
def test_apply_diff_roundtrip_inverse(old, new):
    # old -> new -> old restores the original state (recovery sequences
    # are exact inverses of the failures that caused them).
    forward = apply_diff(old, *diff_overrides(old, new))
    restored = apply_diff(forward, *diff_overrides(new, old))
    assert restored == old


@settings(max_examples=100, deadline=None)
@given(state=_overrides)
def test_diff_is_fixpoint_after_apply(state):
    updates, clears = diff_overrides(state, state)
    assert updates == [] and clears == []
    applied = apply_diff(state, updates, clears)
    assert diff_overrides(applied, state) == ([], [])


def test_apply_diff_does_not_mutate_base():
    base = {1: {(0xA, 24): {7}}}
    apply_diff(base, [(1, (0xA, 24), (9,))], [(1, (0xA, 24))])
    assert base == {1: {(0xA, 24): {7}}}


# ----------------------------------------------------------------------
# Fully-partitioned prefixes: an empty allowed set must yield an
# explicit drop override (avoid = every physical uplink), never an
# absent entry — absence means "use the default ECMP set", which would
# spray traffic at a provably unreachable destination.


def _all_uplinks(view, sid, level):
    return {nbr for nbr in view.neighbors_of(sid).values()
            if view.level(nbr) is level}


def test_partitioned_prefix_gets_explicit_drop_everywhere():
    # Edge 101 (pod0, pos1) loses both its uplinks: its prefix is
    # unreachable fabric-wide.
    view = make_fat_tree_view(failed=[(200, 101), (201, 101)])
    overrides = compute_overrides(view)
    prefix = position_prefix(0, 1)
    key = (prefix[0].value, prefix[1])
    half = 2
    for pod in range(4):
        for e in range(half):
            edge = 100 + pod * half + e
            if edge == 101:
                continue  # the destination itself holds no override
            assert overrides[edge][key] == _all_uplinks(
                view, edge, SwitchLevel.AGGREGATION), edge
        for a in range(half):
            agg = 200 + pod * half + a
            if pod == 0:
                # Same-pod aggs route down or drop locally; the FM never
                # overrides them for their own pod's prefixes.
                assert key not in overrides.get(agg, {})
            else:
                assert overrides[agg][key] == _all_uplinks(
                    view, agg, SwitchLevel.CORE), agg


def test_partition_overlapping_with_unrelated_failure():
    # The partition of 101 composes with an unrelated agg-core failure:
    # the drop overrides for 101's prefix must be unchanged, while the
    # core failure adds its own avoid entries for other prefixes.
    view = make_fat_tree_view(
        failed=[(200, 101), (201, 101), (202, 300)])
    overrides = compute_overrides(view)
    prefix = position_prefix(0, 1)
    key = (prefix[0].value, prefix[1])
    assert overrides[102][key] == {202, 203}
    assert overrides[104][key] == {204, 205}
    assert overrides[202][key] == {300, 301}
    # agg 202 (pod1, group0) lost core 300: pods 2/3's group-0 aggs are
    # unaffected for pod-1 prefixes, but pod-1 destinations now avoid
    # core 300 from other pods' group-0 aggs.
    pod1_prefix = position_prefix(1, 0)
    pod1_key = (pod1_prefix[0].value, pod1_prefix[1])
    for agg in (200, 204, 206):
        assert overrides[agg][pod1_key] == {300}


def test_recovery_sequence_clears_partition_overrides():
    # Fail both uplinks of 101, then recover them one at a time,
    # applying the diff stream at each step; the final state is empty.
    steps = [
        [(200, 101), (201, 101)],  # both down: full partition
        [(200, 101)],              # one recovered
        [],                        # all recovered
    ]
    state = {}
    prefix = position_prefix(0, 1)
    key = (prefix[0].value, prefix[1])
    for failed in steps:
        target = compute_overrides(make_fat_tree_view(failed=failed))
        updates, clears = diff_overrides(state, target)
        state = apply_diff(state, updates, clears)
        assert state == target
    assert state == {}
    # And mid-sequence the partial recovery really shrank the avoid set.
    mid = compute_overrides(make_fat_tree_view(failed=[(200, 101)]))
    assert mid[102][key] == {202}  # only the group of the dead agg
    assert key not in mid.get(100, {}) or mid[100][key] == {200}


# ----------------------------------------------------------------------
# Incremental override maintenance (OverrideComputer): after any mix of
# fault flips and one-sided wiring changes the incrementally maintained
# map must equal a from-scratch compute_overrides of the same view.


def _candidate_links(view):
    links = []
    for sid, record in sorted(view.switches.items()):
        for _port, (nbr, _level) in sorted(record.neighbors.items()):
            if sid < nbr:
                links.append((sid, nbr))
    return links


_ops = st.lists(
    st.tuples(st.sampled_from(("fault", "wire", "role")),
              st.integers(0, 10**6)),
    min_size=1, max_size=12)


def _examined_by_the_per_edge_loop(view, changed_ids):
    """Destination prefixes the computer re-derives for one update, as
    its former loop counted them: every edge through ``view.pod`` and
    ``view.position``, relevance rebuilt per edge."""
    view = view.fresh()
    count = 0
    for edge in view.edges():
        pod, position = view.pod(edge), view.position(edge)
        if pod is None or position is None:
            continue
        relevant = {edge}
        for agg in view.aggs_in_pod(pod):
            relevant.add(agg)
            relevant.update(view.core_neighbors(agg))
        if relevant & changed_ids:
            count += 1
    return count


@settings(max_examples=60, deadline=None)
@given(ops=_ops)
def test_incremental_computer_matches_full(ops):
    view = make_fat_tree_view()
    links = _candidate_links(view)
    computer = OverrideComputer()
    computer.update(view)  # prime on the clean fabric
    removed: dict[tuple[int, int], tuple[int, SwitchLevel]] = {}
    cleared: dict[int, tuple[int, int]] = {}

    for kind, n in ops:
        examined = computer.edges_examined
        if kind == "fault":
            link = frozenset(links[n % len(links)])
            if link in view.failed:
                view.failed.discard(link)
            else:
                view.failed.add(link)
            got = computer.update(view, changed_links={link})
            expected = _examined_by_the_per_edge_loop(view, set(link))
        elif kind == "role":
            # An edge loses its pod or its position (what the override
            # runs of a bring-up see, before any pod is known), or gets
            # both back: a role change, which the fabric manager sends
            # as a full update.
            edge = sorted(view.edges())[n % len(view.edges())]
            record = view.switches[edge]
            if edge in cleared:
                record.pod, record.position = cleared.pop(edge)
            else:
                cleared[edge] = (record.pod, record.position)
                if n % 2:
                    record.pod = None
                else:
                    record.position = None
            got = computer.update(view)
            expected = (_examined_by_the_per_edge_loop(view, set(view.switches))
                        if view.failed else 0)
        else:
            # One-sided wiring toggle (LDP pruning / re-adding an uplink
            # in one switch's report): ports 2-3 are the up-neighbours
            # of both edges and aggs in the hand-built k=4 view.
            targets = sorted(view.edges()) + sorted(view.aggregations())
            sid = targets[n % len(targets)]
            port = 2 + (n // len(targets)) % 2
            record = view.switches[sid]
            if (sid, port) in removed:
                record.neighbors[port] = removed.pop((sid, port))
            elif port in record.neighbors:
                removed[(sid, port)] = record.neighbors.pop(port)
            else:
                continue
            nbr = (removed.get((sid, port)) or record.neighbors[port])[0]
            got = computer.update(view,
                                  changed_links={frozenset((sid, nbr))},
                                  changed_switches={sid})
            expected = _examined_by_the_per_edge_loop(view, {sid, nbr})
        assert got == compute_overrides(view)
        assert computer.edges_examined - examined == expected


def test_computer_full_fallback_on_unattributed_change():
    view = make_fat_tree_view(failed=[(200, 101)])
    computer = OverrideComputer()
    first = computer.update(view, changed_links={frozenset((200, 101))})
    # Unprimed: the attributed change still forces a full recompute.
    assert computer.full_recomputes == 1
    assert first == compute_overrides(view)
    view.failed.clear()
    # None = "cannot attribute": full recompute again.
    assert computer.update(view) == {}
    assert computer.full_recomputes == 2


def test_view_kept_across_a_wiring_change_is_not_trusted():
    """A view remembers its structural answers. The override entry
    points start from a fresh one, so a caller that keeps its view
    across a change to the records (the property test above does, on
    every "wire" op) is not answered from what the view saw before."""
    view = make_fat_tree_view(failed=[(200, 101)])
    computer = OverrideComputer()
    before = computer.update(view, changed_links={frozenset((200, 101))})
    assert compute_overrides(view) == before
    assert 102 in before                  # pod-1 edge steers around agg 202
    # Edge 102's next report no longer lists its uplink to agg 202.
    assert view.switches[102].neighbors.pop(2) == (202, SwitchLevel.AGGREGATION)
    expected = compute_overrides(view.fresh())
    assert 102 not in expected            # nothing left for it to avoid
    assert compute_overrides(view) == expected
    assert computer.update(view, changed_links={frozenset((102, 202))},
                           changed_switches={102}) == expected
