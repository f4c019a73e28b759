"""Model-based property test: FlowTable vs. a brute-force reference.

Random sequences of install/remove operations followed by random
lookups must agree with an obviously-correct reference implementation
(sort everything on every lookup).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import AppData, EthernetFrame
from repro.net.addresses import MacAddress
from repro.net.ethernet import ETHERTYPE_ARP, ETHERTYPE_IPV4
from repro.switching.flow_table import (
    FlowTable,
    Match,
    Output,
    ToAgent,
    compile_plan,
    decision_key,
    mac_prefix_mask,
)

MACS = st.integers(min_value=0, max_value=15).map(
    lambda v: MacAddress(0x0200_0000_0000 + v))
ETHERTYPES = st.sampled_from([ETHERTYPE_IPV4, ETHERTYPE_ARP, None])
PREFIX_LENS = st.sampled_from([0, 16, 24, 48])

MATCHES = st.builds(
    lambda dst, plen, etype, in_port: Match(
        in_port=in_port,
        eth_dst=dst,
        eth_dst_mask=mac_prefix_mask(plen),
        ethertype=etype,
    ),
    dst=MACS, plen=PREFIX_LENS, etype=ETHERTYPES,
    in_port=st.sampled_from([None, 0, 1, 2]),
)

OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("install"), MATCHES, st.integers(0, 5),
                  st.sampled_from(["a", "b", "c"])),
        st.tuples(st.just("remove_by_name"), st.sampled_from(["a", "b", "c"])),
    ),
    min_size=1, max_size=25,
)

FRAMES = st.builds(
    lambda dst, etype, in_port: (
        EthernetFrame(dst, MacAddress(1), etype, AppData(4)), in_port),
    dst=MACS, etype=st.sampled_from([ETHERTYPE_IPV4, ETHERTYPE_ARP]),
    in_port=st.sampled_from([0, 1, 2, 3]),
)


class ReferenceTable:
    """Obviously-correct flow table: stable-sort by priority per lookup."""

    def __init__(self):
        self._entries = []  # (insert_seq, priority, match, name)
        self._seq = 0

    def install(self, match, priority, name):
        self._entries.append((self._seq, priority, match, name))
        self._seq += 1

    def remove_by_name(self, name):
        self._entries = [e for e in self._entries if e[3] != name]

    def lookup(self, frame, in_port):
        ordered = sorted(self._entries, key=lambda e: (-e[1], e[0]))
        for _seq, _prio, match, name in ordered:
            if match.matches(frame, in_port):
                return (_prio, name, match)
        return None


@settings(max_examples=200, deadline=None)
@given(operations=OPERATIONS, probes=st.lists(FRAMES, min_size=1, max_size=10))
def test_flow_table_matches_reference(operations, probes):
    table = FlowTable()
    reference = ReferenceTable()
    for op in operations:
        if op[0] == "install":
            _kind, match, priority, name = op
            table.install(match, (Output(0),), priority, name)
            reference.install(match, priority, name)
        else:
            table.remove_by_name(op[1])
            reference.remove_by_name(op[1])

    assert len(table) == len(reference._entries)
    for frame, in_port in probes:
        found = table.lookup(frame, in_port)
        expected = reference.lookup(frame, in_port)
        if expected is None:
            assert found is None
        else:
            assert found is not None
            assert (found.priority, found.name) == expected[:2]
            assert found.match == expected[2]


# ----------------------------------------------------------------------
# The per-ingress index (docs/PERF.md, "The hop as a plan"): ``lookup``
# walks a cached tuple of the entries that can match on that port. It
# must equal a linear first-match over the table as it is *now*, so the
# probes run between the mutations, not after them. The same run checks
# the table against a sort-based model after every mutation, ``sync``
# (the agents' reconcile-to-these-specs operation) included, and that
# the table's memo of its verdicts never outlives a change: ``decide``
# is the plan of that first match, compiled afresh.

#: A switch's port list as ``decide`` reads it: only its length matters
#: to a plan that is not executed.
PORTS = ("port-0", "port-1")


def _scan(table, frame, in_port, skip_punts):
    """First match by a from-scratch walk of the table's own order."""
    for entry in table:
        if skip_punts and any(isinstance(a, ToAgent) for a in entry.actions):
            continue
        if entry.match.matches(frame, in_port):
            return entry
    return None


NAMES = st.sampled_from(["a", "b", "c", "ab", "b:1"])
ACTIONS = st.sampled_from([(Output(0),), (ToAgent("x"),), ()])
#: One wanted entry of a ``sync``: drawn fresh, or a copy of the entry
#: installed at some index with none or one of its fields changed.
SPECS = st.one_of(
    st.tuples(st.just("fresh"), MATCHES, ACTIONS, st.integers(0, 3), NAMES),
    st.tuples(st.just("like"), st.integers(0, 30),
              st.sampled_from(["same", "match", "actions", "priority"])),
)
#: Prefixes that cover several names ("a": a, ab), one ("b:"), none ("z").
OWNED = st.lists(st.sampled_from(["a", "b:", "z"]), unique=True,
                 max_size=3).map(tuple)
MUTATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("install"), MATCHES, st.integers(0, 3), NAMES,
                  ACTIONS),
        st.tuples(st.just("remove"), st.integers(0, 30)),
        st.tuples(st.just("remove_by_name"), NAMES),
        st.tuples(st.just("remove_where"), st.integers(0, 3)),
        st.tuples(st.just("clear")),
        st.tuples(st.just("sync"), OWNED, st.lists(SPECS, max_size=4),
                  st.lists(NAMES, max_size=2)),
    ),
    min_size=1, max_size=20,
)


def _verdict(plan):
    """A plan with its entry by identity: entries compare by value."""
    return None if plan is None else (id(plan.entry), plan[1:])


def _specs_for(table, drawn):
    """Concrete, distinctly named ``sync`` specs from the drawn recipes."""
    entries = list(table)
    specs = {}
    for recipe in drawn:
        if recipe[0] == "fresh":
            _kind, match, actions, priority, name = recipe
        elif not entries:
            continue
        else:
            entry = entries[recipe[1] % len(entries)]
            match, actions, priority, name = (entry.match, entry.actions,
                                              entry.priority, entry.name)
            if recipe[2] == "match":
                match = Match(in_port=3, eth_dst=match.eth_dst)
            elif recipe[2] == "actions":
                actions = actions + (Output(1),)
            elif recipe[2] == "priority":
                priority += 1
        specs.setdefault(name, (match, actions, priority, name))
    return list(specs.values())


class TableModel:
    """The table as rows ``[seq, match, actions, priority, name, packets]``:
    its order is a stable sort, never an insertion point."""

    def __init__(self):
        self.rows = []
        self._seq = 0

    def add(self, match, actions, priority, name):
        self.rows.append([self._seq, match, actions, priority, name, 0])
        self._seq += 1

    def drop(self, predicate):
        self.rows = [row for row in self.rows if not predicate(row)]

    def sync(self, owned, specs, gone):
        wanted = {spec[3]: spec[:3] for spec in specs}
        kept = []
        for row in self.ordered():
            name = row[4]
            if name in wanted:
                if wanted[name] != tuple(row[1:4]):
                    continue
                del wanted[name]
            elif (any(name.startswith(prefix) for prefix in owned)
                    or name in gone
                    or any(name == spec[3] for spec in specs)):
                continue
            kept.append(row)
        self.rows = kept
        for name, (match, actions, priority) in wanted.items():
            self.add(match, actions, priority, name)

    def ordered(self):
        return sorted(self.rows, key=lambda row: (-row[3], row[0]))


@settings(max_examples=200, deadline=None)
@given(mutations=MUTATIONS, probes=st.lists(FRAMES, min_size=1, max_size=4))
def test_indexed_lookup_equals_scan_after_every_mutation(mutations, probes):
    table = FlowTable()
    model = TableModel()
    for op in mutations:
        before = (table.version, [id(entry) for entry in table])
        if op[0] == "install":
            _kind, match, priority, name, actions = op
            table.install(match, actions, priority, name)
            model.add(match, actions, priority, name)
        elif op[0] == "remove":
            entries = list(table)
            if entries:
                index = op[1] % len(entries)
                assert table.remove(entries[index])
                gone = model.ordered()[index]
                model.drop(lambda row: row is gone)
        elif op[0] == "remove_by_name":
            table.remove_by_name(op[1])
            model.drop(lambda row: row[4] == op[1])
        elif op[0] == "remove_where":
            table.remove_where(lambda e, p=op[1]: e.priority == p)
            model.drop(lambda row: row[3] == op[1])
        elif op[0] == "sync":
            specs = _specs_for(table, op[2])
            changed = table.sync(op[1], specs, op[3])
            model.sync(op[1], specs, op[3])
            assert changed == (table.version != before[0])
        else:
            table.clear()
            model.drop(lambda row: True)
        # The table is the model's — order, fields and the counters an
        # entry that stayed must have kept — and listeners hear of it
        # (the version moves) iff the entry list did.
        assert ([[e.match, e.actions, e.priority, e.name, e.packets]
                 for e in table] == [row[1:] for row in model.ordered()])
        assert table.cache_safe == all(row[1].key_only for row in model.rows)
        assert ((table.version != before[0])
                == ([id(entry) for entry in table] != before[1]))
        # No plan outlives a change, and a table with a match the key
        # cannot tell frames apart by memoises nothing.
        if table.version != before[0] or not table.cache_safe:
            assert table.plans == {}
        for entry, row in zip(table, model.ordered()):
            entry.packets += 1
            row[5] += 1
        for frame, _in_port in probes:
            # Every ingress the pipeline uses, the agent's virtual -1
            # included; twice, so the second answer comes from the index.
            for in_port in (-1, 0, 1, 2, 3):
                for skip_punts in (False, True):
                    expected = _scan(table, frame, in_port, skip_punts)
                    assert table.lookup(frame, in_port, skip_punts) is expected
                    assert table.lookup(frame, in_port, skip_punts) is expected
                expected = _scan(table, frame, in_port, False)
                if expected is not None:
                    expected = compile_plan(expected, decision_key(frame)[3],
                                            PORTS)
                # Twice: the second answer is the memo's, if it keeps one.
                for _ in range(2):
                    assert (_verdict(table.decide(frame, in_port, PORTS))
                            == _verdict(expected))
