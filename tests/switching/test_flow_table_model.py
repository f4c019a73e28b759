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
# probes run between the mutations, not after them.


def _scan(table, frame, in_port, skip_punts):
    """First match by a from-scratch walk of the table's own order."""
    for entry in table:
        if skip_punts and any(isinstance(a, ToAgent) for a in entry.actions):
            continue
        if entry.match.matches(frame, in_port):
            return entry
    return None


NAMES = st.sampled_from(["a", "b", "c"])
ACTIONS = st.sampled_from([(Output(0),), (ToAgent("x"),), ()])
MUTATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("install"), MATCHES, st.integers(0, 3), NAMES,
                  ACTIONS),
        st.tuples(st.just("remove"), st.integers(0, 30)),
        st.tuples(st.just("remove_by_name"), NAMES),
        st.tuples(st.just("remove_where"), st.integers(0, 3)),
        st.tuples(st.just("clear")),
    ),
    min_size=1, max_size=20,
)


@settings(max_examples=200, deadline=None)
@given(mutations=MUTATIONS, probes=st.lists(FRAMES, min_size=1, max_size=4))
def test_indexed_lookup_equals_scan_after_every_mutation(mutations, probes):
    table = FlowTable()
    for op in mutations:
        if op[0] == "install":
            _kind, match, priority, name, actions = op
            table.install(match, actions, priority, name)
        elif op[0] == "remove":
            entries = list(table)
            if entries:
                assert table.remove(entries[op[1] % len(entries)])
        elif op[0] == "remove_by_name":
            table.remove_by_name(op[1])
        elif op[0] == "remove_where":
            table.remove_where(lambda e, p=op[1]: e.priority == p)
        else:
            table.clear()
        for frame, _in_port in probes:
            # Every ingress the pipeline uses, the agent's virtual -1
            # included; twice, so the second answer comes from the index.
            for in_port in (-1, 0, 1, 2, 3):
                for skip_punts in (False, True):
                    expected = _scan(table, frame, in_port, skip_punts)
                    assert table.lookup(frame, in_port, skip_punts) is expected
                    assert table.lookup(frame, in_port, skip_punts) is expected
