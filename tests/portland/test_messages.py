"""The control-message codec: golden wire bytes, table-derived
round-trips, malformed input, registry completeness, and what the three
receivers do with bytes they cannot decode."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import CodecError
from repro.net.addresses import IPv4Address, MacAddress
from repro.net.codec import Counted
from repro.net.ethernet import ETHERTYPE_FABRIC, ETHERTYPE_LDP, EthernetFrame
from repro.portland import messages as m
from repro.portland.config import PortlandConfig
from repro.portland.fabric_manager import FabricManager
from repro.portland.messages import FmMessage, FmType, SwitchLevel
from repro.sim import Simulator

MAC = MacAddress(0x0011_2233_4455)
PMAC = MacAddress(0x0001_0203_0405)
IP = IPv4Address.parse("10.1.2.3")
IP2 = IPv4Address.parse("10.9.9.9")
GROUP = IPv4Address.parse("239.0.0.7")
SID = 0xAABB_CCDD_EEFF

#: (message, hex of its wire bytes) — at least one per class, captured
#: from the hand-written codecs this table-driven one replaced. These
#: bytes are what Fig. 14's control-traffic numbers count.
GOLDEN = [
    (m.LocationDiscoveryMessage(SID, SwitchLevel.AGGREGATION, 3, 1, 42),
     "01aabbccddeeff020003010000002a"),
    (m.LocationDiscoveryMessage(SID, SwitchLevel.UNKNOWN, 0xFFFF, 0xFF,
                                0xDEADBEEF),
     "01aabbccddeeff00ffffffdeadbeef"),
    (m.PositionProposal(SID, 2), "02aabbccddeeff02"),
    (m.PositionAck(SID, 2, True), "03aabbccddeeff0201"),
    (m.PositionAck(SID, 7, False), "03aabbccddeeff0700"),
    (m.RegisterHost(SID, 3, MAC, IP, PMAC),
     "01aabbccddeeff030011223344550a010203000102030405"),
    (m.ArpQuery(77, SID, IP, MAC, IP2),
     "020000004daabbccddeeff0a0102030011223344550a090909"),
    (m.ArpResponse(77, IP, MAC, True), "030000004d0a01020300112233445501"),
    (m.ArpResponse(78, IP, MacAddress(0), False),
     "030000004e0a01020300000000000000"),
    (m.ArpFlood(IP, IP2, MAC), "040a0102030a090909001122334455"),
    (m.PodRequest(SID), "05aabbccddeeff"),
    (m.PodReply(13), "06000d"),
    (m.NeighborReport(SID, SwitchLevel.EDGE, 3, 1,
                      ((2, 0x1111, SwitchLevel.AGGREGATION),
                       (3, 0x2222, SwitchLevel.AGGREGATION))),
     "07aabbccddeeff01000301000202000000001111020300000000222202"),
    (m.NeighborReport(SID, SwitchLevel.CORE, 0xFFFF, 0xFF, ()),
     "07aabbccddeeff03ffffff0000"),
    (m.LinkFail(SID, 2, 0x3333), "08aabbccddeeff02000000003333"),
    (m.LinkRecover(SID, 2, 0x3333), "09aabbccddeeff02000000003333"),
    (m.FaultUpdate(MAC, 24, (0x111, 0x222, 0x333)),
     "0a001122334455180003000000000111000000000222000000000333"),
    (m.FaultUpdate(MAC, 16, ()), "0a001122334455100000"),
    (m.FaultClear(MAC, 24), "0b00112233445518"),
    (m.McastInstall(GROUP.multicast_mac(), (0, 2, 3)),
     "0c01005e00000703000203"),
    (m.McastInstall(GROUP.multicast_mac(), ()), "0c01005e00000700"),
    (m.McastRemove(GROUP.multicast_mac()), "0d01005e000007"),
    (m.IgmpRelay(SID, 1, GROUP, True, IP),
     "0eaabbccddeeff01ef000007010a010203"),
    (m.IgmpRelay(SID, 1, GROUP, False, IP),
     "0eaabbccddeeff01ef000007000a010203"),
    (m.McastMiss(SID, GROUP), "0faabbccddeeffef000007"),
    (m.Invalidate(IP, MAC, PMAC), "100a010203001122334455000102030405"),
    (m.DisableLink(SID), "12aabbccddeeff"),
    (m.EnableLink(SID), "13aabbccddeeff"),
    (m.BroadcastRelay(SID, MAC, 0x0800, b"\x01\x02\x03"),
     "14aabbccddeeff00112233445508000003010203"),
    (m.BroadcastRelay(SID, MAC, 0x0800, b""),
     "14aabbccddeeff00112233445508000000"),
    (m.OverrideReport(SID, ((0x0001_0200_0000, 24), (0x0002_0000_0000, 16))),
     "15aabbccddeeff00020001020000001800020000000010"),
    (m.OverrideReport(SID, ()), "15aabbccddeeff0000"),
    (m.PolicyInstall(IP, IP2, PMAC, 5), "160a0102030a09090900010203040505"),
    (m.PolicyRevoke(IP, IP2), "170a0102030a090909"),
]

ALL_CLASSES = [*m._LDP_CLASSES.values(), *m._FM_CLASSES.values()]


def decoder_for(cls):
    return m.decode_fabric if issubclass(cls, FmMessage) else m.decode_ldp


def name_of(value):
    cls = value if isinstance(value, type) else type(value)
    return cls.__name__


@pytest.mark.parametrize("message, wire_hex", GOLDEN,
                         ids=lambda v: name_of(v) if not isinstance(v, str)
                         else "")
def test_golden_wire_bytes(message, wire_hex):
    raw = bytes.fromhex(wire_hex)
    assert message.encode() == raw
    assert message.wire_length() == len(raw)
    decoded = decoder_for(type(message))(raw)
    assert decoded == message and type(decoded) is type(message)
    # Ethernet pads short frames: trailing bytes are not the codec's.
    assert decoder_for(type(message))(raw + b"\x00" * 40) == message


def test_golden_table_and_registries_are_complete():
    assert {type(message) for message, _hex in GOLDEN} == set(ALL_CLASSES)
    # Every FmType member maps to exactly one class and back.
    assert sorted(m._FM_CLASSES) == sorted(FmType)
    for tag, cls in m._FM_CLASSES.items():
        assert issubclass(cls, FmMessage) and cls.TAG == tag
    assert len(set(m._FM_CLASSES.values())) == len(FmType)
    assert sorted(m._LDP_CLASSES) == [1, 2, 3]


# ----------------------------------------------------------------------
# Round-trips, from the same field tables the codec reads


def values_of(kind):
    """Hypothesis strategy for the values a field kind can carry."""
    if isinstance(kind, Counted):
        item = [values_of(scalar) for scalar in kind.item]
        rows = st.lists(item[0] if len(item) == 1 else st.tuples(*item),
                        max_size=min(256 ** kind.count.size - 1, 40))
        return rows.map(kind.collect)
    if kind is m.LEVEL:
        return st.sampled_from(SwitchLevel)
    return st.integers(0, 256 ** kind.size - 1).map(kind.wrap)


def instances_of(cls):
    return st.builds(cls, *(values_of(kind) for _name, kind in cls.FIELDS))


@pytest.mark.parametrize("cls", ALL_CLASSES, ids=name_of)
@given(data=st.data())
def test_roundtrip_every_class(cls, data):
    message = data.draw(instances_of(cls))
    raw = message.encode()
    assert message.wire_length() == len(raw)
    decoded = decoder_for(cls)(raw)
    assert decoded == message and type(decoded) is cls
    assert cls.decode(raw) == message


# ----------------------------------------------------------------------
# Malformed input raises CodecError and nothing else


@pytest.mark.parametrize("message", [message for message, _hex in GOLDEN],
                         ids=name_of)
def test_every_strict_prefix_is_rejected(message):
    raw = message.encode()
    for cut in range(len(raw)):
        with pytest.raises(CodecError):
            decoder_for(type(message))(raw[:cut])


@given(cls=st.sampled_from(ALL_CLASSES), garbage=st.binary(max_size=48))
def test_garbage_after_a_valid_tag(cls, garbage):
    raw = bytes((cls.TAG,)) + garbage
    try:
        message = decoder_for(cls)(raw)
    except CodecError:
        return
    assert type(message) is cls and message.wire_length() <= len(raw)


def test_unknown_tags_and_wrong_class():
    for decode in (m.decode_ldp, m.decode_fabric):
        for raw in (b"", b"\xf0abc", b"\x00", b"\x11" + b"\x00" * 10):
            with pytest.raises(CodecError):
                decode(raw)
    with pytest.raises(CodecError):
        m.PodReply.decode(m.PodRequest(SID).encode())
    with pytest.raises(CodecError):  # level 9 does not exist
        m.decode_ldp(bytes.fromhex("01aabbccddeeff090003010000002a"))


def test_over_counted_list_is_rejected():
    """Shown at the parent commit: three ids announced, two present, and
    ``decode_fabric`` returned ``(1, 2, 0)``."""
    raw = m.FaultUpdate(MacAddress(5), 16, (1, 2, 3)).encode()
    with pytest.raises(CodecError):
        m.decode_fabric(raw[:-3])
    with pytest.raises(CodecError):
        m.decode_fabric(raw[:9] + b"\xff\xff" + raw[11:])


# ----------------------------------------------------------------------
# Receivers count and drop what they cannot decode or have no use for

#: Truncated, unknown tag, and well-formed but sent the wrong way (a
#: switch never receives a PodRequest, a fabric manager never a PodReply).
BAD_FOR_AGENT = (b"\x0a\x00\x11", b"\xf0", b"", m.PodRequest(SID).encode())
BAD_FOR_FM = (b"\x07\xaa\xbb", b"\xf0", b"", m.PodReply(3).encode())
BAD_FOR_LDP = (b"\x01\xaa", b"\x09", b"", m.PodReply(3))


def test_agent_drops_malformed_control_frames(fabric):
    agent = fabric.agents["edge-p0-s0"]
    table_before = [entry.name for entry in agent.switch.table]
    for payload in BAD_FOR_AGENT:
        agent.on_packet_in(EthernetFrame(agent.ldp.switch_mac, MAC,
                                         ETHERTYPE_FABRIC, payload),
                           agent.switch.control_port, "control")
    assert agent.malformed_dropped == len(BAD_FOR_AGENT)
    assert [entry.name for entry in agent.switch.table] == table_before
    # A good frame that travelled as bytes is still served.
    agent.on_packet_in(
        EthernetFrame(agent.ldp.switch_mac, MAC, ETHERTYPE_FABRIC,
                      m.McastInstall(GROUP.multicast_mac(), (0,)).encode()),
        agent.switch.control_port, "control")
    assert agent.malformed_dropped == len(BAD_FOR_AGENT)
    assert f"mcast:{GROUP.multicast_mac()}" in [
        entry.name for entry in agent.switch.table]


def test_ldp_drops_malformed_frames(fabric):
    ldp = fabric.agents["agg-p0-s0"].ldp
    port = ldp.data_ports()[0]
    neighbors_before = dict(ldp.neighbors)
    for payload in BAD_FOR_LDP:
        ldp.on_frame(EthernetFrame(MAC, MAC, ETHERTYPE_LDP, payload), port)
    assert ldp.malformed_dropped == len(BAD_FOR_LDP)
    assert ldp.neighbors == neighbors_before


def test_fabric_manager_service_loop_survives_malformed_frames():
    sim = Simulator(seed=1)
    fm = FabricManager(sim, PortlandConfig())
    sent = []
    fm.send_to_switch = lambda sid, message: sent.append((sid, message))
    port = fm.attach_switch(SID)
    for payload in (*BAD_FOR_FM, m.PodRequest(SID).encode()):
        fm.receive(EthernetFrame(fm.mac, MAC, ETHERTYPE_FABRIC, payload), port)
    sim.run(until=1.0)
    assert fm.malformed_dropped == len(BAD_FOR_FM)
    # The queue kept draining: the good message behind them was served,
    # and every frame was charged its service slot.
    assert sent == [(SID, m.PodReply(0))]
    assert fm.busy_time == pytest.approx(
        (len(BAD_FOR_FM) + 1) * fm.config.fm_service_time_s)
