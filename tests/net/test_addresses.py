"""Unit and property tests for MAC/IPv4 address types."""

import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import AddressError
from repro.net.addresses import BROADCAST_MAC, IPv4Address, MacAddress, ip, mac


def test_mac_parse_and_str_roundtrip():
    m = mac("0a:1b:2c:3d:4e:5f")
    assert str(m) == "0a:1b:2c:3d:4e:5f"
    assert MacAddress.parse("0A-1B-2C-3D-4E-5F") == m


def test_mac_bytes_roundtrip():
    m = mac("00:11:22:33:44:55")
    assert MacAddress.from_bytes(m.to_bytes()) == m
    assert len(m.to_bytes()) == 6


@pytest.mark.parametrize("bad", [
    "00:11:22:33:44", "00:11:22:33:44:55:66", "zz:11:22:33:44:55",
    "001122334455", "00:11:22:33:44:1ff",
])
def test_mac_parse_rejects_malformed(bad):
    with pytest.raises(AddressError):
        MacAddress.parse(bad)


def test_mac_flags():
    assert BROADCAST_MAC.is_broadcast
    assert BROADCAST_MAC.is_multicast
    assert mac("01:00:5e:00:00:01").is_multicast
    assert not mac("00:00:5e:00:00:01").is_multicast
    assert mac("02:00:00:00:00:01").is_locally_administered


def test_mac_value_range():
    with pytest.raises(AddressError):
        MacAddress(-1)
    with pytest.raises(AddressError):
        MacAddress(1 << 48)
    with pytest.raises(AddressError):
        MacAddress.from_bytes(b"\x00" * 5)


def test_mac_ordering_and_hash():
    a, b = MacAddress(1), MacAddress(2)
    assert a < b
    assert len({a, MacAddress(1)}) == 1
    assert a != IPv4Address(1)  # cross-type inequality, not error


def test_ipv4_parse_and_str_roundtrip():
    a = ip("10.1.2.3")
    assert str(a) == "10.1.2.3"
    assert a.value == (10 << 24) | (1 << 16) | (2 << 8) | 3


@given(st.integers(0, IPv4Address.MAX))
def test_ipv4_hash_is_stored_and_survives_pickling(value):
    # The stored hash is the one a per-call tuple gave, so no set or
    # dict of addresses changes order; a pickled copy rehashes.
    address = IPv4Address(value)
    assert hash(address) == hash((IPv4Address, value))
    copy = pickle.loads(pickle.dumps(address))
    assert copy == address and hash(copy) == hash(address)
    assert {address: 1}[copy] == 1


@pytest.mark.parametrize("bad", ["10.0.0", "10.0.0.0.0", "256.0.0.1",
                                 "a.b.c.d", "10.-1.0.0"])
def test_ipv4_parse_rejects_malformed(bad):
    with pytest.raises(AddressError):
        IPv4Address.parse(bad)


def test_ipv4_multicast_and_mac_mapping():
    group = ip("239.1.2.3")
    assert group.is_multicast
    # RFC 1112: 01:00:5e + low 23 bits.
    assert str(group.multicast_mac()) == "01:00:5e:01:02:03"
    with pytest.raises(AddressError):
        ip("10.0.0.1").multicast_mac()


def test_ipv4_multicast_mac_drops_high_bit():
    # 239.129.2.3: bit 23 of the group is not carried into the MAC.
    assert ip("239.129.2.3").multicast_mac() == ip("239.1.2.3").multicast_mac()


@given(st.integers(min_value=0, max_value=(1 << 48) - 1))
def test_mac_roundtrip_property(value):
    m = MacAddress(value)
    assert MacAddress.parse(str(m)) == m
    assert MacAddress.from_bytes(m.to_bytes()) == m


@given(st.integers(min_value=0, max_value=(1 << 32) - 1))
def test_ipv4_roundtrip_property(value):
    a = IPv4Address(value)
    assert IPv4Address.parse(str(a)) == a
    assert IPv4Address.from_bytes(a.to_bytes()) == a
