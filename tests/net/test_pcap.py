"""Tests for pcap export."""

import io
import struct

import pytest

from repro.host import Host
from repro.net import AppData, EthernetFrame, Link, ip, mac
from repro.net.ethernet import ETHERTYPE_IPV4
from repro.net.pcap import PcapTap, PcapWriter, read_pcap_headers
from repro.sim import Simulator


def test_writer_produces_valid_global_header():
    buf = io.BytesIO()
    PcapWriter(buf)
    data = buf.getvalue()
    assert len(data) == 24
    magic, major, minor = struct.unpack("!IHH", data[:8])
    assert magic == 0xA1B2C3D4
    assert (major, minor) == (2, 4)


def test_writer_records_roundtrip(tmp_path):
    path = tmp_path / "capture.pcap"
    writer = PcapWriter(open(path, "wb"))
    frame = EthernetFrame(mac("ff:ff:ff:ff:ff:ff"), mac("00:00:00:00:00:01"),
                          ETHERTYPE_IPV4, AppData(100))
    writer.write(1.5, frame)
    writer.write(2.25, frame)
    writer.close()
    records = read_pcap_headers(str(path))
    assert len(records) == 2
    assert records[0] == (pytest.approx(1.5), frame.wire_length())
    assert records[1][0] == pytest.approx(2.25)
    assert writer.frames_written == 2


def test_timestamp_rounding_carry(tmp_path):
    path = tmp_path / "carry.pcap"
    writer = PcapWriter(open(path, "wb"))
    frame = EthernetFrame(mac("ff:ff:ff:ff:ff:ff"), mac("00:00:00:00:00:01"),
                          ETHERTYPE_IPV4, AppData(10))
    writer.write(0.9999999, frame)  # rounds to exactly 1.0 s
    writer.close()
    records = read_pcap_headers(str(path))
    assert records[0][0] == pytest.approx(1.0)


def test_tap_captures_live_traffic(tmp_path):
    sim = Simulator(seed=1)
    h1 = Host(sim, "h1", mac("00:00:00:00:00:01"), ip("10.0.0.1"))
    h2 = Host(sim, "h2", mac("00:00:00:00:00:02"), ip("10.0.0.2"))
    Link(sim, h1.nic, h2.nic)
    path = tmp_path / "live.pcap"
    tap = PcapTap(str(path), [h2])

    inbox = h2.udp_socket(5000)
    h1.udp_socket().sendto(h2.ip, 5000, AppData(64))
    sim.run(until=0.1)
    tap.detach()

    # h2 saw the ARP request plus the data frame.
    records = read_pcap_headers(str(path))
    assert len(records) >= 2
    assert len(inbox.inbox) == 1  # delivery still worked through the tap

    # After detach, traffic is no longer captured.
    h1.udp_socket().sendto(h2.ip, 5000, AppData(64))
    sim.run(until=0.2)
    assert len(read_pcap_headers(str(path))) == len(records)


def test_reader_rejects_garbage(tmp_path):
    path = tmp_path / "bad.pcap"
    path.write_bytes(b"not a pcap")
    with pytest.raises(ValueError):
        read_pcap_headers(str(path))


def test_tap_on_a_switch_still_sees_ldp_keepalives(tmp_path):
    # Keepalives on a settled fabric are accounted, not sent, unless
    # someone is looking; a capture is someone looking.
    from repro.topology import build_portland_fabric

    sim = Simulator(seed=2)
    fabric = build_portland_fabric(sim, k=4)
    fabric.start()
    fabric.run_until_located()
    sim.run(until=sim.now + 0.05)
    path = tmp_path / "core.pcap"
    tap = PcapTap(str(path), [fabric.switches["core-0"]])
    sim.run(until=sim.now + 0.1)
    tap.detach()
    captured = len(read_pcap_headers(str(path)))
    assert 4 * 8 <= captured <= 4 * 12    # four neighbours, ~10 LDMs each
    sim.run(until=sim.now + 0.1)
    assert len(read_pcap_headers(str(path))) == captured
    assert not sim.trace.wants("keepalive.ldm")
