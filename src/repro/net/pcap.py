"""Classic-format pcap export of simulated traffic.

Attach a :class:`PcapWriter` to any set of nodes and every frame they
receive is serialized (via the real codecs) into a standard ``.pcap``
file readable by Wireshark/tcpdump — invaluable when debugging protocol
behaviour inside the simulator.

The classic pcap format is written by hand (24-byte global header,
16-byte per-record headers, LINKTYPE_ETHERNET) — no external
dependencies.
"""

from __future__ import annotations

import struct
from typing import BinaryIO

from repro.net.ethernet import EthernetFrame
from repro.net.link import Port
from repro.net.node import Node

_MAGIC = 0xA1B2C3D4
_VERSION = (2, 4)
_LINKTYPE_ETHERNET = 1
_SNAPLEN = 65535


class PcapWriter:
    """Writes Ethernet frames to a classic pcap stream."""

    def __init__(self, stream: BinaryIO) -> None:
        self._stream = stream
        self.frames_written = 0
        self._write_global_header()

    def _write_global_header(self) -> None:
        self._stream.write(struct.pack(
            "!IHHiIII", _MAGIC, _VERSION[0], _VERSION[1],
            0,  # timezone offset
            0,  # sigfigs
            _SNAPLEN, _LINKTYPE_ETHERNET,
        ))

    def write(self, time_s: float, frame: EthernetFrame) -> None:
        """Append one frame with the given (simulated) timestamp."""
        data = frame.encode()
        seconds = int(time_s)
        micros = int(round((time_s - seconds) * 1_000_000))
        if micros >= 1_000_000:  # rounding carried into the next second
            seconds += 1
            micros -= 1_000_000
        self._stream.write(struct.pack("!IIII", seconds, micros,
                                       len(data), len(data)))
        self._stream.write(data)
        self.frames_written += 1

    def close(self) -> None:
        """Flush and close the underlying stream."""
        self._stream.flush()
        self._stream.close()


class PcapTap:
    """Mirrors every frame received by selected nodes into a pcap file.

    Works by wrapping each node's ``receive`` method; call
    :meth:`detach` to restore the originals and close the file. While
    attached it subscribes to the ``keepalive.ldm`` trace category, so
    that LDP keepalives travel as frames and show up in the capture.
    """

    def __init__(self, path: str, nodes: list[Node]) -> None:
        self.writer = PcapWriter(open(path, "wb"))
        self._originals: list[tuple[Node, object]] = []
        self._buses = {node.sim.trace for node in nodes}
        for bus in self._buses:
            bus.subscribe("keepalive.ldm", self._keepalive_seen)
        for node in nodes:
            self._attach(node)

    @staticmethod
    def _keepalive_seen(record) -> None:
        """The subscription is the point; the frames arrive via receive."""

    def _attach(self, node: Node) -> None:
        original = node.receive
        writer = self.writer

        def tapped(frame: EthernetFrame, in_port: Port,
                   _original=original, _node=node) -> None:
            writer.write(_node.sim.now, frame)
            _original(frame, in_port)

        self._originals.append((node, original))
        node.receive = tapped  # type: ignore[method-assign]

    def detach(self) -> None:
        """Restore the wrapped nodes and close the capture file."""
        for node, original in self._originals:
            node.receive = original  # type: ignore[method-assign]
        self._originals.clear()
        for bus in self._buses:
            bus.unsubscribe("keepalive.ldm", self._keepalive_seen)
        self._buses.clear()
        self.writer.close()


def read_pcap_headers(path: str) -> list[tuple[float, int]]:
    """Parse a pcap file back into ``(timestamp, length)`` records.

    Used by tests to verify round-tripping; raises ``ValueError`` on a
    malformed file.
    """
    records = []
    with open(path, "rb") as stream:
        header = stream.read(24)
        if len(header) != 24:
            raise ValueError("truncated pcap global header")
        (magic,) = struct.unpack("!I", header[:4])
        if magic != _MAGIC:
            raise ValueError(f"bad pcap magic: {magic:#x}")
        while True:
            record = stream.read(16)
            if not record:
                break
            if len(record) != 16:
                raise ValueError("truncated pcap record header")
            seconds, micros, incl_len, _orig = struct.unpack("!IIII", record)
            payload = stream.read(incl_len)
            if len(payload) != incl_len:
                raise ValueError("truncated pcap record body")
            records.append((seconds + micros / 1e6, incl_len))
    return records
