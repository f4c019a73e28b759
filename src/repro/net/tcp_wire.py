"""TCP segment wire format (RFC 793 header, no options except MSS-free).

The TCP *behaviour* (state machine, RTO, congestion control) lives in
:mod:`repro.host.tcp`; this module is only the PDU.
"""

from __future__ import annotations

import struct

from repro.errors import CodecError
from repro.net.packet import Packet, encode_payload, payload_length

TCP_HEADER_LEN = 20

FLAG_FIN = 0x01
FLAG_SYN = 0x02
FLAG_RST = 0x04
FLAG_PSH = 0x08
FLAG_ACK = 0x10

_HEADER = struct.Struct("!HHIIBBHHH")


def flag_names(flags: int) -> str:
    """Human-readable flag string, e.g. ``"SYN|ACK"``."""
    names = []
    for bit, name in ((FLAG_SYN, "SYN"), (FLAG_ACK, "ACK"), (FLAG_FIN, "FIN"),
                      (FLAG_RST, "RST"), (FLAG_PSH, "PSH")):
        if flags & bit:
            names.append(name)
    return "|".join(names) if names else "-"


class TcpSegment(Packet):
    """A TCP segment."""

    __slots__ = ("src_port", "dst_port", "seq", "ack", "flags", "window",
                 "payload", "payload_length")

    def __init__(
        self,
        src_port: int,
        dst_port: int,
        seq: int,
        ack: int,
        flags: int,
        window: int,
        payload: Packet | bytes | None = None,
    ) -> None:
        if not (0 <= src_port <= 0xFFFF and 0 <= dst_port <= 0xFFFF):
            for name, port in (("source", src_port),
                               ("destination", dst_port)):
                if not 0 <= port <= 0xFFFF:
                    raise CodecError(f"bad TCP {name} port: {port}")
        self.src_port = src_port
        self.dst_port = dst_port
        self.seq = seq & 0xFFFFFFFF
        self.ack = ack & 0xFFFFFFFF
        self.flags = flags
        self.window = min(window, 0xFFFF)
        self.payload = payload
        #: Bytes of user data carried, sized once: a payload is
        #: immutable once sent, and the receiver reads this several
        #: times per segment.
        self.payload_length = payload_length(payload)

    @property
    def seg_len(self) -> int:
        """Sequence space consumed: data bytes plus one for SYN and FIN."""
        length = self.payload_length
        if self.flags & FLAG_SYN:
            length += 1
        if self.flags & FLAG_FIN:
            length += 1
        return length

    def wire_length(self) -> int:
        return TCP_HEADER_LEN + self.payload_length

    def encode(self) -> bytes:
        body = encode_payload(self.payload)
        header = _HEADER.pack(
            self.src_port,
            self.dst_port,
            self.seq,
            self.ack,
            (TCP_HEADER_LEN // 4) << 4,  # data offset
            self.flags,
            self.window,
            0,  # checksum rendered as zero (simulator links are reliable)
            0,  # urgent pointer
        )
        return header + body

    @classmethod
    def decode(cls, data: bytes) -> "TcpSegment":
        """Parse wire bytes; payload kept raw."""
        if len(data) < TCP_HEADER_LEN:
            raise CodecError(f"TCP segment too short: {len(data)} bytes")
        (src_port, dst_port, seq, ack, offset_byte, flags, window,
         _checksum, _urgent) = _HEADER.unpack_from(data, 0)
        header_len = (offset_byte >> 4) * 4
        if header_len < TCP_HEADER_LEN or header_len > len(data):
            raise CodecError(f"bad TCP data offset: {header_len}")
        return cls(src_port, dst_port, seq, ack, flags, window, data[header_len:])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TCP({self.src_port}->{self.dst_port} {flag_names(self.flags)}"
            f" seq={self.seq} ack={self.ack} len={self.payload_length})"
        )
