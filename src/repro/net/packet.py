"""Base protocol-data-unit abstractions.

Inside the simulator, packets travel as Python objects (cheap, and they
can carry measurement metadata that has no wire representation). Every
PDU also knows how to render itself to real bytes — byte-accurate sizes
are what make the control-traffic measurements (Fig. 14) honest.
"""

from __future__ import annotations

import abc


class Packet(abc.ABC):
    """A protocol data unit.

    Subclasses must implement :meth:`encode` (exact wire bytes) and
    :meth:`wire_length` (must equal ``len(self.encode())`` — the property
    tests enforce this). ``wire_length`` exists separately because the hot
    forwarding path needs sizes without paying for serialization.
    """

    # A subclass that declares its slots has exactly those (no instance
    # dict beside them for a slot-wise copy() to miss).
    __slots__ = ()

    @abc.abstractmethod
    def encode(self) -> bytes:
        """Render the PDU (including any payload) to wire bytes."""

    @abc.abstractmethod
    def wire_length(self) -> int:
        """Exact encoded length in bytes, without encoding."""

    def copy(self) -> "Packet":
        """A shallow copy, for safe multicast/flood fan-out.

        Headers are duplicated so each branch may be rewritten
        independently (e.g. PMAC rewriting, TTL decrement); payloads are
        shared because the library treats them as immutable once sent.
        """
        import copy as _copy

        return _copy.copy(self)


def payload_length(payload: "Packet | bytes | None") -> int:
    """Wire length of a packet payload field of any accepted type."""
    if payload is None:
        return 0
    if isinstance(payload, (bytes, bytearray)):
        return len(payload)
    return payload.wire_length()


def encode_payload(payload: "Packet | bytes | None") -> bytes:
    """Encode a payload field of any accepted type."""
    if payload is None:
        return b""
    if isinstance(payload, (bytes, bytearray)):
        return bytes(payload)
    return payload.encode()


def coerce(payload: "Packet | bytes | None", cls: type) -> "Packet":
    """Return ``payload`` as an instance of ``cls``.

    Inside the simulator payloads are usually already objects; frames that
    were round-tripped through :meth:`encode`/``decode`` carry raw bytes
    instead, which this helper decodes via ``cls.decode``.
    """
    if isinstance(payload, cls):
        return payload
    if isinstance(payload, (bytes, bytearray)):
        return cls.decode(bytes(payload))
    raise TypeError(f"cannot interpret {type(payload).__name__} as {cls.__name__}")


class AppData(Packet):
    """Opaque application payload with simulation-only metadata.

    Encodes as ``length`` zero bytes. ``flow_id``, ``seq`` and ``sent_at``
    exist only inside the simulator and never reach the wire; measurement
    code uses them to compute loss windows and one-way delays.
    """

    __slots__ = ("length", "flow_id", "seq", "sent_at")

    def __init__(
        self,
        length: int,
        flow_id: str = "",
        seq: int = 0,
        sent_at: float = 0.0,
    ) -> None:
        if length < 0:
            raise ValueError(f"payload length must be >= 0, got {length}")
        self.length = length
        self.flow_id = flow_id
        self.seq = seq
        self.sent_at = sent_at

    def encode(self) -> bytes:
        return b"\x00" * self.length

    def wire_length(self) -> int:
        return self.length

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AppData(len={self.length}, flow={self.flow_id!r}, seq={self.seq})"
