"""MAC (EUI-48) and IPv4 address value types.

Both types are immutable, hashable, ordered, and backed by a single
integer, so they are cheap to use as dict keys in ARP caches and flow
tables. PMAC structure (the PortLand-specific interpretation of the 48
bits) lives in :mod:`repro.portland.pmac`, not here — the wire format is
just Ethernet.
"""

from __future__ import annotations

from functools import total_ordering

from repro.errors import AddressError


@total_ordering
class MacAddress:
    """An EUI-48 MAC address."""

    __slots__ = ("value", "_bytes", "_str")

    MAX = (1 << 48) - 1
    #: Bit 40 (the I/G bit of the first octet) marks group addresses.
    _MULTICAST_BIT = 1 << 40
    #: Bit 41 (the U/L bit) marks locally administered addresses.
    _LOCAL_BIT = 1 << 41

    def __init__(self, value: int) -> None:
        if not 0 <= value <= self.MAX:
            raise AddressError(f"MAC value out of range: {value:#x}")
        #: The address as a 48-bit integer (a plain slot: the flow hash
        #: and the tables read it per frame; never reassigned).
        self.value = value
        # Lazily memoised encodings: the flow hash re-reads to_bytes()
        # on every uncached decision and traces stringify addresses per
        # record, but the value is immutable so both are computed once.
        self._bytes: bytes | None = None
        self._str: str | None = None

    @classmethod
    def parse(cls, text: str) -> "MacAddress":
        """Parse ``aa:bb:cc:dd:ee:ff`` (also accepts ``-`` separators)."""
        parts = text.replace("-", ":").split(":")
        if len(parts) != 6:
            raise AddressError(f"malformed MAC address: {text!r}")
        try:
            octets = [int(part, 16) for part in parts]
        except ValueError as exc:
            raise AddressError(f"malformed MAC address: {text!r}") from exc
        if any(not 0 <= octet <= 0xFF for octet in octets):
            raise AddressError(f"malformed MAC address: {text!r}")
        value = 0
        for octet in octets:
            value = (value << 8) | octet
        return cls(value)

    @classmethod
    def from_bytes(cls, data: bytes) -> "MacAddress":
        """Build from exactly six bytes."""
        if len(data) != 6:
            raise AddressError(f"MAC needs 6 bytes, got {len(data)}")
        return cls(int.from_bytes(data, "big"))

    @property
    def is_broadcast(self) -> bool:
        """``ff:ff:ff:ff:ff:ff``."""
        return self.value == self.MAX

    @property
    def is_multicast(self) -> bool:
        """Group (I/G) bit set — includes broadcast."""
        return bool(self.value & self._MULTICAST_BIT)

    @property
    def is_locally_administered(self) -> bool:
        """U/L bit set. PortLand PMACs are locally administered."""
        return bool(self.value & self._LOCAL_BIT)

    def to_bytes(self) -> bytes:
        """Six-byte big-endian encoding (memoised)."""
        raw = self._bytes
        if raw is None:
            raw = self._bytes = self.value.to_bytes(6, "big")
        return raw

    def __str__(self) -> str:
        text = self._str
        if text is None:
            text = self._str = self.to_bytes().hex(":")
        return text

    def __repr__(self) -> str:
        return f"MacAddress('{self}')"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MacAddress):
            return self.value == other.value
        return NotImplemented

    def __lt__(self, other: "MacAddress") -> bool:
        if isinstance(other, MacAddress):
            return self.value < other.value
        return NotImplemented

    def __hash__(self) -> int:
        return hash((MacAddress, self.value))


#: The all-ones broadcast MAC.
BROADCAST_MAC = MacAddress(MacAddress.MAX)
#: Placeholder all-zero MAC (used in ARP requests' target field).
ZERO_MAC = MacAddress(0)


@total_ordering
class IPv4Address:
    """An IPv4 address."""

    __slots__ = ("value", "_hash")

    MAX = (1 << 32) - 1

    def __init__(self, value: int) -> None:
        if not 0 <= value <= self.MAX:
            raise AddressError(f"IPv4 value out of range: {value:#x}")
        #: The address as a 32-bit integer (never reassigned).
        self.value = value
        # Hashed per ARP-cache lookup and TCP demux: computed once.
        self._hash = hash((IPv4Address, value))

    @classmethod
    def parse(cls, text: str) -> "IPv4Address":
        """Parse dotted-quad notation."""
        parts = text.split(".")
        if len(parts) != 4:
            raise AddressError(f"malformed IPv4 address: {text!r}")
        value = 0
        for part in parts:
            if not part.isdigit():
                raise AddressError(f"malformed IPv4 address: {text!r}")
            octet = int(part)
            if octet > 255:
                raise AddressError(f"malformed IPv4 address: {text!r}")
            value = (value << 8) | octet
        return cls(value)

    @classmethod
    def from_bytes(cls, data: bytes) -> "IPv4Address":
        """Build from exactly four bytes."""
        if len(data) != 4:
            raise AddressError(f"IPv4 needs 4 bytes, got {len(data)}")
        return cls(int.from_bytes(data, "big"))

    @property
    def is_multicast(self) -> bool:
        """Class D: 224.0.0.0/4."""
        return (self.value >> 28) == 0xE

    @property
    def is_limited_broadcast(self) -> bool:
        """The all-ones limited broadcast, 255.255.255.255."""
        return self.value == self.MAX

    def to_bytes(self) -> bytes:
        """Four-byte big-endian encoding."""
        return self.value.to_bytes(4, "big")

    def multicast_mac(self) -> MacAddress:
        """Map a class-D address to its Ethernet multicast MAC
        (``01:00:5e`` + low 23 bits), per RFC 1112 §6.4."""
        if not self.is_multicast:
            raise AddressError(f"{self} is not a multicast address")
        return MacAddress((0x01005E << 24) | (self.value & 0x7FFFFF))

    def __str__(self) -> str:
        raw = self.to_bytes()
        return ".".join(str(octet) for octet in raw)

    def __repr__(self) -> str:
        return f"IPv4Address('{self}')"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IPv4Address):
            return self.value == other.value
        return NotImplemented

    def __lt__(self, other: "IPv4Address") -> bool:
        if isinstance(other, IPv4Address):
            return self.value < other.value
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuilt from the value, so the hash is this process's.
        return IPv4Address, (self.value,)


def mac(text: str) -> MacAddress:
    """Shorthand constructor: ``mac("00:11:22:33:44:55")``."""
    return MacAddress.parse(text)


def ip(text: str) -> IPv4Address:
    """Shorthand constructor: ``ip("10.0.0.1")``."""
    return IPv4Address.parse(text)
