"""Wire formats as data: a message is a tag byte and a table of fields.

A protocol module declares each message as a dataclass whose decorator
(:func:`layout`) names the tag and one *field kind* per field, in wire
order. The single ``encode`` / ``decode`` / ``wire_length`` of
:class:`Record` reads that table, so no message carries codec code of
its own, and every input that is short, over-counted or holds an unknown
tag or enum value raises :class:`~repro.errors.CodecError` and nothing
else. Bytes after the last field are ignored: Ethernet pads short frames.
"""

from __future__ import annotations

import dataclasses
from operator import attrgetter

from repro.errors import CodecError
from repro.net.addresses import IPv4Address, MacAddress
from repro.net.packet import Packet


class Scalar:
    """A fixed-size field: ``size`` bytes holding a big-endian unsigned
    integer that ``wrap`` turns into the field's value and ``unwrap``
    back. The bounds check of every decoder is the one here."""

    def __init__(self, size: int, wrap=int, unwrap=int) -> None:
        self.size, self.wrap, self.unwrap = size, wrap, unwrap

    def encode(self, value) -> bytes:
        return self.unwrap(value).to_bytes(self.size, "big")

    def decode(self, data: bytes, offset: int):
        end = offset + self.size
        if end > len(data):
            raise CodecError(f"truncated: need {end} bytes, have {len(data)}")
        try:
            return self.wrap(int.from_bytes(data[offset:end], "big")), end
        except ValueError as exc:  # not a member of the enum
            raise CodecError(str(exc)) from None


class Counted:
    """A ``count`` scalar, then that many items of the ``item`` scalars.

    The value is ``collect`` of the items: tuples, or bare values when
    an item is a single scalar."""

    def __init__(self, count: Scalar, *item: Scalar, collect=tuple) -> None:
        self.count, self.item, self.collect = count, item, collect
        self.size = count.size
        self.item_size = sum(kind.size for kind in item)

    def encode(self, values) -> bytes:
        rows = values if len(self.item) > 1 else [(value,) for value in values]
        return self.count.encode(len(values)) + b"".join(
            kind.encode(value)
            for row in rows for kind, value in zip(self.item, row))

    def decode(self, data: bytes, offset: int):
        count, offset = self.count.decode(data, offset)
        rows = []
        for _ in range(count):  # an over-count runs out of data and raises
            row, offset = _decode_each(self.item, data, offset)
            rows.append(tuple(row) if len(row) > 1 else row[0])
        return self.collect(rows), offset


def _decode_each(kinds, data: bytes, offset: int) -> tuple[list, int]:
    values = []
    for kind in kinds:
        value, offset = kind.decode(data, offset)
        values.append(value)
    return values, offset


U8, U16, U32 = Scalar(1), Scalar(2), Scalar(4)
BOOL = Scalar(1, bool)
MAC = Scalar(6, MacAddress, attrgetter("value"))
IPV4 = Scalar(4, IPv4Address, attrgetter("value"))
#: Length-prefixed opaque bytes.
BYTES = Counted(U16, U8, collect=bytes)


class Record(Packet):
    """A tag byte, then the fields ``FIELDS`` lists as (name, kind).

    Only the last field may be :class:`Counted`, so a size is
    ``fixed + count × item`` and nothing is encoded to measure it."""

    TAG: int
    FIELDS: tuple[tuple[str, Scalar | Counted], ...]
    #: Tag, every scalar, and the count of a trailing Counted field.
    _FIXED_SIZE: int
    #: Item size of a trailing Counted field, else 0.
    _ITEM_SIZE: int

    def encode(self) -> bytes:
        return bytes((self.TAG,)) + b"".join(
            kind.encode(getattr(self, name)) for name, kind in self.FIELDS)

    def wire_length(self) -> int:
        if not self._ITEM_SIZE:
            return self._FIXED_SIZE
        return self._FIXED_SIZE + self._ITEM_SIZE * len(
            getattr(self, self.FIELDS[-1][0]))

    @classmethod
    def decode(cls, data: bytes):
        """Decode wire bytes that must hold a record of this class."""
        if not data or data[0] != cls.TAG:
            raise CodecError(f"not a {cls.__name__}")
        values, _end = _decode_each([kind for _, kind in cls.FIELDS], data, 1)
        return cls(*values)


def layout(registry: dict, tag: int, *kinds: Scalar | Counted):
    """Class decorator: make the class a frozen dataclass whose fields,
    in order, are ``kinds`` on the wire after ``tag``, and enter it in
    ``registry`` (tag → class) for :func:`decode_any`."""

    def bind(cls):
        cls = dataclasses.dataclass(frozen=True)(cls)
        names = [field.name for field in dataclasses.fields(cls)]
        if (len(names) != len(kinds) or int(tag) in registry
                or any(isinstance(kind, Counted) for kind in kinds[:-1])):
            raise TypeError(f"bad wire layout for {cls.__name__}")
        cls.TAG = int(tag)
        cls.FIELDS = tuple(zip(names, kinds))
        cls._FIXED_SIZE = 1 + sum(kind.size for kind in kinds)
        cls._ITEM_SIZE = getattr(kinds[-1], "item_size", 0)
        registry[cls.TAG] = cls
        return cls

    return bind


def decode_any(registry: dict, family: str, data: bytes):
    """Decode whichever of ``registry``'s records the tag byte names."""
    if not data:
        raise CodecError(f"empty {family} message")
    cls = registry.get(data[0])
    if cls is None:
        raise CodecError(f"unknown {family} message type {data[0]}")
    return cls.decode(data)


def decode_payload(payload, decode):
    """The message a received frame carries: ``payload`` itself when it
    travelled as an object, ``decode`` of it when it travelled as bytes —
    and ``None`` when those are malformed, for the receiver to count and
    drop instead of unwinding the simulator."""
    if isinstance(payload, (bytes, bytearray)):
        try:
            return decode(bytes(payload))
        except CodecError:
            return None
    return payload
