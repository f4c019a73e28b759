"""32-bit sequence-number arithmetic helpers.

Internally the connection tracks *absolute* 64-bit sequence positions
(immune to wrap); the wire carries the low 32 bits, which
:class:`~repro.net.tcp_wire.TcpSegment` keeps of the positions it is
built from. ``unwrap`` recovers the absolute position of a wire value
given a nearby reference.
"""

from __future__ import annotations

SEQ_MOD = 1 << 32
_HALF = 1 << 31


def unwrap(seq_wire: int, reference_abs: int) -> int:
    """Absolute position of ``seq_wire`` closest to ``reference_abs``.

    Works for any offset within ±2^31 of the reference, which is far more
    than any in-flight window.
    """
    base = reference_abs - (reference_abs & (SEQ_MOD - 1))
    candidate = base + seq_wire
    if candidate - reference_abs > _HALF:
        candidate -= SEQ_MOD
    elif reference_abs - candidate > _HALF:
        candidate += SEQ_MOD
    return candidate
