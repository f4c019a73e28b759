"""Unit & property tests for TCP building blocks: sequence arithmetic,
RTO estimation, congestion control, reassembly."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.host.tcp.congestion import RenoCongestionControl
from repro.host.tcp.reassembly import ReassemblyBuffer
from repro.host.tcp.rto import RtoEstimator
from repro.host.tcp.seqnum import SEQ_MOD, unwrap
from repro.net.tcp_wire import FLAG_ACK, TcpSegment


# ----------------------------------------------------------------------
# Sequence numbers


def test_wire_truncates_to_32_bits():
    segment = TcpSegment(1, 2, SEQ_MOD + 5, 2 * SEQ_MOD + 7, FLAG_ACK, 100)
    assert (segment.seq, segment.ack) == (5, 7)


def test_unwrap_near_reference():
    assert unwrap(5, reference_abs=3) == 5
    assert unwrap(0xFFFFFFFF, reference_abs=SEQ_MOD + 10) == SEQ_MOD - 1
    assert unwrap(2, reference_abs=SEQ_MOD - 3) == SEQ_MOD + 2


@given(st.integers(min_value=0, max_value=1 << 48),
       st.integers(min_value=-(1 << 30), max_value=1 << 30))
def test_unwrap_roundtrip_property(reference, offset):
    absolute = max(0, reference + offset)
    assert unwrap(absolute & (SEQ_MOD - 1), reference) == absolute


# ----------------------------------------------------------------------
# RTO estimation (RFC 6298)


def test_first_sample_sets_srtt_and_floor():
    est = RtoEstimator(min_rto_s=0.2)
    est.sample(0.01)
    assert est.srtt == pytest.approx(0.01)
    assert est.rto == 0.2  # floor dominates for tiny RTTs


def test_rto_grows_with_variance():
    est = RtoEstimator(min_rto_s=0.0)
    est.sample(0.1)
    base = est.rto
    est.sample(0.5)  # large deviation
    assert est.rto > base


def test_backoff_doubles_and_resets():
    est = RtoEstimator()
    est.sample(0.01)
    base = est.rto
    est.backoff()
    assert est.rto == pytest.approx(2 * base)
    est.backoff()
    assert est.rto == pytest.approx(4 * base)
    est.reset_backoff()
    assert est.rto == pytest.approx(base)


def test_rto_capped_at_max():
    est = RtoEstimator(max_rto_s=1.0)
    est.sample(0.9)
    for _ in range(10):
        est.backoff()
    assert est.rto == 1.0


def test_negative_rtt_rejected():
    with pytest.raises(ValueError):
        RtoEstimator().sample(-0.1)


@given(st.lists(st.floats(min_value=1e-6, max_value=10.0), min_size=1,
                max_size=50))
def test_rto_always_at_least_min(samples):
    est = RtoEstimator(min_rto_s=0.2)
    for rtt in samples:
        est.sample(rtt)
        assert est.rto >= 0.2


# ----------------------------------------------------------------------
# Reno congestion control


def test_slow_start_doubles_per_rtt():
    cc = RenoCongestionControl(mss=1000)
    start = cc.cwnd
    assert cc.in_slow_start
    cc.on_new_ack(1000)
    assert cc.cwnd == start + 1000


def test_congestion_avoidance_grows_linearly():
    cc = RenoCongestionControl(mss=1000)
    cc.ssthresh = cc.cwnd  # exit slow start immediately
    start = cc.cwnd
    # One full window of acks ≈ one MSS of growth.
    acked = 0
    while acked < start:
        cc.on_new_ack(1000)
        acked += 1000
    assert start + 500 <= cc.cwnd <= start + 2000


def test_timeout_collapses_to_one_mss():
    cc = RenoCongestionControl(mss=1000)
    cc.on_timeout(flight_size=20000)
    assert cc.cwnd == 1000
    assert cc.ssthresh == 10000
    assert cc.timeouts == 1


def test_timeout_ssthresh_floor():
    cc = RenoCongestionControl(mss=1000)
    cc.on_timeout(flight_size=1000)
    assert cc.ssthresh == 2000  # 2*MSS floor


def test_fast_recovery_cycle():
    cc = RenoCongestionControl(mss=1000)
    cc.cwnd = 16000
    cc.enter_fast_recovery(flight_size=16000)
    assert cc.in_fast_recovery
    assert cc.ssthresh == 8000
    assert cc.cwnd == 8000 + 3000
    cc.on_dupack_in_recovery()
    assert cc.cwnd == 12000
    cc.exit_fast_recovery()
    assert not cc.in_fast_recovery
    assert cc.cwnd == 8000


def test_partial_ack_deflates():
    cc = RenoCongestionControl(mss=1000)
    cc.cwnd = 16000
    cc.enter_fast_recovery(flight_size=16000)
    inflated = cc.cwnd
    cc.on_partial_ack(acked_bytes=2000)
    assert cc.cwnd == max(cc.ssthresh, inflated - 2000 + 1000)


def test_acks_in_recovery_do_not_grow_cwnd():
    cc = RenoCongestionControl(mss=1000)
    cc.enter_fast_recovery(flight_size=10000)
    before = cc.cwnd
    cc.on_new_ack(1000)
    assert cc.cwnd == before


# ----------------------------------------------------------------------
# Reassembly


def test_in_order_delivery():
    buf = ReassemblyBuffer(rcv_nxt=100)
    assert buf.offer(100, 50) == 50
    assert buf.rcv_nxt == 150


def test_out_of_order_held_then_released():
    buf = ReassemblyBuffer(rcv_nxt=0)
    assert buf.offer(100, 50) == 0
    assert buf.out_of_order_bytes == 50
    assert buf.offer(0, 100) == 150
    assert buf.rcv_nxt == 150
    assert buf.out_of_order_bytes == 0


def test_duplicates_and_overlaps_ignored():
    buf = ReassemblyBuffer(rcv_nxt=0)
    buf.offer(0, 100)
    assert buf.offer(0, 100) == 0
    assert buf.offer(50, 100) == 50  # half old, half new
    assert buf.rcv_nxt == 150


def test_adjacent_ranges_merge():
    buf = ReassemblyBuffer(rcv_nxt=0)
    buf.offer(100, 50)
    buf.offer(150, 50)
    assert buf.out_of_order_bytes == 100
    assert buf.offer(0, 100) == 200


def test_zero_length_and_negative():
    buf = ReassemblyBuffer(rcv_nxt=10)
    assert buf.offer(10, 0) == 0
    with pytest.raises(ValueError):
        buf.offer(0, -1)


def test_heavy_out_of_order_stream_reassembles_identically():
    """Deliver a long stream as heavily shuffled, overlapping segments and
    check the reassembled byte stream equals the in-order reference.

    Regression guard for the bisect-based ``_insert``: the old code
    rebuilt and re-sorted the whole range list per segment, and a splice
    bug here would corrupt delivery order or drop/duplicate bytes.
    """
    import random

    rng = random.Random(1234)
    total = 64_000
    mss = 536
    segments = [(seq, min(mss, total - seq)) for seq in range(0, total, mss)]
    # Duplicates and stragglers that overlap two neighbours.
    segments += [(seq, length) for seq, length in segments[::7]]
    segments += [(max(0, seq - 100), min(mss + 200, total - max(0, seq - 100)))
                 for seq, _length in segments[::11]]
    rng.shuffle(segments)

    buf = ReassemblyBuffer(rcv_nxt=0)
    reference = ReassemblyBuffer(rcv_nxt=0)
    # Reference consumes the same byte ranges strictly in order.
    for seq, length in sorted(segments):
        reference.offer(seq, length)

    delivered = []
    for seq, length in segments:
        got = buf.offer(seq, length)
        if got:
            # Synthetic payload: bytes are their sequence number mod 256,
            # so equal ranges imply equal reassembled bytes.
            delivered.append((buf.rcv_nxt - got, buf.rcv_nxt))

    assert buf.rcv_nxt == reference.rcv_nxt == total
    assert buf.out_of_order_bytes == 0
    # Delivered chunks are contiguous, non-overlapping, and cover [0, total).
    flat = bytearray()
    expected = bytearray(seq % 256 for seq in range(total))
    cursor = 0
    for start, end in delivered:
        assert start == cursor, "delivery left a gap or overlapped"
        flat.extend(expected[start:end])
        cursor = end
    assert cursor == total
    assert bytes(flat) == bytes(expected)


@given(st.lists(st.tuples(st.integers(0, 50), st.integers(1, 20)),
                min_size=1, max_size=40))
def test_reassembly_total_matches_union(segments):
    """Delivered bytes equal the measure of the union of offered ranges
    clipped at the contiguous prefix."""
    buf = ReassemblyBuffer(rcv_nxt=0)
    delivered = sum(buf.offer(seq, length) for seq, length in segments)
    assert delivered == buf.rcv_nxt
    covered = set()
    for seq, length in segments:
        covered.update(range(seq, seq + length))
    expected = 0
    while expected in covered:
        expected += 1
    assert buf.rcv_nxt == expected
