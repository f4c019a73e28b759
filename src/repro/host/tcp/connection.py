"""The TCP connection state machine.

Implements enough of RFC 793/5681/6298 to reproduce the paper's
transport-level timelines (Figs. 11 and 13): three-way handshake,
cumulative ACKs with out-of-order reassembly, retransmission timeout
with exponential backoff and a 200 ms floor, fast retransmit / NewReno
fast recovery, and orderly close. Payload bytes are synthetic — the
application deals in byte *counts*.

Deliberate simplifications (documented, none affect the reproduced
figures): no delayed ACKs (every data segment is acknowledged
immediately), no window scaling (the simulated bandwidth-delay product
is far below 64 KiB), no SACK, no Nagle.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Callable

from repro.errors import HostError
from repro.host.tcp.congestion import DEFAULT_MSS, RenoCongestionControl
from repro.host.tcp.reassembly import ReassemblyBuffer
from repro.host.tcp.rto import RtoEstimator
from repro.host.tcp.seqnum import unwrap
from repro.net.addresses import IPv4Address
from repro.net.packet import AppData
from repro.net.tcp_wire import (
    FLAG_ACK,
    FLAG_FIN,
    FLAG_PSH,
    FLAG_RST,
    FLAG_SYN,
    TcpSegment,
)
from repro.sim.process import Timer

if TYPE_CHECKING:  # pragma: no cover
    from repro.host.tcp.stack import TcpStack

#: Fixed advertised receive window (no window scaling).
RECEIVE_WINDOW = 65535
#: 2*MSL for TIME_WAIT; shortened relative to real stacks so simulations
#: and tests do not idle for minutes.
TIME_WAIT_S = 2.0
DUPACK_THRESHOLD = 3
#: Give up after this many consecutive RTO expiries.
MAX_RETRIES = 15


class TcpState(enum.Enum):
    """RFC 793 connection states (LISTEN lives in the stack)."""

    CLOSED = "CLOSED"
    SYN_SENT = "SYN_SENT"
    SYN_RCVD = "SYN_RCVD"
    ESTABLISHED = "ESTABLISHED"
    FIN_WAIT_1 = "FIN_WAIT_1"
    FIN_WAIT_2 = "FIN_WAIT_2"
    CLOSE_WAIT = "CLOSE_WAIT"
    CLOSING = "CLOSING"
    LAST_ACK = "LAST_ACK"
    TIME_WAIT = "TIME_WAIT"


class TcpConnection:
    """One TCP connection; also the application-facing socket object.

    Applications interact through :meth:`send`, :meth:`close` and the
    ``on_established`` / ``on_receive`` / ``on_closed`` callbacks.
    """

    def __init__(
        self,
        stack: "TcpStack",
        local_port: int,
        remote_ip: IPv4Address,
        remote_port: int,
        mss: int = DEFAULT_MSS,
        min_rto_s: float | None = None,
        delayed_ack_s: float | None = None,
    ) -> None:
        self.stack = stack
        self.sim = stack.sim
        self.local_port = local_port
        self.remote_ip = remote_ip
        self.remote_port = remote_port
        #: What every data segment's payload names its flow.
        self._flow_id = f"{stack.host.name}:{local_port}"
        self.state = TcpState.CLOSED
        self.mss = mss
        self.cc = RenoCongestionControl(mss)
        self.rto = RtoEstimator() if min_rto_s is None else RtoEstimator(min_rto_s=min_rto_s)

        # Send side (absolute sequence positions).
        self.iss = self._pick_iss()
        self.snd_una = self.iss
        self.snd_nxt = self.iss
        self.snd_wnd = RECEIVE_WINDOW
        self.unsent_bytes = 0
        self.fin_queued = False
        self.fin_seq: int | None = None  # sequence number consumed by our FIN
        self._dupacks = 0
        self._recover = self.iss  # NewReno recovery point
        self._rto_recover: int | None = None  # go-back-N point after RTO
        self._retries = 0
        # RTT sampling (Karn): (absolute end-seq being timed, send time).
        self._rtt_probe: tuple[int, float] | None = None
        self._retransmitted_since_probe = False

        # Receive side, initialised on SYN.
        self.irs: int | None = None
        self.reassembly: ReassemblyBuffer | None = None
        self._peer_fin_seq: int | None = None

        self._rtx_timer = Timer(self.sim, self._on_rto)
        self._time_wait_timer = Timer(self.sim, self._on_time_wait_done)
        self._close_notified = False
        #: Delayed-ACK interval (RFC 1122 §4.2.3.2); ``None`` disables
        #: (the default — acks are immediate, which keeps the reproduced
        #: timelines clean). When set, acks coalesce to every second
        #: full segment or the timer, whichever first; out-of-order data
        #: still acks immediately (RFC 5681 dupack requirement).
        self.delayed_ack_s = delayed_ack_s
        self._delack_timer = Timer(self.sim, self._delack_fire)
        self._segs_unacked = 0

        # Application callbacks.
        self.on_established: Callable[[], None] | None = None
        self.on_receive: Callable[[int, float], None] | None = None
        self.on_closed: Callable[[str], None] | None = None
        #: Fires once when our FIN is acknowledged — i.e. every byte we
        #: sent has been delivered and acked (flow-completion instant).
        self.on_finished: Callable[[], None] | None = None
        self._finish_notified = False

        # Measurement counters.
        self.bytes_sent = 0
        self.bytes_acked = 0
        self.bytes_received = 0
        self.segments_retransmitted = 0

    # ------------------------------------------------------------------
    # Public API

    @property
    def key(self) -> tuple[int, IPv4Address, int]:
        """Demux key within the owning host: (lport, raddr, rport)."""
        return (self.local_port, self.remote_ip, self.remote_port)

    @property
    def flight_size(self) -> int:
        """Bytes sent but not yet cumulatively acknowledged."""
        return self.snd_nxt - self.snd_una

    def open_active(self) -> None:
        """Client side: emit SYN and enter SYN_SENT."""
        if self.state is not TcpState.CLOSED:
            raise HostError(f"open_active in state {self.state}")
        self.state = TcpState.SYN_SENT
        self.snd_nxt = self.iss + 1
        self._emit(seq=self.iss, flags=FLAG_SYN)
        self._arm_rtx()

    def open_passive(self, syn: TcpSegment) -> None:
        """Server side: we received a SYN; reply SYN|ACK, enter SYN_RCVD."""
        if self.state is not TcpState.CLOSED:
            raise HostError(f"open_passive in state {self.state}")
        self.irs = syn.seq
        self.reassembly = ReassemblyBuffer(syn.seq + 1)
        self.snd_wnd = syn.window
        self.state = TcpState.SYN_RCVD
        self.snd_nxt = self.iss + 1
        self._emit(seq=self.iss, flags=FLAG_SYN | FLAG_ACK)
        self._arm_rtx()

    def send(self, nbytes: int) -> None:
        """Queue ``nbytes`` of application data for transmission."""
        if nbytes < 0:
            raise ValueError(f"cannot send {nbytes} bytes")
        if self.state not in (TcpState.SYN_SENT, TcpState.SYN_RCVD,
                              TcpState.ESTABLISHED, TcpState.CLOSE_WAIT):
            raise HostError(f"send() in state {self.state}")
        if self.fin_queued:
            raise HostError("send() after close()")
        self.unsent_bytes += nbytes
        self._try_send()

    def close(self) -> None:
        """Orderly close: FIN after all queued data drains."""
        if self.state in (TcpState.CLOSED, TcpState.TIME_WAIT):
            return
        if self.fin_queued:
            return
        self.fin_queued = True
        if self.state is TcpState.SYN_SENT:
            self._abort("closed before establishment")
            return
        self._try_send()

    def abort(self) -> None:
        """Hard reset: send RST, drop all state."""
        if self.state is TcpState.CLOSED:
            return
        self._emit(seq=self.snd_nxt, flags=FLAG_RST | FLAG_ACK)
        self._abort("local abort")

    # ------------------------------------------------------------------
    # Segment arrival

    def segment_arrives(self, seg: TcpSegment) -> None:
        """Main RFC-793 style dispatch for an inbound segment."""
        if seg.flags & FLAG_RST:
            self._handle_rst(seg)
            return
        if self.state is TcpState.SYN_SENT:
            self._arrives_syn_sent(seg)
            return
        if self.state is TcpState.CLOSED:
            return
        self._arrives_synchronized(seg)

    def _arrives_syn_sent(self, seg: TcpSegment) -> None:
        if not (seg.flags & FLAG_SYN and seg.flags & FLAG_ACK):
            return
        ack_abs = unwrap(seg.ack, self.snd_nxt)
        if ack_abs != self.iss + 1:
            return
        self.irs = seg.seq
        self.reassembly = ReassemblyBuffer(seg.seq + 1)
        self.snd_una = ack_abs
        self.snd_wnd = seg.window
        self._retries = 0
        self._rtx_timer.stop()
        self.state = TcpState.ESTABLISHED
        self._emit_ack()
        if self.on_established is not None:
            self.on_established()
        self._try_send()

    def _arrives_synchronized(self, seg: TcpSegment) -> None:
        assert self.reassembly is not None
        if seg.flags & FLAG_SYN:
            # Retransmitted SYN on the passive side: re-ack it.
            if self.state is TcpState.SYN_RCVD:
                self._emit(seq=self.iss, flags=FLAG_SYN | FLAG_ACK)
            return

        if seg.flags & FLAG_ACK:
            self._process_ack(seg)

        length = seg.payload_length
        delivered = 0
        if length > 0:
            seq_abs = unwrap(seg.seq, self.reassembly.rcv_nxt)
            delivered = self.reassembly.offer(seq_abs, length)
            self.bytes_received += delivered

        fin_advanced = False
        if seg.flags & FLAG_FIN:
            seq_abs = unwrap(seg.seq, self.reassembly.rcv_nxt)
            fin_seq = seq_abs + length
            self._peer_fin_seq = fin_seq
        if (self._peer_fin_seq is not None
                and self.reassembly.rcv_nxt == self._peer_fin_seq):
            self.reassembly.rcv_nxt += 1
            self._peer_fin_seq = None
            fin_advanced = True

        if delivered and self.on_receive is not None:
            self.on_receive(delivered, self.sim.now)

        if fin_advanced:
            self._handle_peer_fin()
        elif seg.flags & FLAG_FIN:
            self._emit_ack()
        elif length > 0:
            self._ack_data(delivered)

    def _ack_data(self, delivered: int) -> None:
        """Acknowledge received data, coalescing when delayed ACKs are
        enabled. Out-of-order arrivals (delivered == 0) always ack
        immediately so the sender's dupack machinery works."""
        if self.delayed_ack_s is None or delivered == 0:
            self._emit_ack()
            return
        self._segs_unacked += 1
        if self._segs_unacked >= 2:
            self._emit_ack()
        elif not self._delack_timer.armed:
            self._delack_timer.start(self.delayed_ack_s)

    def _delack_fire(self) -> None:
        if self._segs_unacked > 0:
            self._emit_ack()

    def _handle_peer_fin(self) -> None:
        self._emit_ack()
        if self.state is TcpState.ESTABLISHED:
            self.state = TcpState.CLOSE_WAIT
        elif self.state is TcpState.FIN_WAIT_1:
            self.state = TcpState.CLOSING
        elif self.state is TcpState.FIN_WAIT_2:
            self._enter_time_wait()
        if self.state is TcpState.CLOSE_WAIT:
            self._notify_closed("peer closed")

    def _handle_rst(self, seg: TcpSegment) -> None:
        if self.state is TcpState.SYN_SENT:
            ack_abs = unwrap(seg.ack, self.snd_nxt)
            if seg.flags & FLAG_ACK and ack_abs != self.iss + 1:
                return  # RST for something else
        self._abort("reset by peer")

    # ------------------------------------------------------------------
    # ACK processing / congestion control

    def _process_ack(self, seg: TcpSegment) -> None:
        ack_abs = unwrap(seg.ack, self.snd_nxt)
        self.snd_wnd = seg.window

        if ack_abs > self.snd_nxt:
            return  # acks data we never sent; ignore
        if ack_abs > self.snd_una:
            self._on_new_ack(ack_abs)
        elif (ack_abs == self.snd_una and seg.payload_length == 0
              and not seg.flags & (FLAG_SYN | FLAG_FIN)
              and self.flight_size > 0):
            self._on_dupack()
        self._try_send()

    def _on_new_ack(self, ack_abs: int) -> None:
        acked = ack_abs - self.snd_una
        self.snd_una = ack_abs
        self.bytes_acked += acked
        self._retries = 0
        self.rto.reset_backoff()
        self._dupacks = 0

        # RTT sample (Karn's rule: skip when a retransmission intervened).
        if self._rtt_probe is not None:
            probe_seq, sent_at = self._rtt_probe
            if ack_abs >= probe_seq:
                if not self._retransmitted_since_probe:
                    self.rto.sample(self.sim.now - sent_at)
                self._rtt_probe = None
                self._retransmitted_since_probe = False

        if self.cc.in_fast_recovery:
            if ack_abs >= self._recover:
                self.cc.exit_fast_recovery()
            else:
                # NewReno partial ACK: retransmit next hole immediately.
                self.cc.on_partial_ack(acked)
                self._retransmit_head()
        else:
            self.cc.on_new_ack(acked)

        # After an RTO, lost in-flight data is recovered go-back-N style,
        # paced by the (slow-start) congestion window: each ACK that does
        # not yet cover the pre-timeout snd_nxt triggers retransmission of
        # the next cwnd's worth of the hole.
        if self._rto_recover is not None:
            if ack_abs >= self._rto_recover:
                self._rto_recover = None
            else:
                self._retransmit_gap()

        # Connection-establishment and close bookkeeping.
        if self.state is TcpState.SYN_RCVD and ack_abs >= self.iss + 1:
            self.state = TcpState.ESTABLISHED
            if self.on_established is not None:
                self.on_established()
        if self.fin_seq is not None and ack_abs >= self.fin_seq + 1:
            self._on_fin_acked()

        if self.flight_size == 0:
            self._rtx_timer.stop()
        else:
            self._arm_rtx()

    def _on_dupack(self) -> None:
        self._dupacks += 1
        if self.cc.in_fast_recovery:
            self.cc.on_dupack_in_recovery()
            return
        if self._dupacks == DUPACK_THRESHOLD:
            self._recover = self.snd_nxt
            self.cc.enter_fast_recovery(self.flight_size)
            self._retransmit_head()

    def _on_fin_acked(self) -> None:
        if not self._finish_notified:
            self._finish_notified = True
            if self.on_finished is not None:
                self.on_finished()
        if self.state is TcpState.FIN_WAIT_1:
            self.state = TcpState.FIN_WAIT_2
        elif self.state is TcpState.CLOSING:
            self._enter_time_wait()
        elif self.state is TcpState.LAST_ACK:
            self._teardown("closed")

    # ------------------------------------------------------------------
    # Transmission

    def _usable_window(self) -> int:
        window = min(int(self.cc.cwnd), self.snd_wnd)
        return max(0, window - self.flight_size)

    def _try_send(self) -> None:
        if self.state not in (TcpState.ESTABLISHED, TcpState.CLOSE_WAIT,
                              TcpState.FIN_WAIT_1, TcpState.CLOSING,
                              TcpState.LAST_ACK):
            return
        sent_any = False
        while self.unsent_bytes > 0:
            room = self._usable_window()
            if room <= 0:
                break
            length = min(self.mss, self.unsent_bytes)
            if length > room and self.flight_size > 0:
                # Sender-side silly-window avoidance (RFC 1122 §4.2.3.4):
                # never emit a runt while a full segment is pending —
                # wait for the window to open by at least one MSS.
                break
            length = min(length, room)
            self._emit_data(self.snd_nxt, length)
            self.snd_nxt += length
            self.unsent_bytes -= length
            self.bytes_sent += length
            sent_any = True
        if (self.fin_queued and self.unsent_bytes == 0 and self.fin_seq is None
                and self.state in (TcpState.ESTABLISHED, TcpState.CLOSE_WAIT)):
            self._send_fin()
            sent_any = True
        if sent_any:
            self._arm_rtx()

    def _send_fin(self) -> None:
        self.fin_seq = self.snd_nxt
        self._emit(seq=self.snd_nxt, flags=FLAG_FIN | FLAG_ACK)
        self.snd_nxt += 1
        if self.state is TcpState.ESTABLISHED:
            self.state = TcpState.FIN_WAIT_1
        elif self.state is TcpState.CLOSE_WAIT:
            self.state = TcpState.LAST_ACK

    def _emit_data(self, seq_abs: int, length: int) -> None:
        payload = AppData(length, flow_id=self._flow_id,
                          seq=seq_abs, sent_at=self.sim.now)
        self._emit(seq=seq_abs, flags=FLAG_ACK | FLAG_PSH, payload=payload)
        if self._rtt_probe is None:
            self._rtt_probe = (seq_abs + length, self.sim.now)
            self._retransmitted_since_probe = False

    def _emit_ack(self) -> None:
        self._segs_unacked = 0
        self._delack_timer.stop()
        self._emit(seq=self.snd_nxt, flags=FLAG_ACK)

    def _emit(self, seq: int, flags: int, payload: AppData | None = None) -> None:
        ack = 0
        if flags & FLAG_ACK and self.reassembly is not None:
            ack = self.reassembly.rcv_nxt
        # Absolute positions: the segment keeps their low 32 bits.
        segment = TcpSegment(self.local_port, self.remote_port, seq, ack,
                             flags, RECEIVE_WINDOW, payload)
        self.stack.transmit(self.remote_ip, segment)

    # ------------------------------------------------------------------
    # Retransmission

    def _arm_rtx(self) -> None:
        self._rtx_timer.start(self.rto.rto)

    def _on_rto(self) -> None:
        if self.state is TcpState.CLOSED:
            return
        if self.flight_size == 0 and self.fin_seq is None:
            return
        self._retries += 1
        if self._retries > MAX_RETRIES:
            self._abort("too many retransmissions")
            return
        if self.flight_size > 0:
            self._rto_recover = self.snd_nxt
        self.cc.on_timeout(self.flight_size)
        self.rto.backoff()
        self._dupacks = 0
        self._retransmit_head()
        self._arm_rtx()

    def _retransmit_gap(self) -> None:
        """Retransmit up to one cwnd of the post-timeout hole."""
        assert self._rto_recover is not None
        data_end = self._rto_recover
        if self.fin_seq is not None:
            data_end = min(data_end, self.fin_seq)
        limit = max(min(int(self.cc.cwnd), self.snd_wnd), self.mss)
        offset = 0
        while offset < limit:
            start = self.snd_una + offset
            if start >= data_end:
                break
            length = min(self.mss, data_end - start)
            payload = AppData(length,
                              flow_id=self._flow_id,
                              seq=start, sent_at=self.sim.now)
            self._emit(seq=start, flags=FLAG_ACK | FLAG_PSH, payload=payload)
            self.segments_retransmitted += 1
            self._retransmitted_since_probe = True
            offset += length
        self._arm_rtx()

    def _retransmit_head(self) -> None:
        """Retransmit the earliest unacknowledged item (SYN, data, or FIN)."""
        self.segments_retransmitted += 1
        self._retransmitted_since_probe = True
        if self.state is TcpState.SYN_SENT:
            self._emit(seq=self.iss, flags=FLAG_SYN)
            return
        if self.state is TcpState.SYN_RCVD:
            self._emit(seq=self.iss, flags=FLAG_SYN | FLAG_ACK)
            return
        if self.fin_seq is not None and self.snd_una == self.fin_seq:
            self._emit(seq=self.fin_seq, flags=FLAG_FIN | FLAG_ACK)
            return
        data_end = self.snd_nxt if self.fin_seq is None else self.fin_seq
        length = min(self.mss, data_end - self.snd_una)
        if length > 0:
            payload = AppData(length, flow_id=self._flow_id,
                              seq=self.snd_una, sent_at=self.sim.now)
            self._emit(seq=self.snd_una, flags=FLAG_ACK | FLAG_PSH, payload=payload)

    # ------------------------------------------------------------------
    # Teardown

    def _enter_time_wait(self) -> None:
        self.state = TcpState.TIME_WAIT
        self._rtx_timer.stop()
        self._time_wait_timer.start(TIME_WAIT_S)

    def _on_time_wait_done(self) -> None:
        self._teardown("closed")

    def _abort(self, reason: str) -> None:
        self._teardown(reason)

    def _teardown(self, reason: str) -> None:
        already_closed = self.state is TcpState.CLOSED
        self.state = TcpState.CLOSED
        self._rtx_timer.stop()
        self._time_wait_timer.stop()
        self._delack_timer.stop()
        self.stack.forget(self)
        if not already_closed:
            self._notify_closed(reason)

    def _notify_closed(self, reason: str) -> None:
        """Invoke on_closed exactly once per connection."""
        if self._close_notified:
            return
        self._close_notified = True
        if self.on_closed is not None:
            self.on_closed(reason)

    def _pick_iss(self) -> int:
        rng = self.sim.random.stream(f"tcp-iss/{self.stack.host.name}")
        return rng.randrange(0, 1 << 32)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<TcpConnection {self.stack.host.name}:{self.local_port} -> "
            f"{self.remote_ip}:{self.remote_port} {self.state.value}>"
        )
