"""All-to-all ("shuffle") workloads — the east-west traffic that
motivates the paper's introduction (web search, MapReduce).

Every host sends a fixed-size TCP transfer to every other host; the
workload records per-flow completion times, from which the usual
datacenter metrics (mean/median/p99 FCT, aggregate goodput) fall out.
This is the traffic pattern where the fat tree's multipath — and hence
PortLand's ECMP forwarding — earns its keep.

Both workloads accept an explicit ``pairs`` list (e.g. from
:func:`repro.workloads.traffic.random_permutation_pairs`) in place of
the all-to-all matrix, and :class:`FluidShuffleWorkload` runs the same
shuffle on the flow-level fluid engine (``PortlandConfig.flow_mode``,
see ``docs/FLOWS.md``) with a matching results API, so frame- and
flow-mode runs are directly comparable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.host.apps.tcp_bulk import TcpBulkSender, TcpSink
from repro.host.host import Host
from repro.sim.simulator import Simulator
from repro.sim.stats import SummaryStats, summarize


@dataclass
class FlowResult:
    """Outcome of one shuffle flow."""

    src: str
    dst: str
    started_at: float
    completed_at: float | None = None

    @property
    def fct(self) -> float | None:
        """Flow completion time, or ``None`` while running."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.started_at


@dataclass
class ShuffleWorkload:
    """An N×(N−1) all-to-all TCP transfer (or an explicit pair list).

    Flows start staggered by ``stagger_s`` (grouped per sender) so the
    handshake burst does not synchronize. Call :meth:`start`, run the
    simulator, then read :meth:`completed`/:meth:`fct_stats`. When
    ``pairs`` is given it replaces the all-to-all matrix: one transfer
    per (src, dst) pair, each on its own sink port.
    """

    sim: Simulator
    hosts: list[Host]
    bytes_per_flow: int = 100_000
    base_port: int = 30000
    stagger_s: float = 0.001
    pairs: list[tuple[Host, Host]] | None = None
    results: list[FlowResult] = field(default_factory=list)
    _sinks: list[TcpSink] = field(default_factory=list)
    _started: bool = False

    @property
    def num_flows(self) -> int:
        if self.pairs is not None:
            return len(self.pairs)
        n = len(self.hosts)
        return n * (n - 1)

    def start(self) -> None:
        """Create all sinks and schedule every flow's start."""
        if self._started:
            raise RuntimeError("shuffle already started")
        self._started = True
        if self.pairs is not None:
            # One sink port per pair keeps demux trivial.
            for i, (_src, dst) in enumerate(self.pairs):
                self._sinks.append(TcpSink(dst, self.base_port + i))
            for i, (src, dst) in enumerate(self.pairs):
                self.sim.schedule(i * self.stagger_s,
                                  self._launch, src, dst, i)
            return
        # One sink port per sender on each receiver keeps demux trivial.
        for j, dst in enumerate(self.hosts):
            for i, _src in enumerate(self.hosts):
                if i == j:
                    continue
                self._sinks.append(TcpSink(dst, self.base_port + i))
        for i, src in enumerate(self.hosts):
            delay = i * self.stagger_s
            for j, dst in enumerate(self.hosts):
                if i == j:
                    continue
                self.sim.schedule(delay, self._launch, src, dst, i)

    def _launch(self, src: Host, dst: Host, sender_index: int) -> None:
        result = FlowResult(src=src.name, dst=dst.name,
                            started_at=self.sim.now)
        self.results.append(result)
        bulk = TcpBulkSender(src, dst.ip, self.base_port + sender_index,
                             total_bytes=self.bytes_per_flow)

        def on_finished(_result=result) -> None:
            if _result.completed_at is None:
                _result.completed_at = self.sim.now

        bulk.conn.on_finished = on_finished

    # ------------------------------------------------------------------
    # Results

    def completed(self) -> int:
        """Flows that have fully finished (data delivered + closed)."""
        return sum(1 for r in self.results if r.completed_at is not None)

    def all_done(self) -> bool:
        """Whether every flow completed."""
        return (len(self.results) == self.num_flows
                and self.completed() == self.num_flows)

    def run_until_done(self, timeout_s: float = 60.0,
                       step_s: float = 0.25) -> float:
        """Drive the simulator until the shuffle finishes."""
        if not self.sim.run_until(self.all_done, self.sim.now + timeout_s,
                                  step_s):
            raise TimeoutError(
                f"shuffle incomplete: {self.completed()}/{self.num_flows}")
        return self.sim.now

    def fct_stats(self) -> SummaryStats:
        """Summary statistics of flow completion times (seconds)."""
        fcts = [r.fct for r in self.results if r.fct is not None]
        return summarize(fcts)

    def total_bytes_moved(self) -> int:
        """Payload bytes delivered across all sinks."""
        return sum(sink.total_bytes for sink in self._sinks)

    def aggregate_goodput_bps(self, elapsed_s: float) -> float:
        """Delivered bits per second over ``elapsed_s``."""
        if elapsed_s <= 0:
            return 0.0
        return self.total_bytes_moved() * 8 / elapsed_s


class FluidShuffleWorkload:
    """The same shuffle, run on the fluid flow engine.

    Requires a fabric built with ``PortlandConfig(flow_mode=True)``.
    Each transfer becomes one finite :class:`repro.flows.flow.Flow`
    (greedy — it takes its max-min fair share, like a bulk TCP sender);
    completion callbacks fill in the same :class:`FlowResult` records
    the frame-mode workload produces, and the results API
    (:meth:`completed`/:meth:`run_until_done`/:meth:`fct_stats`/
    :meth:`aggregate_goodput_bps`/:meth:`total_bytes_moved`) matches
    :class:`ShuffleWorkload` so experiments can swap modes.
    """

    def __init__(
        self,
        fabric,
        hosts: list[Host] | None = None,
        pairs: list[tuple[Host, Host]] | None = None,
        bytes_per_flow: int = 100_000,
        base_port: int = 30000,
        payload_bytes: int = 1000,
        stagger_s: float = 0.001,
    ) -> None:
        if fabric.flow_engine is None:
            raise ValueError(
                "fabric has no flow engine — build it with "
                "PortlandConfig(flow_mode=True)")
        self.fabric = fabric
        self.sim: Simulator = fabric.sim
        self.engine = fabric.flow_engine
        if pairs is None:
            if hosts is None:
                hosts = fabric.host_list()
            pairs = [(s, d) for s in hosts for d in hosts if s is not d]
        self.pairs = list(pairs)
        self.bytes_per_flow = bytes_per_flow
        self.base_port = base_port
        self.payload_bytes = payload_bytes
        self.stagger_s = stagger_s
        self.results: list[FlowResult] = []
        self.flows = []
        self.started_at: float | None = None
        self._started = False

    @property
    def num_flows(self) -> int:
        return len(self.pairs)

    def start(self) -> None:
        """Schedule every pair's flow admission, staggered exactly like
        the frame-mode shuffle (same-instant arrivals would coalesce
        into one recomputation, but the comparison to ShuffleWorkload
        demands the same offered-load timeline)."""
        if self._started:
            raise RuntimeError("shuffle already started")
        self._started = True
        self.started_at = self.sim.now
        for i, (src, dst) in enumerate(self.pairs):
            self.sim.schedule(i * self.stagger_s, self._launch, src, dst, i)

    def _launch(self, src: Host, dst: Host, i: int) -> None:
        result = FlowResult(src=src.name, dst=dst.name,
                            started_at=self.sim.now)
        self.results.append(result)

        def on_complete(flow, _result=result) -> None:
            _result.completed_at = flow.completed_at

        self.flows.append(self.engine.start_flow(
            src, dst.ip, size_bytes=self.bytes_per_flow,
            sport=self.base_port + i, dport=self.base_port + i,
            payload_bytes=self.payload_bytes,
            name=f"shuffle-{src.name}->{dst.name}",
            on_complete=on_complete))

    # ------------------------------------------------------------------
    # Results (same shape as ShuffleWorkload)

    def completed(self) -> int:
        """Flows that have delivered their full size."""
        return sum(1 for r in self.results if r.completed_at is not None)

    def all_done(self) -> bool:
        """Whether every flow completed."""
        return (len(self.results) == self.num_flows
                and self.completed() == self.num_flows)

    def run_until_done(self, timeout_s: float = 60.0,
                       step_s: float = 0.005) -> float:
        """Drive the simulator until the shuffle finishes.

        Returns the time of the *last completion* (not the step
        boundary the loop noticed it on), so elapsed-time and goodput
        numbers are exact; the step only bounds how much background
        (LDP beacon) simulation runs past that instant.
        """
        if not self.sim.run_until(self.all_done, self.sim.now + timeout_s,
                                  step_s):
            raise TimeoutError(
                f"shuffle incomplete: {self.completed()}/{self.num_flows}")
        return max(r.completed_at for r in self.results)

    def fct_stats(self) -> SummaryStats:
        """Summary statistics of flow completion times (seconds)."""
        fcts = [r.fct for r in self.results if r.fct is not None]
        return summarize(fcts)

    def total_bytes_moved(self) -> float:
        """Payload bytes delivered across all flows (fluid totals are
        exact integers once a flow completes)."""
        self.engine.settle_now()
        return sum(f.transferred_bytes for f in self.flows)

    def aggregate_goodput_bps(self, elapsed_s: float) -> float:
        """Delivered bits per second over ``elapsed_s``."""
        if elapsed_s <= 0:
            return 0.0
        return self.total_bytes_moved() * 8 / elapsed_s
