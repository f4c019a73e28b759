"""Hybrid fluid+frame workload: a sea of fluid background flows under a
frame-level foreground.

The hybrid execution mode (``PortlandConfig(flow_mode="hybrid")``, see
``docs/FLOWS.md``) exists for exactly one experiment shape: a handful of
flows whose packet-level behaviour matters (the *foreground* — real TCP
handshakes, queueing, retransmits) embedded in a data center's worth of
steady background traffic that only matters for the bandwidth it takes
up. This module packages that shape:

* **background** — open-ended CBR fluid flows (``demand_bps`` each),
  admitted in a few batches so the engine coalesces their admission
  into a handful of recomputations. Their allocations are pushed onto
  the links and slow frame serialization there.
* **foreground** — a frame-level :class:`ShuffleWorkload` (real TCP
  senders), whose measured per-epoch load shrinks the capacity the
  fluid water-filling distributes.

Results: the foreground's FCT statistics come from the embedded
shuffle's API unchanged; background delivery is read from the fluid
flows' transferred totals.
"""

from __future__ import annotations

from repro.flows.flow import Flow
from repro.host.host import Host
from repro.sim.simulator import Simulator
from repro.sim.stats import SummaryStats
from repro.workloads.shuffle import ShuffleWorkload


class HybridWorkload:
    """Fluid background + frame foreground on one hybrid fabric.

    Call :meth:`start`, then :meth:`run_until_foreground_done`; read
    foreground FCTs via :meth:`fct_stats` (the embedded
    :class:`ShuffleWorkload`'s numbers) and background delivery via
    :meth:`background_delivered_bytes`. Background flows are open-ended;
    :meth:`stop_background` tears them down (bytes stay charged).
    """

    def __init__(
        self,
        fabric,
        background_pairs: list[tuple[Host, Host]],
        foreground_pairs: list[tuple[Host, Host]],
        background_bps: float = 16e6,
        payload_bytes: int = 1000,
        bytes_per_flow: int = 500_000,
        base_port: int = 40000,
        background_batches: int = 8,
        batch_interval_s: float = 0.005,
        foreground_stagger_s: float = 0.001,
    ) -> None:
        engine = fabric.flow_engine
        if engine is None or not engine.hybrid:
            raise ValueError(
                "hybrid workload needs a fabric built with "
                'PortlandConfig(flow_mode="hybrid")')
        self.fabric = fabric
        self.sim: Simulator = fabric.sim
        self.engine = engine
        self.background_pairs = list(background_pairs)
        self.background_bps = background_bps
        self.payload_bytes = payload_bytes
        self.background_batches = max(1, background_batches)
        self.batch_interval_s = batch_interval_s
        self.base_port = base_port
        self.background_flows: list[Flow] = []
        #: Foreground transfers ride the unchanged frame-mode shuffle.
        self.foreground = ShuffleWorkload(
            self.sim, hosts=[], pairs=list(foreground_pairs),
            bytes_per_flow=bytes_per_flow,
            base_port=base_port + len(self.background_pairs),
            stagger_s=foreground_stagger_s)
        self.foreground_started_at: float | None = None
        self._started = False

    # ------------------------------------------------------------------
    # Lifecycle

    def start_background(self) -> None:
        """Admit every background flow, in batches: flows admitted at
        one instant coalesce into a single rate recomputation, so the
        whole sea costs ``background_batches`` refills to bring up."""
        per_batch = -(-len(self.background_pairs) // self.background_batches)
        for b in range(self.background_batches):
            chunk = self.background_pairs[b * per_batch:(b + 1) * per_batch]
            if chunk:
                self.sim.schedule(b * self.batch_interval_s,
                                  self._admit_batch, chunk, b * per_batch)

    def _admit_batch(self, chunk, offset: int) -> None:
        for i, (src, dst) in enumerate(chunk):
            self.background_flows.append(self.engine.start_flow(
                src, dst.ip, demand_bps=self.background_bps,
                payload_bytes=self.payload_bytes,
                sport=self.base_port + offset + i,
                dport=self.base_port + offset + i,
                name=f"bg-{offset + i}"))

    def start_foreground(self) -> None:
        """Launch the frame-level foreground transfers (call once the
        background has settled, or immediately for a cold-start mix)."""
        self.foreground_started_at = self.sim.now
        self.foreground.start()

    def start(self) -> None:
        """Background first, foreground once the last batch is in."""
        if self._started:
            raise RuntimeError("hybrid workload already started")
        self._started = True
        self.start_background()
        self.sim.schedule(self.background_batches * self.batch_interval_s,
                          self.start_foreground)

    def run_until_foreground_done(self, timeout_s: float = 60.0,
                                  step_s: float = 0.01) -> float:
        """Drive the simulator until every foreground transfer finishes;
        returns the last completion time (background keeps flowing)."""
        if not self.sim.run_until(
                lambda: (self.foreground_started_at is not None
                         and self.foreground.all_done()),
                self.sim.now + timeout_s, step_s):
            raise TimeoutError(
                f"foreground incomplete: {self.foreground.completed()}"
                f"/{self.foreground.num_flows}")
        return max(r.completed_at for r in self.foreground.results)

    def stop_background(self) -> None:
        """Tear down every background flow (delivered bytes stay
        charged to the links they crossed)."""
        for flow in self.background_flows:
            self.engine.stop_flow(flow)

    # ------------------------------------------------------------------
    # Results

    def fct_stats(self) -> SummaryStats:
        """Foreground flow-completion-time statistics."""
        return self.foreground.fct_stats()

    def background_delivered_bytes(self) -> float:
        """Payload bytes the background sea has delivered so far."""
        self.engine.settle_now()
        return sum(f.transferred_bytes for f in self.background_flows)

    def background_rate_bps(self) -> float:
        """Aggregate payload rate currently allocated to the background."""
        return sum(f.rate_bps for f in self.background_flows)
