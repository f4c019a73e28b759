"""Elephant/mice mix with flow-size-aware rehashing, on the fluid engine.

PortLand (and the flow-scheduling line of work it seeded — Hedera) keeps
ECMP for the many small *mice* but treats long-lived *elephants*
specially: a hash collision that parks two elephants on the same core
link halves both for their whole lifetime, so elephants are worth
re-placing. This workload models the simplest such scheduler the fabric
supports without new switch state: when an elephant's allocated rate
stays under a threshold, the (application-level) scheduler *rehashes*
it — tears the flow down and restarts the remainder on a different UDP
source port, giving the ECMP hash a fresh draw. Mice are never touched
(they are too short to matter and too many to track), which is the
"flow-size-aware" part.

Mice are marked ``DSCP_EF`` by default, so on a policy-enabled fabric
they also exercise the per-class water-filling (the fluid analogue of
the strict-priority queues; see docs/POLICY.md).
"""

from __future__ import annotations

from repro.host.host import Host
from repro.policy import DSCP_EF
from repro.sim.process import Timer
from repro.sim.simulator import Simulator
from repro.sim.stats import SummaryStats, summarize
from repro.workloads.shuffle import FlowResult

#: Source-port step between rehash attempts — coprime to typical ECMP
#: group sizes, so consecutive draws land on different hash buckets.
_REHASH_PORT_STEP = 101


class ElephantMiceWorkload:
    """A few large greedy elephants plus a swarm of small prioritized
    mice, with threshold-triggered elephant rehashing.

    ``elephants`` and ``mice`` are (src, dst) host-pair lists. Requires
    a fabric built with ``PortlandConfig(flow_mode=...)``. Drive with
    :meth:`start` + :meth:`run_until_done`, then read
    :meth:`elephant_fct_stats` / :meth:`mice_fct_stats` /
    :attr:`rehashes`.
    """

    def __init__(
        self,
        fabric,
        elephants: list[tuple[Host, Host]],
        mice: list[tuple[Host, Host]],
        elephant_bytes: int = 2_000_000,
        mouse_bytes: int = 20_000,
        mice_dscp: int = DSCP_EF,
        base_port: int = 42000,
        stagger_s: float = 0.0005,
        check_interval_s: float = 0.05,
        rehash_below_bps: float = 100e6,
        max_rehashes: int = 3,
    ) -> None:
        if fabric.flow_engine is None:
            raise ValueError(
                "fabric has no flow engine — build it with "
                "PortlandConfig(flow_mode=True)")
        self.fabric = fabric
        self.sim: Simulator = fabric.sim
        self.engine = fabric.flow_engine
        self.elephant_pairs = list(elephants)
        self.mice_pairs = list(mice)
        self.elephant_bytes = elephant_bytes
        self.mouse_bytes = mouse_bytes
        self.mice_dscp = mice_dscp
        self.base_port = base_port
        self.stagger_s = stagger_s
        self.check_interval_s = check_interval_s
        self.rehash_below_bps = rehash_below_bps
        self.max_rehashes = max_rehashes
        self.elephant_results: list[FlowResult] = []
        self.mice_results: list[FlowResult] = []
        #: Elephant re-placements performed (across all elephants).
        self.rehashes = 0
        #: index -> (live flow, current sport, rehashes used)
        self._live: dict[int, tuple] = {}
        self._check_timer = Timer(self.sim, self._check)
        self._started = False

    def start(self) -> None:
        """Admit every flow (staggered) and arm the rehash check."""
        if self._started:
            raise RuntimeError("workload already started")
        self._started = True
        for i, (src, dst) in enumerate(self.elephant_pairs):
            result = FlowResult(src=src.name, dst=dst.name,
                                started_at=self.sim.now + i * self.stagger_s)
            self.elephant_results.append(result)
            self.sim.schedule(i * self.stagger_s, self._launch_elephant,
                              i, self.base_port + i, self.elephant_bytes,
                              result)
        offset = len(self.elephant_pairs)
        for j, (src, dst) in enumerate(self.mice_pairs):
            result = FlowResult(src=src.name, dst=dst.name,
                                started_at=self.sim.now + j * self.stagger_s)
            self.mice_results.append(result)
            self.sim.schedule(j * self.stagger_s, self._launch_mouse,
                              j, self.base_port + offset + j, result)
        self._check_timer.start(self.check_interval_s)

    def _launch_elephant(self, i: int, sport: int, size: int,
                         result: FlowResult) -> None:
        src, dst = self.elephant_pairs[i]

        def on_complete(flow, _r=result, _i=i) -> None:
            _r.completed_at = flow.completed_at
            self._live.pop(_i, None)

        used = self._live.pop(i, (None, 0, 0))[2]
        flow = self.engine.start_flow(
            src, dst.ip, size_bytes=size, sport=sport,
            dport=self.base_port + i,
            name=f"elephant-{i}.{sport}", on_complete=on_complete)
        self._live[i] = (flow, sport, used)

    def _launch_mouse(self, j: int, port: int, result: FlowResult) -> None:
        src, dst = self.mice_pairs[j]

        def on_complete(flow, _r=result) -> None:
            _r.completed_at = flow.completed_at

        self.engine.start_flow(
            src, dst.ip, size_bytes=self.mouse_bytes, sport=port, dport=port,
            dscp=self.mice_dscp, name=f"mouse-{j}", on_complete=on_complete)

    # ------------------------------------------------------------------
    # Size-aware rehashing

    def _check(self) -> None:
        """Periodic elephant health check: any live elephant allocated
        under the threshold (and not merely stalled — a pathless flow
        gains nothing from a new hash draw) is restarted from its
        remaining bytes on a fresh source port."""
        self.engine.settle_now()
        for i, (flow, sport, used) in list(self._live.items()):
            if (flow.completed_at is not None or flow.stalled
                    or used >= self.max_rehashes
                    or flow.rate_bps >= self.rehash_below_bps
                    or flow.rate_bps <= 0.0):
                continue
            remaining = flow.remaining_bytes
            if remaining is None or remaining <= 0:
                continue
            self.engine.stop_flow(flow)
            self.rehashes += 1
            self._live[i] = (flow, sport, used + 1)
            self._launch_elephant(i, sport + _REHASH_PORT_STEP,
                                  int(remaining), self.elephant_results[i])
        if self._live:
            self._check_timer.start(self.check_interval_s)

    # ------------------------------------------------------------------
    # Driving and results

    @property
    def num_flows(self) -> int:
        return len(self.elephant_pairs) + len(self.mice_pairs)

    def completed(self) -> int:
        return sum(1 for r in self.elephant_results + self.mice_results
                   if r.completed_at is not None)

    def all_done(self) -> bool:
        return self.completed() == self.num_flows

    def run_until_done(self, timeout_s: float = 60.0,
                       step_s: float = 0.005) -> float:
        """Drive the simulator until every flow completes."""
        if not self.sim.run_until(self.all_done, self.sim.now + timeout_s,
                                  step_s):
            raise TimeoutError(
                f"elephant/mice incomplete: {self.completed()}"
                f"/{self.num_flows}")
        return self.sim.now

    def elephant_fct_stats(self) -> SummaryStats:
        """FCT summary over elephants (start → final segment done)."""
        return summarize([r.fct for r in self.elephant_results
                          if r.fct is not None])

    def mice_fct_stats(self) -> SummaryStats:
        """FCT summary over the mice."""
        return summarize([r.fct for r in self.mice_results
                          if r.fct is not None])
