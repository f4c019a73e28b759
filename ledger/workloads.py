"""The ledger's four workloads.

Each workload says how its fabric is built and what its run phase does.
Inputs (traffic pairs, failed links, ARP probe choices) come from a
``random.Random`` seeded by ``--seed``; the fabric sees only those
inputs. Sizes are calibrated so one repeat costs about four seconds on
the reference machine (see README.md) — small enough that a run of
``--seconds`` holds several repeats, large enough that the layer the
workload is meant to stress dominates it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import ClassVar

from repro.portland.config import PortlandConfig
from repro.sim.stats import percentile
from repro.topology.builder import LinkParams, PortlandFabric
from repro.workloads.arp_workload import ArpStorm
from repro.workloads.failures import FailureInjector, pick_failures
from repro.workloads.shuffle import FluidShuffleWorkload, ShuffleWorkload
from repro.workloads.traffic import (UdpFlowSet, inter_pod_pairs,
                                     random_permutation_pairs)

#: Simulated seconds every run phase ends with, traffic stopped: the
#: events executed in it are the keepalive floor (ldp.events_per_sim_s).
QUIET_TAIL_S = 0.05


@dataclass
class Outcome:
    """What a run phase reports back to the worker."""

    #: (src host, dst host) pairs the oracle walks afterwards.
    pairs: list
    ops_attempted: int
    #: Operations that did not complete (a simulated result: blackholed
    #: datagrams before detection are the modelled fabric's behaviour).
    ops_failed: int
    #: The subset of ``ops_failed`` the workload cannot explain — what
    #: the benchmark contract calls ``failed``. Must be 0.
    ops_unexpected: int
    #: Workload-specific simulated end-to-end metrics.
    sim: dict = field(default_factory=dict)
    #: Sample counts behind those metrics, printed beside them.
    samples: dict = field(default_factory=dict)
    #: Counters only the workload can read (``host.udp_tx``).
    counts: dict = field(default_factory=dict)
    #: Correctness failures, one line each; any entry fails the command.
    problems: list = field(default_factory=list)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    k: int
    config: PortlandConfig = field(default_factory=PortlandConfig)
    carrier_detect: bool = True
    #: Simulated seconds ``run(until)`` advances between two looks at the
    #: host clock (see hostclock.py), during setup and in the run phase.
    #: Chosen so a busy slice costs about a millisecond of host time,
    #: well under the 10 ms between calibrations, while the slicing
    #: itself (about 2 µs a slice) stays near 1 % of the phase. The
    #: defaults suit a k=8 fabric carrying keepalives and control traffic.
    setup_slice_s: float = 1e-3
    slice_s: float = 200e-6

    #: Field values ``--smoke`` replaces, on top of k=4.
    SMOKE: ClassVar[dict] = {}

    def sized(self, smoke: bool) -> "Workload":
        """This workload, or its reduced k=4 copy for ``--smoke``."""
        if not smoke:
            return self
        # Events per simulated second grow with k cubed, so a slice that
        # much longer costs the same host time.
        longer = (self.k / 4) ** 3
        return replace(self, k=4, setup_slice_s=longer * self.setup_slice_s,
                       slice_s=longer * self.slice_s, **self.SMOKE)

    def link_params(self) -> LinkParams:
        return LinkParams(carrier_detect=self.carrier_detect)

    def run(self, fabric: PortlandFabric,
            rng: random.Random) -> Outcome:  # pragma: no cover - overridden
        raise NotImplementedError


# ----------------------------------------------------------------------
# idle_k16


@dataclass(frozen=True)
class Idle(Workload):
    idle_s: float = 0.15
    #: k=16 executes about 1,300 events per simulated millisecond.
    setup_slice_s: float = 100e-6
    slice_s: float = 100e-6
    #: Oracle walks cost about 2 ms each at k=16.
    oracle_pairs: int = 128

    def run(self, fabric, rng):
        sim = fabric.sim
        sim.run(until=sim.now + self.idle_s)
        fm = fabric.fabric_manager
        located = sum(1 for agent in fabric.agents.values()
                      if agent.ldp.location_complete)
        registered = sum(1 for spec in fabric.tree.hosts
                         if spec.ip in fm.hosts_by_ip)
        attempted = len(fabric.agents) + len(fabric.tree.hosts)
        failed = attempted - located - registered
        # No traffic of its own: the oracle walks a sample of a random
        # permutation (all pairs would be a million walks at k=16).
        pairs = random_permutation_pairs(fabric.host_list(),
                                         rng)[:self.oracle_pairs]
        return Outcome(pairs=pairs, ops_attempted=attempted,
                       ops_failed=failed, ops_unexpected=failed)


# ----------------------------------------------------------------------
# frame_shuffle_k8 / fluid_shuffle_k8


def _shuffle_outcome(shuffle, pairs, bytes_per_flow: int) -> Outcome:
    flows = len(pairs)
    done = [r for r in shuffle.results if r.completed_at is not None]
    outcome = Outcome(pairs=pairs, ops_attempted=flows,
                      ops_failed=flows - len(done),
                      ops_unexpected=flows - len(done))
    if len(done) != flows:
        outcome.problems.append(
            f"{flows - len(done)} of {flows} flows did not complete")
        return outcome
    started = min(r.started_at for r in done)
    completion_s = max(r.completed_at for r in done) - started
    fcts = sorted(r.fct for r in done)
    moved = shuffle.total_bytes_moved()
    if moved != flows * bytes_per_flow:
        outcome.problems.append(
            f"delivered {moved} bytes, expected {flows * bytes_per_flow}")
    outcome.sim = {
        "completion_ms": completion_s * 1e3,
        "fct_ms_p50": percentile(fcts, 0.50) * 1e3,
        "fct_ms_p90": percentile(fcts, 0.90) * 1e3,
        "goodput_gbps": moved * 8 / completion_s / 1e9,
    }
    outcome.samples = {name: flows for name in ("fct_ms_p50", "fct_ms_p90")}
    return outcome


@dataclass(frozen=True)
class FrameShuffle(Workload):
    bytes_per_flow: int = 120_000
    SMOKE = {"bytes_per_flow": 40_000}
    #: ShuffleWorkload's default 1 ms would run the flows one after the
    #: other (each lasts about 1.5 ms): no queueing, and p90 equal to p50.
    stagger_s: float = 100e-6
    #: About 15 k events per simulated millisecond while the flows run.
    slice_s: float = 10e-6

    def run(self, fabric, rng):
        hosts = fabric.host_list()
        pairs = random_permutation_pairs(hosts, rng)
        shuffle = ShuffleWorkload(fabric.sim, hosts, pairs=pairs,
                                  bytes_per_flow=self.bytes_per_flow,
                                  stagger_s=self.stagger_s)
        shuffle.start()
        try:
            # The default 0.25 s step would bury the shuffle under idle
            # keepalive events after the last flow ends.
            shuffle.run_until_done(timeout_s=30.0, step_s=0.005)
        except TimeoutError:
            pass
        return _shuffle_outcome(shuffle, pairs, self.bytes_per_flow)


@dataclass(frozen=True)
class FluidShuffle(Workload):
    config: PortlandConfig = field(
        default_factory=lambda: PortlandConfig(flow_mode=True))
    permutations: int = 3
    SMOKE = {"permutations": 2}
    bytes_per_flow: int = 250_000
    stagger_s: float = 10e-6
    #: One flow start, so one recompute of up to 20 ms, per slice.
    slice_s: float = 10e-6

    def run(self, fabric, rng):
        hosts = fabric.host_list()
        pairs = []
        for _ in range(self.permutations):
            pairs.extend(random_permutation_pairs(hosts, rng))
        shuffle = FluidShuffleWorkload(fabric, pairs=pairs,
                                       bytes_per_flow=self.bytes_per_flow,
                                       stagger_s=self.stagger_s)
        shuffle.start()
        try:
            shuffle.run_until_done(timeout_s=30.0)
        except TimeoutError:
            pass
        return _shuffle_outcome(shuffle, pairs, self.bytes_per_flow)


# ----------------------------------------------------------------------
# fault_storm_k8


@dataclass(frozen=True)
class FaultStorm(Workload):
    carrier_detect: bool = False
    probe_flows: int = 32
    rate_pps: float = 500.0
    arp_rate_per_host: float = 25.0
    rounds: int = 3
    failures_per_round: int = 8
    SMOKE = {"probe_flows": 8, "rounds": 2, "failures_per_round": 2}
    #: Links fail at the round's start, recover ``down_s`` later, and the
    #: next round starts ``round_s`` after this one.
    down_s: float = 0.1
    round_s: float = 0.2
    warmup_s: float = 0.1
    #: After a recovery, neighbours re-adopt the link one LDM at a time;
    #: datagrams hashed onto it before both ends have are still lost.
    readopt_s: float = 0.05
    #: In-flight datagrams land within this after the senders stop.
    drain_s: float = 0.01
    #: A (round, flow) outage outside this band fails the command.
    conv_band_s: tuple = (0.020, 0.500)

    def run(self, fabric, rng):
        sim = fabric.sim
        hosts = fabric.host_list()
        interval = 1.0 / self.rate_pps
        hosts_by_pod: dict[int, list] = {}
        for spec in fabric.tree.hosts:
            hosts_by_pod.setdefault(spec.pod, []).append(
                fabric.hosts[spec.name])
        pairs = inter_pod_pairs(hosts_by_pod, rng, self.probe_flows)
        rounds = self.rounds
        failures = [pick_failures(fabric.tree, self.failures_per_round, rng,
                                  keep_connected=True)
                    for _ in range(rounds)]

        # ARP probes go to the discard port; bind it so deliveries count.
        delivered_probes = [0]

        def on_probe(_src_ip, _src_port, _payload, _now) -> None:
            delivered_probes[0] += 1

        for host in hosts:
            host.udp_socket(9).on_datagram = on_probe
        unresolved_before = sum(h.unresolved_drops for h in hosts)

        flows = UdpFlowSet(pairs, rate_pps=self.rate_pps, payload_bytes=64)
        storm = ArpStorm(sim, hosts, self.arp_rate_per_host,
                         random.Random(rng.getrandbits(64)))
        injector = FailureInjector(sim, fabric.link_between)
        first = sim.now + self.warmup_s
        fail_times = [first + r * self.round_s for r in range(rounds)]
        for fail_at, links in zip(fail_times, failures):
            injector.fail_at(fail_at, links)
            injector.recover_at(fail_at + self.down_s)
        flows.start(stagger=interval / len(pairs))
        storm.start()
        sim.run(until=first + rounds * self.round_s)
        flows.stop()
        storm.stop()
        sim.run(until=sim.now + self.drain_s)

        outcome = Outcome(pairs=pairs, ops_attempted=0, ops_failed=0,
                          ops_unexpected=0)
        conv = []
        low, high = self.conv_band_s
        for index, (sender, receiver) in enumerate(flows.flows):
            outages, unexpected = self._losses(receiver.arrivals,
                                               sender.next_seq, fail_times,
                                               interval)
            for r, outage in outages:
                conv.append(outage)
                if not low <= outage <= high:
                    outcome.problems.append(
                        f"round {r}: flow {index} converged in "
                        f"{outage * 1e3:.1f} ms, outside "
                        f"{low * 1e3:.0f}-{high * 1e3:.0f} ms")
            outcome.ops_attempted += sender.next_seq
            outcome.ops_failed += sender.next_seq - receiver.received
            outcome.ops_unexpected += unexpected
        unresolved = sum(h.unresolved_drops for h in hosts) - unresolved_before
        outcome.ops_attempted += storm.requests_issued
        outcome.ops_failed += storm.requests_issued - delivered_probes[0]
        outcome.ops_unexpected += unresolved
        if not conv:
            outcome.problems.append("no round hit a probe flow")
        else:
            conv.sort()
            outcome.sim = {"conv_ms_p50": percentile(conv, 0.50) * 1e3,
                           "conv_ms_max": conv[-1] * 1e3}
            outcome.samples = {"conv_ms_p50": len(conv),
                               "conv_ms_max": len(conv)}
        # Every operation here is one datagram a host sent.
        outcome.counts = {"host.udp_tx": outcome.ops_attempted}
        return outcome

    def _losses(self, arrivals, sent: int, fail_times, interval: float):
        """Sort one probe flow's missing datagrams by cause.

        Returns ``(outages, unexpected)``: ``outages`` holds one
        ``(round, seconds)`` per round that hit the flow — its longest
        receiver silence that began while the round's links were down,
        if longer than five intervals, minus the send interval (the
        paper's Fig. 10 number).
        A datagram is *expected* to be lost only while a round disturbs
        the fabric: from the failure until ``readopt_s`` after the
        recovery, when the ECMP groups have grown back. Every other
        missing datagram is ``unexpected``.
        """
        longest: dict[int, float] = {}
        unexpected = 0
        slack = 2 * interval
        windows = [(fail_at - slack, fail_at + self.down_s,
                    fail_at + self.down_s + self.readopt_s + slack)
                   for fail_at in fail_times]
        previous_t, previous_seq = None, -1
        for t, seq, _delay in arrivals:
            missing = seq - previous_seq - 1
            if missing > 0:
                gap_start = previous_t if previous_t is not None else 0.0
                for r, (begin, recover_at, end) in enumerate(windows):
                    if begin <= gap_start and t <= end:
                        if gap_start < recover_at:
                            longest[r] = max(longest.get(r, 0.0),
                                             t - gap_start)
                        break
                else:
                    unexpected += missing
            previous_t, previous_seq = t, max(seq, previous_seq)
        outages = [(r, gap - interval) for r, gap in sorted(longest.items())
                   if gap > 5 * interval]
        # Silent to the end: the flow never recovered.
        unexpected += sent - 1 - previous_seq
        return outages, unexpected


WORKLOADS = {w.name: w for w in (
    Idle(
        name="idle_k16", k=16,
        why="cold bring-up of 320 switches and 1,024 hosts, then no "
            "traffic: only LDP keepalives, links and the event kernel work"),
    FrameShuffle(
        name="frame_shuffle_k8", k=8,
        why="128 TCP flows hop by hop: host TCP, link queues and the "
            "switch pipeline dominate, keepalives are a few percent"),
    FluidShuffle(
        name="fluid_shuffle_k8", k=8,
        why="384 concurrent fluid flows: few events, thousands of "
            "max-min recomputes, so the flow engine is nearly all the time"),
    FaultStorm(
        name="fault_storm_k8", k=8,
        why="silent link failures under CBR probes and an ARP storm: LDP "
            "as failure detector, agents and the fabric manager do real work"),
)}
