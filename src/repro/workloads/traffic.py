"""Traffic-matrix generators and flow-set helpers for experiments."""

from __future__ import annotations

import random

from repro.host.apps.udp_stream import UdpStreamReceiver, UdpStreamSender
from repro.host.host import Host


def random_permutation_pairs(hosts: list[Host],
                             rng: random.Random) -> list[tuple[Host, Host]]:
    """A random permutation traffic matrix: every host sends to exactly
    one other host and receives from exactly one (no self-pairs)."""
    if len(hosts) < 2:
        return []
    receivers = hosts[:]
    # Sattolo's algorithm: a uniformly random cyclic permutation, which
    # guarantees no host maps to itself.
    for i in range(len(receivers) - 1, 0, -1):
        j = rng.randrange(i)
        receivers[i], receivers[j] = receivers[j], receivers[i]
    return list(zip(hosts, receivers))


def stride_pairs(hosts: list[Host], stride: int) -> list[tuple[Host, Host]]:
    """Stride traffic: host i sends to host (i + stride) mod N — with
    stride = hosts-per-pod this forces every flow inter-pod."""
    n = len(hosts)
    if n < 2:
        return []
    return [(hosts[i], hosts[(i + stride) % n]) for i in range(n)]


def inter_pod_pairs(hosts_by_pod: dict[int, list[Host]],
                    rng: random.Random,
                    flows: int) -> list[tuple[Host, Host]]:
    """Random sender/receiver pairs guaranteed to cross pods."""
    pods = [p for p, members in hosts_by_pod.items() if members]
    if len(pods) < 2:
        return []
    pairs = []
    for _ in range(flows):
        src_pod, dst_pod = rng.sample(pods, 2)
        pairs.append((rng.choice(hosts_by_pod[src_pod]),
                      rng.choice(hosts_by_pod[dst_pod])))
    return pairs


class UdpFlowSet:
    """A bundle of CBR UDP flows with their measuring receivers."""

    def __init__(self, pairs: list[tuple[Host, Host]], rate_pps: float = 1000.0,
                 payload_bytes: int = 64, base_port: int = 20000) -> None:
        self.flows: list[tuple[UdpStreamSender, UdpStreamReceiver]] = []
        for i, (src, dst) in enumerate(pairs):
            port = base_port + i
            receiver = UdpStreamReceiver(dst, port)
            sender = UdpStreamSender(src, dst.ip, port, rate_pps=rate_pps,
                                     payload_bytes=payload_bytes,
                                     flow_id=f"flow-{i}")
            self.flows.append((sender, receiver))

    def start(self, first_delay: float = 0.0, stagger: float = 0.0) -> None:
        """Start all senders (optionally staggered to avoid phase lock)."""
        for i, (sender, _receiver) in enumerate(self.flows):
            sender.start(first_delay + i * stagger)

    def stop(self) -> None:
        """Stop all senders."""
        for sender, _receiver in self.flows:
            sender.stop()

    def receivers(self) -> list[UdpStreamReceiver]:
        return [receiver for _sender, receiver in self.flows]
