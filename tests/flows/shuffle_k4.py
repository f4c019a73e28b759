"""The k=4 fluid permutation shuffle the refill tests share.

``run_shuffle`` drives it in-process; run as a script (``python
tests/flows/shuffle_k4.py [permutations]``, ``PYTHONPATH=src``) it
prints ``repr`` of everything a run decides — FCTs, every flow's
``rate_log``, the engine's ``stats()`` — so two processes can be
compared byte for byte.
"""

import random
import sys

from repro.portland.config import PortlandConfig
from repro.sim import Simulator
from repro.topology import build_portland_fabric
from repro.workloads.shuffle import FluidShuffleWorkload
from repro.workloads.traffic import random_permutation_pairs

SEED = 31
BYTES_PER_FLOW = 250_000
STAGGER_S = 10e-6


def flow_fabric(seed: int = SEED):
    """A converged, registered k=4 flow-mode fabric."""
    sim = Simulator(seed=seed)
    fabric = build_portland_fabric(sim, k=4,
                                   config=PortlandConfig(flow_mode=True))
    fabric.start()
    fabric.run_until_located()
    fabric.announce_hosts()
    fabric.run_until_registered()
    return fabric


def start_shuffle(permutations: int = 2, seed: int = SEED):
    """Start the shuffle on a fresh fabric; returns ``(fabric, shuffle)``."""
    fabric = flow_fabric(seed)
    rng = random.Random(seed)
    hosts = fabric.host_list()
    pairs = []
    for _ in range(permutations):
        pairs.extend(random_permutation_pairs(hosts, rng))
    shuffle = FluidShuffleWorkload(fabric, pairs=pairs,
                                   bytes_per_flow=BYTES_PER_FLOW,
                                   stagger_s=STAGGER_S)
    shuffle.start()
    return fabric, shuffle


def run_shuffle(permutations: int = 2, seed: int = SEED):
    """Run the shuffle to completion; returns ``(fabric, shuffle)``."""
    fabric, shuffle = start_shuffle(permutations, seed)
    shuffle.run_until_done(timeout_s=30.0)
    return fabric, shuffle


def observable(fabric, shuffle) -> tuple:
    """Everything the run decided, in admission order."""
    return ([flow.fct for flow in shuffle.flows],
            [flow.rate_log for flow in shuffle.flows],
            fabric.flow_engine.stats())


if __name__ == "__main__":
    print(repr(observable(*run_shuffle(int(sys.argv[1])
                                       if len(sys.argv) > 1 else 2))))
