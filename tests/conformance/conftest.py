"""The ``fabric_backend`` fixture: one knob, every topology backend.

Each parametrization is a :class:`FabricBackend` — a named (backend,
scale) pair that builds converged fabrics on demand, so one test body
runs unchanged against the classic fat tree, a seeded Jellyfish RRG,
and a generated two-level fat tree. That is the conformance claim of
``docs/TOPOLOGIES.md``: the mechanism half of the stack (tables,
caches, fluid engine, oracle) never branches on what fabric it's in.

Tier-1 runs the small smoke scales; the larger matrix is marked
``topo`` and runs via ``make test-topo`` (or ``pytest -m topo``).
"""

from __future__ import annotations

import pytest

from repro.sim import Simulator
from repro.topology import build_portland_fabric
from repro.topology.jellyfish import build_jellyfish
from repro.topology.scheme import JellyfishScheme, TwoLayerFatTreeScheme
from repro.topology.twolayer import build_twolayer


class FabricBackend:
    """A topology backend at a fixed scale, buildable on demand."""

    def __init__(self, name: str, scheme_factory, k: int = 4) -> None:
        self.name = name
        self._scheme_factory = scheme_factory
        self.k = k

    def build(self, seed: int = 1, config=None):
        """A wired (not yet started) fabric."""
        sim = Simulator(seed=seed)
        return build_portland_fabric(sim, k=self.k, config=config,
                                     scheme=self._scheme_factory())

    def converged(self, seed: int = 1, config=None):
        """A started fabric, run to full discovery + host registration."""
        fabric = self.build(seed=seed, config=config)
        fabric.start()
        fabric.run_until_located()
        fabric.announce_hosts()
        fabric.run_until_registered()
        return fabric


def _fattree():
    return None  # the builder resolves an omitted scheme to FatTreeScheme


def _jellyfish(num_switches: int, degree: int, hosts: int, seed: int):
    def make():
        return JellyfishScheme(build_jellyfish(
            num_switches, degree, hosts_per_switch=hosts, seed=seed,
            spare_host_ports=1))
    return make


def _twolayer(leaves: int, spines: int, hosts: int):
    def make():
        return TwoLayerFatTreeScheme(build_twolayer(
            leaves=leaves, spines=spines, hosts_per_leaf=hosts,
            spare_host_ports=1))
    return make


#: Tier-1 smoke scales: small enough that the whole matrix stays cheap.
SMOKE = [
    FabricBackend("fattree-k4", _fattree, k=4),
    FabricBackend("jellyfish-8x3", _jellyfish(8, 3, 1, 42)),
    FabricBackend("twolayer-4x2", _twolayer(4, 2, 2)),
]

#: Larger instances of the same backends, behind the ``topo`` marker.
FULL = [
    FabricBackend("fattree-k6", _fattree, k=6),
    FabricBackend("jellyfish-16x4", _jellyfish(16, 4, 1, 7)),
    FabricBackend("twolayer-6x3", _twolayer(6, 3, 2)),
]

PARAMS = [pytest.param(backend, id=backend.name) for backend in SMOKE] + [
    pytest.param(backend, id=backend.name, marks=pytest.mark.topo)
    for backend in FULL
]


@pytest.fixture(params=PARAMS)
def fabric_backend(request) -> FabricBackend:
    return request.param
