"""Bring-up, pinned: LDP must reach the same decisions at the same
instants, with the same events and frames.

Changes that make bring-up cheaper (level classification, stream
refusal, table derivation) must leave the simulation alone. A stream
opened one beacon later, or a location decided one LDM earlier, moves
the event count, the frames on the wire or an instant here, although
every switch still ends up located. The values were recorded before
those changes and must not move.
"""

import hashlib

import pytest

from repro.sim import Simulator
from repro.topology import build_portland_fabric

#: (k, seed) -> (events when every switch is located, events when every
#: host is registered, run_until_located, run_until_registered, the last
#: ``ldp.located`` instant, digest of every switch's (name, level, pod,
#: position), frames transmitted fabric-wide).
PINNED = {
    (4, 31): (1780, 1968, 0.1, 0.12000000000000001, 0.08100295579861806,
              "8344ce140a022350", 974),
    (4, 97): (1779, 1978, 0.1, 0.12000000000000001, 0.08629727600722843,
              "50c660732db1191b", 997),
    (8, 31): (10146, 11502, 0.08, 0.1, 0.07739311613011503,
              "0cc4eeed9ea2486f", 6679),
    (8, 97): (10383, 11563, 0.08, 0.1, 0.07461941016888499,
              "dadd764163853138", 6786),
}


@pytest.mark.parametrize("k, seed", sorted(PINNED))
def test_bring_up_is_pinned(k, seed):
    sim = Simulator(seed=seed)
    fabric = build_portland_fabric(sim, k=k)
    located = []
    sim.trace.subscribe("ldp.located", lambda record: located.append(record.time))
    fabric.start()
    located_at = fabric.run_until_located()
    located_events = sim.events_executed
    fabric.announce_hosts()
    registered_at = fabric.run_until_registered()
    locations = sorted((name, agent.ldp.level.name, agent.ldp.pod,
                        agent.ldp.position)
                       for name, agent in fabric.agents.items())
    nodes = [*fabric.switches.values(), *fabric.hosts.values(),
             fabric.fabric_manager]
    tx_frames = sum(port.counters.tx_frames
                    for node in nodes for port in node.ports)
    digest = hashlib.sha256(repr(locations).encode()).hexdigest()[:16]
    assert (located_events, sim.events_executed, located_at, registered_at,
            max(located), digest, tx_frames) == PINNED[(k, seed)], locations
