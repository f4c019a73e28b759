"""What a fabric holds: per-switch state stays O(k) objects, not O(k)
objects plus the machinery for paths nobody takes.

networkx is loaded only by the code that runs graph algorithms
(Jellyfish, ``enumerate_paths``, ``validate.py``); ports, links, flow
entries and matches carry no instance ``__dict__``; a link direction
builds its FIFO only when a frame first has to wait.
"""

import gc
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import pytest

from repro.net.link import Link, Port
from repro.sim import Simulator
from repro.switching.flow_table import FlowEntry, Match
from repro.topology import build_portland_fabric

SRC = Path(__file__).resolve().parent.parent / "src"

#: Traced heap held by a k=4 fabric after bring-up: 586 KiB when the
#: ceiling was set (710 KiB with a deque per link direction), plus 10 %.
HEAP_CEILING_KIB = 645


@pytest.mark.parametrize("backend", ["fattree", "twolayer"])
def test_tree_fabrics_never_import_networkx(backend):
    script = textwrap.dedent(f"""
        import sys
        import repro
        from repro.sim import Simulator
        from repro.topology import build_portland_fabric
        from repro.topology.scheme import scheme_for_backend
        from repro.verify.oracle import InvariantOracle

        fabric = build_portland_fabric(
            Simulator(seed=1), scheme=scheme_for_backend({backend!r}, k=4))
        fabric.bring_up()
        assert InvariantOracle(fabric, track_hops=False).check_now() == []
        assert "networkx" not in sys.modules
    """)
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(SRC)},
                          timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]


def _bring_up():
    fabric = build_portland_fabric(Simulator(seed=1), k=4)
    fabric.bring_up()
    return fabric


def _links(fabric):
    nodes = [*fabric.switches.values(), *fabric.hosts.values()]
    return {port.link for node in nodes for port in node.ports
            if port.link is not None}


def test_fabric_objects_are_slotted_and_queues_are_built_on_demand():
    fabric = build_portland_fabric(Simulator(seed=1), k=4)
    links = _links(fabric)
    assert links and not any(direction.queue is not None for link in links
                             for direction in link._directions)
    fabric.bring_up()
    ports = [port for node in fabric.switches.values() for port in node.ports]
    entries = [entry for switch in fabric.switches.values()
               for entry in switch.table]
    objects = [*ports, *_links(fabric), *entries,
               *(entry.match for entry in entries)]
    assert {type(o) for o in objects} == {Port, Link, FlowEntry, Match}
    assert not any(hasattr(o, "__dict__") for o in objects)


def test_k4_bring_up_heap_stays_under_its_ceiling():
    _bring_up()  # first-use imports and caches are not the fabric's
    gc.collect()
    tracemalloc.start()
    try:
        fabric = _bring_up()
        gc.collect()
        held_kib = tracemalloc.get_traced_memory()[0] / 1024
    finally:
        tracemalloc.stop()
    assert fabric.all_hosts_registered()
    assert held_kib < HEAP_CEILING_KIB
