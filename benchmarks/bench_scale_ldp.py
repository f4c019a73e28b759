"""Scalability sweep — bring-up and state vs. fabric size (§5 claims).

The paper argues PortLand's mechanisms scale because discovery is
local, forwarding state is O(k), and the only central component does
O(1) work per event. This sweep grows the fat tree and measures all
three on live fabrics.
"""

from common import print_header, run_once, save_results

from repro import Simulator, build_portland_fabric
from repro.metrics.tables import format_table


def measure(k: int, seed: int):
    sim = Simulator(seed=seed)
    fabric = build_portland_fabric(sim, k=k)
    located, registered = fabric.bring_up(timeout_s=10.0)
    max_state = max(len(s.table) + len(s.rewrite_table)
                    for s in fabric.switches.values())
    fm = fabric.fabric_manager
    return {
        "k": k,
        "switches": len(fabric.switches),
        "hosts": len(fabric.hosts),
        "located_ms": located * 1000,
        "registered_ms": registered * 1000,
        "max_state": max_state,
        "fm_messages": fm.messages_received,
    }


def test_scale_sweep(benchmark):
    results = []

    def run():
        for k, seed in ((4, 11), (6, 12), (8, 13), (10, 14)):
            results.append(measure(k, seed))

    run_once(benchmark, run)

    print_header("SCALABILITY - zero-config bring-up and per-switch state "
                 "vs fabric size")
    print(format_table(
        ["k", "switches", "hosts", "LDP converged (ms)",
         "hosts registered (ms)", "max fwd entries/switch",
         "FM messages during bring-up"],
        [[r["k"], r["switches"], r["hosts"], f"{r['located_ms']:.0f}",
          f"{r['registered_ms']:.0f}", r["max_state"], r["fm_messages"]]
         for r in results],
    ))
    print("\nclaims: discovery time is O(1) in fabric size (local"
          " exchanges), state is O(k), and fabric-manager load during"
          " bring-up is O(#switches + #hosts).")

    save_results("scale_ldp", {"results": results})
    # Discovery time must not grow with the fabric (same timers dominate).
    times = [r["located_ms"] for r in results]
    assert max(times) < 3 * min(times)
    assert max(times) < 500
    # State grows like k, not like hosts (hosts grow ~15x across sweep).
    small, large = results[0], results[-1]
    host_growth = large["hosts"] / small["hosts"]
    state_growth = large["max_state"] / small["max_state"]
    assert state_growth < host_growth / 3
    # FM bring-up load is roughly linear in fabric size, not quadratic.
    msg_growth = large["fm_messages"] / small["fm_messages"]
    element_growth = ((large["switches"] + large["hosts"])
                      / (small["switches"] + small["hosts"]))
    assert msg_growth < 3 * element_growth
