#!/usr/bin/env python3
"""Scalability demo: the same zero-config bring-up from 16 to 250 hosts.

Grows the fat tree and shows the paper's three scaling claims live:
discovery time stays flat (LDP is purely local), per-switch state grows
with k (not with hosts), and the fabric manager's bring-up load grows
linearly with fabric size.

Run:  python examples/scalability.py
"""

from repro import Simulator, build_portland_fabric
from repro.metrics.tables import format_table


def main() -> None:
    rows = []
    for k in (4, 6, 8, 10):
        sim = Simulator(seed=k)
        fabric = build_portland_fabric(sim, k=k)
        located, _registered = fabric.bring_up(timeout_s=10.0)
        flat_l2_equivalent = len(fabric.hosts)  # MAC entries a bridge needs
        max_state = max(len(s.table) + len(s.rewrite_table)
                        for s in fabric.switches.values())
        rows.append([
            k,
            len(fabric.switches),
            len(fabric.hosts),
            f"{located * 1000:.0f} ms",
            max_state,
            flat_l2_equivalent,
        ])
        print(f"k={k}: done ({len(fabric.switches)} switches,"
              f" {len(fabric.hosts)} hosts)")

    print()
    print(format_table(
        ["k", "switches", "hosts", "LDP bring-up",
         "PortLand max entries/switch", "flat-L2 entries/switch"],
        rows,
        title="zero-configuration bring-up at increasing scale",
    ))
    print("\ndiscovery time is constant (timers, not size, dominate);"
          "\nPortLand state tracks k while a flat-L2 bridge tracks hosts.")


if __name__ == "__main__":
    main()
