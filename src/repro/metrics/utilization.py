"""Link-utilization accounting from port counters.

Answers "where did the bytes go?" for any fabric: per-link byte and
frame counts (:func:`snapshot`; diff two to measure a window) and the
bytes and drops of each traffic class.

Port counters include fluid-flow charges: in flow mode
(``docs/FLOWS.md``) the engine charges the counters frames charge at
every hop, at every settlement — so these aggregates stay accurate in
every execution mode even though no per-hop link events ran for a
fluid flow.
"""

from __future__ import annotations

from repro.net.link import Link


def _link_totals(link: Link) -> tuple[int, int]:
    """(bytes, frames) transmitted on ``link``, both directions summed."""
    return (link.a.counters.tx_bytes + link.b.counters.tx_bytes,
            link.a.counters.tx_frames + link.b.counters.tx_frames)


def snapshot(links: dict[tuple[str, str], Link]) -> dict[tuple[str, str], tuple[int, int]]:
    """Capture (bytes, frames) per link — diff two snapshots to measure
    a window."""
    return {key: _link_totals(link) for key, link in links.items()}


def class_totals(links: dict[tuple[str, str], Link]) -> dict[int, int]:
    """Bytes transmitted per traffic class, both directions of every
    link summed.

    Classes come from the strict-priority egress queues (see
    ``docs/POLICY.md``). Links only meter classed (tclass > 0) frames —
    the default path stays counter-free — so class 0 here is the
    *residual*: total transmitted bytes minus the classed sum (it also
    absorbs fluid-charged and compiled-launch bytes, which are always
    best-effort). Counters are cumulative — snapshot and diff (like
    :func:`snapshot`) to measure a window.
    """
    totals: dict[int, int] = {0: 0}
    for link in links.values():
        for port in (link.a, link.b):
            classed = 0
            for tclass, nbytes in link.class_tx_bytes(port).items():
                totals[tclass] = totals.get(tclass, 0) + nbytes
                classed += nbytes
            totals[0] += port.counters.tx_bytes - classed
    return totals


def class_drop_totals(links: dict[tuple[str, str], Link]) -> dict[int, int]:
    """Drop-tail frame drops per traffic class across every link.

    Under strict priority, drops concentrating in class 0 while class 1
    stays clean is the expected signature of priority protection; drops
    in the top class mean the priority traffic alone oversubscribes the
    port.
    """
    totals: dict[int, int] = {}
    for link in links.values():
        for port in (link.a, link.b):
            for tclass, count in link.class_drops(port).items():
                totals[tclass] = totals.get(tclass, 0) + count
    return totals
