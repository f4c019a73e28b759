#!/usr/bin/env python3
"""Capture simulated traffic to a Wireshark-readable pcap file.

Taps a host and its edge switch, runs a ping plus a short TCP burst,
and writes everything they receive — real Ethernet/ARP/IPv4/TCP bytes,
not a transcript — to ``portland.pcap``.

Run:  python examples/packet_capture.py
      wireshark portland.pcap       # or: tcpdump -r portland.pcap
"""

from repro import Simulator, build_portland_fabric
from repro.host.apps import TcpBulkSender, TcpSink, UdpEchoServer, UdpPinger
from repro.net.pcap import PcapTap, read_pcap_headers

OUTPUT = "portland.pcap"


def main() -> None:
    sim = Simulator(seed=9)
    fabric = build_portland_fabric(sim, k=4)
    fabric.bring_up()

    hosts = fabric.host_list()
    src, dst = hosts[0], hosts[13]
    tap = PcapTap(OUTPUT, [dst, fabric.switches["edge-p0-s0"]])

    UdpEchoServer(dst, 7)
    pinger = UdpPinger(src, dst.ip)
    pinger.ping()
    sim.run(until=sim.now + 0.05)

    sink = TcpSink(dst, 9000)
    TcpBulkSender(src, dst.ip, 9000, total_bytes=200_000)
    sim.run(until=sim.now + 0.2)
    tap.detach()

    records = read_pcap_headers(OUTPUT)
    total_bytes = sum(length for _t, length in records)
    print(f"wrote {OUTPUT}: {len(records)} frames, {total_bytes} bytes")
    print(f"time span: {records[0][0]:.6f}s .. {records[-1][0]:.6f}s (simulated)")
    print("\nframe-size histogram:")
    buckets = {"<= 64": 0, "65-199": 0, "200-1499": 0, ">= 1500": 0}
    for _t, length in records:
        if length <= 64:
            buckets["<= 64"] += 1
        elif length < 200:
            buckets["65-199"] += 1
        elif length < 1500:
            buckets["200-1499"] += 1
        else:
            buckets[">= 1500"] += 1
    for label, count in buckets.items():
        print(f"  {label:>9s}: {count}")
    print("\nopen it in Wireshark: the ARP request/reply pair shows the"
          " proxy-ARP PMAC, and the TCP stream decodes end to end.")


if __name__ == "__main__":
    main()
