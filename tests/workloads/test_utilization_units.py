"""Unit tests for link-utilization accounting (synthetic data)."""

from repro.metrics.utilization import snapshot
from repro.net.link import PortCounters


class _FakeEnd:
    def __init__(self):
        self.counters = PortCounters()


class _FakeLink:
    """Just enough of Link for the counter-summation helpers."""

    def __init__(self, a_name, b_name):
        self.name = f"{a_name}<->{b_name}"
        self.a = _FakeEnd()
        self.b = _FakeEnd()

    def tx(self, end, frames, nbytes):
        end.counters.tx_frames += frames
        end.counters.tx_bytes += nbytes


def test_snapshot_roundtrip_is_zero_delta():
    link = _FakeLink("host-p0-e0-0", "edge-p0-s0")
    link.tx(link.a, 3, 300)
    link.tx(link.b, 1, 100)
    links = {("host-p0-e0-0", "edge-p0-s0"): link}
    base = snapshot(links)
    assert base[("host-p0-e0-0", "edge-p0-s0")] == (400, 4)
    assert snapshot(links) == base
