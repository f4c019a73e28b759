"""Measurement primitives: time series, rate meters, percentiles.

These are deliberately simulator-agnostic (they take explicit timestamps)
so the same classes serve unit tests, metrics collectors subscribed to
the trace bus, and the benchmark harnesses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class TimeSeries:
    """Append-only ``(time, value)`` samples."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.times: list[float] = []
        self.values: list[float] = []

    def __len__(self) -> int:
        return len(self.times)

    def record(self, time: float, value: float) -> None:
        """Append one sample; times must be non-decreasing."""
        if self.times and time < self.times[-1]:
            raise ValueError(
                f"time series {self.name!r}: sample at {time} before last {self.times[-1]}"
            )
        self.times.append(time)
        self.values.append(value)


class RateMeter:
    """Buckets event occurrences into fixed-width bins → events/sec series.

    Used for throughput timelines (Figs. 11–13): record a delivery of
    ``nbytes`` at time ``t``; read back goodput per bin.
    """

    def __init__(self, bin_width: float, name: str = "") -> None:
        if bin_width <= 0:
            raise ValueError(f"bin_width must be positive, got {bin_width}")
        self.bin_width = bin_width
        self.name = name
        self._bins: dict[int, int] = {}
        self._byte_bins: dict[int, int] = {}

    def record(self, time: float, nbytes: int = 0) -> None:
        """Count one event (and optionally its payload size) at ``time``."""
        idx = int(time / self.bin_width)
        self._bins[idx] = self._bins.get(idx, 0) + 1
        if nbytes:
            self._byte_bins[idx] = self._byte_bins.get(idx, 0) + nbytes

    def series(
        self, start: float = 0.0, end: float | None = None, bytes_per_sec: bool = False
    ) -> list[tuple[float, float]]:
        """``(bin_start_time, rate)`` for every bin in [start, end).

        Empty bins are emitted as zeros so gaps (outages) are visible.
        """
        bins = self._byte_bins if bytes_per_sec else self._bins
        if not bins and end is None:
            return []
        last = max(bins) if bins else 0
        first = int(start / self.bin_width)
        stop = last + 1 if end is None else int(math.ceil(end / self.bin_width))
        return [
            (idx * self.bin_width, bins.get(idx, 0) / self.bin_width)
            for idx in range(first, stop)
        ]

    def total(self) -> int:
        """Total events recorded."""
        return sum(self._bins.values())

    def total_bytes(self) -> int:
        """Total bytes recorded."""
        return sum(self._byte_bins.values())


@dataclass(frozen=True)
class SummaryStats:
    """Five-number-ish summary of a sample set."""

    count: int
    mean: float
    minimum: float
    maximum: float
    p50: float
    p95: float
    p99: float


def _is_sorted(samples: list[float]) -> bool:
    return all(a <= b for a, b in zip(samples, samples[1:]))


def percentile(samples: list[float], fraction: float) -> float:
    """Linear-interpolated percentile of a sample list.

    Callers that already hold sorted data (``summarize`` sorts once and
    queries three percentiles) pay only an O(n) sortedness check;
    unsorted input is sorted into a copy rather than silently producing
    a wrong answer, which is what interpolating over an unsorted list
    used to do.
    """
    if not samples:
        raise ValueError("percentile of empty sample set")
    if len(samples) == 1:
        return samples[0]
    sorted_samples = samples if _is_sorted(samples) else sorted(samples)
    rank = fraction * (len(sorted_samples) - 1)
    lo = int(math.floor(rank))
    hi = int(math.ceil(rank))
    low_value = sorted_samples[lo]
    high_value = sorted_samples[hi]
    if lo == hi or low_value == high_value:
        return low_value
    weight = rank - lo
    # a + w*(b-a) is guaranteed to stay within [a, b] for w in [0, 1].
    return low_value + weight * (high_value - low_value)


def summarize(samples: list[float]) -> SummaryStats:
    """Compute a :class:`SummaryStats` over ``samples``."""
    if not samples:
        raise ValueError("cannot summarize an empty sample set")
    ordered = sorted(samples)
    # Clamp the mean into [min, max]: float summation can otherwise land
    # one ULP outside the sample range.
    mean = min(max(math.fsum(ordered) / len(ordered), ordered[0]), ordered[-1])
    return SummaryStats(
        count=len(ordered),
        mean=mean,
        minimum=ordered[0],
        maximum=ordered[-1],
        p50=percentile(ordered, 0.50),
        p95=percentile(ordered, 0.95),
        p99=percentile(ordered, 0.99),
    )
