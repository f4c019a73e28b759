"""Measurement and reporting helpers."""

from repro.metrics.convergence import (
    FlowOutage,
    convergence_time,
    mean_affected_outage,
    measure_outages,
)
from repro.metrics.tables import format_series, format_table

__all__ = [
    "FlowOutage",
    "convergence_time",
    "format_series",
    "format_table",
    "mean_affected_outage",
    "measure_outages",
]

from repro.metrics.utilization import (
    class_drop_totals,
    class_totals,
    snapshot,
)

__all__ += ["class_drop_totals", "class_totals", "snapshot"]
