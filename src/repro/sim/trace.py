"""Lightweight publish/subscribe trace bus for simulation events.

Components emit trace records (packet drops, link failures, flow-table
changes, control messages) under a *category* string; metrics collectors
and tests subscribe to the categories they care about. When nobody is
subscribed to a category, emitting costs one dict lookup — cheap enough
to leave tracing statements in hot paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

TraceHandler = Callable[["TraceRecord"], None]


@dataclass(frozen=True)
class TraceRecord:
    """One trace emission.

    Attributes:
        time: Simulated time of the emission.
        category: Dot-separated category, e.g. ``"link.drop"``.
        source: Name of the emitting component (node/link name).
        detail: Free-form payload fields.
    """

    time: float
    category: str
    source: str
    detail: dict[str, Any] = field(default_factory=dict)


class TraceBus:
    """Routes :class:`TraceRecord` objects to subscribed handlers.

    Subscriptions match exact categories or prefixes: a handler subscribed
    to ``"link"`` receives ``"link.drop"`` and ``"link.fail"`` records. The
    wildcard category ``"*"`` receives everything.
    """

    def __init__(self) -> None:
        self._handlers: dict[str, list[TraceHandler]] = {}
        self._any_handlers: list[TraceHandler] = []
        # category -> whether any handler would receive it, as answered
        # since the subscriptions last changed.
        self._wanted: dict[str, bool] = {}
        #: ``wants("verify.hop")``, resolved whenever the subscriptions
        #: change: the one question the switch pipeline asks per frame.
        self.hop_wanted = False

    def subscribe(self, category: str, handler: TraceHandler) -> None:
        """Register ``handler`` for ``category`` (or ``"*"`` for all)."""
        if category == "*":
            self._any_handlers.append(handler)
        else:
            self._handlers.setdefault(category, []).append(handler)
        self._resolve()

    def unsubscribe(self, category: str, handler: TraceHandler) -> None:
        """Remove a previously registered handler. Missing ones are ignored."""
        handlers = (self._any_handlers if category == "*"
                    else self._handlers.get(category, []))
        if handler in handlers:
            handlers.remove(handler)
        if not handlers:
            # So that the last handler leaving really turns the category
            # off again (and emit goes back to its one-lookup fast path).
            self._handlers.pop(category, None)
        self._resolve()

    def _resolve(self) -> None:
        self._wanted.clear()
        self.hop_wanted = self.wants("verify.hop")

    def wants(self, category: str) -> bool:
        """Whether emitting ``category`` would reach any handler (to a
        first approximation: whether anything under its top-level prefix
        is subscribed).

        Lets callers skip building expensive detail dicts when tracing is
        off: ``if bus.wants("link.drop"): bus.emit(...)``.
        """
        wanted = self._wanted.get(category)
        if wanted is None:
            prefix = category.split(".", 1)[0]
            wanted = self._wanted[category] = bool(self._any_handlers) or any(
                key.split(".", 1)[0] == prefix for key in self._handlers)
        return wanted

    def emit(
        self,
        time: float,
        category: str,
        source: str,
        **detail: Any,
    ) -> None:
        """Publish a record to all handlers matching ``category``."""
        if not self.wants(category):
            return
        record = TraceRecord(time=time, category=category, source=source, detail=detail)
        for handler in self._any_handlers:
            handler(record)
        # Deliver to the exact category and every dotted prefix of it.
        part = category
        while True:
            for handler in self._handlers.get(part, ()):
                handler(record)
            cut = part.rfind(".")
            if cut < 0:
                break
            part = part[:cut]


class TraceCollector:
    """Convenience subscriber that accumulates records into a list."""

    def __init__(self, bus: TraceBus, category: str) -> None:
        self.records: list[TraceRecord] = []
        self._bus = bus
        self._category = category
        self._handler: TraceHandler | None = self.records.append
        bus.subscribe(category, self._handler)

    def close(self) -> None:
        """Detach from the bus (keeps the collected records). Idempotent."""
        if self._handler is not None:
            self._bus.unsubscribe(self._category, self._handler)
            self._handler = None

    def __len__(self) -> int:
        return len(self.records)

    def times(self) -> list[float]:
        """Emission times, in order."""
        return [record.time for record in self.records]
