"""Span tracing for the ledger's traced run, installed from outside.

Nothing under ``src/`` knows about this module. The traced run swaps in
a :class:`TracingSimulator` (overriding only the public ``schedule`` /
``schedule_at`` of the untraced repeats' simulator) so every event opens a span named after the class that
owns its callback, and wraps each layer's public entry points so a call
that crosses a layer boundary opens a child span. Spans live on an
in-memory stack; when one closes, its duration is added to its parent's
child time and its *self* time (duration minus child time) to its name.
Per-layer numbers are sums over the names of that layer, so the layers'
self times partition the traced window exactly; whatever the window
spent outside every span is ``unattributed``.

Patching is process-wide and never undone: install it only in a worker
process that exits after one run.
"""

from __future__ import annotations

import sys
from time import perf_counter

from repro.sim.events import PRIORITY_NORMAL

from hostclock import HostClock, PacedSimulator

#: Module prefix → layer, most specific first. Layers are this repo's
#: modules under the names BENCHMARK.json uses for per-layer metrics.
#: Workload generators are host applications, so they count as ``host``.
LAYER_OF_MODULE = (
    ("repro.portland.ldp", "ldp"),
    ("repro.portland.agent", "agent"),
    ("repro.portland.messages", "codec"),
    ("repro.portland.switch", "switching"),
    ("repro.portland", "fm"),
    ("repro.switching", "switching"),
    ("repro.policy", "switching"),
    ("repro.net", "net"),
    ("repro.host", "host"),
    ("repro.workloads", "host"),
    ("repro.flows", "flows"),
    ("repro.sim", "sim"),
)

LAYERS = ("sim", "net", "switching", "ldp", "agent", "fm", "codec", "host",
          "flows")

#: Spans whose owner is none of the above: the ledger's own callbacks,
#: and ``topology`` / ``verify``, which run outside the traced window
#: and are timed directly.
HARNESS = "harness"


def layer_of_module(module: str | None) -> str:
    """The layer a dotted module name belongs to."""
    for prefix, layer in LAYER_OF_MODULE:
        if module == prefix or (module or "").startswith(prefix + "."):
            return layer
    return HARNESS


class Tracer:
    """Span stack plus per-name aggregates."""

    def __init__(self) -> None:
        self.names: list[str] = ["<window>"]
        self.layers: list[str] = [HARNESS]
        self.self_s: list[float] = [0.0]
        self.calls: list[int] = [0]
        #: (parent name index, child name index) -> [calls, total seconds]
        self.edges: dict[tuple[int, int], list] = {}
        # Frame 0 is the traced window itself: its child time is what
        # the spans covered, the rest of the window is unattributed.
        self._child_s: list[float] = [0.0]
        self._open: list[int] = [0]
        self._index: dict[str, int] = {}
        self._by_class: dict[type, int] = {}

    # ------------------------------------------------------------------
    # Names

    def name_index(self, name: str, layer: str) -> int:
        index = self._index.get(name)
        if index is None:
            index = self._index[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
            self.self_s.append(0.0)
            self.calls.append(0)
        return index

    def owner_index(self, callback) -> int:
        """Span name for an event: the class owning its callback.

        ``sim.process`` timers fire on behalf of whoever built them, so
        they carry the owner recorded when they were constructed.
        """
        owner = getattr(callback, "__self__", None)
        if owner is None:
            module = getattr(callback, "__module__", None)
            label = getattr(callback, "__qualname__", repr(callback))
            return self.name_index(f"{label} (event)", layer_of_module(module))
        index = getattr(owner, "ledger_owner", None)
        if index is not None:
            return index
        cls = owner.__class__
        index = self._by_class.get(cls)
        if index is None:
            index = self._by_class[cls] = self.name_index(
                f"{cls.__name__} (event)", layer_of_module(cls.__module__))
        return index

    # ------------------------------------------------------------------
    # Spans

    def run_event(self, index: int, callback, args) -> None:
        """Execute one simulator event inside a span."""
        child_s = self._child_s
        opened = self._open
        parent = opened[-1]
        opened.append(index)
        child_s.append(0.0)
        start = perf_counter()
        try:
            callback(*args)
        finally:
            duration = perf_counter() - start
            self.self_s[index] += duration - child_s.pop()
            self.calls[index] += 1
            opened.pop()
            child_s[-1] += duration
            edge = self.edges.get((parent, index))
            if edge is None:
                self.edges[(parent, index)] = [1, duration]
            else:
                edge[0] += 1
                edge[1] += duration

    def wrap(self, function, name: str, layer: str):
        """``function`` with a span of this name around every call."""
        index = self.name_index(name, layer)
        child_s = self._child_s
        opened = self._open
        self_s = self.self_s
        calls = self.calls
        edges = self.edges

        def traced(*args, **kwargs):
            # Same bookkeeping as run_event, inlined: these wrappers sit
            # on the per-frame path and a second call would double their
            # cost.
            parent = opened[-1]
            opened.append(index)
            child_s.append(0.0)
            start = perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                self_s[index] += duration - child_s.pop()
                calls[index] += 1
                opened.pop()
                child_s[-1] += duration
                edge = edges.get((parent, index))
                if edge is None:
                    edges[(parent, index)] = [1, duration]
                else:
                    edge[0] += 1
                    edge[1] += duration

        traced.__wrapped__ = function
        traced.__name__ = getattr(function, "__name__", name)
        traced.__qualname__ = getattr(function, "__qualname__", name)
        traced.__module__ = getattr(function, "__module__", None)
        return traced

    def reset(self) -> None:
        """Start a fresh traced window (call with no span open)."""
        if len(self._open) != 1:
            raise RuntimeError("tracer reset inside an open span")
        # In place: the wrappers hold references to these containers.
        self.self_s[:] = [0.0] * len(self.names)
        self.calls[:] = [0] * len(self.names)
        self.edges.clear()
        self._child_s[:] = [0.0]

    def snapshot(self, window_s: float, scale: float) -> dict:
        """Aggregates of the window that just ended, ``window_s`` long,
        every time in them multiplied by ``scale``."""
        if len(self._open) != 1:
            raise RuntimeError("tracer snapshot inside an open span")
        by_layer = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
        by_layer[HARNESS] = {"self_s": 0.0, "calls": 0}
        spans = {}
        for name, layer, self_s, calls in zip(self.names, self.layers,
                                              self.self_s, self.calls):
            if not calls:
                continue
            self_s *= scale
            by_layer[layer]["self_s"] += self_s
            by_layer[layer]["calls"] += calls
            spans[name] = {"layer": layer, "self_s": self_s, "calls": calls}
        edges = [
            {"parent": self.names[parent], "child": self.names[child],
             "calls": calls, "total_s": total_s * scale}
            for (parent, child), (calls, total_s) in self.edges.items()
        ]
        edges.sort(key=lambda edge: -edge["total_s"])
        window_s *= scale
        covered = self._child_s[0] * scale
        return {
            "window_s": window_s,
            # Outside every span, plus spans owned by no layer.
            "unattributed_s": (window_s - covered
                               + by_layer[HARNESS]["self_s"]),
            "layers": {layer: by_layer[layer] for layer in LAYERS},
            "spans": spans,
            "edges": edges,
        }


class TracingSimulator(PacedSimulator):
    """A simulator whose every event runs inside a span of its owner."""

    def __init__(self, seed: int, clock: HostClock, slice_s: float,
                 tracer: Tracer) -> None:
        super().__init__(seed, clock, slice_s)
        self._tracer = tracer

    def schedule(self, delay, callback, *args, priority=PRIORITY_NORMAL):
        tracer = self._tracer
        return super().schedule(delay, tracer.run_event,
                                tracer.owner_index(callback), callback, args,
                                priority=priority)

    def schedule_at(self, time, callback, *args, priority=PRIORITY_NORMAL):
        tracer = self._tracer
        return super().schedule_at(time, tracer.run_event,
                                   tracer.owner_index(callback), callback,
                                   args, priority=priority)


#: (module, class or None, attribute): the public entry point of each
#: layer that another layer calls directly (not through an event).
ENTRY_POINTS = (
    ("repro.sim.simulator", "Simulator", "run"),
    ("repro.net.link", "Link", "transmit"),
    ("repro.portland.switch", "PortlandSwitch", "receive"),
    ("repro.host.host", "Host", "receive"),
    ("repro.host.tcp.stack", "TcpStack", "deliver"),
    ("repro.portland.ldp", "LdpProcess", "on_frame"),
    ("repro.portland.agent", "PortlandAgent", "on_packet_in"),
    ("repro.portland.fabric_manager", "FabricManager", "receive"),
    ("repro.portland.faults", None, "compute_overrides"),
    ("repro.portland.messages", None, "decode_fabric"),
    ("repro.portland.messages", None, "decode_ldp"),
    # Fabric-manager messages are sized by encoding them: this is where
    # the codec runs when frames travel as objects.
    ("repro.portland.messages", "FmMessage", "wire_length"),
    ("repro.flows.engine", "FlowEngine", "start_flow"),
    ("repro.flows.engine", None, "max_min_allocate"),
)


def install(tracer: Tracer) -> None:
    """Wrap every entry point, and make timers remember their owner."""
    import importlib

    for module_name, class_name, attribute in ENTRY_POINTS:
        module = importlib.import_module(module_name)
        layer = layer_of_module(module_name)
        if class_name is not None:
            cls = getattr(module, class_name)
            name = f"{class_name}.{attribute}"
            setattr(cls, attribute,
                    tracer.wrap(getattr(cls, attribute), name, layer))
            continue
        original = getattr(module, attribute)
        traced = tracer.wrap(original, f"{module_name.rsplit('.', 1)[1]}."
                                       f"{attribute}", layer)
        # ``from module import function`` copied the reference into the
        # importers' namespaces; replace it there too.
        for other in list(sys.modules.values()):
            if getattr(other, "__name__", "").startswith("repro"):
                for key, value in list(vars(other).items()):
                    if value is original:
                        setattr(other, key, traced)

    from repro.sim import process

    for cls in (process.Timer, process.PeriodicTask):
        cls.__init__ = _remember_owner(cls.__init__, tracer)


def _remember_owner(init, tracer: Tracer):
    def __init__(self, sim, *args, **kwargs):
        init(self, sim, *args, **kwargs)
        # Timer(sim, callback, ...), PeriodicTask(sim, period, callback, ...)
        callback = kwargs.get("callback")
        if callback is None:
            callback = next(arg for arg in args if callable(arg))
        self.ledger_owner = tracer.owner_index(callback)

    return __init__
