"""The ledger's spans still see what they wrap.

``ledger/tracing.py`` times a layer by wrapping the entry points named
in its ``ENTRY_POINTS``, by name, from outside ``src/``. A rename makes
that fail loudly; an inlined fast path does not: the wrapped function
is simply no longer called, and its span reads 0 (the way
``fm.recompute_self_s`` went to 0 once the override computer stopped
calling ``compute_overrides``). These tests read ``ledger/`` and change
nothing there.
"""

import importlib
from pathlib import Path

from repro.flows import engine
from tests.flows.shuffle_k4 import run_shuffle

LEDGER = Path(__file__).resolve().parents[2] / "ledger"


def test_every_entry_point_resolves_to_a_callable(monkeypatch):
    monkeypatch.syspath_prepend(str(LEDGER))
    tracing = importlib.import_module("tracing")
    assert tracing.ENTRY_POINTS
    for module_name, class_name, attribute in tracing.ENTRY_POINTS:
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name)
        assert callable(getattr(owner, attribute, None)), (
            module_name, class_name, attribute)


def test_every_routed_refill_allocates_through_the_module_global(
        monkeypatch):
    """``flows.allocate_self_s`` is the self time of
    ``repro.flows.engine.max_min_allocate`` as the module global: every
    refill that has a routed flow to rate must call it there."""
    calls = {"allocate": 0, "routed_fills": 0}
    allocate = engine.max_min_allocate
    fill = engine.FlowEngine._fill

    def counted_allocate(*args, **kwargs):
        calls["allocate"] += 1
        return allocate(*args, **kwargs)

    def counted_fill(self, component, now):
        if any(flow._path is not None for flow in component):
            calls["routed_fills"] += 1
        return fill(self, component, now)

    monkeypatch.setattr(engine, "max_min_allocate", counted_allocate)
    monkeypatch.setattr(engine.FlowEngine, "_fill", counted_fill)
    run_shuffle(permutations=1)
    assert calls["routed_fills"] > 0
    assert calls["allocate"] >= calls["routed_fills"]
