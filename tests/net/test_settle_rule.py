"""One rule for what a link defers (docs/PERF.md, "Keepalive floor").

What a streamed direction owes — counters at both ends, wire occupancy,
the pending arrival, the receiver's stamps — is written in by
``Link.settle`` alone, and read or disturbed only through the ``Port``
and ``Link`` methods that call it. So nothing outside ``net/link.py``
touches the slots it writes, and nothing outside ``portland/ldp.py``
the neighbour stamps LDP keeps for it: a reader that skipped the rule
would read a stale value and nothing else would fail.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: Attribute names each module keeps to itself, by path under ``repro``.
OWNED = {
    "net/link.py": {"_counters", "_tx", "_enabled", "_directions",
                    "busy_until", "done_seq", "stream_log",
                    "stream_receiver", "stream_hear_delay", "stream_seen",
                    "stream_arrival"},
    "portland/ldp.py": {"_last_heard", "_heard_before", "_in_flight"},
}


def _trespasses(root: Path) -> list[str]:
    """Every attribute access, or ``getattr``-style string, naming a slot
    that a module other than its owner reaches for."""
    found = []
    for path in sorted(root.rglob("*.py")):
        module = path.relative_to(root).as_posix()
        banned = set().union(*(names for owner, names in OWNED.items()
                               if owner != module))
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.Constant):
                name = node.value
            else:
                continue
            if isinstance(name, str) and name in banned:
                found.append(f"{module}:{node.lineno}: {name}")
    return found


def test_deferred_link_state_is_reached_only_through_its_owner():
    assert _trespasses(SRC) == []


def test_the_rule_sees_a_trespass(tmp_path):
    (tmp_path / "net").mkdir()
    (tmp_path / "net" / "link.py").write_text("port._counters.drops += 1\n")
    (tmp_path / "metrics.py").write_text(
        "def read(port, info):\n"
        "    return port._counters.rx_frames, info._last_heard\n")
    assert sorted(_trespasses(tmp_path)) == ["metrics.py:2: _counters",
                                             "metrics.py:2: _last_heard"]
