"""The path cache is the flow engine's, not the frame path's.

Frames are forwarded hop by hop through each switch's flow table; only
the fluid engine resolves whole paths, through
:class:`~repro.switching.path_cache.PathCache`. So the switch, the
link layer and the host stack never name the cache or its per-ingress
tables: what knows about it is ``switching/path_cache.py``, the builder
that makes it in flow mode, and ``flows/``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: Packages of the per-hop frame path.
FRAME_PATH = ("portland", "net", "host")

BANNED = {"path_cache", "PathCache", "_path_table"}


def _names(tree: ast.AST):
    """(line, name) for every identifier the module spells: names,
    attributes, definitions, arguments and imports (the module path
    split on dots)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            yield node.lineno, node.name
        elif isinstance(node, ast.arg):
            yield node.lineno, node.arg
        elif isinstance(node, ast.keyword) and node.arg:
            yield node.value.lineno, node.arg
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            parts = (getattr(node, "module", None) or "").split(".")
            for alias in node.names:
                parts += alias.name.split(".")
                if alias.asname:
                    parts.append(alias.asname)
            for part in parts:
                yield node.lineno, part


def _mentions(root: Path, packages=FRAME_PATH) -> list[str]:
    found = []
    for package in packages:
        for path in sorted((root / package).rglob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            found += [f"{path.relative_to(root).as_posix()}:{line}: {name}"
                      for line, name in _names(tree) if name in BANNED]
    return found


def test_frame_path_never_names_the_path_cache():
    assert _mentions(SRC) == []


def test_the_guard_sees_a_mention(tmp_path):
    (tmp_path / "portland").mkdir()
    (tmp_path / "portland" / "switch.py").write_text(
        "from repro.switching.path_cache import DEFAULT_PATH_CAPACITY\n"
        "def receive(self, frame):\n"
        "    return self._path_table.get(frame)\n")
    (tmp_path / "flows").mkdir()
    (tmp_path / "flows" / "engine.py").write_text(
        "cache = fabric.path_cache\n")
    assert _mentions(tmp_path) == ["portland/switch.py:1: path_cache",
                                   "portland/switch.py:3: _path_table"]
