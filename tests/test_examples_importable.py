"""Every example script must at least import cleanly.

Full runs are exercised by ``make examples``; this guards against API
drift breaking them silently.
"""

import importlib.util
import pathlib

import pytest

EXAMPLES = sorted(
    (pathlib.Path(__file__).parent.parent / "examples").glob("*.py"))


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_imports(path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # guarded by __main__: does not run
    assert hasattr(module, "main"), f"{path.name} must define main()"


def test_examples_exist():
    assert len(EXAMPLES) >= 7
