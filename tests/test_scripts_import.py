"""Every example and benchmark script imports against the current tree.

No other tier-1 test imports ``examples/*.py`` or
``benchmarks/bench_*.py``, so deleting or renaming a name one of them
uses would go unnoticed until someone ran it.  Each script keeps its
work behind ``__main__`` or in pytest functions, so importing it runs
nothing.
"""

import importlib.util
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted(
    [*(_ROOT / "examples").glob("*.py"), *(_ROOT / "benchmarks").glob("bench_*.py")]
)


@pytest.mark.parametrize(
    "path", SCRIPTS, ids=lambda path: str(path.relative_to(_ROOT))
)
def test_script_imports(path):
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
