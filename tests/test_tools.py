"""Every script under tools/ imports cleanly.

Most tools run only in their own CI job, so an import left pointing at a
moved or deleted module would otherwise surface there alone.
"""

import importlib.util
from pathlib import Path

import pytest

TOOLS = sorted((Path(__file__).resolve().parents[1] / "tools").glob("*.py"))


@pytest.mark.parametrize("path", TOOLS, ids=[p.stem for p in TOOLS])
def test_tool_imports(path):
    spec = importlib.util.spec_from_file_location(f"tool_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
