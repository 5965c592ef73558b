"""Every source module parses under the oldest grammar pyproject.toml allows."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "spinfridge").glob("*.py"))


def test_the_sources_are_found():
    assert {path.name for path in SOURCES} >= {"__init__.py", "cli.py", "cycles.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_each_source_parses_under_the_python_3_10_grammar(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
