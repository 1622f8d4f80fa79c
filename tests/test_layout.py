"""Source layout that the profiling tools rely on."""

import ast
import collections
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "effectbx").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_line_starts_two_functions(path):
    # profilers key a function by (file, first line, name), so two functions
    # that start on one line would share one entry and merge their counts
    starts = collections.Counter(
        node.lineno for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.Lambda, ast.FunctionDef, ast.AsyncFunctionDef))
    )
    assert sorted(line for line, count in starts.items() if count > 1) == []
