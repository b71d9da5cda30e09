"""Every source file parses with the grammar of the oldest Python that
``pyproject.toml`` declares (``requires-python = ">=3.10"``).

This guards syntax only, such as ``except*`` groups from 3.11; a call into
a newer standard library is not caught."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FOLDERS = ("src", "tests", "demos", "perfbench", "fixtures")
SOURCES = sorted(p for folder in FOLDERS for p in (ROOT / folder).rglob("*.py"))


def test_requires_python_is_3_10():
    assert len(SOURCES) >= 39
    assert 'requires-python = ">=3.10"' in (ROOT / "pyproject.toml").read_text(encoding="utf-8")


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
