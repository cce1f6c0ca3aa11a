"""Source-level rules for the library package."""

import ast
from pathlib import Path

SOURCE_DIR = Path(__file__).resolve().parents[1] / "src" / "stabkit"


def test_library_has_no_assert_statements():
    # `python -O` strips asserts, so library invariants must raise explicitly.
    paths = sorted(SOURCE_DIR.glob("*.py"))
    assert paths, f"no sources found under {SOURCE_DIR}"
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert offenders == []
