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


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def test_cli_uses_no_private_stabilizer_names():
    # The CLI calls the library's public rules instead of re-implementing them.
    tree = _parse(SOURCE_DIR / "cli.py")
    private = [
        f"cli.py:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "stabilizer"
        and node.attr.startswith("_")
    ]
    private += [
        f"cli.py:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and node.module == "stabilizer"
        and any(alias.name.startswith("_") for alias in node.names)
    ]
    assert private == []


def test_resource_cap_error_is_raised_only_by_check_cap():
    raises = [
        path.name
        for path in sorted(SOURCE_DIR.glob("*.py"))
        for node in ast.walk(_parse(path))
        if isinstance(node, ast.Raise)
        and node.exc is not None
        and "ResourceCapError" in ast.unparse(node.exc)
    ]
    assert raises == ["errors.py"]
