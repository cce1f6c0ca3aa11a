"""Source-level rules for the library package and its tests."""

import ast
from pathlib import Path

SOURCE_DIR = Path(__file__).resolve().parents[1] / "src" / "stabkit"
TESTS_DIR = Path(__file__).resolve().parent


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


_ENUMERATION_LAYER = {"symplectic", "combinatorics", "errors"}


def test_enumeration_layer_imports_no_numpy():
    # Lagrangian enumeration runs on plain integer rows: these modules import no numpy, directly or
    # through another stabkit module outside the layer.
    imports = []
    for name in sorted(_ENUMERATION_LAYER):
        for node in ast.walk(_parse(SOURCE_DIR / f"{name}.py")):
            if isinstance(node, ast.Import):
                imports += [(name, alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                imports.append((name, "." * node.level + (node.module or "")))
    assert imports, "no imports found"
    offenders = [
        f"{name}.py imports {module}"
        for name, module in imports
        if module.split(".")[0] == "numpy" or (module.startswith(".") and module.lstrip(".") not in _ENUMERATION_LAYER)
    ]
    assert offenders == []


def test_cli_uses_no_private_library_names_and_no_numpy():
    # The CLI parses, calls one public library rule per check and renders: it re-implements no rule, so it
    # needs neither a private stabkit name nor numpy.
    tree = _parse(SOURCE_DIR / "cli.py")
    modules = set()  # the stabkit modules imported as names, as in `from . import stabilizer`
    offenders = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            offenders += [f"{node.lineno} import {a.name}" for a in node.names if a.name.split(".")[0] == "numpy"]
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            if node.level or module.split(".")[0] == "stabkit":
                if module in (".", "stabkit"):
                    modules |= {a.asname or a.name for a in node.names}
                offenders += [f"{node.lineno} {module}.{a.name}" for a in node.names if a.name.startswith("_")]
            elif module.split(".")[0] == "numpy":
                offenders.append(f"{node.lineno} from {module}")
    assert {"potential", "stabilizer"} <= modules
    offenders += [
        f"{node.lineno} {node.value.id}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
        and node.attr.startswith("_")
    ]
    assert offenders == []


def test_cli_writes_only_through_one_writer():
    # Every command hands its output to cli._write, which streams it to stdout or the --output file: sys.stdout
    # and open appear nowhere else in the CLI, and print writes only to stderr.
    tree = _parse(SOURCE_DIR / "cli.py")
    writer = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_write")
    inside = {id(node) for node in ast.walk(writer)}

    def writes(node):
        if isinstance(node, ast.Name):
            return node.id == "open"
        if isinstance(node, ast.Attribute):
            return node.attr == "stdout" and isinstance(node.value, ast.Name) and node.value.id == "sys"
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "print":
            return not any(kw.arg == "file" and ast.unparse(kw.value) == "sys.stderr" for kw in node.keywords)
        return False

    found = [node for node in ast.walk(tree) if writes(node)]
    assert sum(id(node) in inside for node in found) == 2, "_write no longer reaches stdout and open"
    assert [f"{node.lineno} {ast.unparse(node)}" for node in found if id(node) not in inside] == []


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


def test_trusted_constructor_lives_only_in_symplectic():
    # Skipping validation is a library-internal privilege with one definition.
    defined = [
        path.name
        for path in sorted(SOURCE_DIR.glob("*.py"))
        for node in ast.walk(_parse(path))
        if isinstance(node, ast.FunctionDef) and node.name == "_trusted"
    ]
    assert defined == ["symplectic.py"]
    tree = _parse(SOURCE_DIR / "cli.py")
    named = [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == "_trusted")
        or (isinstance(node, ast.Attribute) and node.attr == "_trusted")
        or (isinstance(node, ast.alias) and node.name == "_trusted")
    ]
    assert named == []


_WORKER_MODULES = {"concurrent", "threading", "multiprocessing"}
_ENVIRONMENT_READS = {"environ", "getenv"}


def _worker_and_environment_uses(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, a.name) for a in node.names if a.name.split(".")[0] in _WORKER_MODULES)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module.split(".")[0] in _WORKER_MODULES:
                yield node.lineno, node.module
            elif node.module == "os":
                yield from ((node.lineno, f"os.{a.name}") for a in node.names if a.name in _ENVIRONMENT_READS)
        elif (
            isinstance(node, ast.Attribute)
            and node.attr in _ENVIRONMENT_READS
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
        ):
            yield node.lineno, f"os.{node.attr}"


def test_library_starts_no_workers_and_reads_no_environment():
    # Results depend only on the arguments: no pool, no thread, no env-var fallback.
    uses = [
        f"{path.name}:{lineno} {name}"
        for path in sorted(SOURCE_DIR.glob("*.py"))
        for lineno, name in _worker_and_environment_uses(_parse(path))
    ]
    assert uses == []


def _unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update({(a.asname or a.name.split(".")[0]): node.lineno for a in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update({(a.asname or a.name): node.lineno for a in node.names})
    # A string counts as a use too, for quoted annotations.
    used = {
        node.id if isinstance(node, ast.Name) else node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) or (isinstance(node, ast.Constant) and isinstance(node.value, str))
    }
    return sorted((lineno, name) for name, lineno in imported.items() if name not in used)


def test_library_modules_use_every_name_they_import():
    # __init__.py imports in order to re-export; every other module, and every test file, imports only what it calls.
    paths = sorted(SOURCE_DIR.glob("*.py")) + sorted(TESTS_DIR.glob("*.py"))
    unused = [
        f"{path.parent.name}/{path.name}:{lineno} {name}"
        for path in paths
        if path != SOURCE_DIR / "__init__.py"
        for lineno, name in _unused_imports(_parse(path))
    ]
    assert unused == []


def _private_functions_and_uses(tree):
    """The private (_x, not dunder) functions and methods defined in tree, and each name tree references, paired
    with the private definitions that enclose the reference."""
    defined, uses = set(), []

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name.startswith("_") and not node.name.endswith("__"):
                defined.add(node.name)
                inside = inside | {node.name}
        elif isinstance(node, ast.Name):
            uses.append((node.id, inside))
        elif isinstance(node, ast.Attribute):
            uses.append((node.attr, inside))
        elif isinstance(node, ast.alias):
            uses.append((node.name, inside))
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return defined, uses


def test_every_private_function_is_called_in_the_library():
    # A private helper that nothing in src/stabkit references outside its own body is dead code, even when a
    # test still calls it.
    defined, used = set(), set()
    for path in sorted(SOURCE_DIR.glob("*.py")):
        names, uses = _private_functions_and_uses(_parse(path))
        defined |= {(path.name, name) for name in names}
        used |= {name for name, inside in uses if name not in inside}
    assert len(defined) > 20, "no private functions found"
    assert sorted(f"{module}:{name}" for module, name in defined if name not in used) == []
