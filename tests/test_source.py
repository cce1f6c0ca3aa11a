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


def _is_limit(name):
    return name == "_WORK_BYTES" or (name.startswith("DEFAULT_") and name.endswith("_CAP"))


def test_every_limit_lives_beside_check_cap():
    # Each cap default and the working-memory budget is assigned once, in errors.py. Another module reads a cap
    # default only by importing its name from errors, never from a third module or as a module attribute, and the
    # CLI's cap table names only those imports. The budget is read by errors' batching rule alone: no other module
    # names it, so one rule sizes every batch.
    assigned, offenders = [], []
    for path in sorted(SOURCE_DIR.glob("*.py")):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store) and _is_limit(node.id):
                assigned.append((path.name, node.id))
            elif isinstance(node, ast.Attribute) and _is_limit(node.attr):
                offenders.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
            elif isinstance(node, ast.ImportFrom):
                named = [a.name for a in node.names if _is_limit(a.name)]
                # A cap default may come from errors; the budget may come from nowhere.
                named = [name for name in named if node.module != "errors" or name == "_WORK_BYTES"]
                offenders += [f"{path.name}:{node.lineno} {node.module}.{name}" for name in named]
            elif isinstance(node, ast.Name) and node.id == "_WORK_BYTES" and path.name != "errors.py":
                offenders.append(f"{path.name}:{node.lineno} {node.id}")
    limits = ["DEFAULT_ENUM_CAP", "DEFAULT_MATRIX_CAP", "DEFAULT_PAIR_CAP", "DEFAULT_STATE_CAP", "_WORK_BYTES"]
    assert sorted(assigned) == [("errors.py", name) for name in limits]
    assert offenders == []
    tree = _parse(SOURCE_DIR / "cli.py")
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.module == "errors"]
    from_errors = {a.name for node in imports for a in node.names}
    caps = next(node.value for node in tree.body if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "_CAPS")
    named = {node.id for node in ast.walk(caps) if isinstance(node, ast.Name)}
    assert named == set(limits[:4]) and named <= from_errors


def test_no_library_function_builds_an_intersection():
    # The spectrum counts dim(M cap N) by a rank and the overlap rule reads stacked tables: intersect is the tests'
    # witness in helpers.py, and nothing in src/stabkit calls one.
    calls = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE_DIR.glob("*.py"))
        for node in ast.walk(_parse(path))
        if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "intersect"
    ]
    assert calls == []


def test_only_the_overlap_rule_reads_a_span_basis():
    # The character test on a basis of a shared subgroup has one home: realization reads it through _overlaps
    # against M_0, not through a second Z-only test.
    callers = [
        f"{path.name}:{function.name}"
        for path in sorted(SOURCE_DIR.glob("*.py"))
        for function in ast.walk(_parse(path))
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "_span_basis"
    ]
    assert callers == ["stabilizer.py:_overlaps"]


_DENSE_BUILDERS = {"_scatter", "weyl", "weyl_representation"}


def _dense_builder_names(tree):
    """Each place tree imports, names or defines a dense Weyl-matrix builder, as "lineno name"."""
    for node in ast.walk(tree):
        if isinstance(node, ast.alias):
            names = {node.name, node.asname}
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = {node.name}
        elif isinstance(node, ast.Name):
            names = {node.id}
        elif isinstance(node, ast.Attribute):
            names = {node.attr}
        else:
            continue
        yield from (f"{getattr(node, 'lineno', '?')} {name}" for name in sorted(names & _DENSE_BUILDERS))


def test_stabilizer_layer_builds_no_dense_matrix():
    # Realization and the overlap rule read integer tables, and the eigenvalue and relation checks gather the
    # monomial (rows, values) of zx_monomials: the dense Weyl matrices are weyl's alone, scattered for the
    # acceptance API, and neither stabilizer.py nor cli.py imports, names or defines a builder of them. The scan
    # finds them where they live.
    assert list(_dense_builder_names(_parse(SOURCE_DIR / "weyl.py"))), "no dense builders found in weyl.py"
    for name in ("stabilizer.py", "cli.py"):
        assert list(_dense_builder_names(_parse(SOURCE_DIR / name))) == [], name


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
    with the function definitions that enclose the reference and whether it is an attribute."""
    defined, uses = set(), []

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name.startswith("_") and not node.name.endswith("__"):
                defined.add(node.name)
            inside = inside | {node.name}
        elif isinstance(node, ast.Name):
            uses.append((node.id, inside, False))
        elif isinstance(node, ast.Attribute):
            uses.append((node.attr, inside, True))
        elif isinstance(node, ast.alias):
            uses.append((node.name, inside, False))
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
        used |= {name for name, inside, _ in uses if name not in inside}
    assert len(defined) > 20, "no private functions found"
    assert sorted(f"{module}:{name}" for module, name in defined if name not in used) == []


def _unreferenced_public_names(modules, frozen, frozen_attributes):
    """The public module-level functions, and the public methods, properties and classmethods of the classes, in
    modules (file name -> tree, __init__.py left out) that no module references outside their own body, as sorted
    "module:function" and "module:Class.method" strings. A function counts as referenced by its name as a name, an
    attribute or an import, or by a name in frozen; a method only as an attribute, since no bare name reaches it, or
    by a name in frozen_attributes."""
    defined, names, attributes = [], set(frozen), set(frozen_attributes)
    for module, tree in modules.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defined.append((f"{module}:{node.name}", node.name, names))
            elif isinstance(node, ast.ClassDef):
                methods = [method.name for method in node.body if isinstance(method, ast.FunctionDef)]
                defined += [(f"{module}:{node.name}.{method}", method, attributes) for method in methods]
        for use, inside, is_attribute in _private_functions_and_uses(tree)[1]:
            if use not in inside:
                names.add(use)
                if is_attribute:
                    attributes.add(use)
    return sorted(label for label, name, referenced in defined if not name.startswith("_") and name not in referenced)


def test_every_public_function_is_called_in_the_library_or_frozen_by_acceptance():
    # The library is the pipeline: a public module-level function, method or property that nothing in src/stabkit
    # references outside its own body (a re-export in __init__.py does not count) is either API that
    # tests/test_acceptance.py imports from stabkit or reads as an attribute, or a witness that belongs in
    # tests/helpers.py.
    acceptance = _parse(TESTS_DIR / "test_acceptance.py")
    imports = [node for node in acceptance.body if isinstance(node, ast.ImportFrom) and node.module == "stabkit"]
    frozen = {a.name for node in imports for a in node.names}
    attributes = {node.attr for node in ast.walk(acceptance) if isinstance(node, ast.Attribute)}
    modules = {path.name: _parse(path) for path in sorted(SOURCE_DIR.glob("*.py")) if path.name != "__init__.py"}
    public = [node for tree in modules.values() for node in tree.body if isinstance(node, ast.FunctionDef)]
    classes = [node for tree in modules.values() for node in tree.body if isinstance(node, ast.ClassDef)]
    assert len(public) > 30 and len(classes) > 3 and len(frozen) > 10, "no functions, classes or acceptance imports"
    assert _unreferenced_public_names(modules, frozen, attributes) == []


def test_the_public_surface_rule_flags_a_function_only_its_own_body_calls():
    # The rule is only as good as its notion of a reference: a call from another module or another function counts,
    # a recursive call inside the function's own body does not, and a frozen acceptance name is never flagged.
    modules = {
        "a.py": ast.parse("def used():\n    return 1\n\ndef recursive(k):\n    return recursive(k - 1)\n"),
        "b.py": ast.parse("from .a import used\n\ndef caller():\n    return used()\n\ndef orphan():\n    pass\n"),
    }
    assert _unreferenced_public_names(modules, set(), set()) == ["a.py:recursive", "b.py:caller", "b.py:orphan"]
    assert _unreferenced_public_names(modules, {"caller", "orphan"}, set()) == ["a.py:recursive"]


def test_the_public_surface_rule_flags_a_method_no_other_library_code_calls():
    # A method that only its own body references, or that only a test would call, is flagged, and a local name
    # spelled like it is no reference; a property another module reads is not flagged, nor is a method named as an
    # attribute in the acceptance suite. A module-level function spelled like such an attribute is still flagged.
    modules = {
        "a.py": ast.parse(
            "class A:\n"
            "    @property\n    def size(self):\n        return 1\n\n"
            "    def again(self):\n        return self.again()\n\n"
            "    @classmethod\n    def for_tests(cls):\n        return cls()\n\n"
            "    def frozen(self):\n        return 0\n\n"
            "def frozen():\n    pass\n"
        ),
        "b.py": ast.parse("from .a import A\n\ndef reader(a):\n    for_tests = a.size\n    return for_tests\n"),
    }
    flagged = ["a.py:A.again", "a.py:A.for_tests", "a.py:frozen"]
    assert _unreferenced_public_names(modules, {"reader"}, {"frozen"}) == flagged


def _unset_keywords(modules, callers):
    """The keyword-only parameters of the public module-level functions in modules (file name -> tree) that no call in
    callers (trees) passes by name, as sorted "module:function.keyword" strings. Calls are matched by function name."""
    passed = {
        (ast.unparse(node.func).split(".")[-1], keyword.arg)
        for tree in callers
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        for keyword in node.keywords
    }
    return sorted(
        f"{module}:{node.name}.{arg.arg}"
        for module, tree in modules.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
        for arg in node.args.kwonlyargs
        if (node.name, arg.arg) not in passed
    )


def test_every_keyword_of_a_public_function_is_set_by_some_caller():
    # A keyword that no library call and no acceptance test ever sets is a knob nobody turns: its default belongs in
    # the body as a constant. A call counts wherever it is, a forwarding one included.
    modules = {path.name: _parse(path) for path in sorted(SOURCE_DIR.glob("*.py"))}
    callers = [*modules.values(), _parse(TESTS_DIR / "test_acceptance.py")]
    functions = [node for tree in modules.values() for node in tree.body if isinstance(node, ast.FunctionDef)]
    assert sum(len(node.args.kwonlyargs) for node in functions) > 10, "no keyword-only parameters found"
    assert _unset_keywords(modules, callers) == []


def test_the_keyword_rule_flags_a_keyword_only_its_default_sets():
    modules = {
        "a.py": ast.parse("def f(x, *, cap=1, tol=2):\n    return x\n\ndef _g(*, cap=1):\n    return 0\n"),
        "b.py": ast.parse("from .a import f\n\ndef h(*, tol=2):\n    return f(0, tol=tol)\n"),
    }
    assert _unset_keywords(modules, modules.values()) == ["a.py:f.cap", "b.py:h.tol"]
    assert _unset_keywords(modules, [*modules.values(), ast.parse("a.f(1, cap=3)\nh(tol=1)\n")]) == []


def test_readme_library_example_runs():
    # The documented API cannot drift from the code: the first python block under "## Library" runs as written.
    text = (SOURCE_DIR.parents[1] / "README.md").read_text()
    heading = "\n## Library\n"
    head, block = text[text.index(heading) + len(heading) :].split("```python\n", 1)
    assert "\n## " not in head, "the Library section has no python block"
    exec(compile(block.split("\n```", 1)[0], "README.md", "exec"), {})
