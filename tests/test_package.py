"""The package's public surface, and no code in it that nothing uses."""

import ast
from pathlib import Path

import fedbeam


def test_every_exported_name_resolves_and_star_import_works():
    assert len(set(fedbeam.__all__)) == len(fedbeam.__all__)
    for name in fedbeam.__all__:
        assert hasattr(fedbeam, name), name
    namespace: dict = {}
    exec("from fedbeam import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(fedbeam.__all__)


def _references(tree: ast.AST) -> set[str]:
    """Every name a tree reads or imports: names, attributes and import aliases."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rsplit(".", 1)[-1])
    return found


def test_every_module_level_function_and_class_in_src_has_a_user():
    # The package and the benchmark that imports it are the users; a name
    # only the tests call belongs in the tests.
    package = Path(fedbeam.__file__).parent
    benchmark = package.parent.parent / "perfbench"
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in
             [*sorted(package.glob("*.py")), *sorted(benchmark.glob("*.py"))]}
    # Each file's references outside its module-level definitions, and
    # inside each one.
    outside, inside = set(), {}
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inside[path, node.name] = _references(node)
            else:
                outside |= _references(node)
    unused = [
        f"{path.name}::{name}"
        for path, name in inside
        if path.parent == package
        and name not in outside
        and not any(name in refs for key, refs in inside.items() if key != (path, name))
    ]
    assert unused == []
