"""Import layering of the package: no cycles, no imports hidden in functions.

Each module may import only the modules before it in LAYERS, and only names
that those modules define themselves.  The package ``__init__`` re-exports the
layers and is not one of them; a module may read ``__version__`` from it,
which it sets before importing any layer.  A public function or class of a
layer is one the program runs or the README quick tour imports; a public
method of a public class is one the program reads.
"""

import ast
from pathlib import Path

import supergeo

LAYERS = ("superalg", "supermat", "atlas", "families", "cech", "selfcheck", "cli")
SRC = Path(supergeo.__file__).parent
README = Path(__file__).resolve().parents[1] / "README.md"


def imported_layers(node: ast.ImportFrom) -> list[str]:
    """Layer modules named by a relative import (or an absolute supergeo one)."""
    if node.level == 0:
        if node.module is None or not node.module.startswith("supergeo"):
            return []
        parts = node.module.split(".")[1:]
    else:
        parts = node.module.split(".") if node.module else []
    if parts:
        return [parts[0]]
    return [alias.name for alias in node.names if alias.name != "__version__"]


def imports_of(tree: ast.AST):
    """(line, layer, inside a function, relative) for every supergeo import in the tree."""
    found = []

    def visit(node, in_function):
        for child in ast.iter_child_nodes(node):
            nested = in_function or isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            if isinstance(child, ast.ImportFrom):
                for layer in imported_layers(child):
                    found.append((child.lineno, layer, in_function, child.level > 0))
            elif isinstance(child, ast.Import):
                for alias in child.names:
                    if alias.name.startswith("supergeo."):
                        found.append((child.lineno, alias.name.split(".")[1], in_function, False))
            visit(child, nested)

    visit(tree, False)
    return found


def test_every_module_is_a_layer():
    modules = {p.stem for p in SRC.glob("*.py")} - {"__init__"}
    assert modules == set(LAYERS)


def test_imports_follow_the_layer_order():
    problems = []
    for rank, layer in enumerate(LAYERS):
        path = SRC / f"{layer}.py"
        for line, target, in_function, relative in imports_of(ast.parse(path.read_text())):
            if in_function and relative:
                problems.append(f"{layer}.py:{line}: relative import of {target} inside a function")
            if target not in LAYERS:
                problems.append(f"{layer}.py:{line}: imports {target}, which is not a layer")
            elif LAYERS.index(target) >= rank:
                problems.append(f"{layer}.py:{line}: {layer} imports {target}, which is not below it")
    assert problems == []


def test_checker_sees_a_function_level_import():
    source = "def f():\n    from .families import frame_signs\n    return frame_signs\n"
    assert imports_of(ast.parse(source)) == [(2, "families", True, True)]


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by module-level imports that the module never reads."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{line}: {name}" for name, line in bound.items() if name not in used]


def test_every_import_is_used():
    problems = []
    for layer in LAYERS:
        path = SRC / f"{layer}.py"
        problems += [f"{layer}.py:{item}" for item in unused_imports(ast.parse(path.read_text()))]
    assert problems == []


def test_checker_sees_an_unused_import():
    source = "from __future__ import annotations\nimport os, json\nfrom .atlas import CYCLIC as C\nprint(json, C)\n"
    assert unused_imports(ast.parse(source)) == ["2: os"]


def defined_names(tree: ast.Module) -> set[str]:
    """Names a module binds at top level by def, class or assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return names


def reexported_imports(trees: dict[str, ast.Module]) -> list[str]:
    """Relative `from .mod import name` where mod did not define name itself."""
    defined = {module: defined_names(tree) for module, tree in trees.items()}
    problems = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level and node.module in defined:
                problems += [
                    f"{module}.py:{alias.lineno}: {alias.name} is not defined in {node.module}"
                    for alias in node.names
                    if alias.name not in defined[node.module]
                ]
    return problems


def test_imports_name_their_definitions():
    trees = {layer: ast.parse((SRC / f"{layer}.py").read_text()) for layer in LAYERS}
    assert reexported_imports(trees) == []


def test_checker_sees_an_import_through_a_reexport():
    trees = {
        "low": ast.parse("X = 1\ndef f():\n    return X\n"),
        "mid": ast.parse("from .low import f\nclass C:\n    pass\n"),
        "top": ast.parse("from .mid import C, f\nfrom .low import X\n"),
    }
    assert reexported_imports(trees) == ["top.py:1: f is not defined in mid"]


def quick_tour_names(readme: str) -> set[str]:
    """Names the README's quick-tour block imports from supergeo."""
    block = readme.split("## Quick tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    return {
        alias.name
        for node in ast.parse(block).body
        if isinstance(node, ast.ImportFrom) and node.module == "supergeo"
        for alias in node.names
    }


def unused_public_names(trees: dict[str, ast.Module], exempt: set[str]) -> list[str]:
    """Public top-level defs and classes that no layer uses, other than `exempt`.

    A name is used when its own module loads it or another layer imports it by
    `from .mod import name`.
    """
    imported = {
        (node.module, alias.name)
        for tree in trees.values()
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
    }
    problems = []
    for module, tree in trees.items():
        loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if not (name.startswith("_") or name in loaded or (module, name) in imported or name in exempt):
                problems.append(f"{module}.{name}")
    return problems


def test_every_public_name_is_used_or_documented():
    trees = {layer: ast.parse((SRC / f"{layer}.py").read_text()) for layer in LAYERS}
    assert unused_public_names(trees, quick_tour_names(README.read_text())) == []


def test_checker_sees_an_unused_public_name():
    trees = {
        "low": ast.parse(
            "def imported():\n    pass\ndef called():\n    pass\ndef toured():\n    pass\n"
            "def mentioned():\n    pass\ndef _private():\n    pass\nclass Dead:\n    pass\n"
            "X = called()\n"
        ),
        "top": ast.parse("from .low import imported\ndef main():\n    return imported()\n"),
    }
    readme = (
        "Only `mentioned` here, and mentioned().\n\n## Quick tour\n\n```python\n"
        "from fractions import Fraction\nfrom supergeo import (\n    toured, main,\n)\n"
        "from supergeo.low import mentioned\n```\n"
    )
    assert quick_tour_names(readme) == {"toured", "main"}
    assert unused_public_names(trees, quick_tour_names(readme)) == ["low.mentioned", "low.Dead"]


def unused_public_methods(trees: dict[str, ast.Module]) -> list[str]:
    """Public methods of public classes that no layer reads as an attribute."""
    read = {node.attr for tree in trees.values() for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    problems = []
    for module, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            for node in cls.body:
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if not (node.name.startswith("_") or node.name in read):
                    problems.append(f"{module}.{cls.name}.{node.name}")
    return problems


def test_every_public_method_is_read():
    trees = {layer: ast.parse((SRC / f"{layer}.py").read_text()) for layer in LAYERS}
    assert unused_public_methods(trees) == []


def test_checker_sees_an_unused_public_method():
    trees = {
        "low": ast.parse(
            "class Elem:\n    def read(self):\n        pass\n"
            "    def dead(self):\n        pass\n    def _private(self):\n        pass\n"
            "class _Hidden:\n    def dead_too(self):\n        pass\n"
        ),
        "top": ast.parse("from .low import Elem\ndef main(e):\n    return e.read\n"),
    }
    assert unused_public_methods(trees) == ["low.Elem.dead"]
