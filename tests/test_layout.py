"""Every function, class and method in src/heartproof has a caller there,
and every name a module there imports is used in that module.

A top-level definition that no other definition in src/ reads (by its
bare name in its own module, as `mod.name`, or through `from .mod import
name`), or a method whose name no other definition reads as an attribute,
is code that only tests run: an independent reference route
belongs beside tests/kronecker.py, and a wrapper belongs deleted. The few
exceptions are listed below with their reasons. An import that its module
never reads is left over from code that is gone.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "heartproof"

# name -> why it stays in src/ without a caller there
ALLOWED = {
    "modules.sl2f5_two_dim_reps":
        "the SL(2,5) tensor split behind criterion 3 moves to tests/ with the "
        "benchmark rebase: benchmark/test_benchmark.py pins modules.subgroup_classes, "
        "which modules imports only for it",
}


def _uses(module: str, tree: ast.Module) -> set[tuple[str, tuple]]:
    """(owner, key) for every name read in the module. The key of a
    top-level definition is ("def", its module, its name): the bare name in
    its own module, `mod.name`, or a name imported by `from .mod import
    name`. The key of any other attribute, `x.name`, is ("attr", name), which
    a method of that name answers. The owner is the definition the use sits
    in, so that a definition does not call itself."""
    siblings, imported, other_modules = {}, {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for a in node.names:
                if node.module is None:
                    siblings[a.asname or a.name] = a.name
                else:
                    imported[a.asname or a.name] = (node.module, a.name)
        elif isinstance(node, ast.Import):
            other_modules |= {a.asname or a.name.split(".")[0] for a in node.names}
    uses = set()

    def visit(node, owner):
        base = getattr(getattr(node, "value", None), "id", None)  # x in x.name
        if isinstance(node, ast.Name):
            uses.add((owner, ("def", *imported.get(node.id, (module, node.id)))))
        elif isinstance(node, ast.Attribute) and base in siblings:
            uses.add((owner, ("def", siblings[base], node.attr)))
        elif isinstance(node, ast.Attribute) and base not in other_modules:
            uses.add((owner, ("attr", node.attr)))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    for node in tree.body:
        owner = f"{module}.{getattr(node, 'name', '')}"
        if isinstance(node, ast.ClassDef):
            for child in node.bases + node.keywords + node.decorator_list:
                visit(child, owner)
            for sub in node.body:
                visit(sub, f"{owner}.{sub.name}" if isinstance(sub, ast.FunctionDef) else owner)
        else:
            visit(node, owner)
    return uses


def _definitions_without_a_caller() -> set[str]:
    defined, uses = [], set()
    for path in sorted(SRC.glob("*.py")):
        module, tree = path.stem, ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((f"{module}.{node.name}", ("def", module, node.name)))
            if isinstance(node, ast.ClassDef):
                defined += [(f"{module}.{node.name}.{sub.name}", ("attr", sub.name))
                            for sub in node.body
                            if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("__")]
        uses |= _uses(module, tree)
    return {name for name, key in defined
            if not any(k == key and owner != name for owner, k in uses)}


def test_every_definition_in_src_has_a_caller_in_src():
    assert _definitions_without_a_caller() == set(ALLOWED)


def _imports_without_a_use() -> set[str]:
    unused = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported, used = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {a.asname or a.name.split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {a.asname or a.name for a in node.names}
            elif isinstance(node, ast.Name):
                used.add(node.id)
        unused |= {f"{path.stem}.{name}" for name in imported - used}
    return unused


def test_every_import_in_src_is_used():
    assert _imports_without_a_use() == set()
