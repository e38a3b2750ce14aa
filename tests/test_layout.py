"""Every function, class and method in src/heartproof has a caller there,
and every name a module there imports is used in that module.

A definition whose name appears nowhere else in src/ (as a name or an
attribute) is code that only tests run: an independent reference route
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


def _definitions_without_a_caller() -> set[str]:
    defined, used = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((path.stem, node.name, node.name))
            if isinstance(node, ast.ClassDef):
                defined += [(path.stem, f"{node.name}.{sub.name}", sub.name) for sub in node.body
                            if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return {f"{module}.{qualname}" for module, qualname, name in defined if name not in used}


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
