"""Source hygiene checks over the package modules."""

import ast
import pathlib

import vesflex

PACKAGE = pathlib.Path(vesflex.__file__).parent


def _unread_imports(tree: ast.Module) -> list[str]:
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [name for name in bound if name not in read]


def test_every_imported_name_is_read():
    # __init__.py imports names to re-export them, so it is exempt
    unread = [
        f"{path.name}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        for name in _unread_imports(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert unread == []


def test_planner_imports_no_solve_function_from_solver():
    # the dense LP and box QP are oracles; every plan runs on O(n) kernels
    # and reports its own result, so planner takes nothing from solver
    tree = ast.parse((PACKAGE / "planner.py").read_text(encoding="utf-8"))
    taken = {
        a.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "solver"
        for a in node.names
    }
    assert taken == set()


def test_planner_references_no_linalg():
    # every plan runs on O(n) kernels; dense solves stay the tests' oracles
    tree = ast.parse((PACKAGE / "planner.py").read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            names.update(a.name for a in node.names)
    assert [name for name in names if "linalg" in name] == []
