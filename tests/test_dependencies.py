import ast
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rsdesitter"


def test_runtime_imports_are_stdlib_or_numpy():
    # the package runs on numpy alone; scipy, mpmath and sympy are for tests only
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names or top == "numpy", (path.name, name)


def _identifiers(node) -> set:
    """Every name, attribute and imported alias that appears under an ast node."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name)
    return out


def _package_trees() -> dict:
    return {path.name: ast.parse(path.read_text(encoding="utf-8"), str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def test_every_private_helper_is_used_in_the_package():
    # a module-level def _x or class _X that nothing in src/ names is dead code
    trees = _package_trees()
    used = set().union(*(_identifiers(tree) for tree in trees.values()))
    helpers = [
        (name, node.name)
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
    ]
    assert helpers
    assert [h for h in helpers if h[1] not in used] == []


def _public_names(node) -> list:
    """Public names a module-level statement defines: a def, a class or a constant."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, ast.Assign):
        names = [t.id for t in node.targets if isinstance(t, ast.Name)]
    elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        names = [node.target.id]
    else:
        names = []
    return [name for name in names if not name.startswith("_")]


def test_every_public_name_has_a_caller_outside_the_tests():
    # a public def, class or constant that only the tests name is dead code too;
    # it counts as named by any other statement in src/ (__init__ included),
    # by bench/*.py (with the dotted targets of bench/spans.py) or by demos/*.py
    trees = _package_trees()
    statements = [(module, node) for module, tree in trees.items() for node in tree.body]
    seen = Counter()
    for _, node in statements:
        seen.update(_identifiers(node))
    outside = set()
    scripts = sorted(ROOT.glob("bench/*.py")) + sorted(ROOT.glob("demos/*.py"))
    assert {p.parent.name for p in scripts} == {"bench", "demos"}
    for path in scripts:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        outside |= _identifiers(tree)
        if path.name == "spans.py":
            outside |= {
                part
                for sub in ast.walk(tree)
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str)
                for part in sub.value.split(".")
            }
    public = [
        (module, name, node) for module, node in statements for name in _public_names(node)
    ]
    assert public
    unnamed = [
        (module, name)
        for module, name, node in public
        if name not in outside and seen[name] == (name in _identifiers(node))
    ]
    assert unnamed == []
