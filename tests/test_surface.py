"""The package's private surface: what src/nafkit defines for itself, it uses."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "nafkit"


def _defined(tree):
    """The module-level names a module's body binds by def, class or assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


def _referenced(tree):
    """Every name a module reads: bare, as an attribute, or imported."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def unused_private_names(src=SRC):
    """(module, name) of each single-underscore module-level name in src that no
    module in src reads."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(src).glob("*.py"))}
    used = {name for tree in trees.values() for name in _referenced(tree)}
    return [(module, name) for module, tree in trees.items() for name in _defined(tree)
            if name.startswith("_") and not name.startswith("__") and name not in used]


def test_every_private_name_has_a_caller_in_the_package():
    # a helper that only tests reach is surface to delete, not to keep
    assert unused_private_names() == []


def test_a_private_name_only_tests_read_is_flagged(tmp_path):
    (tmp_path / "a.py").write_text("_kept = 1\n\n\ndef _dead(x):\n    return _kept + x\n")
    (tmp_path / "b.py").write_text("from .a import _kept\n\n_ORPHAN = 2\n")
    assert unused_private_names(tmp_path) == [("a.py", "_dead"), ("b.py", "_ORPHAN")]
