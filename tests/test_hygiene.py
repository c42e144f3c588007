"""Source hygiene: every imported name is used (no linter is installed)."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHECKED = [path for tree in ("src", "tests", "demos")
           for path in sorted((ROOT / tree).rglob("*.py"))]


def unused_imports(source: str) -> list:
    """Names bound by import statements that the module never reads.

    A name read in an attribute chain (`np.fft`) counts through its root
    name, and a name listed in a string `__all__` counts as used.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(elt.value for elt in ast.walk(node.value)
                        if isinstance(elt, ast.Constant) and isinstance(elt.value, str))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_imports_are_flagged():
    src = "from __future__ import annotations\nimport os\nimport numpy as np\nnp.fft\n"
    assert unused_imports(src) == [(2, "os")]


def test_no_unused_imports():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in CHECKED if path.name != "__init__.py"
             for line, name in unused_imports(path.read_text())]
    assert not found, "unused imports:\n" + "\n".join(found)
