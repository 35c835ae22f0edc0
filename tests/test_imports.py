"""Static check that every imported name is used; the project depends on no linter."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads and does not list in __all__."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names if a.name != "*")
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_detector_on_a_snippet():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport numpy as np\nfrom x import a, b as c, d\n"
        "__all__ = ['d']\nprint(np.pi, a)\n"
    )
    assert unused_imports(source) == ["c", "os"]


def test_no_unused_imports_in_package_or_tests():
    files = sorted([*ROOT.glob("src/stochfp/*.py"), *ROOT.glob("tests/*.py")])
    assert len(files) > 10
    found = {
        str(path.relative_to(ROOT)): names
        for path in files
        if (names := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert found == {}
