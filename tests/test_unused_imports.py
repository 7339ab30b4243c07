"""Every name imported from bowforge is used in the importing module.

Test modules import from ``bowforge``; the package's own modules import
from each other by relative imports, and a name a module lists in
``__all__`` counts as used there.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).parent
SRC = TESTS.parent / "src" / "bowforge"


def unused_bowforge_names(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = [
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "bowforge")
        for alias in node.names
    ]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_detector_flags_only_unused_names():
    source = "from bowforge.diagram import Node, parse_diagram as parse\nfrom bowforge import momentmap\n"
    assert unused_bowforge_names(source + "parse('( 1 x 1 o )')\nmomentmap.np\n") == ["Node"]


def test_detector_reads_relative_imports_and_all():
    source = "from .diagram import Node, validate\nfrom . import rewrite\n__all__ = ['validate']\n"
    assert unused_bowforge_names(source) == ["Node", "rewrite"]
    assert unused_bowforge_names(source + "def f():\n    from .susy import _pass\n    return rewrite\n") == ["Node", "_pass"]


def test_test_modules_use_every_bowforge_import():
    unused = {path.name: names for path in sorted(TESTS.glob("*.py")) if (names := unused_bowforge_names(path.read_text()))}
    assert unused == {}


def test_package_modules_use_every_package_import():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 5
    unused = {path.name: names for path in modules if (names := unused_bowforge_names(path.read_text()))}
    assert unused == {}
