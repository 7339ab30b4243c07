"""Every name a test module imports from bowforge is used in that module."""

import ast
from pathlib import Path

TESTS = Path(__file__).parent


def unused_bowforge_names(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = [
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "bowforge"
        for alias in node.names
    ]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_detector_flags_only_unused_names():
    source = "from bowforge.diagram import Node, parse_diagram as parse\nfrom bowforge import momentmap\n"
    assert unused_bowforge_names(source + "parse('( 1 x 1 o )')\nmomentmap.np\n") == ["Node"]


def test_test_modules_use_every_bowforge_import():
    unused = {path.name: names for path in sorted(TESTS.glob("*.py")) if (names := unused_bowforge_names(path.read_text()))}
    assert unused == {}
