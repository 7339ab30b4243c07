"""The traced benchmark run wraps library functions by name.

``perfbench/tracer.py`` lists them as (module, function) pairs in
``SPANNED`` and ``COUNTED``.  Every pair must resolve after
``import bowforge``, so that a rename inside the library cannot break
the traced run unseen.  The lists are read from the source, without
importing the tracer.
"""

import ast
from pathlib import Path

import bowforge

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets() -> dict[str, tuple]:
    tree = ast.parse(TRACER.read_text())
    return {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) in ("SPANNED", "COUNTED")
    }


def test_tracer_targets_resolve():
    targets = _targets()
    assert set(targets) == {"SPANNED", "COUNTED"}
    missing = []
    for mod, name in targets["SPANNED"] + targets["COUNTED"]:
        obj = getattr(bowforge, mod, None)
        for part in name.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{mod}.{name}")
    assert not missing, missing
