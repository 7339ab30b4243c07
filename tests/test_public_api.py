"""The package's public surface: one list, every name in it resolving,
and the wrappers that no route called kept out."""

import types

import bowforge
from bowforge import branes, momentmap, rewrite, weights
from bowforge.diagram import BowDiagram

REMOVED = {
    branes: ("brane_coverage", "brane_is_fixed", "ledger_is_susy"),
    momentmap: ("stability_check",),
    rewrite: ("apply_increment",),
    weights: ("transpose_weight",),
}


def test_all_lists_every_public_binding():
    # equal to the bindings, so every listed name also resolves
    public = {
        name
        for name, value in vars(bowforge).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(bowforge.__all__) == public
    assert len(bowforge.__all__) == len(public)


def test_removed_names_are_gone():
    for module, names in REMOVED.items():
        for name in names:
            assert not hasattr(module, name), f"{module.__name__}.{name}"
            assert not hasattr(bowforge, name), name
            assert name not in bowforge.__all__, name
    assert not hasattr(BowDiagram, "node_by_id")
