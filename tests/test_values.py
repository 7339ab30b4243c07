"""The contract of the frozen value types.

Every type compares and hashes as the tuple of its fields, equal only to
an instance of the same class, prints as ``Name(field=value, ...)``,
refuses assignment and deletion, and survives pickle and copy.
"""

import copy
import pickle

import pytest

from bowforge.branes import Brane
from bowforge.diagram import (
    BowDiagram,
    CutAt,
    Direction,
    HwMove,
    IncrementArrows,
    IncrementX,
    Node,
    NodeKind,
    SeparatedForm,
    SubtractArrowArc,
    parse_diagram,
)
from bowforge.rewrite import EquivClassSample, NegativeWitness
from bowforge.susy import (
    Certificate,
    FiniteCheckPassed,
    InequalityViolation,
    TrivialNoNodes,
)
from bowforge.weights import AffineWeight, WeightTriple

CW, ACW = Direction.CW, Direction.ACW
D = parse_diagram("( 2 x 2 o )")

# one instance of each type, as its fields in declaration order
VALUES = {
    "Node": (Node, {"id": 0, "kind": NodeKind.ARROW}),
    "BowDiagram": (BowDiagram, {"nodes": D.nodes, "dims": D.dims, "cut": None}),
    "HwMove": (HwMove, {"left": 1, "right": 2}),
    "IncrementArrows": (IncrementArrows, {"start": 0, "end": 1, "direction": CW, "amount": 2}),
    "IncrementX": (IncrementX, {"start": 0, "end": 1, "direction": ACW, "amount": 2}),
    "SubtractArrowArc": (SubtractArrowArc, {"amount": 3}),
    "CutAt": (CutAt, {"segment": 3}),
    "SeparatedForm": (
        SeparatedForm,
        dict(diagram=D, arrow_ids=(1,), x_ids=(0,), v_arr=(2, 2), v_x=(2, 2), seg_arr=(0, 1), seg_x=(1, 0)),
    ),
    "Brane": (Brane, {"start": 0, "end": 1, "direction": CW, "laps": 2}),
    "NegativeWitness": (NegativeWitness, {"move_log": (HwMove(0, 1),), "segment": 1, "value": -1}),
    "EquivClassSample": (EquivClassSample, {"encodings": frozenset({"a", "b"}), "min_dim": 0}),
    "InequalityViolation": (InequalityViolation, {"direction": CW, "t": 1, "s": 2, "k": 1, "value": -3}),
    "FiniteCheckPassed": (FiniteCheckPassed, {"checked": ((1, 1, 0),)}),
    "TrivialNoNodes": (TrivialNoNodes, {"min_dim": 0}),
    "Certificate": (Certificate, {"verdict": True, "witness": TrivialNoNodes(0), "pipeline": (CutAt(1),)}),
    "AffineWeight": (AffineWeight, {"values": (1, -1), "level": 2, "dpair": 0}),
    "WeightTriple": (WeightTriple, {"tlam": (1,), "mu": (1,), "v": 2}),
}

value_cases = pytest.mark.parametrize("cls, fields", VALUES.values(), ids=VALUES.keys())


@value_cases
def test_equal_fields_make_equal_values(cls, fields):
    x, y = cls(**fields), cls(*fields.values())
    assert x is not y
    assert x == y and not x != y
    assert hash(x) == hash(y) == hash(tuple(fields.values()))
    assert x != tuple(fields.values())


@value_cases
def test_every_field_takes_part_in_equality(cls, fields):
    x = cls(**fields)
    for name in fields:
        other = cls(**{**fields, name: "other"})
        assert x != other and not x == other, name


@value_cases
def test_values_are_read_only_and_slotted(cls, fields):
    x = cls(**fields)
    assert not hasattr(x, "__dict__")
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(x, name, value)
        with pytest.raises(AttributeError):
            delattr(x, name)
        assert getattr(x, name) is value
    with pytest.raises(AttributeError):
        x.stray = 1


@value_cases
def test_values_survive_pickle_and_copy(cls, fields):
    x = cls(**fields)
    for twin in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
        assert twin == x and twin.__class__ is cls


@value_cases
def test_repr_names_every_field(cls, fields):
    body = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(cls(**fields)) == f"{cls.__name__}({body})"


def test_literal_reprs():
    assert repr(HwMove(1, 2)) == "HwMove(left=1, right=2)"
    assert repr(CutAt(3)) == "CutAt(segment=3)"
    assert repr(Node(0, NodeKind.ARROW)) == "Node(id=0, kind=<NodeKind.ARROW: 'o'>)"
    assert repr(Brane(0, 1, CW, 2)) == "Brane(start=0, end=1, direction=<Direction.CW: 'cw'>, laps=2)"
    assert repr(parse_diagram("[ 0 o 1 x 0 ]")) == (
        "BowDiagram(nodes=(Node(id=0, kind=<NodeKind.ARROW: 'o'>), Node(id=1, kind=<NodeKind.XPOINT: 'x'>)),"
        " dims=(1, 0), cut=1)"
    )


def test_equal_fields_of_different_types_differ():
    assert CutAt(3) != SubtractArrowArc(3)
    assert IncrementArrows(0, 1, CW, 2) != IncrementX(0, 1, CW, 2)
    assert HwMove(0, 1) != Node(0, 1)
    assert len({CutAt(3), SubtractArrowArc(3), CutAt(3)}) == 2


def test_values_key_dicts_and_sets():
    ledger = {Brane(0, 1, CW, 0): 1, Brane(0, 1, ACW, 0): 2}
    assert ledger[Brane(0, 1, ACW, 0)] == 2
    assert parse_diagram("( 2 x 2 o )") in {D}
    assert D == BowDiagram(tuple(Node(n.id, n.kind) for n in D.nodes), D.dims)
    assert D != BowDiagram(D.nodes, D.dims, 0)
