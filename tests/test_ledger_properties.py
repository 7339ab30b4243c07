"""Property tests for brane ledgers: coverage arithmetic and move round trips."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from bowforge.branes import Brane, BraneLedger, coverage, ledger_apply_move
from bowforge.diagram import (
    BowDiagram,
    Direction,
    HwMove,
    IncrementArrows,
    IncrementX,
    Node,
    NodeKind,
)

CW, ACW = Direction.CW, Direction.ACW
ARROW, XPOINT = NodeKind.ARROW, NodeKind.XPOINT


def naive_coverage(d: BowDiagram, branes: dict) -> tuple[int, ...]:
    """Walk every brane segment by segment: the reference for ``coverage``."""

    total = [0] * d.k
    for brane, mult in branes.items():
        for seg in range(d.k):
            total[seg] += mult * brane.laps
        pos, end = d.position(brane.start), d.position(brane.end)
        while pos != end:
            if brane.direction == ACW:
                total[pos] += mult
                pos = (pos + 1) % d.k
            else:
                pos = (pos - 1) % d.k
                total[pos] += mult
    return tuple(total)


@st.composite
def hosts(draw, max_nodes=12):
    """Nodes of both kinds in a shuffled id order, all dims zero."""

    k = draw(st.integers(2, max_nodes))
    kinds = draw(st.lists(st.sampled_from([ARROW, XPOINT]), min_size=k, max_size=k))
    ids = draw(st.permutations(range(k)))
    return BowDiagram(tuple(Node(i, kind) for i, kind in zip(ids, kinds)), (0,) * k)


@st.composite
def random_ledgers(draw):
    d = draw(hosts())
    ids = [node.id for node in d.nodes]
    brane = st.builds(
        Brane, st.sampled_from(ids), st.sampled_from(ids), st.sampled_from([CW, ACW]), st.integers(0, 3)
    )
    branes = draw(st.dictionaries(brane, st.integers(1, 10**6), max_size=20))
    return BraneLedger(d, branes)


@st.composite
def certifying_ledgers(draw):
    """A ledger that certifies its host: fixed branes arrow-first, one per slot."""

    d = draw(hosts())
    arrows = [n.id for n in d.nodes if n.kind == ARROW]
    xs = [n.id for n in d.nodes if n.kind == XPOINT]
    branes = {}
    if arrows and xs:
        fixed = st.builds(
            Brane, st.sampled_from(arrows), st.sampled_from(xs), st.sampled_from([CW, ACW]), st.integers(0, 2)
        )
        for key in draw(st.sets(fixed, max_size=10)):
            branes[key] = 1
    for _ in range(draw(st.integers(0, 6))):
        side = draw(st.sampled_from([ids for ids in (arrows, xs) if ids]))
        start, end = draw(st.sampled_from(side)), draw(st.sampled_from(side))
        key = Brane(start, end, draw(st.sampled_from([CW, ACW])), draw(st.integers(1 if start == end else 0, 2)))
        branes[key] = branes.get(key, 0) + draw(st.integers(1, 6))
    return BraneLedger(BowDiagram(d.nodes, coverage(BraneLedger(d, branes))), branes)


@settings(max_examples=200, deadline=None)
@given(random_ledgers())
def test_coverage_matches_naive_walk(ledger):
    assert coverage(ledger) == naive_coverage(ledger.diagram, ledger.branes)


@settings(max_examples=150, deadline=None)
@given(certifying_ledgers(), st.data())
def test_move_then_inverse_restores_ledger(ledger, data):
    d = ledger.diagram
    swaps = [
        (d.nodes[pos].id, d.nodes[(pos + 1) % d.k].id)
        for pos in range(d.k)
        if d.nodes[pos].kind != d.nodes[(pos + 1) % d.k].kind
    ]
    kind = data.draw(st.sampled_from(["swap", "increment"] if swaps else ["increment"]))
    if kind == "swap":
        left, right = data.draw(st.sampled_from(swaps))
        entry = HwMove(left=left, right=right)
    else:
        node = data.draw(st.sampled_from(d.nodes))
        same = [n.id for n in d.nodes if n.kind == node.kind]
        cls = IncrementArrows if node.kind == ARROW else IncrementX
        entry = cls(
            start=node.id,
            end=data.draw(st.sampled_from(same)),
            direction=data.draw(st.sampled_from([CW, ACW])),
            amount=data.draw(st.integers(0, 3)),
        )
    there = ledger_apply_move(ledger, entry)
    assert coverage(there) == naive_coverage(there.diagram, there.branes)
    back = ledger_apply_move(there, entry, inverse=True)
    assert back.diagram == d
    assert back.branes == ledger.branes
