"""Brane ledger construction and transport tests."""

import copy
import hashlib
import itertools
import json
import pickle
import random
import re

import pytest

from bowforge import branes
from bowforge.branes import (
    Brane,
    BraneLedger,
    check_ledger,
    coverage,
    greedy_fixed_counts,
    ledger_apply_move,
    ledger_from_json,
    ledger_to_json,
    synthesize,
    synthesize_finite,
)
from bowforge.diagram import (
    BowDiagram,
    CutAt,
    Direction,
    HwMove,
    IncrementArrows,
    IncrementX,
    Node,
    NodeKind,
    SubtractArrowArc,
    parse_diagram,
    separated_view,
)
from bowforge.rewrite import separate
from bowforge.susy import _closed_reduction, _decide_full, _passes, check_finite_separated, decide_supersymmetry
from test_rewrite import run_optimized

CW, ACW = Direction.CW, Direction.ACW


# oracles for the fixed-slot bound, read off node kinds brane by brane


def brane_is_fixed(d: BowDiagram, brane: Brane) -> bool:
    """The brane's endpoints are of different kinds."""

    return d.nodes[d.position(brane.start)].kind != d.nodes[d.position(brane.end)].kind


def ledger_is_susy(ledger: BraneLedger) -> bool:
    """No fixed slot holds more than one brane."""

    d = ledger.diagram
    return not any([brane_is_fixed(d, brane) and mult > 1 for brane, mult in ledger.branes.items()])


# ---------------------------------------------------------------------------
# coverage arithmetic


def test_brane_coverage_vectors():
    d = parse_diagram("( 1 o 2 x 3 x 4 o )")
    # ids: o0, x1, x2, o3; dims follow each node anticlockwise
    assert coverage(BraneLedger(d, {Brane(0, 1, ACW, 0): 1})) == (1, 0, 0, 0)
    assert coverage(BraneLedger(d, {Brane(0, 1, CW, 0): 1})) == (0, 1, 1, 1)
    assert coverage(BraneLedger(d, {Brane(0, 1, ACW, 2): 1})) == (3, 2, 2, 2)
    assert coverage(BraneLedger(d, {Brane(2, 2, CW, 1): 1})) == (1, 1, 1, 1)
    assert brane_is_fixed(d, Brane(0, 1, ACW, 0))
    assert not brane_is_fixed(d, Brane(1, 2, CW, 0))


def test_ledger_checks():
    d = parse_diagram("( 1 o 2 x 3 x 4 o )")
    assert coverage(BraneLedger(d, {Brane(0, 0, CW, 1): 2})) == (2, 2, 2, 2)
    bad = BraneLedger(d, {Brane(0, 1, ACW, 0): 2})
    assert not ledger_is_susy(bad)
    assert any("fixed slot" in p for p in check_ledger(bad))
    assert any("coverage" in p for p in check_ledger(bad))
    orphan = BraneLedger(d, {Brane(0, 9, ACW, 0): 1})
    assert any("missing nodes" in p for p in check_ledger(orphan))
    with pytest.raises(KeyError, match="no node with id 9"):
        coverage(orphan)
    with pytest.raises(KeyError, match="no node with id 9"):
        ledger_is_susy(orphan)


def test_ledger_json_round_trip():
    d = parse_diagram("( 1 o 2 x 3 x 4 o )")
    ledger = BraneLedger(
        d,
        {
            Brane(0, 1, ACW, 0): 1,
            Brane(0, 0, CW, 1): 2,
            Brane(2, 1, CW, 0): 3,
        },
    )
    data = ledger_to_json(ledger)
    assert [item["start"] for item in data["branes"]] == [0, 0, 2]
    back = ledger_from_json(data)
    assert back.diagram == d and back.branes == ledger.branes
    for field, value in (("laps", 1.5), ("mult", True), ("start", float("inf"))):
        bad = {**data, "branes": [{**data["branes"][0], field: value}]}
        with pytest.raises(ValueError, match=f"brane field '{field}' must be an integer"):
            ledger_from_json(bad)


# ---------------------------------------------------------------------------
# HW transport, one move at a time


def _two_node_host(v0, v1):
    # x (id 0) at position 0, arrow (id 1) at position 1; the segment
    # between the arrow and the x in the arrow-first sense is v_0 and
    # lands at index 1
    return parse_diagram(f"( {v0} x {v1} o )")


def test_transport_annihilates_facing_brane():
    d = _two_node_host(1, 0)
    assert d.dims == (0, 1)
    ledger = BraneLedger(d, {Brane(1, 0, ACW, 0): 1})
    assert coverage(ledger) == d.dims
    moved = ledger_apply_move(ledger, HwMove(left=1, right=0))
    assert moved.branes == {}
    assert moved.diagram.dims == (0, 0)


def test_transport_creates_when_empty():
    d = _two_node_host(0, 0)
    ledger = BraneLedger(d, {})
    moved = ledger_apply_move(ledger, HwMove(left=1, right=0))
    assert moved.branes == {Brane(1, 0, CW, 0): 1}
    assert moved.diagram.dims == (0, 1)


def test_transport_winds_opposite_brane():
    d = _two_node_host(0, 1)
    # dims (1, 0): the clockwise brane from the arrow covers index 0 only
    ledger = BraneLedger(d, {Brane(1, 0, CW, 0): 1})
    assert coverage(ledger) == d.dims == (1, 0)
    moved = ledger_apply_move(ledger, HwMove(left=1, right=0))
    assert moved.branes == {Brane(1, 0, CW, 1): 1, Brane(1, 0, CW, 0): 1}
    assert moved.diagram.dims == (1, 3)
    assert coverage(moved) == moved.diagram.dims


def test_transport_unwinds_lapped_brane():
    d = _two_node_host(2, 1)
    ledger = BraneLedger(d, {Brane(1, 0, ACW, 1): 1})
    assert coverage(ledger) == d.dims == (1, 2)
    moved = ledger_apply_move(ledger, HwMove(left=1, right=0))
    assert moved.branes == {Brane(1, 0, ACW, 0): 1, Brane(1, 0, CW, 0): 1}
    assert coverage(moved) == moved.diagram.dims


def test_transport_round_trips():
    cases = [
        (_two_node_host(3, 1), {Brane(1, 0, ACW, 0): 1, Brane(1, 0, ACW, 1): 1}),
        (_two_node_host(2, 2), {Brane(1, 0, CW, 1): 1, Brane(1, 0, ACW, 0): 1}),
    ]
    entry = HwMove(left=1, right=0)
    for d, branes in cases:
        ledger = BraneLedger(d, dict(branes))
        assert coverage(ledger) == d.dims
        there = ledger_apply_move(ledger, entry)
        back = ledger_apply_move(there, entry, inverse=True)
        assert back.diagram == d and back.branes == branes
        # and the other way around
        under = ledger_apply_move(ledger, entry, inverse=True)
        again = ledger_apply_move(under, entry)
        assert again.diagram == d and again.branes == branes


def test_transport_increment_and_inverse():
    d = parse_diagram("( 0 x 0 o 0 x 0 o )")
    ledger = BraneLedger(d, {})
    entry = IncrementX(start=0, end=2, direction=ACW, amount=2)
    raised = ledger_apply_move(ledger, entry)
    assert raised.branes == {Brane(0, 2, ACW, 0): 2}
    assert coverage(raised) == raised.diagram.dims
    back = ledger_apply_move(raised, entry, inverse=True)
    assert back.branes == {}
    with pytest.raises(ValueError):
        ledger_apply_move(ledger, entry, inverse=True)


def test_transport_full_loop_increment():
    d = parse_diagram("( 2 o 2 o )")
    ledger = synthesize(d)
    o0 = d.nodes[0].id
    entry = IncrementArrows(start=o0, end=o0, direction=CW, amount=3)
    raised = ledger_apply_move(ledger, entry)
    assert raised.diagram.dims == (5, 5)
    assert coverage(raised) == (5, 5)


# ---------------------------------------------------------------------------
# greedy synthesis on finite layouts


def test_greedy_counts_pinned():
    counts, cur = greedy_fixed_counts((2, 1, 0), (2, 1, 0))
    assert counts == (2, 0)
    assert cur == [0, 0, 0]
    counts, cur = greedy_fixed_counts((1, 0), (1, 0))
    assert counts == (1,)
    assert cur == [0, 0]


def descending_fixed_counts(v_arr, v_x):
    """``greedy_fixed_counts`` as it was: every f tried from w down."""

    n = len(v_arr) - 1
    w = len(v_x) - 1
    cur = list(v_x)
    counts = []
    for _ in range(n):
        best = 0
        for f in range(w, -1, -1):
            if all(f <= cur[j] + j for j in range(f + 1)):
                best = f
                break
        counts.append(best)
        for j in range(best):
            cur[j] -= best - j
        if min(cur) < 0:
            raise RuntimeError(f"greedy fixed counts left a negative x-side budget {cur}")
    return tuple(counts), cur


def _counted(call):
    try:
        return call()
    except RuntimeError as exc:
        return str(exc)


def test_greedy_counts_match_the_descending_search():
    # every x-side profile with n <= 3 arrows, w <= 4 x points, values -1..4
    checked = 0
    for n in range(1, 4):
        v_arr = (0,) * (n + 1)
        for w in range(1, 5):
            for v_x in itertools.product(range(-1, 5), repeat=w + 1):
                want = _counted(lambda: descending_fixed_counts(v_arr, v_x))
                assert _counted(lambda: greedy_fixed_counts(v_arr, v_x)) == want, (n, v_x)
                checked += 1
    assert checked == 27_972


def test_synthesize_finite_pinned_ledger():
    fin = separated_view(parse_diagram("[ 0 o 1 o 2 x 1 x 0 ]"))
    ledger = synthesize_finite(fin)
    e1, e2 = fin.arrow_ids
    x1, x2 = fin.x_ids
    assert ledger.branes == {
        Brane(e1, x1, ACW, 0): 1,
        Brane(e1, x2, ACW, 0): 1,
        Brane(e1, e2, CW, 0): 1,
    }
    assert coverage(ledger) == fin.diagram.dims
    assert check_ledger(ledger) == []


def test_synthesize_refuses_non_susy():
    with pytest.raises(ValueError):
        synthesize(parse_diagram("[ 0 o 2 x 0 ]"))
    with pytest.raises(ValueError):
        synthesize(parse_diagram("( 2 o 5 x )"))


def test_synthesize_self_checks_raise(monkeypatch):
    # synthesis audits its ledger once, on d: an emptied winding set on
    # every crossed pair, or an over-full fixed slot, raises; the
    # pipeline here leaves the arrow two net shrinks past the x point
    d = parse_diagram("( 2 o 1 x )")
    monkeypatch.setattr(branes, "_crossed", lambda held, net: range(0))
    with pytest.raises(RuntimeError, match=r"synthesized ledger covers \(.*\) on the dims \(1, 2\), with 0 over-full"):
        synthesize(d)
    monkeypatch.undo()
    audit = branes._audit
    monkeypatch.setattr(branes, "_audit", lambda *args: (audit(*args)[0], 1))
    with pytest.raises(RuntimeError, match=r"covers \(1, 2\) on the dims \(1, 2\), with 1 over-full fixed slots"):
        synthesize(d)


def test_synthesize_audits_a_wrong_winding_set(monkeypatch):
    # a fixed brane with six laps planted on every crossed pair covers
    # every segment more than the dims allow
    crossed = branes._crossed
    monkeypatch.setattr(branes, "_crossed", lambda held, net: [*crossed(held, net), 7])
    with pytest.raises(RuntimeError, match="synthesized ledger covers .* on the dims"):
        synthesize(ledger_built(14, 1))


def crossed_oracle(windings: set[int], net: int) -> set[int]:
    """The windings of a pair after ``net`` shrinks, or −net grows, by the
    set formula: (S − net) △ {1 − net, …, 0}, or (S − net) △ {1, …, −net}."""

    lo, hi = sorted((1, 1 - net))
    return {z - net for z in windings} ^ set(range(lo, hi))


@pytest.mark.parametrize("held", [0, 1])
def test_crossed_range_matches_the_set_formula(held):
    # the set formula against net single steps, a shrink S -> (S - 1) ^ {0}
    # and a grow S -> (S ^ {0}) + 1, and the range against the set formula
    start = {1} if held else set()
    for net in range(-30, 31):
        stepped = set(start)
        for _ in range(abs(net)):
            stepped = {z - 1 for z in stepped} ^ {0} if net > 0 else {z + 1 for z in stepped ^ {0}}
        assert crossed_oracle(start, net) == stepped, net
        got = branes._crossed(held, net)
        assert isinstance(got, range) and got.step == 1, net
        assert set(got) == stepped, net


def test_interned_entries_and_branes_stay_bounded_and_value_equal():
    # ids spread far past both cache sizes: every remap of a ledger-built
    # diagram's ids is new to both caches
    from bowforge.diagram import _hw_move, diagram_from_json, diagram_to_json
    from bowforge.susy import Certificate

    rng = random.Random(5)
    moves, branes_seen = set(), set()
    for r in range(400):
        data = diagram_to_json(ledger_built(8 + r % 7, r % 3))
        data["ids"] = rng.sample(range(10**9), len(data["ids"]))
        d = diagram_from_json(data)
        cert = decide_supersymmetry(d)
        ledger = synthesize(d)
        for entry in cert.pipeline:
            if isinstance(entry, HwMove):
                moves.add((entry.left, entry.right))
                assert type(entry) is HwMove and entry == HwMove(entry.left, entry.right)
        for brane in ledger.branes:
            branes_seen.add(brane)
            assert type(brane) is Brane and brane == Brane(brane.start, brane.end, brane.direction, brane.laps)
        for cache in (_hw_move, branes._brane):
            info = cache.cache_info()
            assert info.currsize <= info.maxsize
    for cache, seen in ((_hw_move, moves), (branes._brane, branes_seen)):
        info = cache.cache_info()
        assert len(seen) > info.maxsize and info.currsize == info.maxsize
    # a certificate of interned entries survives pickle and deepcopy equal
    assert isinstance(cert, Certificate) and cert.pipeline
    for copied in (pickle.loads(pickle.dumps(cert)), copy.deepcopy(cert)):
        assert copied == cert and copied.pipeline == cert.pipeline
    assert pickle.loads(pickle.dumps(ledger.branes)) == ledger.branes


def test_interning_keeps_equal_keys_of_other_types_apart():
    # a caller's float laps or float ids reach the interning constructors
    # first; a later ledger or certificate on the equal int keys must
    # still print ints, so compare the JSON text, where 1.0 and 1 differ
    from bowforge.diagram import _hw_move
    from bowforge.susy import certificate_to_json

    d = ledger_built(8, 1)
    want_ledger = json.dumps(ledger_to_json(synthesize(d)))
    want_cert = json.dumps(certificate_to_json(decide_supersymmetry(d)))
    floats = BraneLedger(d, {Brane(b.start, b.end, b.direction, float(b.laps)): m for b, m in synthesize(d).branes.items()})
    # a zero increment moves no brane, so every key goes out as it came in
    arrow = next(node.id for node in d.nodes if node.kind == NodeKind.ARROW)
    still = IncrementArrows(start=arrow, end=arrow, direction=ACW, amount=0)
    branes._brane.cache_clear()
    out = ledger_apply_move(floats, still)
    assert out.branes == floats.branes and all(type(b.laps) is float for b in out.branes)
    assert json.dumps(ledger_to_json(synthesize(d))) == want_ledger
    assert all(type(b.laps) is float for b in ledger_apply_move(floats, still).branes)

    d_float = BowDiagram(tuple(Node(float(n.id), n.kind) for n in d.nodes), d.dims, d.cut)
    _hw_move.cache_clear()
    moves = [e for e in decide_supersymmetry(d_float).pipeline if isinstance(e, HwMove)]
    assert moves and all(type(e.left) is float for e in moves)
    assert json.dumps(certificate_to_json(decide_supersymmetry(d))) == want_cert


@pytest.mark.parametrize("text", ["( 1 x 2 o 2 x 1 o )", "( 3 o 2 x 4 x 1 o 2 x )", "[ 1 x 2 o 3 o 1 x 0 ]"])
def test_one_audit_per_ledger_walk(text, monkeypatch):
    # synthesis audits the ledger it counted once, on d; construction
    # audits its layout's ledger once and then stages on a plain move
    # host, which carries no brane
    from bowforge.momentmap import construct_solution

    calls = []
    audit = branes._audit
    monkeypatch.setattr(branes, "_audit", lambda *args: calls.append(1) or audit(*args))
    d = parse_diagram(text)
    synthesize(d)
    assert len(calls) == 1
    assert construct_solution(d).converged
    assert len(calls) == 2


def test_walker_refuses_a_flawed_start():
    d = parse_diagram("( 1 o 2 x 1 o 1 x )")
    swap = HwMove(2, 3)
    with pytest.raises(KeyError, match="no node with id 9"):
        ledger_apply_move(BraneLedger(d, {Brane(0, 9, ACW, 0): 0}), swap)
    with pytest.raises(ValueError, match=r"brane coverage \(0, 0, 0, 0\) lost track of the host dims \(2, 1, 1, 1\)"):
        ledger_apply_move(BraneLedger(d, {}), swap)
    with pytest.raises(ValueError, match="has multiplicity -1"):
        ledger_apply_move(BraneLedger(parse_diagram("( 0 o 0 x )"), {Brane(0, 1, ACW, 0): -1}), HwMove(0, 1))


def test_walker_refuses_negative_laps():
    # coverage alone matches the dims here: the ACW brane covers segment 0
    # once and every segment -1 times, and the two full loops add 2
    d = parse_diagram("( 1 o 2 x 1 o 1 x )")
    ledger = BraneLedger(d, {Brane(0, 1, ACW, -1): 1, Brane(2, 2, CW, 1): 2})
    assert coverage(ledger) == d.dims
    with pytest.raises(ValueError, match=re.escape(f"brane {Brane(0, 1, ACW, -1)} has negative laps")):
        ledger_apply_move(ledger, HwMove(0, 1))


def ledger_built(k: int, seed: int) -> BowDiagram:
    """A diagram on the coverage of a random certifying ledger, drawn as
    the benchmark's certify-ledger inputs are: fixed arrow-to-x branes in
    distinct slots, unfixed branes with laps and multiplicities."""

    rng = random.Random(seed)
    while True:
        kinds = [rng.choice((NodeKind.ARROW, NodeKind.XPOINT)) for _ in range(k)]
        if kinds.count(NodeKind.ARROW) >= 2 and kinds.count(NodeKind.XPOINT) >= 2:
            break
    nodes = tuple(Node(i, kind) for i, kind in enumerate(kinds))
    arrows = [n.id for n in nodes if n.kind == NodeKind.ARROW]
    xs = [n.id for n in nodes if n.kind == NodeKind.XPOINT]
    ledger = {}
    for a, x, direction, laps in itertools.product(arrows, xs, (CW, ACW), range(3)):
        if rng.random() < 0.3:
            ledger[Brane(a, x, direction, laps)] = 1
    for _ in range(8):
        ids = arrows if rng.random() < 0.5 else xs
        start, end = rng.choice(ids), rng.choice(ids)
        key = Brane(start, end, rng.choice((CW, ACW)), rng.randint(1 if start == end else 0, 2))
        ledger[key] = ledger.get(key, 0) + rng.randint(1, 6)
    return BowDiagram(nodes, coverage(BraneLedger(BowDiagram(nodes, (0,) * k), ledger)))


@pytest.mark.parametrize("k, seed", [(8, 1), (8, 2), (14, 1), (14, 2)])
def test_branes_are_built_only_at_the_ledger_boundary(k, seed, monkeypatch):
    # the audit and synthesis carry tuple keys: synthesis builds at most
    # one Brane per ledger entry, whatever its pipeline length, and none
    # for an entry already interned; a construction, whose ledger never
    # leaves the module, builds none
    from bowforge.momentmap import construct_solution

    d = ledger_built(k, seed)
    assert len(decide_supersymmetry(d).pipeline) > k
    built = []

    def counting(*args, **kwargs):
        built.append(1)
        return Brane(*args, **kwargs)

    monkeypatch.setattr(branes, "Brane", counting)
    branes._brane.cache_clear()
    ledger = synthesize(d)
    assert len(built) == len(ledger.branes)
    assert check_ledger(ledger) == []
    built.clear()
    assert synthesize(d).branes == ledger.branes
    assert built == []
    assert construct_solution(parse_diagram("( 1 x 2 o 2 x 1 o )")).converged
    assert construct_solution(parse_diagram("[ 1 x 2 o 3 o 1 x 0 ]")).converged
    assert built == []


def test_walker_empties_a_crowded_slot_on_a_carried_swap():
    # a move keeps the doubled slot; the swap of its pair annihilates one
    # brane of it, with coverage still matched, and leaves the x-first brane
    ledger = BraneLedger(parse_diagram("( 1 o 2 x 1 o 1 x )"), {Brane(1, 0, ACW, 0): 1, Brane(0, 1, ACW, 0): 2})
    x_first = f"fixed brane {Brane(1, 0, ACW, 0)} not stored arrow-first"
    moved = ledger_apply_move(ledger, HwMove(2, 3))
    assert check_ledger(moved) == [x_first, f"fixed slot {Brane(0, 1, ACW, 0)} occupied 2 times"]
    moved = ledger_apply_move(moved, HwMove(0, 1))
    assert check_ledger(moved) == [x_first]
    assert moved.branes == {Brane(2, 3, CW, 0): 1, Brane(1, 0, ACW, 0): 1, Brane(0, 1, ACW, 0): 1}


# An x-first fixed brane keeps coverage and dims equal for three swaps, each
# moved by its own call; the fourth swap breaks the identity.
LOSES_TRACK = """
import json
from bowforge.branes import Brane, BraneLedger, ledger_apply_move
from bowforge.diagram import Direction, HwMove, parse_diagram

ledger = BraneLedger(
    parse_diagram("( 3 o 2 o 1 x 3 x )"),
    {Brane(0, 2, Direction.CW, 1): 1, Brane(2, 1, Direction.ACW, 0): 1},
)
for step, (left, right) in enumerate([(3, 0), (2, 0), (3, 1), (2, 1)]):
    try:
        ledger = ledger_apply_move(ledger, HwMove(left, right))
    except ValueError as exc:
        print(json.dumps([step, str(exc)]))
        break
"""


def test_walker_loses_track_at_the_same_swap_under_optimize(capsys):
    exec(LOSES_TRACK, {})
    plain = capsys.readouterr().out
    assert json.loads(plain) == [
        3,
        "brane coverage (5, 3, 4, 5) lost track of the host dims (3, 1, 2, 3); "
        "the ledger did not match its host",
    ]
    assert run_optimized(LOSES_TRACK) == plain


def test_synthesize_finite_raises_exactly_on_non_susy_layouts():
    # x-points then arrows, cut on the segment after the last x-point
    checked = refused = 0
    for n, w in itertools.product(range(1, 4), repeat=2):
        nodes = tuple(Node(i, NodeKind.XPOINT) for i in range(w)) + tuple(Node(w + i, NodeKind.ARROW) for i in range(n))
        for dims in itertools.product(range(-1, 3), repeat=n + w):
            if dims[w - 1]:
                continue
            fin = separated_view(BowDiagram(nodes, dims, w - 1))
            assert fin.is_finite_layout
            if min(dims) >= 0 and check_finite_separated(fin).verdict:
                assert check_ledger(synthesize_finite(fin)) == []
            else:
                with pytest.raises(ValueError, match="not supersymmetric"):
                    synthesize_finite(fin)
                refused += 1
            checked += 1
    assert refused > 1000 and checked - refused > 100


def test_synthesize_one_kind():
    ledger = synthesize(parse_diagram("( 5 o 3 o )"))
    d = ledger.diagram
    assert ledger.branes == {
        Brane(0, 0, CW, 1): 3,
        Brane(0, 1, CW, 0): 2,
    }
    assert coverage(ledger) == d.dims == (3, 5)
    ledger = synthesize(parse_diagram("( 4 x )"))
    assert ledger.branes == {Brane(0, 0, CW, 1): 4}


def test_synthesize_winding_family():
    # one x and one arrow; the dimension gap g across the x point comes
    # out as one anticlockwise fixed brane per winding 0..g-1 plus an
    # unfixed loop soaking up the rest
    for g in range(4):
        for v1 in range(g * (g - 1) // 2, g * (g - 1) // 2 + 3):
            v0 = v1 + g
            d = parse_diagram(f"( {v0} x {v1} o )")
            assert decide_supersymmetry(d).verdict
            ledger = synthesize(d)
            e, x = 1, 0
            expected = {Brane(e, x, ACW, p): 1 for p in range(g)}
            loops = v1 - g * (g - 1) // 2
            if loops:
                expected[Brane(x, x, CW, 1)] = loops
            assert ledger.branes == expected, (g, v1)


def test_synthesize_sweep_small():
    # every supersymmetric diagram in a small affine family gets a
    # valid certificate whose host is the input itself
    shapes = [
        ("( {0} x {1} o )", 2),
        ("( {0} x {1} o {2} x {3} o )", 4),
        ("( {0} x {1} x {2} o )", 3),
        ("( {0} o {1} x {2} o )", 3),
    ]
    checked = 0
    for template, arity in shapes:
        for dims in itertools.product(range(3), repeat=arity):
            d = parse_diagram(template.format(*dims))
            if not decide_supersymmetry(d).verdict:
                continue
            ledger = synthesize(d)
            assert ledger.diagram == d
            assert check_ledger(ledger) == []
            assert ledger_is_susy(ledger)
            checked += 1
    assert checked > 40


def test_synthesize_finite_sweep_small():
    checked = 0
    for dims in itertools.product(range(3), repeat=3):
        v1, v0, vm1 = dims
        d = parse_diagram(f"[ 0 o {v1} o {v0} x {vm1} x 0 ]")
        if not decide_supersymmetry(d).verdict:
            continue
        ledger = synthesize(d)
        assert ledger.diagram == d
        assert check_ledger(ledger) == []
        checked += 1
    assert checked > 10


# The digest of every ledger that synthesize builds on the supersymmetric
# affine diagrams with k <= 4 and dims 0..3, one canonical JSON line
# each, in sweep order.  It pins the ledgers themselves, not only their
# validity, so a faster transport or check must reproduce them exactly.
LEDGER_SWEEP_COUNT = 3384
LEDGER_SWEEP_SHA256 = "96dd8a8a91a24ae3560ce5023ccdf386fed4c30fa631469542d5a00bd19119d4"


def test_synthesize_ledger_guard():
    digest = hashlib.sha256()
    count = 0
    for k in range(2, 5):
        for kinds in itertools.product("ox", repeat=k):
            if "o" not in kinds or "x" not in kinds:
                continue
            for dims in itertools.product(range(4), repeat=k):
                d = parse_diagram("( " + " ".join(f"{v} {c}" for v, c in zip(dims, kinds)) + " )")
                if not decide_supersymmetry(d).verdict:
                    continue
                line = json.dumps(ledger_to_json(synthesize(d)), sort_keys=True, separators=(",", ":"))
                digest.update(line.encode() + b"\n")
                count += 1
    assert count == LEDGER_SWEEP_COUNT
    assert digest.hexdigest() == LEDGER_SWEEP_SHA256


def ledger_line(d: BowDiagram) -> bytes:
    """The ledger that synthesize builds on ``d`` as one canonical JSON line."""

    return json.dumps(ledger_to_json(synthesize(d)), sort_keys=True, separators=(",", ":")).encode() + b"\n"


# The digest of the ledgers synthesize builds on ledger_built(k, seed)
# for k = 8..14 and seeds 0..199, in that order: long pipelines whose
# arrows cross their x points many times over.
LEDGER_BUILT_SHA256 = "9d93c9ff6d8eabfdc464d283379b04ccae83719557ab2d62806fc460d1b6712c"


def test_synthesize_ledger_built_guard():
    digest = hashlib.sha256()
    for k in range(8, 15):
        for seed in range(200):
            digest.update(ledger_line(ledger_built(k, seed)))
    assert digest.hexdigest() == LEDGER_BUILT_SHA256


# The digest of the ledgers on the supersymmetric finite diagrams
# [ 0 n0 d1 ... n_{k-1} 0 ] with k = 2..4, both node kinds and interior
# dims 0..3, in the sweep order of test_finite_certificate_sweep_guard.
FINITE_LEDGER_COUNT = 726
FINITE_LEDGER_SHA256 = "78af16d065fec292eb0d20125c0b0f1f0a7d268e68c9740c2b055c1d62c077f3"


def test_synthesize_finite_ledger_guard():
    digest = hashlib.sha256()
    count = 0
    for k in range(2, 5):
        for kinds in itertools.product("ox", repeat=k):
            if "o" not in kinds or "x" not in kinds:
                continue
            for dims in itertools.product(range(4), repeat=k - 1):
                d = parse_diagram("[ 0 " + " ".join(f"{c} {v}" for c, v in zip(kinds, dims + (0,))) + " ]")
                if not decide_supersymmetry(d).verdict:
                    continue
                digest.update(ledger_line(d))
                count += 1
    assert count == FINITE_LEDGER_COUNT
    assert digest.hexdigest() == FINITE_LEDGER_SHA256


def test_synthesize_walks_no_move(monkeypatch):
    # synthesis computes its layout and crossings: it decides nothing,
    # makes no swap or pass, builds no brane-carrying host and sends no
    # move through a host, however long the pipeline of a decide would be
    from bowforge import rewrite, susy

    calls = []

    def counted(owner, name, label):
        original = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args: calls.append(label) or original(*args))

    counted(branes._Carry, "__init__", "carry")
    counted(rewrite._Host, "move", "move")
    counted(susy, "_decide_full", "decide")
    # every pass of a decide, separation's and the reduction's counted
    # ones alike, is rewrite's, and every swap of a pass too
    counted(rewrite, "_pass", "pass")
    counted(rewrite, "_swap", "swap")
    d = ledger_built(14, 1)
    # the counters see a decide, its passes and their swaps
    assert len(decide_supersymmetry(d).pipeline) > 14
    assert set(calls) == {"decide", "pass", "swap"}
    calls.clear()
    ledger = synthesize(d)
    assert calls == []
    assert check_ledger(ledger) == []
    # the counters see a brane-carrying host and its move where there is one
    ledger_apply_move(ledger, HwMove(*rewrite.legal_swaps(d)[0]))
    assert calls == ["carry", "move", "swap"]


# ---------------------------------------------------------------------------
# the closed-form reduction against the decide pipeline


def pipeline_nets(cert, fin) -> tuple[dict, int]:
    """The nonzero net shrinks ``{(arrow id, x id): count}`` of a positive
    certificate's pipeline and its arc subtraction amount, read off the
    log as synthesis read them before it computed them.

    Undoing ``HwMove(left, right)`` swaps right before left, so it
    shrinks the pair when the arrow is ``right`` and grows it when the
    arrow is ``left``; a cut moves nothing.
    """

    xs = set(fin.x_ids)
    net: dict[tuple[int, int], int] = {}
    amount = 0
    for entry in cert.pipeline:
        if isinstance(entry, HwMove):
            if entry.right in xs:
                pair, step = (entry.left, entry.right), -1
            else:
                pair, step = (entry.right, entry.left), 1
            net[pair] = net.get(pair, 0) + step
        elif isinstance(entry, SubtractArrowArc):
            amount = entry.amount
        else:
            assert isinstance(entry, CutAt), entry
    return {pair: count for pair, count in net.items() if count}, amount


def closed_reduction(d: BowDiagram) -> tuple:
    """``susy._closed_reduction`` on ``d``, as lists, with zero nets dropped."""

    xpos = [pos for pos in range(d.k) if d.nodes[pos].kind == NodeKind.XPOINT]
    v_arr, v_x, arrow_ids, x_ids, net, amount = _closed_reduction(d, xpos)
    nets = {pair: count for pair, count in net.items() if count}
    return list(v_arr), list(v_x), list(arrow_ids), list(x_ids), nets, amount


def closed_counts(sep) -> tuple[int, int]:
    """The closed form's signed gap passes q and its pushes from a
    separated view: q = gap // w for affine input, then n − c pushes with
    c the index of the cut label, the first minimal label after the gap
    passes or the label the finite input's cut sits on."""

    if sep.diagram.cut is not None:
        return 0, sep.n - sep.seg_arr.index(sep.diagram.cut)
    q = sep.gap // sep.w
    arc, _ = _passes(list(sep.v_arr), list(sep.arrow_ids), q, sep.w, {})
    return q, sep.n - arc.index(min(arc))


def reduction_sweep():
    """The k <= 5, dims 0..4 affine sweep (103,300 diagrams), then every
    finite diagram with k <= 5, both kinds, dims 0..2 and the cut on any
    zero segment, ids in storage order."""

    for k in range(2, 6):
        for kinds in itertools.product("ox", repeat=k):
            if "o" not in kinds or "x" not in kinds:
                continue
            for dims in itertools.product(range(5), repeat=k):
                yield parse_diagram("( " + " ".join(f"{v} {c}" for v, c in zip(dims, kinds)) + " )")
    for k in range(2, 6):
        for kinds in itertools.product((NodeKind.ARROW, NodeKind.XPOINT), repeat=k):
            if len(set(kinds)) < 2:
                continue
            nodes = tuple(Node(i, kind) for i, kind in enumerate(kinds))
            for dims in itertools.product(range(3), repeat=k):
                for cut in range(k):
                    if dims[cut] == 0:
                        yield BowDiagram(nodes, dims, cut)


def test_closed_reduction_matches_the_decide_sweep():
    # on every positive the closed form reaches decide's layout, with its
    # ids, and the pipeline's nets and subtraction; on every negative
    # synthesis refuses
    positives = negatives = 0
    for d in reduction_sweep():
        cert, fin = _decide_full(d)
        if not cert.verdict:
            try:
                synthesize(d)
            except ValueError:
                negatives += 1
                continue
            raise AssertionError(f"synthesize accepted {d}, which decide refutes")
        nets, amount = pipeline_nets(cert, fin)
        want = (list(fin.v_arr), list(fin.v_x), list(fin.arrow_ids), list(fin.x_ids), nets, amount)
        assert closed_reduction(d) == want, d
        # past the separation prefix, the reduction makes the closed
        # form's counted passes of w swaps each and no other swap
        sep, prefix = separate(d)
        q, pushes = closed_counts(sep)
        assert cert.pipeline[:len(prefix)] == prefix
        swaps = sum(isinstance(entry, HwMove) for entry in cert.pipeline[len(prefix):])
        assert swaps == sep.w * (abs(q) + pushes), d
        positives += 1
    assert (positives, negatives) == (79520 + 11800, 23780 + 2036)
