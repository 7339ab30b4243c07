"""Property tests for brane ledgers: coverage arithmetic, move round trips,
``ledger_apply_move`` called in a chain against the per-move ledger
transport, kept here as an oracle, and against the ``Brane``-keyed ledger
walker that carried coverage, charges and the fixed-slot count through
its moves, also kept here as an oracle, synthesis by crossing counts
against that walker's replay of the reversed pipeline, and synthesis
from the closed-form reduction against the netting of a decide's
pipeline that it replaced, also kept here as the oracle."""

import json
from itertools import accumulate

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from bowforge.branes import (
    Brane,
    BraneLedger,
    _crossed,
    _finite_branes,
    _one_kind_branes,
    check_ledger,
    coverage,
    ledger_apply_move,
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
    separated_view,
)
from bowforge.rewrite import _index, _swap, apply_entry, legal_swaps
from bowforge.susy import _decide_full
from test_branes import ledger_is_susy, pipeline_nets

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
def certifying_ledgers(draw, max_nodes=12):
    """A ledger that certifies its host: fixed branes arrow-first, one per slot."""

    d = draw(hosts(max_nodes))
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


# ---------------------------------------------------------------------------
# the in-place walker against the per-move transport


def _put(branes: dict, key, mult: int) -> None:
    if mult == 0:
        return
    total = branes.get(key, 0) + mult
    if total:
        branes[key] = total
    else:
        branes.pop(key, None)


def _remove(branes: dict[Brane, int], key: Brane, mult: int) -> None:
    have = branes.get(key, 0)
    if have < mult:
        raise ValueError(f"ledger holds {have} of {key}, cannot remove {mult}")
    if have == mult:
        del branes[key]
    else:
        branes[key] = have - mult


def oracle_transport_hw(branes: dict, index: dict, left: int, right: int) -> dict:
    """The swap transport on a copy of the brane dict, as ledgers were once moved."""

    u = left if index[left][1] == ARROW else right
    xp = right if u == left else left
    shrink = ACW if u == left else CW
    grow = CW if shrink == ACW else ACW
    ends = {(u, xp), (xp, u)}
    out = dict(branes)
    pair = []
    for key, mult in branes.items():
        if not mult:
            del out[key]
        elif (key.start, key.end) in ends:
            del out[key]
            pair.append((key, mult))
    candidate = Brane(u, xp, shrink, 0)
    annihilated = branes.get(candidate, 0) >= 1
    for key, mult in pair:
        m = mult
        if key == candidate and annihilated:
            m -= 1
        if m == 0:
            continue
        if key.direction == shrink:
            _put(out, Brane(key.start, key.end, shrink, max(key.laps - 1, 0)), m)
        else:
            _put(out, Brane(key.start, key.end, grow, key.laps + 1), m)
    if not annihilated:
        _put(out, Brane(u, xp, grow, 0), 1)
    return out


def arc_increment(d: BowDiagram, entry: SubtractArrowArc) -> IncrementX:
    """The increment that undoes an arc subtraction on ``d``, read off its
    separated view: the clockwise x-to-x arc from x_1 to x_w, a full loop
    when w = 1."""

    sep = None if d.cut is not None else separated_view(d)
    if sep is None or not sep.n or not sep.w:
        raise ValueError("arc subtraction needs an affine separated diagram")
    return IncrementX(sep.x_ids[0], sep.x_ids[-1], CW, entry.amount)


def oracle_move(ledger: BraneLedger, entry, inverse: bool) -> tuple[BraneLedger, bool]:
    """One move: a new host from ``apply_entry``, a new brane dict, a full audit."""

    d = ledger.diagram
    if isinstance(entry, SubtractArrowArc):
        entry, inverse = arc_increment(d, entry), not inverse
    host = apply_entry(d, entry, inverse=inverse)
    index = {host.nodes[i].id: (i, host.nodes[i].kind) for i in range(host.k - 1, -1, -1)}
    if isinstance(entry, HwMove):
        left, right = (entry.right, entry.left) if inverse else (entry.left, entry.right)
        branes = oracle_transport_hw(ledger.branes, index, left, right)
    else:
        branes = dict(ledger.branes)
        if not isinstance(entry, CutAt) and entry.amount:
            key = Brane(entry.start, entry.end, entry.direction, 1 if entry.start == entry.end else 0)
            if inverse:
                _remove(branes, key, entry.amount)
            else:
                _put(branes, key, entry.amount)
    moved = _matched(BraneLedger(host, branes))
    return moved, ledger_is_susy(moved)


def _matched(ledger: BraneLedger) -> BraneLedger:
    got = coverage(ledger)
    if got != ledger.diagram.dims:
        raise ValueError(
            f"brane coverage {got} lost track of the host dims {ledger.diagram.dims}; "
            "the ledger did not match its host"
        )
    return ledger


def oracle_start(ledger: BraneLedger) -> BraneLedger:
    """The audit ``ledger_apply_move`` makes of the ledger it is given:
    every id on the host and the coverage equal to the dims; zero entries
    dropped."""

    _matched(ledger)
    return BraneLedger(ledger.diagram, {key: mult for key, mult in ledger.branes.items() if mult})


def _outcome(call):
    try:
        return "ok", call()
    except (KeyError, ValueError, TypeError) as exc:
        return "raised", (type(exc), str(exc))


@st.composite
def walk_ledgers(draw):
    """Certifying ledgers, some with zero-multiplicity entries; a few miss
    coverage by one or name a node the host does not have."""

    ledger = draw(certifying_ledgers())
    branes, d = dict(ledger.branes), ledger.diagram
    ids = [node.id for node in d.nodes]
    brane = st.builds(Brane, st.sampled_from(ids), st.sampled_from(ids), st.sampled_from([CW, ACW]), st.integers(0, 2))
    for key in draw(st.lists(brane, max_size=3)):
        branes.setdefault(key, 0)
    flaw = draw(st.sampled_from(["none"] * 18 + ["dims", "missing"]))
    if flaw == "dims":
        d = BowDiagram(d.nodes, (d.dims[0] + 1,) + d.dims[1:], d.cut)
    elif flaw == "missing":
        branes[Brane(d.k + 3, ids[0], CW, 0)] = 1
    return BraneLedger(d, branes)


def _draw_entry(data, ledger: BraneLedger, inverse: bool):
    """Mostly a legal move in the drawn sense; sometimes any move at all."""

    d = ledger.diagram
    ids = [node.id for node in d.nodes] + [d.k + 7]
    pick = data.draw(st.sampled_from(["swap"] * 12 + ["increment"] * 3 + ["any", "cut", "subtract"]))
    if pick == "swap" and legal_swaps(d):
        left, right = data.draw(st.sampled_from(legal_swaps(d)))
        return HwMove(right, left) if inverse else HwMove(left, right)
    kinds = {node.id: node.kind for node in d.nodes}
    held = [
        (key, mult)
        for key, mult in ledger.branes.items()
        if mult > 0 and kinds.get(key.start, 0) == kinds.get(key.end)
        and key.laps == (1 if key.start == key.end else 0)
    ]
    if pick == "increment" and inverse and held:
        key, mult = data.draw(st.sampled_from(held))
        cls = IncrementArrows if kinds[key.start] == ARROW else IncrementX
        return cls(key.start, key.end, key.direction, data.draw(st.integers(1, mult)))
    if pick == "increment":
        node = data.draw(st.sampled_from(d.nodes))
        same = [n.id for n in d.nodes if n.kind == node.kind]
        cls = IncrementArrows if node.kind == ARROW else IncrementX
        return cls(node.id, data.draw(st.sampled_from(same)), data.draw(st.sampled_from([CW, ACW])), data.draw(st.integers(0, 3)))
    if pick == "cut":
        zeros = [seg for seg in range(d.k) if d.dims[seg] == 0] or [0]
        return CutAt(d.cut if inverse and d.cut is not None else data.draw(st.sampled_from(zeros)))
    if pick == "subtract":
        return SubtractArrowArc(data.draw(st.integers(0, 2)))
    cls = data.draw(st.sampled_from([HwMove, IncrementArrows, IncrementX, CutAt]))
    if cls is HwMove:
        return HwMove(data.draw(st.sampled_from(ids)), data.draw(st.sampled_from(ids)))
    if cls is CutAt:
        return CutAt(data.draw(st.integers(0, d.k - 1)))
    return cls(
        data.draw(st.sampled_from(ids)),
        data.draw(st.sampled_from(ids)),
        data.draw(st.sampled_from([CW, ACW])),
        data.draw(st.integers(-1, 3)),
    )


def _crowd_free(ledger: BraneLedger) -> bool:
    """The fixed-slot verdict ``check_ledger`` reports."""

    return not any("occupied" in problem for problem in check_ledger(ledger))


def _chained(ledger: BraneLedger, entry, inverse: bool):
    """One link of a chain: ``ledger_apply_move`` against the oracle's
    audit of the ledger it is given and its move.  Both raise alike, or
    both come back with the same diagram and branes in the same order,
    and ``check_ledger`` reads the oracle's fixed-slot verdict; the moved
    ledger comes back, or None after a refusal."""

    want = _outcome(lambda: oracle_move(oracle_start(ledger), entry, inverse))
    got = _outcome(lambda: ledger_apply_move(ledger, entry, inverse))
    assert got[0] == want[0], (entry, inverse, got, want)
    if want[0] == "raised":
        assert got[1] == want[1]
        return None
    moved, (oracle, susy) = got[1], want[1]
    assert moved.diagram == oracle.diagram
    assert list(moved.branes.items()) == list(oracle.branes.items())
    assert _crowd_free(moved) == susy
    return moved


@settings(max_examples=300, deadline=None)
@given(walk_ledgers(), st.data())
def test_walker_matches_per_move_transport(ledger, data):
    # ledger_apply_move called in a chain against the per-move transport;
    # the first call meets the drawn ledger's flaws, if it has any
    for _ in range(data.draw(st.integers(1, 16))):
        inverse = data.draw(st.booleans())
        ledger = _chained(ledger, _draw_entry(data, ledger, inverse), inverse)
        if ledger is None:
            return


# ---------------------------------------------------------------------------
# long chains of moves against the per-move transport


@st.composite
def carried_ledgers(draw):
    """Ledgers on up to 20 nodes whose dims are their coverage.

    A third certify their host.  The others hold any branes: fixed ones
    stored either end first and more than one to a slot, unfixed ones,
    all with laps; in half of those, every brane runs between one
    adjacent arrow and x point, so that swaps of that pair merge and
    split crowded slots.  Some ledgers hold zero-multiplicity entries,
    and a few name a node that the host does not have.
    """

    flavor = draw(st.sampled_from(["certifying", "any", "one pair"]))
    if flavor == "certifying":
        ledger = draw(certifying_ledgers(max_nodes=20))
        d, branes = ledger.diagram, dict(ledger.branes)
    else:
        d = draw(hosts(max_nodes=20))
        ids = [node.id for node in d.nodes]
        ends = st.tuples(st.sampled_from(ids), st.sampled_from(ids))
        pairs = [(d.nodes[pos].id, d.nodes[pos - 1].id) for pos in range(d.k) if d.nodes[pos].kind != d.nodes[pos - 1].kind]
        if flavor == "one pair" and pairs:
            a, b = draw(st.sampled_from(pairs))
            ends = st.sampled_from([(a, b), (b, a)])
        brane = st.builds(lambda ab, direction, laps: Brane(*ab, direction, laps), ends, st.sampled_from([CW, ACW]), st.integers(0, 3))
        branes = draw(st.dictionaries(brane, st.integers(1, 3), max_size=24))
        d = BowDiagram(d.nodes, coverage(BraneLedger(d, branes)))
    ids = [node.id for node in d.nodes]
    brane = st.builds(Brane, st.sampled_from(ids), st.sampled_from(ids), st.sampled_from([CW, ACW]), st.integers(0, 2))
    for key in draw(st.lists(brane, max_size=3)):
        branes.setdefault(key, 0)
    if draw(st.integers(0, 15)) == 0:
        branes[Brane(d.k + 3, ids[0], CW, 0)] = draw(st.integers(0, 1))
    return BraneLedger(d, branes)


def _draw_walk_entry(data, ledger: BraneLedger):
    """A move and its sense, mostly one that ``ledger_apply_move`` accepts,
    so that words run long: a swap, an increment or the undoing of a held
    one, a cut or its undoing, an arc subtraction on a separated affine
    host (undone, or taking back branes the ledger holds); now and then
    any entry at all."""

    d = ledger.diagram
    pick = data.draw(st.sampled_from(["swap"] * 12 + ["increment"] * 2 + ["cut", "subtract", "subtract", "other"]))
    if pick == "increment":
        kinds = {node.id: node.kind for node in d.nodes}
        held = [
            (key, mult)
            for key, mult in ledger.branes.items()
            if mult > 0 and kinds.get(key.start, 0) == kinds.get(key.end)
            and key.laps == (1 if key.start == key.end else 0)
        ]
        if held and data.draw(st.booleans()):
            key, mult = data.draw(st.sampled_from(held))
            cls = IncrementArrows if kinds[key.start] == ARROW else IncrementX
            return cls(key.start, key.end, key.direction, data.draw(st.integers(1, mult))), True
        node = data.draw(st.sampled_from(d.nodes))
        end = data.draw(st.sampled_from([n.id for n in d.nodes if n.kind == node.kind]))
        cls = IncrementArrows if node.kind == ARROW else IncrementX
        return cls(node.id, end, data.draw(st.sampled_from([CW, ACW])), data.draw(st.integers(0, 3))), False
    if pick == "cut":
        if d.cut is not None:
            return CutAt(d.cut), True
        zeros = [seg for seg in range(d.k) if d.dims[seg] == 0]
        if zeros:
            return CutAt(data.draw(st.sampled_from(zeros))), False
    sep = separated_view(d)
    if pick == "subtract" and d.cut is None and sep is not None and sep.n and sep.w:
        arc = Brane(sep.x_ids[0], sep.x_ids[-1], CW, int(sep.w == 1))
        held = ledger.branes.get(arc, 0)
        if held > 0 and data.draw(st.booleans()):
            return SubtractArrowArc(data.draw(st.integers(1, held))), False
        return SubtractArrowArc(data.draw(st.integers(0, 2))), True
    if pick != "other" and legal_swaps(d):
        left, right = data.draw(st.sampled_from(legal_swaps(d)))
        return HwMove(left, right), False
    inverse = data.draw(st.booleans())
    return _draw_entry(data, ledger, inverse), inverse


@settings(max_examples=300, deadline=None)
@given(carried_ledgers(), st.data())
def test_walker_carries_what_a_full_audit_computes(ledger, data):
    # chains of up to 64 calls, through crowded slots and x-first fixed
    # branes, against the per-move transport
    for _ in range(data.draw(st.integers(1, 64))):
        entry, inverse = _draw_walk_entry(data, ledger)
        ledger = _chained(ledger, entry, inverse)
        if ledger is None:
            return


# ---------------------------------------------------------------------------
# chained moves against the Brane-keyed walker


def brane_audit(k: int, index: dict, branes: dict[Brane, int]) -> tuple[tuple[int, ...], int]:
    """The from-scratch audit over ``Brane`` keys: coverage and over-full fixed slots."""

    laps = 0
    diff = [0] * k
    crowd = 0
    try:
        for brane, mult in branes.items():
            i, kind_i = index[brane.start]
            j, kind_j = index[brane.end]
            laps += mult * brane.laps
            if kind_i != kind_j and mult > 1:
                crowd += 1
            if i == j:
                continue
            if brane.direction != ACW:
                i, j = j, i
            diff[i] += mult
            diff[j] -= mult
            if i > j:
                diff[0] += mult
    except KeyError as err:
        raise KeyError(f"no node with id {err.args[0]}") from None
    return tuple(accumulate(diff, initial=laps))[1:], crowd


def _increment_segments(nodes, cut, position, entry):
    """The segments an increment raises, as the walker once found them on its lists."""

    want = ARROW if isinstance(entry, IncrementArrows) else XPOINT
    for node_id in (entry.start, entry.end):
        if nodes[position(node_id)].kind != want:
            raise ValueError(f"node {node_id} is not of kind {want.value!r}")
    k = len(nodes)
    i, j = position(entry.start), position(entry.end)
    if entry.direction != ACW:
        i, j = j, i
    segs = range(k) if i == j else [(i + step) % k for step in range((j - i) % k)]
    if cut is not None and cut in segs:
        raise ValueError("increment arc crosses the cut segment")
    return segs


def _cut_after(cut, dims, entry, inverse):
    """The cut after a CutAt entry or its inverse, as the walker once set it."""

    if inverse:
        if cut != entry.segment:
            raise ValueError("inverse cut does not match the diagram's cut")
        return None
    if cut is not None:
        raise ValueError("diagram is already cut")
    if dims[entry.segment] != 0:
        raise ValueError("can only cut a zero segment")
    return entry.segment


class BraneWalk:
    """A ledger carried through moves in place with a ``Brane``-keyed dict:
    a coverage list, a charge per position (anticlockwise arcs that start
    at the node there minus those that end there, so that
    ``cover[p] = cover[p - 1] + charge[p]``), the count of over-full fixed
    slots and the fixed branes grouped by (arrow id, x-point id), all
    carried, not recomputed, and the coverage checked after every move."""

    def __init__(self, ledger: BraneLedger):
        d = ledger.diagram
        self.nodes, self.dims, self.cut = list(d.nodes), list(d.dims), d.cut
        self.index = index = _index(d)
        got, self.crowd = brane_audit(d.k, index, ledger.branes)
        self.branes: dict[Brane, int] = {}
        self.groups: dict[tuple[int, int], list[Brane]] = {}
        for key, mult in ledger.branes.items():
            if mult < 0:
                raise ValueError(f"brane {key} has multiplicity {mult}")
            if key.laps < 0:
                raise ValueError(f"brane {key} has negative laps")
            if not mult:
                continue
            self.branes[key] = mult
            start, end = index[key.start][1], index[key.end][1]
            if start != end:
                pair = (key.start, key.end) if start == ARROW else (key.end, key.start)
                self.groups.setdefault(pair, []).append(key)
        self.cover = list(got)
        self.charge = [got[p] - got[p - 1] for p in range(d.k)]
        self._check_cover()

    def host(self) -> BowDiagram:
        return BowDiagram(nodes=tuple(self.nodes), dims=tuple(self.dims), cut=self.cut)

    def ledger(self) -> BraneLedger:
        return BraneLedger(diagram=self.host(), branes=self.branes)

    def _position(self, node_id: int) -> int:
        try:
            return self.index[node_id][0]
        except KeyError:
            raise KeyError(f"no node with id {node_id}") from None

    def move(self, entry, inverse: bool = False) -> bool:
        if isinstance(entry, HwMove):
            left, right = (entry.right, entry.left) if inverse else (entry.left, entry.right)
            self._swap_pair(left, right)
        else:
            if not isinstance(entry, CutAt) and entry.amount < 0:
                raise ValueError(f"move amount must be nonnegative, got {entry.amount}")
            if isinstance(entry, SubtractArrowArc):
                entry, inverse = arc_increment(self.host(), entry), not inverse
            if isinstance(entry, (IncrementArrows, IncrementX)):
                self._increment(entry, inverse)
            elif isinstance(entry, CutAt):
                self.cut = _cut_after(self.cut, self.dims, entry, inverse)
            else:
                raise TypeError(f"unknown move entry {entry!r}")
        self._check_cover()
        return not self.crowd

    def _check_cover(self) -> None:
        if self.cover != self.dims:
            raise ValueError(
                f"brane coverage {tuple(self.cover)} lost track of the host dims {tuple(self.dims)}; "
                "the ledger did not match its host"
            )

    def _swap_pair(self, left: int, right: int) -> None:
        nodes, index = self.nodes, self.index
        k = len(nodes)
        pos = self._position(left)
        after = (pos + 1) % k
        if after != self._position(right):
            raise ValueError(f"nodes {left} and {right} are not adjacent in that order")
        kind = nodes[pos].kind
        if kind == nodes[after].kind:
            raise ValueError("cannot swap two nodes of the same kind")
        if self.cut is not None and pos == self.cut:
            raise ValueError("cannot swap across the cut segment")
        _swap(nodes, self.dims, self.cut, pos)
        index[left] = (after, kind)
        index[right] = (pos, nodes[pos].kind)

        u, xp = (left, right) if kind == ARROW else (right, left)
        shrink = ACW if u == left else CW
        grow = CW if u == left else ACW
        branes = self.branes
        taken = [(key, branes.pop(key)) for key in self.groups.get((u, xp), ())]
        annihilated = False
        moved: dict[Brane, int] = {}
        for key, mult in taken:
            if key.direction == shrink:
                if key.start == u and key.laps == 0 and mult >= 1:
                    annihilated = True
                    mult -= 1
                key = Brane(key.start, key.end, shrink, max(key.laps - 1, 0))
            else:
                key = Brane(key.start, key.end, grow, key.laps + 1)
            _put(moved, key, mult)
        if not annihilated:
            _put(moved, Brane(u, xp, grow, 0), 1)
        branes.update(moved)
        self.groups[(u, xp)] = list(moved)

        uniform = flux = crowd = 0
        for key, mult in taken:
            first = (key.start if key.direction == ACW else key.end) == left
            uniform -= mult * (key.laps + (not first))
            flux -= mult if first else -mult
            crowd -= mult > 1
        for key, mult in moved.items():
            first = (key.start if key.direction == ACW else key.end) == left
            uniform += mult * (key.laps + first)
            flux += mult if first else -mult
            crowd += mult > 1
        charge, cover = self.charge, self.cover
        charge[pos], charge[after] = charge[after] - flux, charge[pos] + flux
        if uniform:
            cover[:] = [value + uniform for value in cover]
        cover[pos] = cover[pos - 1] + charge[pos]
        self.crowd += crowd

    def _increment(self, entry, inverse: bool) -> None:
        segs = _increment_segments(self.nodes, self.cut, self._position, entry)
        delta = -entry.amount if inverse else entry.amount
        for seg in segs:
            self.dims[seg] += delta
        for seg in segs:
            self.cover[seg] += delta
        self.charge[segs[0]] += delta
        self.charge[(segs[-1] + 1) % len(self.nodes)] -= delta
        if entry.amount:
            key = Brane(entry.start, entry.end, entry.direction, 1 if entry.start == entry.end else 0)
            (_remove if inverse else _put)(self.branes, key, entry.amount)


@st.composite
def negative_lap_ledgers(draw):
    """Ledgers on their coverage whose branes may wind negative laps, which
    the walker and ``ledger_apply_move`` refuse."""

    d = draw(hosts())
    ids = [node.id for node in d.nodes]
    brane = st.builds(Brane, st.sampled_from(ids), st.sampled_from(ids), st.sampled_from([CW, ACW]), st.integers(-2, 2))
    branes = draw(st.dictionaries(brane, st.integers(1, 3), max_size=12))
    return BraneLedger(BowDiagram(d.nodes, coverage(BraneLedger(d, branes))), branes)


@settings(max_examples=300, deadline=None)
@given(st.one_of(carried_ledgers(), walk_ledgers(), negative_lap_ledgers()), st.data())
def test_walker_matches_the_brane_keyed_walker(ledger, data):
    # the walker refuses a flawed start when it is built, and
    # ledger_apply_move at its first call, with the same error
    oracle = _outcome(lambda: BraneWalk(ledger))
    if oracle[0] == "raised":
        entry, inverse = _draw_walk_entry(data, ledger)
        assert _outcome(lambda: ledger_apply_move(ledger, entry, inverse)) == oracle
        return
    walk = oracle[1]
    for _ in range(data.draw(st.integers(1, 64))):
        entry, inverse = _draw_walk_entry(data, ledger)
        want = _outcome(lambda: walk.move(entry, inverse))
        got = _outcome(lambda: ledger_apply_move(ledger, entry, inverse))
        if want[0] == "raised":
            assert got == want, (entry, inverse)
            return
        assert got[0] == "ok", (entry, inverse, got)
        ledger = got[1]
        assert ledger.diagram == walk.host()
        assert list(ledger.branes.items()) == list(walk.branes.items())
        assert _crowd_free(ledger) == want[1]


# ---------------------------------------------------------------------------
# synthesis by crossing counts against the walker replay


def _brane_keyed(branes: dict[tuple, int]) -> dict[Brane, int]:
    return {Brane(s, e, ACW if acw else CW, laps): m for (s, e, acw, laps), m in branes.items()}


def replayed_ledger(d: BowDiagram) -> BraneLedger:
    """``synthesize`` as it was: the finite layout's ledger carried back
    to ``d`` through the reversed pipeline, one checked walker move at a
    time, with the fixed-slot bound held after every move."""

    cert, fin = _decide_full(d)
    assert cert.verdict
    if fin is None:
        return BraneWalk(BraneLedger(d, _brane_keyed(_one_kind_branes(d)))).ledger()
    walk = BraneWalk(synthesize_finite(fin))
    for entry in reversed(cert.pipeline):
        assert walk.move(entry, inverse=True), entry
    ledger = walk.ledger()
    assert ledger.diagram == d
    return ledger


@st.composite
def certified_diagrams(draw):
    """Hosts of certifying ledgers with up to 14 nodes, some of them
    finite: the cut goes on a drawn segment, and only the branes without
    laps whose arcs keep off it stay, so the cut segment has dimension 0."""

    ledger = draw(certifying_ledgers(max_nodes=14))
    d = ledger.diagram
    if draw(st.integers(0, 2)):
        return d
    cut = draw(st.integers(0, d.k - 1))
    host = BowDiagram(d.nodes, (0,) * d.k)
    kept = {
        brane: mult
        for brane, mult in ledger.branes.items()
        if brane.laps == 0 and coverage(BraneLedger(host, {brane: 1}))[cut] == 0
    }
    return BowDiagram(d.nodes, coverage(BraneLedger(host, kept)), cut)


def _canonical(ledger: BraneLedger) -> str:
    return json.dumps(ledger_to_json(ledger), sort_keys=True, separators=(",", ":"))


@settings(max_examples=300, deadline=None)
@given(certified_diagrams())
def test_synthesize_matches_the_walker_replay(d):
    got, want = synthesize(d), replayed_ledger(d)
    assert got.diagram == want.diagram == d
    assert got.branes == want.branes
    assert _canonical(got) == _canonical(want)


# ---------------------------------------------------------------------------
# synthesis from the closed-form reduction against the pipeline netting


def netted_ledger(d: BowDiagram) -> BraneLedger:
    """``synthesize`` as it was: a decide, then the finite layout's ledger
    carried back to ``d`` by the nets of the certificate's pipeline, with
    the x-to-x brane of an undone arc subtraction put back.  Raises
    ValueError where decide says no."""

    cert, fin = _decide_full(d)
    if not cert.verdict:
        raise ValueError("diagram is not supersymmetric; no brane ledger exists")
    if fin is None:
        branes = _one_kind_branes(d)
    else:
        branes = _finite_branes(fin.v_arr, fin.v_x, fin.arrow_ids, fin.x_ids)
        net, amount = pipeline_nets(cert, fin)
        if amount:
            key = (fin.x_ids[0], fin.x_ids[-1], False, int(fin.w == 1))
            branes[key] = branes.get(key, 0) + amount
        for (u, x), count in net.items():
            held = 1 if branes.pop((u, x, True, 0), 0) else 0
            for z in _crossed(held, count):
                branes[(u, x, True, z - 1) if z > 0 else (u, x, False, -z)] = 1
    ledger = BraneLedger(d, _brane_keyed(branes))
    assert check_ledger(ledger) == []
    return ledger


@st.composite
def drawn_diagrams(draw):
    """Affine or finite diagrams with k <= 16, shuffled ids and dims up to
    a drawn ceiling of at most 200, of either verdict; a finite one has
    its cut on a drawn segment, set to 0."""

    k = draw(st.integers(2, 16))
    kinds = draw(st.lists(st.sampled_from([ARROW, XPOINT]), min_size=k, max_size=k))
    ids = draw(st.permutations(range(k)))
    top = draw(st.sampled_from([3, 12, 60, 200]))
    dims = draw(st.lists(st.integers(0, top), min_size=k, max_size=k))
    cut = draw(st.none() | st.integers(0, k - 1))
    if cut is not None:
        dims[cut] = 0
    return BowDiagram(tuple(Node(i, kind) for i, kind in zip(ids, kinds)), tuple(dims), cut)


@settings(max_examples=400, deadline=None)
@given(st.one_of(drawn_diagrams(), certified_diagrams()))
def test_synthesize_matches_the_pipeline_netting(d):
    try:
        want = netted_ledger(d)
    except ValueError as refusal:
        with pytest.raises(ValueError) as got:
            synthesize(d)
        assert str(got.value) == str(refusal)
        return
    assert _canonical(synthesize(d)) == _canonical(want)
