"""Local move engine: single swaps, separation, gap normalization, increments.

The only structural rewrite is the swap of two cyclically adjacent
nodes of different kinds, which replaces the dimension v between them
by v' = v⁻ + v⁺ + 1 − v and leaves everything else alone.  All longer
manipulations (gathering the x-points, normalizing the gap
v_0 − v_{−w}, uniform arc raises) are words in that one move plus the
two bookkeeping entries for arc subtraction and cutting, and every
word is recorded as a replayable, invertible move log.

Validation happens at the public entry points (``apply_hw``,
``separate``, ``normalize_gap``).  Inside a word the diagram is held as
mutable node and dimension lists with tracked positions; every pass of
a node through its w neighbours is the one routine ``_pass`` on those
lists.  A word or a whole phase of passes builds one ``BowDiagram``
and takes one unchecked ``diagram._separated_view`` at its end: a swap
of a valid diagram is valid.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .diagram import (
    BowDiagram,
    CutAt,
    Direction,
    HwMove,
    IncrementArrows,
    IncrementX,
    MoveEntry,
    MoveLog,
    NodeKind,
    SeparatedForm,
    SubtractArrowArc,
    _require_valid,
    _separated_view,
)

# ---------------------------------------------------------------------------
# results


@dataclass(frozen=True)
class NegativeWitness:
    """Proof that some move sequence drives a dimension below zero.

    Replaying ``move_log`` from the source diagram yields a diagram
    with ``dims[segment] == value < 0``.
    """

    move_log: MoveLog
    segment: int
    value: int


@dataclass(frozen=True)
class EquivClassSample:
    """Swap-reachable diagrams within a move budget, canonically encoded."""

    encodings: frozenset
    min_dim: int


# ---------------------------------------------------------------------------
# the elementary swap


def _swap(nodes: list, dims: list, pos: int) -> int:
    """Swap the nodes at pos and pos + 1 of mutable lists; return the new middle dim."""

    k = len(nodes)
    after = (pos + 1) % k
    nodes[pos], nodes[after] = nodes[after], nodes[pos]
    dims[pos] = dims[pos - 1] + dims[after] + 1 - dims[pos]
    return dims[pos]


def _check_swap(nodes: list, cut: int | None, pos: int) -> None:
    if nodes[pos].kind == nodes[(pos + 1) % len(nodes)].kind:
        raise ValueError("cannot swap two nodes of the same kind")
    if cut is not None and pos == cut:
        raise ValueError("cannot swap across the cut segment")


def apply_hw(d: BowDiagram, left: int, right: int) -> BowDiagram:
    """Swap the adjacent pair, left immediately anticlockwise-before right.

    The middle dimension v becomes v⁻ + v⁺ + 1 − v where v⁻/v⁺ are the
    outer neighbour segments; a negative result is legal data.  Raises
    for non-adjacent pairs, same-kind pairs, and swaps across the cut.
    """

    pos_l = d.position(left)
    if (pos_l + 1) % d.k != d.position(right):
        raise ValueError(f"nodes {left} and {right} are not adjacent in that order")
    nodes, dims = list(d.nodes), list(d.dims)
    _check_swap(nodes, d.cut, pos_l)
    _swap(nodes, dims, pos_l)
    return BowDiagram(nodes=tuple(nodes), dims=tuple(dims), cut=d.cut)


def legal_swaps(d: BowDiagram) -> list[tuple[int, int]]:
    """All (left, right) id pairs apply_hw accepts, in position order."""

    k = d.k
    pairs = []
    for pos in range(k):
        node_l = d.nodes[pos]
        node_r = d.nodes[(pos + 1) % k]
        if node_l.kind == node_r.kind:
            continue
        if d.cut is not None and pos == d.cut:
            continue
        pairs.append((node_l.id, node_r.id))
    return pairs


# ---------------------------------------------------------------------------
# uniform arc raises


def _increment_segments(
    nodes, cut: int | None, position, entry: IncrementArrows | IncrementX
) -> range | list[int]:
    """The segments an increment raises, anticlockwise from the arc's start.

    Works on a node list whose ids ``position`` looks up, so that a
    ``BowDiagram`` and a walker over mutable lists share it.  The ends
    must be of the entry's kind and the arc may not hold the cut.
    """

    want = NodeKind.ARROW if isinstance(entry, IncrementArrows) else NodeKind.XPOINT
    for node_id in (entry.start, entry.end):
        if nodes[position(node_id)].kind != want:
            raise ValueError(f"node {node_id} is not of kind {want.value!r}")
    # the anticlockwise arc runs from position i to j; equal ends are a
    # full loop
    k = len(nodes)
    i, j = position(entry.start), position(entry.end)
    if entry.direction != Direction.ACW:
        i, j = j, i
    segs = range(k) if i == j else [(i + step) % k for step in range((j - i) % k)]
    if cut is not None and cut in segs:
        raise ValueError("increment arc crosses the cut segment")
    return segs


def apply_increment(d: BowDiagram, entry: IncrementArrows | IncrementX) -> BowDiagram:
    """Raise every segment of the entry's arc by the entry's amount.

    The delimiting nodes must both be arrows (IncrementArrows) or both
    x-points (IncrementX).  Equal endpoints mean a full loop, raising
    every segment.  For finite diagrams the arc may not contain the cut.
    """

    if entry.amount < 0:
        raise ValueError("increment amount must be nonnegative")
    segs = _increment_segments(d.nodes, d.cut, d.position, entry)
    dims = list(d.dims)
    for seg in segs:
        dims[seg] += entry.amount
    return BowDiagram(nodes=d.nodes, dims=tuple(dims), cut=d.cut)


def arc_increment(d: BowDiagram, entry: SubtractArrowArc) -> IncrementX:
    """The increment that undoes an arc subtraction on ``d``.

    The arrow arc v_0 .. v_n of a separated diagram is the clockwise arc
    from x_1 to x_w (a full loop when w = 1), so adding the subtracted
    branes back raises exactly that x-to-x arc.
    """

    _require_valid(d)
    nodes = d.nodes
    # separated with both kinds present: one arrow followed by an x point,
    # where the run of all w x points starts
    starts = [
        pos
        for pos, node in enumerate(nodes)
        if node.kind == NodeKind.XPOINT and nodes[pos - 1].kind == NodeKind.ARROW
    ]
    if d.is_finite or len(starts) != 1:
        raise ValueError("arc subtraction needs an affine separated diagram")
    last = (starts[0] + d.n_xpoints - 1) % d.k
    return IncrementX(
        start=nodes[starts[0]].id, end=nodes[last].id, direction=Direction.CW, amount=entry.amount
    )


# ---------------------------------------------------------------------------
# move-log replay


def apply_entry(d: BowDiagram, entry: MoveEntry, inverse: bool = False) -> BowDiagram:
    """Apply one move-log entry, or its inverse, to the diagram."""

    if isinstance(entry, HwMove):
        if inverse:
            return apply_hw(d, entry.right, entry.left)
        return apply_hw(d, entry.left, entry.right)

    if isinstance(entry, SubtractArrowArc):
        entry, inverse = arc_increment(d, entry), not inverse

    if isinstance(entry, (IncrementArrows, IncrementX)):
        if not inverse:
            return apply_increment(d, entry)
        segs = _increment_segments(d.nodes, d.cut, d.position, entry)
        dims = list(d.dims)
        for seg in segs:
            dims[seg] -= entry.amount
        return BowDiagram(nodes=d.nodes, dims=tuple(dims), cut=d.cut)

    if isinstance(entry, CutAt):
        return BowDiagram(nodes=d.nodes, dims=d.dims, cut=_cut_after(d.cut, d.dims, entry, inverse))

    raise TypeError(f"unknown move entry {entry!r}")


def _cut_after(cut: int | None, dims, entry: CutAt, inverse: bool) -> int | None:
    """The cut after a CutAt entry or its inverse, on a diagram's cut and dims."""

    if inverse:
        if cut != entry.segment:
            raise ValueError("inverse cut does not match the diagram's cut")
        return None
    if cut is not None:
        raise ValueError("diagram is already cut")
    if dims[entry.segment] != 0:
        raise ValueError("can only cut a zero segment")
    return entry.segment


def replay(d: BowDiagram, log: MoveLog, inverse: bool = False) -> BowDiagram:
    """Fold a move log over the diagram, backwards and inverted on request."""

    if inverse:
        for entry in reversed(log):
            d = apply_entry(d, entry, inverse=True)
        return d
    for entry in log:
        d = apply_entry(d, entry)
    return d


# ---------------------------------------------------------------------------
# separation


def separate(d: BowDiagram) -> tuple[SeparatedForm, MoveLog] | NegativeWitness:
    """Gather the x-points into one run by recorded swaps.

    The run holding the lowest-id x-point anchors the gather.  Affine
    diagrams open the circle just after the anchor run and pull every
    other x-point anticlockwise into it, nearest first.  Finite
    diagrams gather inside the cut-opened line: the x-points clockwise
    of the anchor are pulled anticlockwise into it, nearest first, then
    those anticlockwise of it are pulled clockwise, so no swap ever
    crosses the cut.  Each x-point walks straight to the run, which
    costs O(k + swaps) on one pair of mutable lists.

    Diagrams with only one node kind are trivially separated and return
    unchanged with an empty log.  Aborts with a NegativeWitness at the
    first negative dimension any swap produces.
    """

    _require_valid(d)
    k = d.k
    nodes, dims = list(d.nodes), list(d.dims)
    xpos = [pos for pos in range(k) if nodes[pos].kind == NodeKind.XPOINT]
    if len(xpos) in (0, k):
        return _separated_view(d), ()
    anchor = min(xpos, key=lambda pos: nodes[pos].id)
    if d.cut is None:
        start = anchor
        while nodes[start % k].kind == NodeKind.XPOINT:
            start += 1
    else:
        start = d.cut + 1
    # x-points as indices along the line of positions start, start + 1, ...
    line = sorted((pos - start) % k for pos in xpos)
    lo = hi = line.index((anchor - start) % k)
    while lo > 0 and line[lo - 1] == line[lo] - 1:
        lo -= 1
    while hi + 1 < len(line) and line[hi + 1] == line[hi] + 1:
        hi += 1
    first, last = line[lo], line[hi]
    log: list[MoveEntry] = []

    def step(i: int) -> NegativeWitness | None:
        # swap the nodes at line indices i and i + 1
        pos = (start + i) % k
        left, right = nodes[pos].id, nodes[(pos + 1) % k].id
        value = _swap(nodes, dims, pos)
        log.append(HwMove(left, right))
        return NegativeWitness(tuple(log), pos, value) if value < 0 else None

    for i in reversed(line[:lo]):
        for j in range(i, first - 1):
            if witness := step(j):
                return witness
        first -= 1
    for i in line[hi + 1:]:
        for j in range(i - 1, last, -1):
            if witness := step(j):
                return witness
        last += 1
    view = _separated_view(BowDiagram(nodes=tuple(nodes), dims=tuple(dims), cut=d.cut))
    if view is None:
        raise RuntimeError("separation left the x points apart")
    return view, tuple(log)


# ---------------------------------------------------------------------------
# gap normalization


def _pass(
    nodes: list,
    dims: list,
    cut: int | None,
    pos: int,
    acw: bool,
    w: int,
    log: list[MoveEntry],
    allow_negative: bool = False,
) -> NegativeWitness | None:
    """Move the node at ``pos`` through its next w neighbours, in place.

    Each swap is checked as :func:`apply_hw` checks it (different kinds,
    not across the cut) and appended to ``log``.  Returns the
    NegativeWitness of the first negative dimension, unless
    ``allow_negative``, which the weight side's balancing uses.
    """

    k = len(nodes)
    for _ in range(w):
        left = pos if acw else (pos - 1) % k
        _check_swap(nodes, cut, left)
        log.append(HwMove(nodes[left].id, nodes[(left + 1) % k].id))
        value = _swap(nodes, dims, left)
        if value < 0 and not allow_negative:
            return NegativeWitness(tuple(log), left, value)
        pos = (left + 1) % k if acw else left
    return None


def full_pass(
    d: BowDiagram,
    mover: int,
    acw: bool,
    w: int,
    log: list[MoveEntry],
    allow_negative: bool = False,
) -> BowDiagram | NegativeWitness:
    """:func:`_pass` on the node with id ``mover``, one diagram out."""

    nodes, dims = list(d.nodes), list(d.dims)
    witness = _pass(nodes, dims, d.cut, d.position(mover), acw, w, log, allow_negative)
    return witness or BowDiagram(nodes=tuple(nodes), dims=tuple(dims), cut=d.cut)


def normalize_gap(sep: SeparatedForm) -> tuple[SeparatedForm, MoveLog] | NegativeWitness:
    """Drive the gap v_0 − v_{−w} into [0, w) by full arrow passes.

    A pass of e_1 anticlockwise through every x-point lowers the gap by
    w and the x-run start p1 by one; a pass of e_n clockwise raises the
    gap by w and p1 by one.  The passes run on one pair of node and dim
    lists, reading the gap as dims[p1 − 1] − dims[p1 + w − 1], and one
    unchecked view is taken at the end.  Aborts with a NegativeWitness
    on the first negative dimension.  The input's diagram is validated
    once, on entry.
    """

    d = sep.diagram
    _require_valid(d)
    if d.cut is not None:
        raise ValueError("gap normalization applies to affine diagrams")
    if sep.n < 1 or sep.w < 1:
        raise ValueError("gap normalization needs both node kinds")
    k, w, p1, gap = d.k, sep.w, sep.seg_x[1], sep.gap
    nodes, dims = list(d.nodes), list(d.dims)
    log: list[MoveEntry] = []
    guard = abs(gap) // w + 3
    while not 0 <= gap < w:
        if guard <= 0:
            raise RuntimeError("gap normalization failed to terminate")
        guard -= 1
        # e_1 sits at p1 - 1, e_n at p1 + w
        if gap >= w:
            witness = _pass(nodes, dims, None, (p1 - 1) % k, True, w, log)
            p1 = (p1 - 1) % k
        else:
            witness = _pass(nodes, dims, None, (p1 + w) % k, False, w, log)
            p1 = (p1 + 1) % k
        if witness:
            return witness
        gap = dims[p1 - 1] - dims[(p1 + w - 1) % k]
    if not log:
        return sep, ()
    view = _separated_view(BowDiagram(nodes=tuple(nodes), dims=tuple(dims), cut=None))
    if view is None:
        raise RuntimeError("gap normalization left the x points apart")
    return view, tuple(log)


# ---------------------------------------------------------------------------
# bounded brute-force equivalence sampling


def canonical_encoding(d: BowDiagram) -> tuple:
    """Rotation-independent encoding; finite diagrams anchor at the cut."""

    k = d.k
    if d.cut is None:
        best = None
        for r in range(k):
            cand = tuple(
                (d.nodes[(i + r) % k].kind.value, d.dims[(i + r) % k]) for i in range(k)
            )
            if best is None or cand < best:
                best = cand
        return ("affine", best)
    start = (d.cut + 1) % k
    seq = tuple(
        (d.nodes[(start + i) % k].kind.value, d.dims[(start + i) % k]) for i in range(k)
    )
    return ("finite", seq)


def enumerate_equivalent(d: BowDiagram, budget: int) -> EquivClassSample:
    """Breadth-first sample of the swap-equivalence class within a budget."""

    if budget < 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")
    seen = {canonical_encoding(d)}
    frontier = deque([(d, 0)])
    min_dim = min(d.dims)
    while frontier:
        cur, depth = frontier.popleft()
        if depth == budget:
            continue
        for left, right in legal_swaps(cur):
            child = apply_hw(cur, left, right)
            enc = canonical_encoding(child)
            if enc in seen:
                continue
            seen.add(enc)
            min_dim = min(min_dim, min(child.dims))
            frontier.append((child, depth + 1))
    return EquivClassSample(encodings=frozenset(seen), min_dim=min_dim)
