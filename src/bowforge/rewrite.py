"""Local move engine: single swaps, separation, gap normalization, increments.

The only structural rewrite is the swap of two cyclically adjacent
nodes of different kinds, which replaces the dimension v between them
by v' = v⁻ + v⁺ + 1 − v and leaves everything else alone.  All longer
manipulations (gathering the x-points, normalizing the gap
v_0 − v_{−w}, uniform arc raises) are words in that one move plus the
two bookkeeping entries for arc subtraction and cutting, and every
word is recorded as a replayable, invertible move log.
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
    arc_segments,
    separated_view,
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


def apply_hw(d: BowDiagram, left: int, right: int) -> BowDiagram:
    """Swap the adjacent pair, left immediately anticlockwise-before right.

    The middle dimension v becomes v⁻ + v⁺ + 1 − v where v⁻/v⁺ are the
    outer neighbour segments; a negative result is legal data.  Raises
    for non-adjacent pairs, same-kind pairs, and swaps across the cut.
    """

    k = d.k
    pos_l = d.position(left)
    pos_r = d.position(right)
    if (pos_l + 1) % k != pos_r:
        raise ValueError(f"nodes {left} and {right} are not adjacent in that order")
    node_l, node_r = d.nodes[pos_l], d.nodes[pos_r]
    if node_l.kind == node_r.kind:
        raise ValueError("cannot swap two nodes of the same kind")
    if d.cut is not None and pos_l == d.cut:
        raise ValueError("cannot swap across the cut segment")
    before = d.dims[(pos_l - 1) % k]
    after = d.dims[pos_r]
    middle = d.dims[pos_l]
    nodes = list(d.nodes)
    nodes[pos_l], nodes[pos_r] = node_r, node_l
    dims = list(d.dims)
    dims[pos_l] = before + after + 1 - middle
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


def _increment_segments(d: BowDiagram, entry: IncrementArrows | IncrementX) -> tuple[int, ...]:
    want = NodeKind.ARROW if isinstance(entry, IncrementArrows) else NodeKind.XPOINT
    for node_id in (entry.start, entry.end):
        if d.node_by_id(node_id).kind != want:
            raise ValueError(f"node {node_id} is not of kind {want.value!r}")
    if entry.start == entry.end:
        segs: tuple[int, ...] = tuple(range(d.k))
    else:
        segs = arc_segments(d, entry.start, entry.end, entry.direction)
    if d.cut is not None and d.cut in segs:
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
    segs = _increment_segments(d, entry)
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

    sep = separated_view(d)
    if d.is_finite or sep is None or sep.n == 0 or sep.w == 0:
        raise ValueError("arc subtraction needs an affine separated diagram")
    return IncrementX(
        start=sep.x_ids[0], end=sep.x_ids[-1], direction=Direction.CW, amount=entry.amount
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
        segs = _increment_segments(d, entry)
        dims = list(d.dims)
        for seg in segs:
            dims[seg] -= entry.amount
        return BowDiagram(nodes=d.nodes, dims=tuple(dims), cut=d.cut)

    if isinstance(entry, CutAt):
        if inverse:
            if d.cut != entry.segment:
                raise ValueError("inverse cut does not match the diagram's cut")
            return BowDiagram(nodes=d.nodes, dims=d.dims, cut=None)
        if d.is_finite:
            raise ValueError("diagram is already cut")
        if d.dims[entry.segment] != 0:
            raise ValueError("can only cut a zero segment")
        return BowDiagram(nodes=d.nodes, dims=d.dims, cut=entry.segment)

    raise TypeError(f"unknown move entry {entry!r}")


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


def _cyclic_x_runs(d: BowDiagram) -> list[list[int]]:
    """Maximal runs of x-point positions, cyclically maximal."""

    k = d.k
    xpos = [pos for pos in range(k) if d.nodes[pos].kind == NodeKind.XPOINT]
    if not xpos or len(xpos) == k:
        return [xpos] if xpos else []
    runs = []
    starts = [pos for pos in xpos if d.nodes[(pos - 1) % k].kind == NodeKind.ARROW]
    for start in starts:
        run = [start]
        while d.nodes[(run[-1] + 1) % k].kind == NodeKind.XPOINT:
            run.append((run[-1] + 1) % k)
        runs.append(run)
    return runs


def _gather_step(d: BowDiagram) -> tuple[int, int] | None:
    """Next swap of the deterministic gathering strategy, None when done.

    The run containing the lowest-id x-point anchors the gather.  For
    affine diagrams the nearest x-point clockwise of the anchor walks
    anticlockwise into it.  Finite diagrams gather inside the cut-opened
    line, pulling from the clockwise side first, so no swap ever
    crosses the cut.
    """

    k = d.k
    if d.cut is None:
        runs = _cyclic_x_runs(d)
        if len(runs) <= 1:
            return None
        anchor = min(runs, key=lambda run: min(d.nodes[pos].id for pos in run))
        q = (anchor[0] - 1) % k
        while d.nodes[q].kind != NodeKind.XPOINT:
            q = (q - 1) % k
        return d.nodes[q].id, d.nodes[(q + 1) % k].id

    start_pos = (d.cut + 1) % k
    line = [(start_pos + i) % k for i in range(k)]
    blocks: list[list[int]] = []
    for i, pos in enumerate(line):
        if d.nodes[pos].kind != NodeKind.XPOINT:
            continue
        if blocks and blocks[-1][-1] == i - 1:
            blocks[-1].append(i)
        else:
            blocks.append([i])
    if len(blocks) <= 1:
        return None
    anchor_idx = min(
        range(len(blocks)),
        key=lambda bi: min(d.nodes[line[i]].id for i in blocks[bi]),
    )
    if anchor_idx > 0:
        q = line[blocks[anchor_idx - 1][-1]]
        return d.nodes[q].id, d.nodes[(q + 1) % k].id
    q = line[blocks[anchor_idx + 1][0]]
    return d.nodes[(q - 1) % k].id, d.nodes[q].id


def separate(d: BowDiagram) -> tuple[SeparatedForm, MoveLog] | NegativeWitness:
    """Gather the x-points into one run by recorded swaps.

    Diagrams with only one node kind are trivially separated and return
    unchanged with an empty log.  Aborts with a NegativeWitness at the
    first negative dimension any swap produces.
    """

    _require_valid(d)
    if d.n_arrows == 0 or d.n_xpoints == 0:
        view = separated_view(d)
        assert view is not None
        return view, ()
    log: list[MoveEntry] = []
    cur = d
    guard = 4 * d.k * d.k + 8
    while True:
        pair = _gather_step(cur)
        if pair is None:
            break
        if guard <= 0:
            raise RuntimeError("gathering failed to terminate")
        guard -= 1
        left, right = pair
        middle_seg = cur.position(left)
        cur = apply_hw(cur, left, right)
        log.append(HwMove(left, right))
        if cur.dims[middle_seg] < 0:
            return NegativeWitness(tuple(log), middle_seg, cur.dims[middle_seg])
    view = separated_view(cur)
    assert view is not None
    return view, tuple(log)


# ---------------------------------------------------------------------------
# gap normalization


def full_pass(
    d: BowDiagram, mover: int, acw: bool, w: int, log: list[MoveEntry]
) -> BowDiagram | NegativeWitness:
    """Move one arrow through all w x-points in the given direction."""

    cur = d
    for _ in range(w):
        pos = cur.position(mover)
        if acw:
            other = cur.nodes[(pos + 1) % cur.k]
            assert other.kind == NodeKind.XPOINT
            left, right = mover, other.id
            middle_seg = pos
        else:
            other = cur.nodes[(pos - 1) % cur.k]
            assert other.kind == NodeKind.XPOINT
            left, right = other.id, mover
            middle_seg = (pos - 1) % cur.k
        cur = apply_hw(cur, left, right)
        log.append(HwMove(left, right))
        if cur.dims[middle_seg] < 0:
            return NegativeWitness(tuple(log), middle_seg, cur.dims[middle_seg])
    return cur


def normalize_gap(sep: SeparatedForm) -> tuple[SeparatedForm, MoveLog] | NegativeWitness:
    """Drive the gap v_0 − v_{−w} into [0, w) by full arrow passes.

    A pass of e_1 anticlockwise through every x-point lowers the gap by
    w; a pass of e_n clockwise raises it by w.  Aborts with a
    NegativeWitness on the first negative dimension.
    """

    d = sep.diagram
    if d.cut is not None:
        raise ValueError("gap normalization applies to affine diagrams")
    if sep.n < 1 or sep.w < 1:
        raise ValueError("gap normalization needs both node kinds")
    log: list[MoveEntry] = []
    cur = sep
    guard = abs(cur.gap) // cur.w + 3
    while not 0 <= cur.gap < cur.w:
        if guard <= 0:
            raise RuntimeError("gap normalization failed to terminate")
        guard -= 1
        if cur.gap >= cur.w:
            res = full_pass(cur.diagram, cur.arrow_ids[0], True, cur.w, log)
        else:
            res = full_pass(cur.diagram, cur.arrow_ids[-1], False, cur.w, log)
        if isinstance(res, NegativeWitness):
            return res
        view = separated_view(res)
        assert view is not None
        cur = view
    return cur, tuple(log)


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
