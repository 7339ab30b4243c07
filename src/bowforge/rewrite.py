"""Local move engine: single swaps, separation, gap normalization, increments.

The only structural rewrite is the swap of two cyclically adjacent
nodes of different kinds, which replaces the dimension v between them
by v' = v⁻ + v⁺ + 1 − v and leaves everything else alone.  All longer
manipulations (gathering the x-points, normalizing the gap
v_0 − v_{−w}, uniform arc raises) are words in that one move plus the
two bookkeeping entries for arc subtraction and cutting, and every
word is recorded as a replayable, invertible move log.

One private host, :class:`_Host`, holds a diagram as mutable node and
dimension lists with an id index; its ``move`` is the one routine that
checks and applies a move-log entry.  ``apply_hw`` and ``apply_entry``
are a host and one call, and ``replay`` runs a whole log on one host.
Two hosts move more along: ``branes._Carry`` a ledger's branes, the
moment-map zero ``momentmap._Zero`` its maps.

Validation happens once, at the public entry points (``apply_hw``,
``apply_entry``, ``replay``, ``separate``, ``normalize_gap``,
``enumerate_equivalent``), and what they call
trusts its input: a move of a valid diagram is valid.  ``separate`` is
a check and a call of the unchecked core ``_separate``, and gap
normalization is the list-level core ``_gap_passes``; ``susy``'s
decision procedure calls both directly after validating its own input
once.  Inside a word the diagram is held as mutable node and dimension
lists with tracked positions; every pass of a node through its
neighbours is the one routine ``_pass`` on those lists, which logs each
swap as the interned entry that ``diagram._hw_move`` hands out, one
``HwMove`` per id pair, not as a fresh object.  A word or a whole phase
of passes builds one ``BowDiagram`` at its end and labels its view with
the unchecked ``diagram._label`` at the x-run start it tracked, with no
run-start scan; a swap of a valid diagram is valid, and a refused
labelling raises RuntimeError.
"""

from __future__ import annotations

from collections import deque

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
    _hw_move,
    _label,
    _require_valid,
    _run_start,
    _separated_view,
    _set,
    _Value,
)

# ---------------------------------------------------------------------------
# results


class NegativeWitness(_Value):
    """Proof that some move sequence drives a dimension below zero.

    Replaying ``move_log`` from the source diagram yields a diagram
    with ``dims[segment] == value < 0``.
    """

    __slots__ = ("move_log", "segment", "value")

    def __init__(self, move_log: MoveLog, segment: int, value: int):
        _set(self, "move_log", move_log)
        _set(self, "segment", segment)
        _set(self, "value", value)


class EquivClassSample(_Value):
    """Diagrams at most a budget of swaps away, canonically encoded."""

    __slots__ = ("encodings", "min_dim")

    def __init__(self, encodings: frozenset, min_dim: int):
        _set(self, "encodings", encodings)
        _set(self, "min_dim", min_dim)


# ---------------------------------------------------------------------------
# the elementary swap


def _swap(nodes: list, dims: list, cut: int | None, pos: int) -> int:
    """Swap the nodes at pos and pos + 1 (0 past the end) of mutable
    lists; return that second position.  The new middle dim is ``dims[pos]``.

    Refuses two nodes of one kind, then a swap of the cut segment.
    """

    after = (pos + 1) % len(nodes)
    if nodes[pos].kind == nodes[after].kind:
        raise ValueError("cannot swap two nodes of the same kind")
    if pos == cut:
        raise ValueError("cannot swap across the cut segment")
    nodes[pos], nodes[after] = nodes[after], nodes[pos]
    dims[pos] = dims[pos - 1] + dims[after] + 1 - dims[pos]
    return after


def apply_hw(d: BowDiagram, left: int, right: int) -> BowDiagram:
    """Swap the adjacent pair, left immediately anticlockwise-before right.

    The middle dimension v becomes v⁻ + v⁺ + 1 − v where v⁻/v⁺ are the
    outer neighbour segments; a negative result is legal data.  Raises
    as :meth:`_Host.swap` does.  ``d`` is validated first.
    """

    _require_valid(d)
    host = _Host(d)
    host.swap(left, right)
    return host.diagram()


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


def _arc_increment(nodes, cut: int | None, entry: SubtractArrowArc) -> IncrementX:
    """The increment that undoes an arc subtraction on the nodes and cut
    of a valid diagram, found by one run-start scan of its nodes.

    The arrow arc v_0 .. v_n of a separated diagram is the clockwise arc
    from x_1 to x_w (a full loop when w = 1), so adding the subtracted
    branes back raises exactly that x-to-x arc.
    """

    k = len(nodes)
    start = _run_start(nodes)
    # separated with both kinds present: the run of all w x points starts at p1
    if cut is not None or start is None or start[1] in (0, k):
        raise ValueError("arc subtraction needs an affine separated diagram")
    p1, w = start
    return IncrementX(start=nodes[p1].id, end=nodes[(p1 + w - 1) % k].id, direction=Direction.CW, amount=entry.amount)


# ---------------------------------------------------------------------------
# the move host


def _index(d: BowDiagram) -> dict[int, tuple[int, NodeKind]]:
    """``{id: (position, kind)}``, first match first, as ``BowDiagram.position``
    looks ids up."""

    nodes = d.nodes
    return {nodes[i].id: (i, nodes[i].kind) for i in range(len(nodes) - 1, -1, -1)}


class _Host:
    """A diagram held for moves in place: mutable node and dim lists, the
    cut, and the :func:`_index` of its nodes, kept at each swap.

    :meth:`move` is the one routine that checks and applies a move-log
    entry, so a whole log runs on one host.  A swap names adjacent
    nodes in that order (:meth:`swap`); an increment raises its arc, and
    its inverse lowers it (:meth:`increment`); an arc subtraction is the
    inverse of the increment :func:`_arc_increment` gives; a cut goes on
    a zero segment and comes off where it sits.  A node id the host
    lacks raises KeyError, any other refusal ValueError.  The host
    trusts its diagram to be valid: the public entries validate it, and
    a move keeps a valid diagram valid.
    ``branes._Carry`` and ``momentmap._Zero`` extend :meth:`swap` and
    :meth:`increment` to move a ledger's branes or a zero's maps along,
    so no other code dispatches on an entry's type.
    """

    __slots__ = ("nodes", "dims", "cut", "index")

    def __init__(self, d: BowDiagram):
        self.nodes, self.dims, self.cut = list(d.nodes), list(d.dims), d.cut
        self.index = _index(d)

    def diagram(self) -> BowDiagram:
        return BowDiagram(nodes=tuple(self.nodes), dims=tuple(self.dims), cut=self.cut)

    def move(self, entry: MoveEntry, inverse: bool = False) -> None:
        """Apply one move-log entry, or its inverse, in place."""

        if isinstance(entry, HwMove):
            if inverse:
                self.swap(entry.right, entry.left)
            else:
                self.swap(entry.left, entry.right)
            return
        if isinstance(entry, SubtractArrowArc):
            entry, inverse = _arc_increment(self.nodes, self.cut, entry), not inverse
        if isinstance(entry, (IncrementArrows, IncrementX)):
            if not inverse and entry.amount < 0:
                raise ValueError("increment amount must be nonnegative")
            self.increment(entry, -entry.amount if inverse else entry.amount)
        elif isinstance(entry, CutAt):
            if not 0 <= entry.segment < len(self.dims):
                raise ValueError(f"cut segment {entry.segment} out of range")
            if inverse:
                if self.cut != entry.segment:
                    raise ValueError("inverse cut does not match the diagram's cut")
                self.cut = None
            elif self.cut is not None:
                raise ValueError("diagram is already cut")
            elif self.dims[entry.segment] != 0:
                raise ValueError("can only cut a zero segment")
            else:
                self.cut = entry.segment
        else:
            raise TypeError(f"unknown move entry {entry!r}")

    def swap(self, left: int, right: int) -> int:
        """Swap node ``left`` with ``right``, which must sit just
        anticlockwise of it; return the position ``left`` left."""

        index = self.index
        try:
            pos, got = index[left][0], index[right][0]
        except KeyError as err:
            raise KeyError(f"no node with id {err.args[0]}") from None
        after = (pos + 1) % len(self.nodes)
        if got != after:
            raise ValueError(f"nodes {left} and {right} are not adjacent in that order")
        _swap(self.nodes, self.dims, self.cut, pos)
        index[left] = (after, self.nodes[after].kind)
        index[right] = (pos, self.nodes[pos].kind)
        return pos

    def increment(self, entry: IncrementArrows | IncrementX, delta: int) -> range | list[int]:
        """Add ``delta`` to the segments of the entry's arc and return them,
        anticlockwise from the arc's start.

        The ends must be of the entry's kind and the arc may not hold the
        cut; equal ends are a full loop.
        """

        index = self.index
        want = NodeKind.ARROW if isinstance(entry, IncrementArrows) else NodeKind.XPOINT
        try:
            for node_id in (entry.start, entry.end):
                if index[node_id][1] != want:
                    raise ValueError(f"node {node_id} is not of kind {want.value!r}")
        except KeyError as err:
            raise KeyError(f"no node with id {err.args[0]}") from None
        # the anticlockwise arc runs from position i to j
        k = len(self.nodes)
        i, j = index[entry.start][0], index[entry.end][0]
        if entry.direction != Direction.ACW:
            i, j = j, i
        segs = range(k) if i == j else [(i + step) % k for step in range((j - i) % k)]
        if self.cut is not None and self.cut in segs:
            raise ValueError("increment arc crosses the cut segment")
        for seg in segs:
            self.dims[seg] += delta
        return segs


def apply_entry(d: BowDiagram, entry: MoveEntry, inverse: bool = False) -> BowDiagram:
    """Apply one move-log entry, or its inverse, to the diagram, which is
    validated first."""

    _require_valid(d)
    host = _Host(d)
    host.move(entry, inverse)
    return host.diagram()


def replay(d: BowDiagram, log: MoveLog, inverse: bool = False) -> BowDiagram:
    """Fold a move log over the diagram, backwards and inverted on request.

    The diagram is validated once, before the first entry.
    """

    _require_valid(d)
    host = _Host(d)
    for entry in reversed(log) if inverse else log:
        host.move(entry, inverse)
    return host.diagram()


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
    first negative dimension any swap produces.  ``d`` is validated
    first.
    """

    _require_valid(d)
    nodes = d.nodes
    return _separate(d, [pos for pos in range(len(nodes)) if nodes[pos].kind == NodeKind.XPOINT])


def _separate(d: BowDiagram, xpos: list[int]) -> tuple[SeparatedForm, MoveLog] | NegativeWitness:
    """:func:`separate` on a diagram already known to be valid, whose x
    points sit at the ascending positions ``xpos``; the view is labelled
    at the start of the gathered run."""

    k = d.k
    nodes, dims = list(d.nodes), list(d.dims)
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
    for i in reversed(line[:lo]):
        if witness := _pass(nodes, dims, d.cut, (start + i) % k, True, first - 1 - i, log):
            return witness
        first -= 1
    for i in line[hi + 1:]:
        if witness := _pass(nodes, dims, d.cut, (start + i) % k, False, i - 1 - last, log):
            return witness
        last += 1
    view = _label(BowDiagram(nodes=tuple(nodes), dims=tuple(dims), cut=d.cut), (start + first) % k, len(xpos))
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
) -> NegativeWitness | None:
    """Move the node at ``pos`` through its next w neighbours, in place.

    Each swap is checked and applied by ``_swap``, as the host's swap is,
    and its entry, the interned ``diagram._hw_move`` of the pair's ids, is
    appended to ``log``; the entry reads the pair after the swap, at the
    neighbour position ``_swap`` returns, so a refused swap raises before
    its entry is logged and the pass finds no neighbour of its own.  Stops
    at the first negative dimension and returns its NegativeWitness.
    """

    k = len(nodes)
    for _ in range(w):
        left = pos if acw else (pos - 1) % k
        after = _swap(nodes, dims, cut, left)
        log.append(_hw_move(nodes[after].id, nodes[left].id))
        if dims[left] < 0:
            return NegativeWitness(tuple(log), left, dims[left])
        pos = after if acw else left
    return None


def full_pass(
    d: BowDiagram,
    mover: int,
    acw: bool,
    w: int,
    log: list[MoveEntry],
) -> BowDiagram | NegativeWitness:
    """:func:`_pass` on the node with id ``mover``, one diagram out."""

    nodes, dims = list(d.nodes), list(d.dims)
    witness = _pass(nodes, dims, d.cut, d.position(mover), acw, w, log)
    return witness or BowDiagram(nodes=tuple(nodes), dims=tuple(dims), cut=d.cut)


def normalize_gap(sep: SeparatedForm) -> tuple[SeparatedForm, MoveLog] | NegativeWitness:
    """Drive the gap v_0 − v_{−w} into [0, w) by full arrow passes.

    The passes are :func:`_gap_passes` on one pair of node and dim lists,
    and one unchecked view is labelled at the end, at the x-run start
    they tracked.  Aborts with a NegativeWitness on the first negative
    dimension.  The input's diagram is validated once, on entry.
    """

    d = sep.diagram
    _require_valid(d)
    if d.cut is not None:
        raise ValueError("gap normalization applies to affine diagrams")
    if sep.n < 1 or sep.w < 1:
        raise ValueError("gap normalization needs both node kinds")
    nodes, dims = list(d.nodes), list(d.dims)
    log: list[MoveEntry] = []
    p1 = _gap_passes(nodes, dims, sep.seg_x[1], sep.w, log)
    if isinstance(p1, NegativeWitness):
        return p1
    if not log:
        return sep, ()
    view = _label(BowDiagram(nodes=tuple(nodes), dims=tuple(dims), cut=None), p1, sep.w)
    if view is None:
        raise RuntimeError("gap normalization left the x points apart")
    return view, tuple(log)


def _gap_passes(nodes: list, dims: list, p1: int, w: int, log: list[MoveEntry]) -> int | NegativeWitness:
    """Gap normalization in place on the node and dim lists of an affine
    separated diagram with both kinds, whose x-run of w points starts at
    p1; return the run's new start.

    A pass of e_1 anticlockwise through every x-point lowers the gap by
    w and p1 by one; a pass of e_n clockwise raises the gap by w and p1
    by one.  The gap is read as dims[p1 − 1] − dims[p1 + w − 1].  Each
    swap is appended to ``log``; the first negative dimension returns its
    NegativeWitness.
    """

    k = len(nodes)
    gap = dims[p1 - 1] - dims[(p1 + w - 1) % k]
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
    return p1


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
    """Breadth-first sample of the swap-equivalence class: every diagram
    reachable from ``d`` in at most ``budget`` swaps.

    ``d`` is validated once; its children, swaps of valid diagrams, go
    through unchecked hosts.
    """

    if budget < 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")
    _require_valid(d)
    seen = {canonical_encoding(d)}
    frontier = deque([(d, 0)])
    min_dim = min(d.dims)
    while frontier:
        cur, depth = frontier.popleft()
        if depth == budget:
            continue
        for left, right in legal_swaps(cur):
            host = _Host(cur)
            host.swap(left, right)
            child = host.diagram()
            enc = canonical_encoding(child)
            if enc in seen:
                continue
            seen.add(enc)
            min_dim = min(min_dim, min(child.dims))
            frontier.append((child, depth + 1))
    return EquivClassSample(encodings=frozenset(seen), min_dim=min_dim)
