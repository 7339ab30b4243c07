"""Brane ledgers: certificates for supersymmetric diagrams.

A ledger decorates a bow diagram with a multiset of branes.  Every brane
runs from one five-brane to another in a definite sense around the
circle, possibly winding a number of complete laps on the way.  The
segment dimensions of the host diagram must equal the total brane
coverage; that identity is kept as an invariant through every move.

A brane with endpoints of different kinds is *fixed*: it is pinned by
its endpoints and cannot be deformed away.  The ledger certifies a
supersymmetric diagram precisely when no fixed slot (ordered endpoint
pair, sense, lap count) is occupied more than once.

A ledger is carried through a move log in place by one private walker,
:class:`_Walk`: a ``rewrite._Host``, which holds the host diagram as
mutable node and dimension lists with an ``{id: (position, kind)}``
index and checks and applies every move, plus one brane dict mutated
throughout.  Coverage and the fixed-slot occupancy are carried, not
recomputed.  A node's *charge* is the multiplicity of anticlockwise arcs
that start at it minus those that end there; it depends on the branes
only, not on positions, and it links neighbouring segments:
``cover[p] = cover[p - 1] + charge(node at p)``, cyclically.  A
Hanany-Witten swap only rewrites the branes between the swapped pair.
Off the swapped segment every other brane covers what it covered
before, and each of the pair's branes covers every segment alike.  So a
swap adds the pair's uniform change to the coverage, updates the
pair's charges and the count of over-full fixed slots, and reads the
swapped segment off the identity, in O(1 + the pair's branes).
``ledger_apply_move`` walks; its ledger may crowd a slot or hold a
fixed brane x-point first.  The staging of
``momentmap.construct_solution`` audits its layout's ledger once and
then moves a plain host, since it reads the branes only for their keys.

Synthesis does not walk, and it does not decide.  Write a fixed brane
between arrow u and x-point x as its *winding* z: l + 1 when
anticlockwise with l laps, −l when clockwise.  A swap with u on the
left, before x, *shrinks* the pair, mapping its windings S to
(S − 1) △ {0}: the brane at z = 1 is annihilated, or one at 0 is
created, and every other lap count moves by one.  The opposite swap
*grows* it, S ↦ (S △ {0}) + 1: brane creation and annihilation as in
Hanany-Witten, with linking numbers conserved.  While every fixed slot
holds at most one brane, the two are inverse bijections of sets; swaps
of other pairs leave the pair alone, and unfixed branes keep their keys
through every swap.  So carrying a certifying ledger back from the
finite layout that a decide reaches ends where each pair's net count of
shrinks, applied at once, ends (:func:`_crossed`).

Neither the layout nor the counts need a move.  ``susy._closed_reduction``
reads both off the input.  A node's *jump*, the dim after it minus the
dim before it, loses one when the node passes a neighbour anticlockwise
and gains one when a neighbour passes it, so the separated dims are
prefix sums of adjusted jumps.  One pass of an arrow through the x run
maps the arrow-arc labels (v_0, …, v_n) to (v_1, …, v_n,
v_1 − v_0 + v_n + w), a recurrence whose terms have a closed form, so
any number of gap passes and pushes costs O(n), and which arrow makes
each pass follows from its index.

A decide stops at its first negative dimension; the closed form runs on
through it, and the layout it reaches still carries the verdict.
Hanany-Witten transitions are invertible, and they keep supersymmetry
(Nakajima–Takayama, arXiv:1606.02002): the input and every diagram on
the way reach the same diagrams by moves.  So a negative dimension on
the way makes the input, and with it the layout, not supersymmetric,
and the layout's own ledger cannot be built.  :func:`synthesize`
refuses with ValueError exactly where a negative input dimension, a
negative arc subtraction amount (the minimum of a diagram on the way)
or :func:`_finite_branes` on the layout refuses.  Its one audit on the
input checks for faults, not for the verdict: a coverage other than
the dims or an over-full fixed slot there is a bug of this module and
raises RuntimeError, never ValueError.

The walker, the audit and synthesis key branes by plain tuples
``(start, end, anticlockwise, laps)``, far cheaper to build and hash.  A
:class:`Brane` exists only in a :class:`BraneLedger`: keyed where a
ledger comes in, and taken back in the same order where one goes out
from :func:`_brane`, which interns them: one frozen Brane per key while
the key is among the last ``_BRANES_CACHED`` asked for, so a ledger out
pays a cache lookup per brane, not a construction, where its keys came
up before.  Keys repeat across ledgers where node ids do, as the
0..k−1 of :func:`~bowforge.diagram.parse_diagram` do; on ids that never
repeat every brane misses, and a miss costs more than a construction.

The from-scratch audit computes the coverage (each brane's laps plus
its arc as a cyclic range in a difference array) and the fixed-slot
occupancy in one pass from the index, in O(k + branes).  The public
checks use it, a walker runs it once, on the ledger it starts from,
synthesis runs it once, on the ledger it returns, and construction's
staging once, on its layout's ledger;
:func:`synthesize_finite` starts a walker on the tuple keys it builds,
so that one audit serves both.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate

from .diagram import (
    BowDiagram,
    Direction,
    IncrementArrows,
    IncrementX,
    MoveEntry,
    NodeKind,
    _require_valid,
    _set,
    _Value,
)
from .rewrite import _Host, _index

# ---------------------------------------------------------------------------
# branes and ledgers


class Brane(_Value):
    """One brane: start node to end node, travelling ``direction``.

    ``laps`` counts complete extra loops beyond the open arc.  Fixed
    branes (endpoints of different kinds) are stored with the arrow
    node as ``start``.
    """

    __slots__ = ("start", "end", "direction", "laps")

    def __init__(self, start: int, end: int, direction: Direction, laps: int):
        _set(self, "start", start)
        _set(self, "end", end)
        _set(self, "direction", direction)
        _set(self, "laps", laps)

    def __hash__(self) -> int:
        return hash((self.start, self.end, self.direction, self.laps))


class BraneLedger:
    def __init__(self, diagram: BowDiagram, branes: dict[Brane, int]):
        self.diagram = diagram
        self.branes = branes


def _keyed(branes: dict[Brane, int]) -> dict[tuple, int]:
    """A ledger's branes as tuple keys ``(start, end, anticlockwise, laps)``."""

    acw = Direction.ACW
    return {(b.start, b.end, b.direction == acw, b.laps): mult for b, mult in branes.items()}


_BRANES_CACHED = 4096


@lru_cache(maxsize=_BRANES_CACHED, typed=True)
def _brane(start: int, end: int, acw: bool, laps: int) -> Brane:
    """The Brane of a tuple key's four fields, interned (see the module
    docstring); keys that are equal but of other types, such as laps
    1.0 and 1, keep apart."""

    return Brane(start, end, Direction.ACW if acw else Direction.CW, laps)


def _audit(k: int, index: dict, branes: dict[tuple, int]) -> tuple[tuple[int, ...], int]:
    """Coverage of the tuple-keyed ``branes`` on the k-node host that
    ``index`` indexes, and the number of fixed slots holding more than one.

    Laps cover every segment alike.  The open arc is a cyclic range
    accumulated in a difference array: anticlockwise from position i to
    j covers i .. j-1, and clockwise from i to j is the anticlockwise
    range from j to i.  Equal endpoints give no arc.  The index is read
    once per brane endpoint, and a missing id raises the KeyError that
    ``BowDiagram.position`` raises, start before end.
    """

    total = 0
    diff = [0] * k
    crowd = 0
    try:
        for (start, end, acw, laps), mult in branes.items():
            i, kind_i = index[start]
            j, kind_j = index[end]
            total += mult * laps
            if kind_i != kind_j and mult > 1:
                crowd += 1
            if i == j:
                continue
            if not acw:
                i, j = j, i
            diff[i] += mult
            diff[j] -= mult
            if i > j:
                diff[0] += mult
    except KeyError as err:
        raise KeyError(f"no node with id {err.args[0]}") from None
    return tuple(accumulate(diff, initial=total))[1:], crowd


def coverage(ledger: BraneLedger) -> tuple[int, ...]:
    d = ledger.diagram
    return _audit(d.k, _index(d), _keyed(ledger.branes))[0]


def check_ledger(ledger: BraneLedger) -> list[str]:
    """Structural problems, empty when the ledger is a valid certificate."""

    problems = []
    d = ledger.diagram
    # one index serves the kind checks and the audit
    index = _index(d)
    missing = False
    for brane, mult in ledger.branes.items():
        if mult < 1:
            problems.append(f"brane {brane} has multiplicity {mult}")
        if brane.laps < 0:
            problems.append(f"brane {brane} has negative laps")
        start, end = index.get(brane.start), index.get(brane.end)
        if start is None or end is None:
            problems.append(f"brane {brane} references missing nodes")
            missing = True
        elif start[1] != end[1]:
            if start[1] != NodeKind.ARROW:
                problems.append(f"fixed brane {brane} not stored arrow-first")
            if mult > 1:
                problems.append(f"fixed slot {brane} occupied {mult} times")
    if not missing:
        got = _audit(d.k, index, _keyed(ledger.branes))[0]
        if got != d.dims:
            problems.append(f"coverage {got} != dims {d.dims}")
    return problems


# ---------------------------------------------------------------------------
# serialization


def brane_to_json(brane: Brane, mult: int) -> dict:
    return {
        "start": brane.start,
        "end": brane.end,
        "dir": brane.direction.value,
        "laps": brane.laps,
        "mult": mult,
    }


def ledger_to_json(ledger: BraneLedger) -> dict:
    from .diagram import diagram_to_json

    items = sorted(
        ledger.branes.items(),
        key=lambda kv: (kv[0].start, kv[0].end, kv[0].direction.value, kv[0].laps),
    )
    return {
        "diagram": diagram_to_json(ledger.diagram),
        "branes": [brane_to_json(brane, mult) for brane, mult in items],
    }


def ledger_from_json(data: dict) -> BraneLedger:
    from .diagram import _json_int, diagram_from_json

    d = diagram_from_json(data["diagram"])
    branes: dict[Brane, int] = {}
    for item in data["branes"]:
        start, end, laps, mult = [
            _json_int(item[name], f"brane field {name!r}") for name in ("start", "end", "laps", "mult")
        ]
        key = Brane(start=start, end=end, direction=Direction(item["dir"]), laps=laps)
        branes[key] = branes.get(key, 0) + mult
    return BraneLedger(diagram=d, branes=branes)


# ---------------------------------------------------------------------------
# move transport

# Crossing an arrow through an x point annihilates the unique fixed
# brane that spans the shrinking side, or creates one on the grown side
# when no such brane exists.  Fixed branes between the same pair with
# laps wound in the shrinking sense unwind by one; branes wound in the
# grown sense pick an extra lap up.  Branes with any other endpoint
# pair keep their keys; their coverage follows the moved endpoints.


def _put(branes: dict, key, mult: int) -> None:
    if mult == 0:
        return
    total = branes.get(key, 0) + mult
    if total:
        branes[key] = total
    else:
        branes.pop(key, None)


def _remove(branes: dict[tuple, int], key: tuple, mult: int) -> None:
    have = branes.get(key, 0)
    if have < mult:
        raise ValueError(f"ledger holds {have} of {_brane(*key)}, cannot remove {mult}")
    if have == mult:
        del branes[key]
    else:
        branes[key] = have - mult


class _Walk(_Host):
    """A ledger carried through moves in place, its branes as tuple keys.

    The host half is a ``rewrite._Host``: its :meth:`move` checks and
    applies each entry, with the same errors as ``rewrite.apply_entry``.
    The walker extends the host's swap and increment to move the branes
    along, as ``momentmap._Zero`` extends them to move a zero's maps,
    and checks the coverage against the host dims after every move.  It
    calls the host's methods by name, not through ``super()``, which
    builds a proxy object on every call of the per-move path.  It
    carries what that check and the fixed-slot verdict need: the
    coverage list, a charge per position (see the module docstring),
    the count of over-full fixed slots, and the fixed branes grouped by
    (arrow id, x-point id) in the dict's order.

    ``_Walk(d, branes)`` starts from tuple keys on the host ``d`` and
    audits them once: a node id the host lacks raises KeyError, a
    negative multiplicity, negative laps or a coverage other than the
    host dims raises ValueError, and zero-multiplicity entries are
    dropped.  The carried state starts from that audit.

    A swap takes the pair's group out of the dict and puts the
    rewritten branes back at its end, so the dict keeps the order that
    rewriting the pair's branes in a scan of the whole dict would give.
    An increment puts or removes its brane, which is not fixed and
    covers exactly the segments it raises, so the coverage and the
    charges take that change.
    """

    __slots__ = ("branes", "groups", "cover", "charge", "crowd")

    def __init__(self, d: BowDiagram, branes: dict[tuple, int]):
        super().__init__(d)
        index = self.index
        got, self.crowd = _audit(d.k, index, branes)
        self.branes: dict[tuple, int] = {}
        self.groups: dict[tuple[int, int], list[tuple]] = {}
        for key, mult in branes.items():
            if mult < 0:
                raise ValueError(f"brane {_brane(*key)} has multiplicity {mult}")
            if key[3] < 0:
                raise ValueError(f"brane {_brane(*key)} has negative laps")
            if not mult:
                continue
            self.branes[key] = mult
            start, end = index[key[0]][1], index[key[1]][1]
            if start != end:
                pair = key[:2] if start == NodeKind.ARROW else (key[1], key[0])
                self.groups.setdefault(pair, []).append(key)
        self.cover = list(got)
        self.charge = [got[p] - got[p - 1] for p in range(d.k)]
        self._check_cover()

    def ledger(self) -> BraneLedger:
        return BraneLedger(diagram=self.diagram(), branes={_brane(*key): mult for key, mult in self.branes.items()})

    def move(self, entry: MoveEntry, inverse: bool = False) -> bool:
        """:func:`ledger_apply_move` in place; returns the fixed-slot verdict."""

        _Host.move(self, entry, inverse)
        self._check_cover()
        return not self.crowd

    def _check_cover(self) -> None:
        if self.cover != self.dims:
            raise ValueError(
                f"brane coverage {tuple(self.cover)} lost track of the host dims {tuple(self.dims)}; "
                "the ledger did not match its host"
            )

    def swap(self, left: int, right: int) -> int:
        pos = _Host.swap(self, left, right)
        after = (pos + 1) % len(self.nodes)

        # Every brane of the pair runs from pos to after or from after to
        # pos, so off segment pos it covers uniformly: its laps, plus one
        # when its anticlockwise arc starts at the node that is not at pos.
        # A brane keeps its sense; anticlockwise shrinks when the arrow is left.
        u, xp = (left, right) if self.nodes[after].kind == NodeKind.ARROW else (right, left)
        shrink = u == left
        branes = self.branes
        uniform = flux = crowd = 0
        annihilated = False
        moved: dict[tuple, int] = {}
        for key in self.groups.get((u, xp), ()):
            mult = branes.pop(key)
            start, end, acw, laps = key
            first = (start if acw else end) == left
            uniform -= mult * (laps + (not first))
            flux -= mult if first else -mult
            crowd -= mult > 1
            if acw == shrink and start == u and laps == 0:
                annihilated = True
                mult -= 1
            laps = max(laps - 1, 0) if acw == shrink else laps + 1
            _put(moved, (start, end, acw, laps), mult)
        if not annihilated:
            _put(moved, (u, xp, not shrink, 0), 1)
        branes.update(moved)
        self.groups[(u, xp)] = list(moved)
        for (start, end, acw, laps), mult in moved.items():
            first = (start if acw else end) == left
            uniform += mult * (laps + first)
            flux += mult if first else -mult
            crowd += mult > 1
        charge, cover = self.charge, self.cover
        charge[pos], charge[after] = charge[after] - flux, charge[pos] + flux
        if uniform:
            cover[:] = [value + uniform for value in cover]
        cover[pos] = cover[pos - 1] + charge[pos]
        self.crowd += crowd
        return pos

    def increment(self, entry: IncrementArrows | IncrementX, delta: int) -> range | list[int]:
        segs = _Host.increment(self, entry, delta)
        # the brane is not fixed and covers exactly segs, anticlockwise
        # from its arc's start to its end; a full loop starts and ends at
        # segs[0], so its charges cancel
        for seg in segs:
            self.cover[seg] += delta
        self.charge[segs[0]] += delta
        self.charge[(segs[-1] + 1) % len(self.nodes)] -= delta
        key = (entry.start, entry.end, entry.direction == Direction.ACW, int(entry.start == entry.end))
        if delta > 0:
            _put(self.branes, key, delta)
        elif delta:
            _remove(self.branes, key, -delta)
        return segs


def ledger_apply_move(
    ledger: BraneLedger, entry: MoveEntry, inverse: bool = False
) -> BraneLedger:
    """Advance host and branes together through one move.

    The coverage identity is checked before and after the move and
    raises ValueError when it fails, which means the ledger did not
    match its host.
    """

    walk = _Walk(ledger.diagram, _keyed(ledger.branes))
    walk.move(entry, inverse)
    return walk.ledger()


# ---------------------------------------------------------------------------
# synthesis on a separated finite layout


def greedy_fixed_counts(v_arr, v_x) -> tuple[tuple[int, ...], list[int]]:
    """Per-arrow fixed-brane counts and the leftover x-side profile.

    Arrow s takes branes to x_1 .. x_{f_s} where f_s is the largest
    count the remaining x-side budget admits; the brane to x_k crosses
    v_0, v_{-1}, .., v_{-(k-1)} on that side.  Returns (f_1..f_n) and
    the budget left over after all arrows are served.
    """

    n = len(v_arr) - 1
    w = len(v_x) - 1
    cur = list(v_x)
    counts = []
    for _ in range(n):
        # the admissible f, those with f <= cur[j] + j for all j <= f, are 0..best
        best, low = 0, cur[0]
        for f in range(1, w + 1):
            low = min(low, cur[f] + f)
            if f > low:
                break
            best = f
        counts.append(best)
        for j in range(best):
            cur[j] -= best - j
        if min(cur) < 0:
            raise RuntimeError(f"greedy fixed counts left a negative x-side budget {cur}")
    return tuple(counts), cur


def _histogram_runs(values: list[int]) -> list[tuple[int, int, int]]:
    """Decompose a nonnegative profile into stacked runs (lo, hi, mult)."""

    out: list[tuple[int, int, int]] = []

    def rec(lo: int, hi: int, base: int) -> None:
        i = lo
        while i <= hi:
            if values[i] == base:
                i += 1
                continue
            j = i
            level = values[i]
            while j + 1 <= hi and values[j + 1] > base:
                j += 1
                level = min(level, values[j])
            out.append((i, j, level - base))
            rec(i, j, level)
            i = j + 1

    if values:
        if min(values) < 0:
            raise RuntimeError(f"cannot decompose the negative profile {values} into runs")
        rec(0, len(values) - 1, 0)
    return out


_NOT_SUSY = "layout is not supersymmetric; no brane ledger exists"
_NO_LEDGER = "diagram is not supersymmetric; no brane ledger exists"


def synthesize_finite(fin) -> BraneLedger:
    """Build a certifying ledger on a separated finite layout.

    Raises ValueError unless the input is a supersymmetric separated
    finite layout.  A negative dimension, an x-side budget left at either
    end of the arrow arc or an overshot arrow-arc dimension is caught on
    the way; the final audit catches anything else.
    """

    return _finite_walk(fin).ledger()


def _finite_walk(fin) -> _Walk:
    """The ledger of :func:`synthesize_finite`, held by a walker whose
    starting audit is the final check."""

    if not fin.is_finite_layout:
        raise ValueError("synthesis needs a separated finite layout")
    branes = _finite_branes(fin.v_arr, fin.v_x, fin.arrow_ids, fin.x_ids)
    try:
        walk = _Walk(fin.diagram, branes)
    except ValueError:
        raise ValueError(_NOT_SUSY) from None
    if walk.crowd:
        raise ValueError(_NOT_SUSY)
    return walk


def _finite_branes(v_arr, v_x, arrow_ids, x_ids) -> dict[tuple, int]:
    """The tuple-keyed branes of :func:`synthesize_finite` on the finite
    layout with these labels and ids, not yet audited: the fixed branes,
    then arrow-to-arrow, then x-to-x."""

    n, w = len(arrow_ids), len(x_ids)
    if min(v_arr) < 0 or min(v_x) < 0:
        raise ValueError(_NOT_SUSY)
    counts, cur = greedy_fixed_counts(v_arr, v_x)
    if cur[0] or cur[w]:
        raise ValueError(_NOT_SUSY)

    branes: dict[tuple, int] = {}
    for s in range(1, n + 1):
        for k in range(1, counts[s - 1] + 1):
            _put(branes, (arrow_ids[s - 1], x_ids[k - 1], True, 0), 1)

    # leftover arrow-arc dimensions become arrow-to-arrow branes
    for m in range(1, n):
        residual = v_arr[m] - sum(counts[m:])
        if residual < 0:
            raise ValueError(_NOT_SUSY)
        if residual:
            _put(branes, (arrow_ids[m - 1], arrow_ids[m], False, 0), residual)

    # leftover x-side profile becomes x-to-x branes
    for i, j, mult in _histogram_runs(cur[1:w]):
        _put(branes, (x_ids[j + 1], x_ids[i], False, 0), mult)
    return branes


def _one_kind_branes(d: BowDiagram) -> dict[tuple, int]:
    """The tuple-keyed ledger of a diagram whose nodes are all of one
    kind, not yet audited.

    Every brane is unfixed, so only coverage matters: peel the global
    minimum off as full loops, then decompose what is left into runs
    anchored at a zero.
    """

    branes: dict[tuple, int] = {}
    k = d.k
    floor = min(d.dims)
    if floor > 0:
        anchor = min(node.id for node in d.nodes)
        _put(branes, (anchor, anchor, False, 1), floor)
    residual = [v - floor for v in d.dims]
    zero = d.cut if d.cut is not None else residual.index(0)
    line = [(zero + 1 + i) % k for i in range(k - 1)]
    for i, j, mult in _histogram_runs([residual[seg] for seg in line]):
        first, last = line[i], line[j]
        _put(branes, (d.nodes[(last + 1) % k].id, d.nodes[first].id, False, 0), mult)
    return branes


def synthesize(d: BowDiagram) -> BraneLedger:
    """Certifying brane ledger for a supersymmetric diagram.

    Raises ValueError when the diagram is not supersymmetric: no valid
    ledger exists in that case.  ``d`` is validated first.

    The finite layout that a decide reaches, the net crossings of each
    (arrow, x-point) pair on the way there and the arc subtraction come
    from ``susy._closed_reduction``, with no move made (see the module
    docstring).  The layout's ledger is carried back to ``d`` by
    :func:`_crossed` on each crossed pair; an undone arc subtraction
    puts back its clockwise x-to-x brane from x_1 to x_w (a full loop
    when w = 1): x-points never pass one another, so those are the run's
    ends at the subtraction too.  One audit on ``d`` checks the result:
    a coverage other than the dims or an over-full fixed slot is a fault
    of this module and raises RuntimeError.
    """

    from .susy import _closed_reduction

    _require_valid(d)
    nodes = d.nodes
    xpos = [pos for pos in range(len(nodes)) if nodes[pos].kind == NodeKind.XPOINT]
    if min(d.dims) < 0:
        raise ValueError(_NO_LEDGER)
    if len(xpos) in (0, len(nodes)):
        branes = _one_kind_branes(d)
    else:
        v_arr, v_x, arrow_ids, x_ids, net, a = _closed_reduction(d, xpos)
        if a < 0:
            raise ValueError(_NO_LEDGER)
        try:
            branes = _finite_branes(v_arr, v_x, arrow_ids, x_ids)
        except ValueError:
            raise ValueError(_NO_LEDGER) from None
        _put(branes, (x_ids[0], x_ids[-1], False, int(len(x_ids) == 1)), a)
        for (u, x), count in net.items():
            if count:
                held = 1 if branes.pop((u, x, True, 0), 0) else 0
                for z in _crossed(held, count):
                    branes[(u, x, True, z - 1) if z > 0 else (u, x, False, -z)] = 1
    cover, crowd = _audit(d.k, _index(d), branes)
    if cover != d.dims or crowd:
        raise RuntimeError(f"synthesized ledger covers {cover} on the dims {d.dims}, with {crowd} over-full fixed slots")
    return BraneLedger(diagram=d, branes={_brane(*key): mult for key, mult in branes.items()})


def _crossed(held: int, net: int) -> range:
    """The windings of one (arrow, x-point) pair's fixed branes after
    ``net`` shrinks of the pair, or −net grows when ``net`` is negative,
    from the windings S = {1} when ``held`` is 1 and S = ∅ when it is 0.

    A shrink maps a set S to (S − 1) △ {0}, so ``net`` of them give
    (S − net) △ {1 − net, …, 0}; a grow maps S to (S △ {0}) + 1, so
    −net of them give (S − net) △ {1, …, −net}.  From S ⊆ {1} both stay
    one run: a shrunk {1} is {2 − net, …, 0} and a grown one
    {1, …, 1 − net}, so the result is the range from 1 − net + held up
    to 0, or from 1 up to −net + held.
    """

    return range(1 - net + held, 1) if net > 0 else range(1, 1 - net + held)
