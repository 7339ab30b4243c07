"""Core data model for cyclic brane diagrams.

A diagram is a circle of nodes of two kinds, arrows ("o") and x-points
("x"), with a nonnegative-or-not integer dimension attached to every
segment between consecutive nodes.  Positions and segments are indexed
anticlockwise: segment ``i`` sits between ``nodes[i]`` and
``nodes[(i + 1) % k]``.  A finite diagram is the same circle with one
distinguished segment (the cut) that must carry dimension zero; an
affine diagram has no cut.

This module owns parsing/rendering of the text grammar, the JSON
mirrors for diagrams and move logs, structural validation, the
separated view (all x-points contiguous) with its standard segment
labelling, and the reflection swapping the two node kinds.

:func:`validate` runs at the public entry points: ``separated_view``,
``render_diagram`` and the JSON codecs.  ``_separated_view`` is the
unchecked view of a valid diagram: :func:`_run_start` scans for the
x-run start and :func:`_label` labels at it.  The rewrite passes, which
track the run start through their moves, call ``_label`` alone.

The frozen value types of the package (here, and the branes,
certificates and weights elsewhere) derive from :class:`_Value`: slotted
classes with a hand-written ``__init__``, equal only to an instance of
the same class with equal fields.  Written out, their methods cost
nothing at import; a class decorator that generates them compiles each
with ``exec`` and loads ``inspect``, ``ast`` and ``dis``, about a
quarter of the CPU time of a one-shot ``bowforge check``.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from typing import Iterable, Union

# ---------------------------------------------------------------------------
# nodes and diagrams


class NodeKind(str, Enum):
    ARROW = "o"
    XPOINT = "x"


class Direction(str, Enum):
    CW = "cw"
    ACW = "acw"


# sets a slot of a value type, whose own __setattr__ refuses
_set = object.__setattr__


class _Value:
    """Base of the frozen value types.

    A subclass lists its fields in ``__slots__`` and sets each in its own
    ``__init__``, which takes them in that order, through ``_set``.  The
    base compares and hashes the tuple of fields, equal only within one
    class, prints ``Name(field=value, ...)`` and refuses assignment and
    deletion.  The hottest types write their own ``__eq__`` or
    ``__hash__`` out, with the same meaning; a class that defines
    ``__eq__`` must name a ``__hash__`` too, or Python sets it to None.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        # pickle and copy rebuild through __init__, since __setattr__ refuses
        return self.__class__, self._fields()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Node(_Value):
    __slots__ = ("id", "kind")

    def __init__(self, id: int, kind: NodeKind):
        _set(self, "id", id)
        _set(self, "kind", kind)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.id == other.id and self.kind == other.kind
        return NotImplemented

    __hash__ = _Value.__hash__


class BowDiagram(_Value):
    """Circle of nodes with per-segment dimensions and an optional cut.

    ``dims[i]`` is the dimension of the segment that follows ``nodes[i]``
    anticlockwise.  ``cut`` is a segment index for finite diagrams and
    ``None`` for affine ones.  Dimensions may be negative; only shape
    constraints are enforced by :func:`validate`.
    """

    __slots__ = ("nodes", "dims", "cut")

    def __init__(self, nodes: tuple[Node, ...], dims: tuple[int, ...], cut: int | None = None):
        _set(self, "nodes", nodes)
        _set(self, "dims", dims)
        _set(self, "cut", cut)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.nodes == other.nodes and self.dims == other.dims and self.cut == other.cut
        return NotImplemented

    __hash__ = _Value.__hash__

    @property
    def k(self) -> int:
        return len(self.nodes)

    @property
    def is_finite(self) -> bool:
        return self.cut is not None

    def position(self, node_id: int) -> int:
        for pos, node in enumerate(self.nodes):
            if node.id == node_id:
                return pos
        raise KeyError(f"no node with id {node_id}")

    def count(self, kind: NodeKind) -> int:
        return sum(1 for node in self.nodes if node.kind == kind)

    @property
    def n_arrows(self) -> int:
        return self.count(NodeKind.ARROW)

    @property
    def n_xpoints(self) -> int:
        return self.count(NodeKind.XPOINT)


def validate(d: BowDiagram) -> list[str]:
    """Return the list of shape violations, empty when the diagram is legal.

    Negative dimensions are legal data and are not reported here.
    """

    problems: list[str] = []
    if len(d.nodes) == 0:
        problems.append("diagram has no nodes")
    if len(d.dims) != len(d.nodes):
        problems.append(
            f"expected {len(d.nodes)} segment dims, found {len(d.dims)}"
        )
    ids = [node.id for node in d.nodes]
    if len(set(ids)) != len(ids):
        problems.append("node ids are not distinct")
    for value in d.dims:
        if not isinstance(value, int) or isinstance(value, bool):
            problems.append(f"dimension {value!r} is not an integer")
    if d.cut is not None:
        if not (0 <= d.cut < len(d.dims)):
            problems.append(f"cut index {d.cut} out of range")
        elif d.dims[d.cut] != 0:
            problems.append(f"cut segment carries dimension {d.dims[d.cut]} != 0")
    return problems


def _require_valid(d: BowDiagram) -> None:
    """Raise ValueError naming every shape violation, if there is one."""

    problems = validate(d)
    if problems:
        raise ValueError("; ".join(problems))


# ---------------------------------------------------------------------------
# text grammar

_KIND_TOKENS = {kind.value: kind for kind in NodeKind}


def _parse_int(token: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"expected an integer dimension, found {token!r}") from None


# parse_diagram's nodes: _interned[i] is (Node(i, ARROW), Node(i, XPOINT)).
# A parse that needs more ids rebinds a longer tuple and never grows one in
# place, so a tuple read while another thread grows the table stays right.
_interned: tuple[tuple[Node, Node], ...] = ()


def _interned_nodes(kinds: list[NodeKind]) -> tuple[Node, ...]:
    """``Node(i, kinds[i])`` for every i, from the interned nodes."""

    global _interned
    table = _interned
    if len(table) < len(kinds):
        table = _interned = table + tuple(
            (Node(i, NodeKind.ARROW), Node(i, NodeKind.XPOINT)) for i in range(len(table), len(kinds))
        )
    return tuple([table[i][kind is NodeKind.XPOINT] for i, kind in enumerate(kinds)])


def parse_diagram(text: str) -> BowDiagram:
    """Parse the whitespace-token grammar.

    Affine diagrams are written ``( d0 n0 d1 n1 ... )`` with each
    dimension preceding its node; the circle closes by wrapping ``d0``
    behind the last node.  Finite diagrams are written
    ``[ d0 n0 d1 ... n_last d_end ]``.  A finite end segment with
    nonzero dimension gets a fresh boundary arrow with a zero segment
    behind it, which changes nothing up to the usual moves; the two
    zero ends are then identified into the single cut segment.
    Node ids are assigned in storage order starting from 0, and every
    parse hands out the same ``Node`` object for one (id, kind).
    """

    tokens = text.split()
    if len(tokens) < 3:
        raise ValueError("diagram text too short")
    opener, closer = tokens[0], tokens[-1]
    inner = tokens[1:-1]
    if opener == "(" and closer == ")":
        if len(inner) % 2 != 0 or len(inner) == 0:
            raise ValueError("affine diagram needs dimension/node token pairs")
        dims_text = [_parse_int(tok) for tok in inner[0::2]]
        kinds = [_token_kind(tok) for tok in inner[1::2]]
        k = len(kinds)
        nodes = _interned_nodes(kinds)
        dims = tuple(dims_text[(j + 1) % k] for j in range(k))
        return BowDiagram(nodes=nodes, dims=dims, cut=None)
    if opener == "[" and closer == "]":
        if len(inner) % 2 != 1 or len(inner) < 3:
            raise ValueError("finite diagram needs dims around every node")
        dims_text = [_parse_int(tok) for tok in inner[0::2]]
        kinds = [_token_kind(tok) for tok in inner[1::2]]
        if dims_text[0] != 0:
            dims_text.insert(0, 0)
            kinds.insert(0, NodeKind.ARROW)
        if dims_text[-1] != 0:
            dims_text.append(0)
            kinds.append(NodeKind.ARROW)
        k = len(kinds)
        nodes = _interned_nodes(kinds)
        dims = tuple(dims_text[1:k]) + (0,)
        return BowDiagram(nodes=nodes, dims=dims, cut=k - 1)
    raise ValueError(f"unbalanced diagram delimiters {opener!r} ... {closer!r}")


def _token_kind(token: str) -> NodeKind:
    if token not in _KIND_TOKENS:
        raise ValueError(f"expected node token 'o' or 'x', found {token!r}")
    return _KIND_TOKENS[token]


def render_diagram(d: BowDiagram) -> str:
    """Inverse of :func:`parse_diagram` on valid diagrams."""

    data = diagram_to_json(d)
    return _grammar_text(data["shape"], data["nodes"], data["dims"])


def _grammar_text(shape: str, tokens: list, dims: list) -> str:
    """The text grammar of a JSON mirror's shape, node tokens and dims:
    each dimension before its node, and a finite line's last one after
    its last node."""

    parts = [f"{dim} {token}" for dim, token in zip(dims, tokens)]
    if shape == "affine":
        return f"( {' '.join(parts)} )"
    return f"[ {' '.join(parts)} {dims[-1]} ]"


# ---------------------------------------------------------------------------
# JSON mirrors

def diagram_to_json(d: BowDiagram) -> dict:
    """Dict mirror of the text grammar (dimension precedes node).

    Node ids ride along so that move logs written against the diagram
    stay meaningful after a round trip.
    """

    _require_valid(d)
    k = d.k
    if d.cut is None:
        return {
            "shape": "affine",
            "nodes": [node.kind.value for node in d.nodes],
            "ids": [node.id for node in d.nodes],
            "dims": [d.dims[(j - 1) % k] for j in range(k)],
        }
    start = (d.cut + 1) % k
    order = [(start + i) % k for i in range(k)]
    return {
        "shape": "finite",
        "nodes": [d.nodes[pos].kind.value for pos in order],
        "ids": [d.nodes[pos].id for pos in order],
        "dims": [d.dims[d.cut]] + [d.dims[pos] for pos in order],
    }


def _json_int(value, field: str) -> int:
    """An integer field of decoded JSON, unchanged; anything else, a bool,
    a float such as 1.7 or the infinity that 1e400 decodes to included,
    raises ValueError naming the field, not rounding or overflowing."""

    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{field} must be an integer, got {value!r}")
    return value


def _restore_ids(base: BowDiagram, ids) -> BowDiagram:
    ids = [_json_int(v, "node id") for v in ids]
    if len(ids) != len(base.nodes):
        raise ValueError(f"expected {len(base.nodes)} node ids, found {len(ids)}")
    if len(set(ids)) != len(ids):
        raise ValueError("node ids are not distinct")
    nodes = tuple(Node(id=i, kind=node.kind) for i, node in zip(ids, base.nodes))
    return BowDiagram(nodes=nodes, dims=base.dims, cut=base.cut)


def diagram_from_json(data: dict) -> BowDiagram:
    shape = data.get("shape")
    tokens = [_token_kind(tok).value for tok in data.get("nodes", [])]
    dims = [_json_int(v, "dimension") for v in data.get("dims", [])]
    if shape not in ("affine", "finite"):
        raise ValueError(f"unknown diagram shape {shape!r}")
    if shape == "affine" and len(dims) != len(tokens):
        raise ValueError(f"affine diagram needs as many dims as nodes, got {len(dims)} and {len(tokens)}")
    if shape == "finite" and len(dims) != len(tokens) + 1:
        raise ValueError("finite diagram needs one more dim than nodes")
    base = parse_diagram(_grammar_text(shape, tokens, dims))
    if "ids" in data:
        return _restore_ids(base, data["ids"])
    return base


# ---------------------------------------------------------------------------
# move log entries

class HwMove(_Value):
    """Swap of the adjacent pair (left, right), left anticlockwise-first."""

    __slots__ = ("left", "right")

    def __init__(self, left: int, right: int):
        _set(self, "left", left)
        _set(self, "right", right)


# The rewrite passes' swap entries, interned: ``_hw_move(left, right)`` is
# one HwMove per id pair while the pair is among the last _HW_MOVES_CACHED
# asked for; the cache keys on the ids' types too, so ids 1 and 1.0 never
# share an entry.  An entry is frozen and equal to a fresh one, so logs
# share it, and pickle and copy rebuild it through HwMove itself.  It
# saves only where id pairs repeat across calls, as parse_diagram's ids
# 0..k-1 do; a miss costs more than a fresh HwMove.
_HW_MOVES_CACHED = 4096
_hw_move = lru_cache(maxsize=_HW_MOVES_CACHED, typed=True)(HwMove)


class IncrementArrows(_Value):
    """Uniform raise along the arc from one arrow to another."""

    __slots__ = ("start", "end", "direction", "amount")

    def __init__(self, start: int, end: int, direction: Direction, amount: int):
        _set(self, "start", start)
        _set(self, "end", end)
        _set(self, "direction", direction)
        _set(self, "amount", amount)


class IncrementX(_Value):
    """Uniform raise along the arc from one x-point to another."""

    __slots__ = ("start", "end", "direction", "amount")

    def __init__(self, start: int, end: int, direction: Direction, amount: int):
        _set(self, "start", start)
        _set(self, "end", end)
        _set(self, "direction", direction)
        _set(self, "amount", amount)


class SubtractArrowArc(_Value):
    """Uniform drop on the arc of segments touching an arrow."""

    __slots__ = ("amount",)

    def __init__(self, amount: int):
        _set(self, "amount", amount)


class CutAt(_Value):
    """Turn an affine diagram finite by cutting a zero segment."""

    __slots__ = ("segment",)

    def __init__(self, segment: int):
        _set(self, "segment", segment)


MoveEntry = Union[HwMove, IncrementArrows, IncrementX, SubtractArrowArc, CutAt]
MoveLog = tuple[MoveEntry, ...]


def entry_to_json(entry: MoveEntry) -> dict:
    if isinstance(entry, HwMove):
        return {"op": "hw", "left": entry.left, "right": entry.right}
    if isinstance(entry, (IncrementArrows, IncrementX)):
        return {
            "op": "increment_arrows" if isinstance(entry, IncrementArrows) else "increment_x",
            "start": entry.start,
            "end": entry.end,
            "dir": entry.direction.value,
            "amount": entry.amount,
        }
    if isinstance(entry, SubtractArrowArc):
        return {"op": "subtract_arrow_arc", "amount": entry.amount}
    if isinstance(entry, CutAt):
        return {"op": "cut_at", "segment": entry.segment}
    raise TypeError(f"unknown move entry {entry!r}")


def entry_from_json(data: dict) -> MoveEntry:
    op = data.get("op")

    def field(name: str) -> int:
        return _json_int(data[name], f"move field {name!r}")

    if op == "hw":
        return HwMove(left=field("left"), right=field("right"))
    if op in ("increment_arrows", "increment_x"):
        increment = IncrementArrows if op == "increment_arrows" else IncrementX
        return increment(
            start=field("start"),
            end=field("end"),
            direction=Direction(data["dir"]),
            amount=field("amount"),
        )
    if op == "subtract_arrow_arc":
        return SubtractArrowArc(amount=field("amount"))
    if op == "cut_at":
        return CutAt(segment=field("segment"))
    raise ValueError(f"unknown move op {op!r}")


def log_to_json(log: Iterable[MoveEntry]) -> list[dict]:
    return [entry_to_json(entry) for entry in log]


def log_from_json(data: Iterable[dict]) -> MoveLog:
    return tuple(entry_from_json(item) for item in data)


# ---------------------------------------------------------------------------
# separated view

class SeparatedForm(_Value):
    """Labelled view of a diagram whose x-points are contiguous.

    Going anticlockwise: ``v_0``, then ``x_1 .. x_w`` with the segments
    ``v_-1 .. v_-w`` between and after them, then the arrows in the
    order ``e_n, ..., e_1`` with ``v_s`` the tail segment of ``e_s``.
    The circle identifies ``v_n`` with ``v_-w``; ``v_arr`` stores
    ``(v_0, ..., v_n)`` and ``v_x`` stores ``(v_0, v_-1, ..., v_-w)``,
    so ``v_arr[0] == v_x[0]`` and ``v_arr[n] == v_x[w]``.
    ``seg_arr``/``seg_x`` give the underlying segment indices.
    """

    __slots__ = ("diagram", "arrow_ids", "x_ids", "v_arr", "v_x", "seg_arr", "seg_x")

    def __init__(
        self,
        diagram: BowDiagram,
        arrow_ids: tuple[int, ...],
        x_ids: tuple[int, ...],
        v_arr: tuple[int, ...],
        v_x: tuple[int, ...],
        seg_arr: tuple[int, ...],
        seg_x: tuple[int, ...],
    ):
        _set(self, "diagram", diagram)
        _set(self, "arrow_ids", arrow_ids)
        _set(self, "x_ids", x_ids)
        _set(self, "v_arr", v_arr)
        _set(self, "v_x", v_x)
        _set(self, "seg_arr", seg_arr)
        _set(self, "seg_x", seg_x)

    @property
    def n(self) -> int:
        return len(self.arrow_ids)

    @property
    def w(self) -> int:
        return len(self.x_ids)

    @property
    def gap(self) -> int:
        return self.v_arr[0] - self.v_x[-1]

    @property
    def is_finite_layout(self) -> bool:
        """True when the diagram is finite with the cut on the v_n segment."""

        return self.diagram.is_finite and self.diagram.cut == self.seg_x[-1]


def separated_view(d: BowDiagram) -> SeparatedForm | None:
    """Labelled separated form, or None when the x-points are not contiguous.

    Diagrams with no arrows or no x-points are trivially separated; the
    lowest-id node of the populated kind anchors the labelling.  For a
    finite diagram with both kinds present the cut must not sit between
    two x-points of the run (the run may not straddle the cut); it may
    sit anywhere on the arrow arc, and :attr:`SeparatedForm.is_finite_layout`
    tells whether it sits on the ``v_n`` boundary segment.

    This is the checked entry point: it validates ``d`` first.  The
    rewrite passes, which only ever produce valid diagrams from valid
    ones, call the unchecked :func:`_label` at the x-run start they
    tracked instead.
    """

    _require_valid(d)
    return _separated_view(d)


def _separated_view(d: BowDiagram) -> SeparatedForm | None:
    """:func:`separated_view` on a diagram already known to be valid: the
    run-start scan, then the labelling at the start it finds."""

    start = _run_start(d.nodes)
    return None if start is None else _label(d, *start)


def _run_start(nodes: tuple[Node, ...]) -> tuple[int, int] | None:
    """The x-run start p1 and the x-point count w, by one O(k) scan, or
    None when the x points are not contiguous.

    p1 is the one x point behind an arrow, or with one kind only, the
    lowest-id x point or the position after the lowest-id arrow.
    """

    k = len(nodes)
    xpos = [pos for pos, node in enumerate(nodes) if node.kind == NodeKind.XPOINT]
    w = len(xpos)
    if w == 0:
        return min(range(k), key=lambda pos: nodes[pos].id) + 1, 0
    if w == k:
        return min(xpos, key=lambda pos: nodes[pos].id), w
    # one arrow-to-x boundary means one maximal run of x points
    starts = [pos for pos in xpos if nodes[pos - 1].kind == NodeKind.ARROW]
    return (starts[0], w) if len(starts) == 1 else None


def _label(d: BowDiagram, p1: int, w: int) -> SeparatedForm | None:
    """The separated view of a valid diagram whose x-run of w points starts
    at p1, or None when it does not start there.

    Every segment label is position arithmetic from p1, with no node-id
    lookups.  In O(w) this establishes what :func:`_run_start` found:
    the w positions from p1 hold x points, and with arrows present an
    arrow sits behind p1 and the run keeps off the cut.  With w the
    diagram's x-point count, that makes p1 its run start; a caller that
    tracked p1 through its moves raises if the labelling refuses.
    """

    k = len(d.nodes)
    q = (p1 - 1) % k
    # the k + 1 positions from p1 - 1 anticlockwise round to p1 - 1 again,
    # and the nodes and dims there: seg_x is the first w + 1 of them, and
    # seg_arr the last n + 1 backwards, with e_s at seg_arr[s - 1]
    ring = (*range(q, k), *range(q + 1))
    nodes = d.nodes[q:] + d.nodes[:q + 1]
    x_nodes = nodes[1:w + 1]
    for node in x_nodes:
        if node.kind != NodeKind.XPOINT:
            return None
    seg_x = ring[:w + 1]
    # with arrows present the run may not straddle the cut (None is no segment)
    if w < k and (nodes[0].kind != NodeKind.ARROW or d.cut in seg_x[1:w]):
        return None
    dims = d.dims[q:] + d.dims[:q + 1]
    return SeparatedForm(
        diagram=d,
        arrow_ids=tuple([node.id for node in nodes[w + 1:][::-1]]),
        x_ids=tuple([node.id for node in x_nodes]),
        v_arr=dims[w:][::-1],
        v_x=dims[:w + 1],
        seg_arr=ring[w:][::-1],
        seg_x=seg_x,
    )


def s_dual(d: BowDiagram) -> BowDiagram:
    """Swap the two node kinds everywhere, keeping dims, ids and the cut."""

    flipped = tuple(
        Node(node.id, NodeKind.XPOINT if node.kind == NodeKind.ARROW else NodeKind.ARROW)
        for node in d.nodes
    )
    return BowDiagram(nodes=flipped, dims=d.dims, cut=d.cut)
