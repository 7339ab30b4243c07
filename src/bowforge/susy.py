"""Supersymmetry bounds and the finite-step decision procedure.

For a separated diagram the dimensions reachable by sweeping arrows
through the x-point block are closed-form integer expressions in the
labels v_s, v_{-k}: the clockwise family

    cD^t_{s,k} = sk + (t-1)(sw+kn) + (t-1)(t-2)/2·wn
                 + v_s + v_{-k} + (t-1)·v_{-w} - t·v_0

and its anticlockwise mirror.  A diagram is supersymmetric exactly when
none of these can go negative, and for a finite separated layout the
t = 1 clockwise family alone decides it.  The decision procedure
normalizes any input to that layout by recorded moves, aborting early
if a move ever produces a negative dimension, and returns a
replay-checkable certificate either way.
"""

from __future__ import annotations

from typing import Union

from .diagram import (
    BowDiagram,
    CutAt,
    Direction,
    MoveEntry,
    MoveLog,
    NodeKind,
    SeparatedForm,
    SubtractArrowArc,
    _label,
    _require_valid,
    _set,
    _Value,
    entry_to_json,
)
from .rewrite import NegativeWitness, _gap_passes, _pass, _separate

# ---------------------------------------------------------------------------
# certificates


class InequalityViolation(_Value):
    """A bound value that came out negative, pinned by its indices."""

    __slots__ = ("direction", "t", "s", "k", "value")

    def __init__(self, direction: Direction, t: int, s: int, k: int, value: int):
        _set(self, "direction", direction)
        _set(self, "t", t)
        _set(self, "s", s)
        _set(self, "k", k)
        _set(self, "value", value)


class FiniteCheckPassed(_Value):
    """All checked (s, k, value) triples of the t=1 clockwise family."""

    __slots__ = ("checked",)

    def __init__(self, checked: tuple[tuple[int, int, int], ...]):
        _set(self, "checked", checked)


class TrivialNoNodes(_Value):
    """Verdict for diagrams with only one node kind: sign of the min dim."""

    __slots__ = ("min_dim",)

    def __init__(self, min_dim: int):
        _set(self, "min_dim", min_dim)


Witness = Union[InequalityViolation, NegativeWitness, FiniteCheckPassed, TrivialNoNodes]


class Certificate(_Value):
    __slots__ = ("verdict", "witness", "pipeline")

    def __init__(self, verdict: bool, witness: Witness, pipeline: MoveLog):
        _set(self, "verdict", verdict)
        _set(self, "witness", witness)
        _set(self, "pipeline", pipeline)


def witness_to_json(witness: Witness) -> dict:
    if isinstance(witness, InequalityViolation):
        return {
            "kind": "inequality_violation",
            "direction": witness.direction.value,
            "t": witness.t,
            "s": witness.s,
            "k": witness.k,
            "value": witness.value,
        }
    if isinstance(witness, NegativeWitness):
        return {
            "kind": "negative_dimension",
            "move_log": [entry_to_json(entry) for entry in witness.move_log],
            "segment": witness.segment,
            "value": witness.value,
        }
    if isinstance(witness, FiniteCheckPassed):
        return {
            "kind": "finite_check_passed",
            "checked": [list(triple) for triple in witness.checked],
        }
    if isinstance(witness, TrivialNoNodes):
        return {"kind": "one_node_kind", "min_dim": witness.min_dim}
    raise TypeError(f"unknown witness {witness!r}")


def certificate_to_json(cert: Certificate) -> dict:
    return {
        "susy": cert.verdict,
        "witness": witness_to_json(cert.witness),
        "pipeline": [entry_to_json(entry) for entry in cert.pipeline],
    }


# ---------------------------------------------------------------------------
# the bound family


def susy_bound(sep: SeparatedForm, direction: Direction, t: int, s: int, k: int) -> int:
    """Value of cD^t_{s,k} (clockwise) or its anticlockwise mirror.

    Indices range over s in 0..n, k in 0..w, t >= 0; the t = 0 values
    are a read-only degenerate extension (they repeat plain dimensions).
    Exact integer arithmetic at every size.
    """

    n, w = sep.n, sep.w
    if not 0 <= s <= n:
        raise IndexError(f"arrow index {s} out of range 0..{n}")
    if not 0 <= k <= w:
        raise IndexError(f"x index {k} out of range 0..{w}")
    if t < 0:
        raise IndexError("winding index t must be nonnegative")
    v0 = sep.v_arr[0]
    vw = sep.v_x[w]
    base = s * k + (t - 1) * (s * w + k * n) + (t - 1) * (t - 2) // 2 * w * n
    if direction == Direction.CW:
        return base + sep.v_arr[s] + sep.v_x[k] + (t - 1) * vw - t * v0
    return base + sep.v_arr[n - s] + sep.v_x[w - k] + (t - 1) * v0 - t * vw


# ---------------------------------------------------------------------------
# the finite check


def check_finite_separated(sep: SeparatedForm) -> Certificate:
    """Decide a finite separated layout via the t=1 clockwise family.

    The plain dimensions are the s=0 row and k=0 column.  Interior
    indices are checked only up to the first zero on each label arc and
    up to v_0, which suffices: beyond a zero label the values only grow,
    and sk alone dominates v_0 past that box.  Only those cells are
    visited, row by row in s and along each row in k, and the witness is
    the lexicographically first failing (s, k).
    """

    if not sep.is_finite_layout:
        raise ValueError("finite separated layout required")
    n, w = sep.n, sep.w
    if n < 1 or w < 1:
        raise ValueError("the finite check needs both node kinds")
    v_arr, v_x = sep.v_arr, sep.v_x
    v0 = v_arr[0]
    n_prime = v_arr.index(0)
    w_prime = v_x.index(0) if 0 in v_x else w
    s_hi = min(n_prime, max(v0, 0))
    k_hi = min(w_prime, max(v0, 0))
    checked: list[tuple[int, int, int]] = []
    for s in range(n + 1):
        row = v_arr[s] - v0
        # the whole s = 0 row; past it, k = 0 and the box up to (s_hi, k_hi)
        for k in range(w + 1 if s == 0 else k_hi + 1 if s <= s_hi else 1):
            value = s * k + row + v_x[k]
            checked.append((s, k, value))
            if value < 0:
                witness = InequalityViolation(Direction.CW, 1, s, k, value)
                return Certificate(False, witness, ())
    return Certificate(True, FiniteCheckPassed(tuple(checked)), ())


# ---------------------------------------------------------------------------
# arc subtraction


def subtract_arrow_arc(sep: SeparatedForm, a: int) -> SeparatedForm:
    """Lower every arrow-arc label v_0..v_n by a, keeping the x interior.

    Requires the gap condition 0 <= v_0 - v_{-w} < w and 0 <= a <= min
    of the arrow-arc labels, under which the supersymmetry verdict is
    unchanged in both directions.  The input's diagram is validated
    first; the result is the diagram ``apply_entry`` gives for
    ``SubtractArrowArc(a)``.
    """

    d = sep.diagram
    _require_valid(d)
    if d.is_finite:
        raise ValueError("arc subtraction applies to affine diagrams")
    if sep.n < 1 or sep.w < 1:
        raise ValueError("arc subtraction needs both node kinds")
    if not 0 <= sep.gap < sep.w:
        raise ValueError(f"gap {sep.gap} outside [0, {sep.w})")
    if not 0 <= a <= min(sep.v_arr):
        raise ValueError(f"amount {a} outside 0..min(v_arr)")
    dims = list(d.dims)
    for seg in sep.seg_arr:
        dims[seg] -= a
    # the lowering moves no node, so the x run still starts where it did
    view = _label(BowDiagram(nodes=d.nodes, dims=tuple(dims), cut=None), sep.seg_x[1], sep.w)
    if view is None:
        raise RuntimeError("arc subtraction left the x points apart")
    return view


# ---------------------------------------------------------------------------
# reduction to a finite separated layout


def reduce_to_finite(sep: SeparatedForm) -> tuple[SeparatedForm, MoveLog] | NegativeWitness:
    """Rewrite a separated diagram into the finite separated layout.

    Finite input with the cut already on the v_n boundary passes
    through; finite input with the cut elsewhere on the arrow arc only
    needs the clockwise pushes.  Affine input is gap-normalized, lowered
    by a = min(v_0..v_n) along the arrow arc, cut at the first zero
    label, and then pushed into layout.  Any negative dimension along
    the way aborts with that witness.  The input's diagram is validated
    once, on entry.
    """

    _require_valid(sep.diagram)
    return _reduce_to_finite(sep)


def _reduce_to_finite(sep: SeparatedForm) -> tuple[SeparatedForm, MoveLog] | NegativeWitness:
    """:func:`reduce_to_finite` on the view of a diagram already known to
    be valid.

    Every stage runs on one pair of node and dim lists and tracks the
    x-run start p1: the gap passes of ``rewrite._gap_passes``; the
    lowering and the cut, written straight onto the dim list and logged
    as the ``SubtractArrowArc`` and ``CutAt`` entries that replay them;
    and the pushes, each of which moves e_n clockwise through the run
    and p1 up by one, until the cut is the segment p1 + w − 1.  No view
    is taken between stages: one unchecked view is labelled at the end,
    at the tracked p1.
    """

    if sep.n < 1 or sep.w < 1:
        raise ValueError("reduction needs both node kinds")
    if sep.is_finite_layout:
        return sep, ()
    d = sep.diagram
    k, n, w, p1, cut = d.k, sep.n, sep.w, sep.seg_x[1], d.cut
    nodes, dims = list(d.nodes), list(d.dims)
    log: list[MoveEntry] = []
    if cut is None:
        p1 = _gap_passes(nodes, dims, p1, w, log)
        if isinstance(p1, NegativeWitness):
            return p1
        # the arrow arc v_0 .. v_n; lowering it by its minimum moves no
        # node, so the first zero label is its first minimum
        arc = [(p1 - 1 - s) % k for s in range(n + 1)]
        v_arr = [dims[seg] for seg in arc]
        a = min(v_arr)
        cut = arc[v_arr.index(a)]
        for seg in arc:
            dims[seg] -= a
        if a > 0:
            log.append(SubtractArrowArc(amount=a))
        log.append(CutAt(segment=cut))
    guard = k + 2
    while cut != (p1 + w - 1) % k:
        if guard <= 0:
            raise RuntimeError("layout pushes failed to terminate")
        guard -= 1
        # e_n sits at p1 + w
        if witness := _pass(nodes, dims, cut, (p1 + w) % k, False, w, log):
            return witness
        p1 = (p1 + 1) % k
    view = _label(BowDiagram(nodes=tuple(nodes), dims=tuple(dims), cut=cut), p1, w)
    if view is None or not view.is_finite_layout:
        raise RuntimeError("the reduction did not reach the finite layout")
    return view, tuple(log)


# ---------------------------------------------------------------------------
# the decision procedure


def _decide_full(d: BowDiagram) -> tuple[Certificate, SeparatedForm | None]:
    """Certificate plus, on success, the finite separated layout reached.

    The one validation of a decide: every later stage is an unchecked
    core, fed only diagrams that moves built from ``d``.
    """

    _require_valid(d)
    min_dim = min(d.dims)
    # the one scan of the node kinds: the x positions give both counts
    nodes = d.nodes
    xpos = [pos for pos in range(len(nodes)) if nodes[pos].kind == NodeKind.XPOINT]
    if len(xpos) in (0, len(nodes)):
        return Certificate(min_dim >= 0, TrivialNoNodes(min_dim=min_dim), ()), None
    if min_dim < 0:
        witness = NegativeWitness((), d.dims.index(min_dim), min_dim)
        return Certificate(False, witness, ()), None
    res = _separate(d, xpos)
    if isinstance(res, NegativeWitness):
        return Certificate(False, res, res.move_log), None
    sep, log1 = res
    res2 = _reduce_to_finite(sep)
    if isinstance(res2, NegativeWitness):
        witness = NegativeWitness(log1 + res2.move_log, res2.segment, res2.value)
        return Certificate(False, witness, witness.move_log), None
    fin, log2 = res2
    inner = check_finite_separated(fin)
    return Certificate(inner.verdict, inner.witness, log1 + log2), fin


def decide_supersymmetry(d: BowDiagram) -> Certificate:
    """Decide in finitely many exact steps whether the diagram is
    supersymmetric, with a replayable certificate either way."""

    return _decide_full(d)[0]
