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
replay-checkable certificate either way.  ``_closed_reduction`` reaches
the same layout by arithmetic alone, with the crossings on the way,
for ledger synthesis.
"""

from __future__ import annotations

from itertools import accumulate
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
from .rewrite import NegativeWitness, _gather, _run_passes, _separate

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
    x-run start p1: gap // w counted passes of ``rewrite._run_passes``;
    the lowering and the cut, written straight onto the dim list and
    logged as the ``SubtractArrowArc`` and ``CutAt`` entries that replay
    them; and the pushes, the same loop's (c − p1 − w + 1) mod k
    clockwise passes of e_n, which bring the run's end p1 + w − 1 onto
    the cut c.  No view is taken between stages: one unchecked view is
    labelled at the end, at the tracked p1.
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
        p1 = _run_passes(nodes, dims, None, p1, w, sep.gap // w, log)
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
    p1 = _run_passes(nodes, dims, cut, p1, w, -((cut - p1 - w + 1) % k), log)
    if isinstance(p1, NegativeWitness):
        return p1
    view = _label(BowDiagram(nodes=tuple(nodes), dims=tuple(dims), cut=cut), p1, w)
    if view is None or not view.is_finite_layout:
        raise RuntimeError("the reduction did not reach the finite layout")
    return view, tuple(log)


def _closed_reduction(d: BowDiagram, xpos: list[int]) -> tuple[list, list, list, list, dict, int]:
    """What :func:`_decide_full` reaches from a valid diagram with both
    node kinds, whose x points sit at the ascending positions ``xpos``,
    by arithmetic alone: no swap, no move log, no view.

    Returns the finite layout's labels ``v_arr`` and ``v_x`` with its
    arrow ids e_1 .. e_n and x ids x_1 .. x_w, the net count
    ``{(arrow id, x id): shrinks}`` of every arrow-x pair (x passing the
    arrow anticlockwise counts +1, the arrow passing the x −1), and the
    arc subtraction amount a (0 for finite input).  Where a decide
    stops at a negative dimension this goes on through it, so a
    negative a or label is the caller's to refuse (module docstring of
    ``branes``).

    - Separation.  Let a node's jump be the dim after it minus the dim
      before it.  A swap moves one unit of jump from the node that moves
      anticlockwise to the node it passes, and ``rewrite._separate``
      never swaps the last segment of its line, so the separated dims
      are that segment's dim plus prefix sums of the adjusted jumps in
      the gathered order.  An x point below the anchor run passes each
      arrow between itself and the run anticlockwise; one above it
      (finite input) is passed by each arrow between the run and itself.
    - Passes.  Gap passes and pushes are :func:`_passes` with the signed
      counts of ``rewrite._run_passes``: q = gap // w gap passes, then
      −(n − c) pushes, with c the index of the cut label: the first
      minimal label of affine input, the count of arrows below the run
      for finite input.
    - The x interior.  Each pass moves every x point's jump by one, and
      the subtraction moves x_1's up by a, so v_−j gains
      (v_0' − v_0 + a) + (lowering − raising − pushes)·j, with v_0' the
      final v_0.
    """

    nodes, dims, cut = d.nodes, d.dims, d.cut
    k, w = len(nodes), len(xpos)
    n = k - w
    xpoint = NodeKind.XPOINT
    start, first, last = _gather(nodes, cut, xpos)
    line = [nodes[(start + i) % k] for i in range(k)]
    jump = [dims[(start + i) % k] - dims[(start + i - 1) % k] for i in range(k)]
    net: dict[tuple[int, int], int] = {}
    # arrows passed so far by the x points below the run, then above it
    for span, sign in ((range(first - 1, -1, -1), 1), (range(last + 1, k), -1)):
        passed: list[int] = []
        for i in span:
            if line[i].kind != xpoint:
                passed.append(i)
                continue
            jump[i] -= sign * len(passed)
            for j in passed:
                jump[j] += sign
                net[line[j].id, line[i].id] = sign
    order = [i for i in range(first) if line[i].kind != xpoint]
    below = len(order)
    order += [i for i in range(k) if line[i].kind == xpoint]
    order += [i for i in range(last + 1, k) if line[i].kind != xpoint]
    seg = list(accumulate([jump[i] for i in order], initial=dims[(start - 1) % k]))[1:]
    # e_s sits s places clockwise of x_1, and v_s is the segment after e_(s+1)
    v_arr = [seg[(below - 1 - s) % k] for s in range(n + 1)]
    arrow_ids = [line[order[(below - s) % k]].id for s in range(1, n + 1)]
    x_ids = [line[i].id for i in order[below:below + w]]
    v0, interior = v_arr[0], seg[below:below + w - 1]

    moved: dict[int, int] = {}
    a = q = 0
    cut_label = below
    if cut is None:
        q = (v_arr[0] - v_arr[n]) // w
        v_arr, arrow_ids = _passes(v_arr, arrow_ids, q, w, moved)
        a = min(v_arr)
        cut_label = v_arr.index(a)
        v_arr = [v - a for v in v_arr]
    pushes = n - cut_label
    v_arr, arrow_ids = _passes(v_arr, arrow_ids, -pushes, w, moved)
    shift, turns = v_arr[0] - v0 + a, q - pushes
    v_x = [v_arr[0], *[v + shift + turns * j for j, v in enumerate(interior, 1)], v_arr[n]]
    for u in arrow_ids:
        if count := moved.get(u, 0):
            for x in x_ids:
                net[u, x] = net.get((u, x), 0) + count
    return v_arr, v_x, arrow_ids, x_ids, net, a


def _passes(arc: list, ids: list, q: int, w: int, moved: dict) -> tuple[list, list]:
    """The arc and its arrow ids after q lowering passes for q ≥ 0, each
    moving the first arrow through all w x points to the far end, or −q
    raising passes or pushes for q < 0, which are lowering passes on both
    reversed; the signed count of :func:`rewrite._run_passes`.

    One pass maps the labels (s_0, …, s_n) to (s_1, …, s_n,
    s_1 − s_0 + s_n + w), so the gap s_0 − s_n falls by exactly w and the
    sequence they run along obeys s[t + n] = s[t] + s[n] − s[0] + t·w,
    and for 0 ≤ t < n s[t + mn] = s[t] + m(s[n] − s[0]) +
    w(m·t + n·m(m − 1)/2): after q passes the arc is s[q .. q + n], in
    O(n) whatever q is.  Pass j moves the arrow at index j mod n, so
    ``moved`` adds one to an arrow's count per raising pass or push it
    makes and takes one per lowering pass.
    """

    back = q < 0
    if back:
        arc, ids, q = arc[::-1], ids[::-1], -q
    n = len(ids)
    step = arc[n] - arc[0]
    out = []
    for u in range(q, q + n + 1):
        m, t = divmod(u, n)
        out.append(arc[t] + m * step + w * (m * t + n * m * (m - 1) // 2))
    for i, u in enumerate(ids):
        moved[u] = moved.get(u, 0) + (1 if back else -1) * ((q - i + n - 1) // n)
    r = q % n
    ids = ids[r:] + ids[:r]
    return (out[::-1], ids[::-1]) if back else (out, ids)


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
