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

from dataclasses import dataclass
from typing import Union

from .diagram import (
    BowDiagram,
    CutAt,
    Direction,
    MoveEntry,
    MoveLog,
    SeparatedForm,
    SubtractArrowArc,
    _require_valid,
    entry_to_json,
    separated_view,
)
from .rewrite import (
    NegativeWitness,
    apply_entry,
    full_pass,
    normalize_gap,
    separate,
)

# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class InequalityViolation:
    """A bound value that came out negative, pinned by its indices."""

    direction: Direction
    t: int
    s: int
    k: int
    value: int


@dataclass(frozen=True)
class FiniteCheckPassed:
    """All checked (s, k, value) triples of the t=1 clockwise family."""

    checked: tuple[tuple[int, int, int], ...]


@dataclass(frozen=True)
class TrivialNoNodes:
    """Verdict for diagrams with only one node kind: sign of the min dim."""

    min_dim: int


Witness = Union[InequalityViolation, NegativeWitness, FiniteCheckPassed, TrivialNoNodes]


@dataclass(frozen=True)
class Certificate:
    verdict: bool
    witness: Witness
    pipeline: MoveLog


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
    and sk alone dominates v_0 past that box.  The witness is the
    lexicographically first failing (s, k).
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
        for k in range(w + 1):
            if not (s == 0 or k == 0 or (s <= s_hi and k <= k_hi)):
                continue
            value = s * k + v_arr[s] + v_x[k] - v0
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
    unchanged in both directions.
    """

    d = sep.diagram
    if d.is_finite:
        raise ValueError("arc subtraction applies to affine diagrams")
    if sep.n < 1 or sep.w < 1:
        raise ValueError("arc subtraction needs both node kinds")
    if not 0 <= sep.gap < sep.w:
        raise ValueError(f"gap {sep.gap} outside [0, {sep.w})")
    if not 0 <= a <= min(sep.v_arr):
        raise ValueError(f"amount {a} outside 0..min(v_arr)")
    out = apply_entry(d, SubtractArrowArc(amount=a))
    view = separated_view(out)
    assert view is not None
    return view


# ---------------------------------------------------------------------------
# reduction to a finite separated layout


def _push_until_layout(
    d: BowDiagram, prefix: list[MoveEntry]
) -> tuple[SeparatedForm, MoveLog] | NegativeWitness:
    """Push arrows clockwise through the x-run until the cut bounds it."""

    cur = d
    log = prefix
    guard = cur.k + 2
    while True:
        view = separated_view(cur)
        assert view is not None
        if view.is_finite_layout:
            return view, tuple(log)
        if guard <= 0:
            raise RuntimeError("layout pushes failed to terminate")
        guard -= 1
        last_x_pos = cur.position(view.x_ids[-1])
        mover = cur.nodes[(last_x_pos + 1) % cur.k]
        res = full_pass(cur, mover.id, False, view.w, log)
        if isinstance(res, NegativeWitness):
            return res
        cur = res


def reduce_to_finite(sep: SeparatedForm) -> tuple[SeparatedForm, MoveLog] | NegativeWitness:
    """Rewrite a separated diagram into the finite separated layout.

    Finite input with the cut already on the v_n boundary passes
    through; finite input with the cut elsewhere on the arrow arc only
    needs the clockwise pushes.  Affine input is gap-normalized, lowered
    by a = min(v_0..v_n) along the arrow arc, cut at the first zero
    label, and then pushed into layout.  Any negative dimension along
    the way aborts with that witness.
    """

    if sep.diagram.is_finite:
        if sep.is_finite_layout:
            return sep, ()
        return _push_until_layout(sep.diagram, [])
    if sep.n < 1 or sep.w < 1:
        raise ValueError("reduction needs both node kinds")
    res = normalize_gap(sep)
    if isinstance(res, NegativeWitness):
        return res
    norm, log1 = res
    log: list[MoveEntry] = list(log1)
    d = norm.diagram
    a = min(norm.v_arr)
    if a > 0:
        entry = SubtractArrowArc(amount=a)
        d = apply_entry(d, entry)
        log.append(entry)
    view = separated_view(d)
    assert view is not None
    first_zero = view.v_arr.index(0)
    cut_entry = CutAt(segment=view.seg_arr[first_zero])
    d = apply_entry(d, cut_entry)
    log.append(cut_entry)
    return _push_until_layout(d, log)


# ---------------------------------------------------------------------------
# the decision procedure


def _decide_full(d: BowDiagram) -> tuple[Certificate, SeparatedForm | None]:
    """Certificate plus, on success, the finite separated layout reached."""

    _require_valid(d)
    min_dim = min(d.dims)
    if d.n_arrows == 0 or d.n_xpoints == 0:
        return Certificate(min_dim >= 0, TrivialNoNodes(min_dim=min_dim), ()), None
    if min_dim < 0:
        witness = NegativeWitness((), d.dims.index(min_dim), min_dim)
        return Certificate(False, witness, ()), None
    res = separate(d)
    if isinstance(res, NegativeWitness):
        return Certificate(False, res, res.move_log), None
    sep, log1 = res
    res2 = reduce_to_finite(sep)
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
