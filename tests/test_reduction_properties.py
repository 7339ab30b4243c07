"""Property tests for the list-carried passes of gap normalization and reduction.

``normalize_gap`` and ``reduce_to_finite`` run all their passes on one
pair of node and dim lists and take one separated view at the end.
The oracles here are the loops they replaced: a separated view after
every pass, and every swap of a pass applied with ``apply_hw``.  Both
must give the same result and move log, or the same negative witness,
on affine and finite separated diagrams up to k = 16 with dimensions up
to 40, sizes the exhaustive sweeps never reach.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings
from hypothesis import strategies as st

from bowforge.diagram import (
    BowDiagram,
    CutAt,
    HwMove,
    Node,
    NodeKind,
    SubtractArrowArc,
    parse_diagram,
    separated_view,
)
from bowforge.rewrite import NegativeWitness, apply_entry, apply_hw, normalize_gap
from bowforge.susy import reduce_to_finite

ARROW, XPOINT = NodeKind.ARROW, NodeKind.XPOINT


def oracle_pass(d: BowDiagram, mover: int, acw: bool, w: int, log: list):
    """Move ``mover`` through its next w neighbours, one ``apply_hw`` per swap."""

    for _ in range(w):
        pos = d.position(mover)
        if acw:
            left, right = mover, d.nodes[(pos + 1) % d.k].id
        else:
            left, right = d.nodes[(pos - 1) % d.k].id, mover
        middle_seg = d.position(left)
        d = apply_hw(d, left, right)
        log.append(HwMove(left, right))
        if d.dims[middle_seg] < 0:
            return NegativeWitness(tuple(log), middle_seg, d.dims[middle_seg])
    return d


def oracle_normalize_gap(sep):
    """The view-per-pass gap loop."""

    log, cur = [], sep
    while not 0 <= cur.gap < cur.w:
        if cur.gap >= cur.w:
            res = oracle_pass(cur.diagram, cur.arrow_ids[0], True, cur.w, log)
        else:
            res = oracle_pass(cur.diagram, cur.arrow_ids[-1], False, cur.w, log)
        if isinstance(res, NegativeWitness):
            return res
        cur = separated_view(res)
    return cur, tuple(log)


def oracle_push_until_layout(d: BowDiagram, log: list):
    """Push e_n clockwise through the x-run, one view per push, until the cut bounds it."""

    while True:
        view = separated_view(d)
        if view.is_finite_layout:
            return view, tuple(log)
        res = oracle_pass(d, view.arrow_ids[-1], False, view.w, log)
        if isinstance(res, NegativeWitness):
            return res
        d = res


def oracle_reduce_to_finite(sep):
    if sep.diagram.is_finite:
        if sep.is_finite_layout:
            return sep, ()
        return oracle_push_until_layout(sep.diagram, [])
    res = oracle_normalize_gap(sep)
    if isinstance(res, NegativeWitness):
        return res
    norm, log1 = res
    log = list(log1)
    d = norm.diagram
    a = min(norm.v_arr)
    if a > 0:
        entry = SubtractArrowArc(amount=a)
        d = apply_entry(d, entry)
        log.append(entry)
    view = separated_view(d)
    cut_entry = CutAt(segment=view.seg_arr[view.v_arr.index(0)])
    d = apply_entry(d, cut_entry)
    log.append(cut_entry)
    return oracle_push_until_layout(d, log)


@st.composite
def separated(draw, finite: bool):
    """Separated diagrams with both kinds, k <= 16, dims 0..40, the x-run anywhere.

    A finite one has its cut on any segment of the arrow arc.
    """

    n = draw(st.integers(1, 15))
    w = draw(st.integers(1, 16 - n))
    k = n + w
    p1 = draw(st.integers(0, k - 1))
    ids = draw(st.permutations(range(k)))
    kinds = [XPOINT if (pos - p1) % k < w else ARROW for pos in range(k)]
    dims = draw(st.lists(st.integers(0, 40), min_size=k, max_size=k))
    cut = None
    if finite:
        cut = (p1 - 1 - draw(st.integers(0, n))) % k
        dims[cut] = 0
    sep = separated_view(BowDiagram(tuple(Node(i, kind) for i, kind in zip(ids, kinds)), tuple(dims), cut))
    assert sep is not None and sep.seg_x[1] == p1
    return sep


def _view(text: str):
    return separated_view(parse_diagram(text))


@given(separated(finite=False))
@example(_view("( 2 o 5 x )"))  # the second pass hits -1
@example(_view("( 0 o 9 x 0 x )"))  # clockwise passes raise the gap
@settings(max_examples=400, deadline=None)
def test_normalize_gap_matches_view_per_pass_loop(sep):
    assert normalize_gap(sep) == oracle_normalize_gap(sep)


@given(st.booleans().flatmap(lambda finite: separated(finite=finite)))
@example(_view("( 4 x 3 x 0 o 4 o )"))
@example(_view("[ 0 x 1 x 1 o 0 ]"))  # finite, two pushes
@settings(max_examples=400, deadline=None)
def test_reduce_to_finite_matches_view_per_pass_loops(sep):
    assert reduce_to_finite(sep) == oracle_reduce_to_finite(sep)
