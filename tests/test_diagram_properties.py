"""Property tests for the text grammar, the JSON codecs, the separated
view's labelling, replay and swap invariance.

They reach node counts and dimensions past the exhaustive sweeps of
the acceptance criteria (k <= 5).
"""

import json

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from bowforge.diagram import (
    BowDiagram,
    CutAt,
    Direction,
    HwMove,
    IncrementArrows,
    IncrementX,
    Node,
    NodeKind,
    SeparatedForm,
    SubtractArrowArc,
    _label,
    _separated_view,
    diagram_from_json,
    diagram_to_json,
    log_from_json,
    log_to_json,
    parse_diagram,
    render_diagram,
)
from bowforge.rewrite import NegativeWitness, apply_entry, apply_hw, legal_swaps, replay
from bowforge.susy import certificate_to_json, decide_supersymmetry

ARROW, XPOINT = NodeKind.ARROW, NodeKind.XPOINT
kinds = st.sampled_from([ARROW, XPOINT])


@st.composite
def diagrams(draw, dims=st.integers(0, 6), finite=st.booleans()):
    """Valid diagrams with k <= 10 and shuffled ids; a finite one has its cut anywhere."""

    k = draw(st.integers(1, 10))
    ids = draw(st.permutations(range(k)))
    nodes = tuple(Node(i, kind) for i, kind in zip(ids, draw(st.lists(kinds, min_size=k, max_size=k))))
    values = draw(st.lists(dims, min_size=k, max_size=k))
    cut = draw(st.integers(0, k - 1)) if draw(finite) else None
    if cut is not None:
        values[cut] = 0
    return BowDiagram(nodes, tuple(values), cut)


def rotations(d: BowDiagram) -> list[BowDiagram]:
    """The same circle stored from every starting position."""

    k, out = d.k, []
    for s in range(k):
        cut = None if d.cut is None else (d.cut - s) % k
        out.append(BowDiagram(d.nodes[s:] + d.nodes[:s], d.dims[s:] + d.dims[:s], cut))
    return out


@st.composite
def diagram_texts(draw):
    """Token text of either shape, finite ends of any dimension."""

    k = draw(st.integers(1, 10))
    node_tokens = [kind.value for kind in draw(st.lists(kinds, min_size=k, max_size=k))]
    dims = [str(v) for v in draw(st.lists(st.integers(-3, 9), min_size=k + 1, max_size=k + 1))]
    if draw(st.booleans()):
        return "( " + " ".join(f"{v} {n}" for v, n in zip(dims, node_tokens)) + " )"
    body = [tok for pair in zip(dims, node_tokens) for tok in pair] + [dims[-1]]
    return "[ " + " ".join(body) + " ]"


# ---------------------------------------------------------------------------
# text grammar


@given(diagram_texts())
@settings(max_examples=200, deadline=None)
def test_parse_render_round_trip(text):
    d = parse_diagram(text)
    rendered = render_diagram(d)
    assert parse_diagram(rendered) == d
    ends_are_zero = text.startswith("(") or (text.split()[1] == "0" and text.split()[-2] == "0")
    if ends_are_zero:
        assert rendered == text


# ---------------------------------------------------------------------------
# JSON codecs


@given(diagrams(dims=st.integers(-5, 9)))
@settings(max_examples=200, deadline=None)
def test_diagram_json_round_trip(d):
    data = json.loads(json.dumps(diagram_to_json(d)))
    back = diagram_from_json(data)
    # the codec keeps ids, kinds and dims in circle order from the cut
    assert back in rotations(d)
    assert diagram_to_json(back) == data
    if d.cut in (None, d.k - 1):
        assert back == d


node_ids, directions, amounts = st.integers(0, 20), st.sampled_from(list(Direction)), st.integers(0, 9)
entries = st.one_of(
    st.builds(HwMove, node_ids, node_ids),
    st.builds(IncrementArrows, node_ids, node_ids, directions, amounts),
    st.builds(IncrementX, node_ids, node_ids, directions, amounts),
    st.builds(SubtractArrowArc, amounts),
    st.builds(CutAt, node_ids),
)


@given(st.lists(entries, max_size=12).map(tuple))
@settings(max_examples=200, deadline=None)
def test_log_json_round_trip(log):
    assert log_from_json(json.loads(json.dumps(log_to_json(log)))) == log


@given(diagrams())
@settings(max_examples=150, deadline=None)
def test_certificate_json_round_trip(d):
    cert = decide_supersymmetry(d)
    payload = certificate_to_json(cert)
    assert json.loads(json.dumps(payload)) == payload
    assert payload["susy"] is cert.verdict
    assert log_from_json(payload["pipeline"]) == cert.pipeline
    if isinstance(cert.witness, NegativeWitness):
        witness = payload["witness"]
        assert log_from_json(witness["move_log"]) == cert.witness.move_log
        # the decoded log replays to the recorded negative dimension
        reached = replay(d, log_from_json(witness["move_log"]))
        assert reached.dims[witness["segment"]] == witness["value"] < 0


# ---------------------------------------------------------------------------
# labelling at a known run start


@st.composite
def runs(draw, cut_on_run=False):
    """A separated diagram with both kinds, k <= 12, shuffled ids and the
    x run starting anywhere, with its run start p1 and x count w.

    A finite one has its cut on any segment of the arrow arc or, with
    ``cut_on_run``, between two x points of the run.
    """

    w_min = 2 if cut_on_run else 1
    n = draw(st.integers(1, 12 - w_min))
    w = draw(st.integers(w_min, 12 - n))
    k = n + w
    p1 = draw(st.integers(0, k - 1))
    ids = draw(st.permutations(range(k)))
    nodes = tuple(Node(i, XPOINT if (pos - p1) % k < w else ARROW) for pos, i in enumerate(ids))
    dims = draw(st.lists(st.integers(-3, 9), min_size=k, max_size=k))
    cut = None
    if cut_on_run:
        cut = (p1 + draw(st.integers(0, w - 2))) % k
    elif draw(st.booleans()):
        cut = (p1 - 1 - draw(st.integers(0, n))) % k
    if cut is not None:
        dims[cut] = 0
    return BowDiagram(nodes, tuple(dims), cut), p1, w


@given(runs())
@settings(max_examples=300, deadline=None)
def test_label_at_the_run_start_matches_the_scanned_view(case):
    d, p1, w = case
    view, scanned = _label(d, p1, w), _separated_view(d)
    assert view is not None and scanned is not None
    for field in SeparatedForm.__slots__:
        assert getattr(view, field) == getattr(scanned, field), field
    # no other start labels the diagram, with the x count or with the
    # count of x points from that start to the run's end
    assert [p for p in range(d.k) if _label(d, p, w) is not None] == [p1]
    assert all(_label(d, (p1 + j) % d.k, w - j) is None for j in range(1, w))


@given(runs(cut_on_run=True))
@settings(max_examples=100, deadline=None)
def test_label_refuses_a_run_across_the_cut(case):
    d, p1, w = case
    assert _label(d, p1, w) is None
    assert _separated_view(d) is None


# ---------------------------------------------------------------------------
# replay and swap words


@st.composite
def swap_words(draw, source, max_len=25):
    """A diagram reached from ``source`` by legal swaps, with its log."""

    cur, log = source, []
    for _ in range(draw(st.integers(0, max_len))):
        pairs = legal_swaps(cur)
        if not pairs:
            break
        left, right = draw(st.sampled_from(pairs))
        cur = apply_hw(cur, left, right)
        log.append(HwMove(left=left, right=right))
    return cur, tuple(log)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_replay_then_inverse_restores(data):
    d = data.draw(diagrams(finite=st.just(False)))
    cur, swaps = data.draw(swap_words(d))
    log = list(swaps)
    # a raise between two nodes of each kind, then the certificate pipeline of the result
    for kind, ctor in ((ARROW, IncrementArrows), (XPOINT, IncrementX)):
        same_kind = st.sampled_from([node.id for node in cur.nodes if node.kind == kind] or [None])
        start, end = data.draw(same_kind), data.draw(same_kind)
        if start is not None:
            entry = ctor(start, end, data.draw(directions), data.draw(st.integers(1, 3)))
            cur = apply_entry(cur, entry)
            log.append(entry)
    log = tuple(log) + decide_supersymmetry(cur).pipeline
    assert replay(replay(d, log), log, inverse=True) == d


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_verdict_invariant_under_swap_words(data):
    d = data.draw(diagrams())
    moved, _ = data.draw(swap_words(d))
    assert decide_supersymmetry(moved).verdict == decide_supersymmetry(d).verdict
