"""Structure, parsing and view tests for the diagram core."""

import copy
import itertools
import pickle
import random
import sys
import threading

import pytest

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
    _separated_view,
    diagram_from_json,
    diagram_to_json,
    entry_from_json,
    entry_to_json,
    log_from_json,
    log_to_json,
    parse_diagram,
    render_diagram,
    s_dual,
    separated_view,
    validate,
)

# ---------------------------------------------------------------------------
# parsing


def test_parse_affine_two_nodes():
    d = parse_diagram("( 5 x 2 o )")
    assert [node.kind for node in d.nodes] == [NodeKind.XPOINT, NodeKind.ARROW]
    assert d.dims == (2, 5)
    assert d.cut is None
    assert d.n_arrows == 1 and d.n_xpoints == 1


def test_parse_affine_four_nodes():
    d = parse_diagram("( 3 x 1 x 2 o 0 o )")
    assert [node.kind.value for node in d.nodes] == ["x", "x", "o", "o"]
    assert d.dims == (1, 2, 0, 3)


def test_parse_finite_already_padded():
    d = parse_diagram("[ 0 o 2 x 0 ]")
    assert [node.kind.value for node in d.nodes] == ["o", "x"]
    assert d.dims == (2, 0)
    assert d.cut == 1


def test_parse_finite_three_xpoints():
    d = parse_diagram("[ 0 o 3 x 2 x 0 ]")
    assert [node.kind.value for node in d.nodes] == ["o", "x", "x"]
    assert d.dims == (3, 2, 0)
    assert d.cut == 2


def test_parse_finite_pads_nonzero_ends():
    d = parse_diagram("[ 2 x 3 ]")
    assert [node.kind.value for node in d.nodes] == ["o", "x", "o"]
    assert d.dims == (2, 3, 0)
    assert d.cut == 2


def test_parse_single_node_affine():
    d = parse_diagram("( 5 x )")
    assert d.dims == (5,)
    assert render_diagram(d) == "( 5 x )"


def test_parse_rejects_garbage():
    for text in ["( )", "[ ]", "( 1 )", "( o 1 )", "( 1 y )", "( 1 o 2 )", "[ 1 o ]", "{ 1 o 2 }", "o"]:
        with pytest.raises(ValueError):
            parse_diagram(text)


def test_parse_accepts_negative_dims():
    d = parse_diagram("( -1 o 2 x )")
    assert d.dims == (2, -1)
    assert validate(d) == []


def test_parses_share_interned_nodes():
    a = parse_diagram("( 1 x 2 o 3 o )")
    b = parse_diagram("[ 0 x 2 o 1 x 0 ]")
    assert a.nodes[0] is b.nodes[0] and a.nodes[1] is b.nodes[1]
    assert a.nodes[2] == Node(2, NodeKind.ARROW) and b.nodes[2] == Node(2, NodeKind.XPOINT)
    assert parse_diagram("( 4 o 4 o 4 x 4 x )").nodes[2] is b.nodes[2]
    for node in a.nodes + b.nodes:
        fresh = Node(node.id, node.kind)
        assert node == fresh and hash(node) == hash(fresh) and repr(node) == repr(fresh)
        for twin in (pickle.loads(pickle.dumps(node)), copy.copy(node), copy.deepcopy(node)):
            assert twin == node
    # nodes with other ids are built, not interned
    moved = diagram_from_json({**diagram_to_json(a), "ids": [7, 5, 6]})
    assert moved.nodes == (Node(7, NodeKind.XPOINT), Node(5, NodeKind.ARROW), Node(6, NodeKind.ARROW))
    assert diagram_from_json(diagram_to_json(moved)) == moved
    assert s_dual(s_dual(b)) == b and s_dual(b).nodes[0] == Node(0, NodeKind.ARROW)


def test_interned_nodes_stay_right_across_threads():
    # sizes above any other test's, so the threads grow the table together
    texts = ["( " + " ".join(f"1 {'ox'[i * i % 3 % 2]}" for i in range(k)) + " )" for k in range(2000, 2400, 8)]
    wrong = []

    def parse_all(order):
        for text in order:
            d = parse_diagram(text)
            if [(node.id, node.kind.value) for node in d.nodes] != list(enumerate(text.split()[2:-1:2])):
                wrong.append(text)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=parse_all, args=(texts[i::3],)) for i in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


# ---------------------------------------------------------------------------
# rendering and JSON round trips

ROUND_TRIP_TEXTS = [
    "( 5 x 2 o )",
    "( 3 x 1 x 2 o 0 o )",
    "[ 0 o 2 x 0 ]",
    "[ 0 o 3 x 2 x 0 ]",
    "( 5 x )",
    "( 0 o 0 o 0 x )",
]


@pytest.mark.parametrize("text", ROUND_TRIP_TEXTS)
def test_render_parse_round_trip(text):
    d = parse_diagram(text)
    assert render_diagram(d) == text
    assert parse_diagram(render_diagram(d)) == d


def _random_diagrams():
    diagrams = []
    for k in (1, 2, 3, 4):
        for kinds in itertools.product("ox", repeat=k):
            dims = tuple((i * 7 + 3) % 5 for i in range(k))
            nodes = tuple(Node(i, NodeKind(kd)) for i, kd in enumerate(kinds))
            diagrams.append(BowDiagram(nodes=nodes, dims=dims, cut=None))
    return diagrams


def test_round_trip_sweep():
    for d in _random_diagrams():
        assert parse_diagram(render_diagram(d)) == d
        assert diagram_from_json(diagram_to_json(d)) == d


def test_finite_json_round_trip():
    d = parse_diagram("[ 0 o 3 x 2 x 0 ]")
    data = diagram_to_json(d)
    assert data["shape"] == "finite"
    assert data["dims"][0] == 0 and data["dims"][-1] == 0
    assert diagram_from_json(data) == d


@pytest.mark.parametrize("value", [1.7, 1.0, float("inf"), float("nan"), True, "1", None])
def test_json_integer_fields_take_ints_only(value):
    # no rounding, no overflow: every decoder names the field it refuses
    diagram = {"shape": "affine", "nodes": ["o", "x"], "dims": [1, 1]}
    with pytest.raises(ValueError, match="dimension must be an integer"):
        diagram_from_json({**diagram, "dims": [value, 1]})
    with pytest.raises(ValueError, match="node id must be an integer"):
        diagram_from_json({**diagram, "ids": [0, value]})
    with pytest.raises(ValueError, match="move field 'right' must be an integer"):
        entry_from_json({"op": "hw", "left": 0, "right": value})
    with pytest.raises(ValueError, match="move field 'segment' must be an integer"):
        entry_from_json({"op": "cut_at", "segment": value})


# ---------------------------------------------------------------------------
# validation


def test_validate_flags_bad_cut():
    d = parse_diagram("[ 0 o 2 x 0 ]")
    broken = BowDiagram(nodes=d.nodes, dims=(2, 1), cut=1)
    assert any("cut segment" in msg for msg in validate(broken))
    out_of_range = BowDiagram(nodes=d.nodes, dims=d.dims, cut=5)
    assert any("out of range" in msg for msg in validate(out_of_range))


def test_validate_flags_duplicate_ids():
    nodes = (Node(0, NodeKind.ARROW), Node(0, NodeKind.XPOINT))
    d = BowDiagram(nodes=nodes, dims=(1, 1), cut=None)
    assert any("distinct" in msg for msg in validate(d))


def test_validate_flags_dim_count():
    nodes = (Node(0, NodeKind.ARROW),)
    d = BowDiagram(nodes=nodes, dims=(1, 2), cut=None)
    assert validate(d) != []


# ---------------------------------------------------------------------------
# separated view


def test_separated_view_finite_one_x():
    d = parse_diagram("[ 0 o 2 x 0 ]")
    sep = separated_view(d)
    assert sep is not None
    assert sep.n == 1 and sep.w == 1
    assert sep.v_arr == (2, 0)
    assert sep.v_x == (2, 0)


def test_separated_view_finite_two_x():
    d = parse_diagram("[ 0 o 3 x 2 x 0 ]")
    sep = separated_view(d)
    assert sep is not None
    assert sep.v_arr == (3, 0)
    assert sep.v_x == (3, 2, 0)


def test_separated_view_affine():
    d = parse_diagram("( 3 x 1 x 2 o 0 o )")
    sep = separated_view(d)
    assert sep is not None
    assert sep.n == 2 and sep.w == 2
    assert sep.v_arr == (3, 0, 2)
    assert sep.v_x == (3, 1, 2)
    assert sep.gap == 1
    assert sep.v_arr[0] == sep.v_x[0]
    assert sep.v_arr[-1] == sep.v_x[-1]
    # labels point at the right segments
    for label, seg in zip(sep.v_arr, sep.seg_arr):
        assert d.dims[seg] == label
    for label, seg in zip(sep.v_x, sep.seg_x):
        assert d.dims[seg] == label


def test_separated_view_rejects_interleaved():
    d = parse_diagram("( 1 x 2 o 3 x 4 o )")
    assert separated_view(d) is None


def test_separated_view_rejects_cut_inside_x_run():
    base = parse_diagram("[ 0 o 3 x 2 x 0 ]")
    # same circle, cut moved onto an x-interior segment
    dims = (3, 0, 2)
    rotated = BowDiagram(nodes=base.nodes, dims=dims, cut=1)
    assert validate(rotated) == []
    assert separated_view(rotated) is None


def test_separated_view_allows_cut_on_arrow_arc():
    base = parse_diagram("[ 0 o 3 x 2 x 0 ]")
    moved = BowDiagram(nodes=base.nodes, dims=(0, 2, 3), cut=0)
    assert validate(moved) == []
    sep = separated_view(moved)
    assert sep is not None
    assert not sep.is_finite_layout
    layout = separated_view(base)
    assert layout is not None and layout.is_finite_layout


def test_separated_view_trivial_kinds():
    only_x = parse_diagram("( 5 x 3 x )")
    sep = separated_view(only_x)
    assert sep is not None and sep.n == 0 and sep.w == 2
    assert sep.v_x[0] == sep.v_x[-1]
    only_o = parse_diagram("( 5 o 3 o )")
    sep = separated_view(only_o)
    assert sep is not None and sep.n == 2 and sep.w == 0
    assert sep.v_arr[0] == sep.v_arr[-1]
    assert len(sep.v_arr) == 3


def oracle_separated_view(d: BowDiagram) -> SeparatedForm | None:
    """The separated view with one labelling branch per node-kind mix,
    as the library computed it before the three became one formula."""

    k = d.k
    xpos = [pos for pos, node in enumerate(d.nodes) if node.kind == NodeKind.XPOINT]
    w = len(xpos)
    n = k - w

    if w == 0:
        anchor = min(range(k), key=lambda pos: d.nodes[pos].id)
        arrow_ids = tuple(d.nodes[(anchor - s + 1) % k].id for s in range(1, n + 1))
        seg_arr = tuple([anchor] + [(anchor - s) % k for s in range(1, n + 1)])
        v_arr = tuple(d.dims[s] for s in seg_arr)
        return SeparatedForm(d, arrow_ids, (), v_arr, (v_arr[0],), seg_arr, (anchor,))

    if n == 0:
        anchor = min(xpos, key=lambda pos: d.nodes[pos].id)
        x_ids = tuple(d.nodes[(anchor + i) % k].id for i in range(w))
        seg_x = tuple([(anchor - 1) % k] + [(anchor + i) % k for i in range(w)])
        v_x = tuple(d.dims[s] for s in seg_x)
        return SeparatedForm(d, (), x_ids, (v_x[0],), v_x, ((anchor - 1) % k,), seg_x)

    starts = [pos for pos in xpos if d.nodes[(pos - 1) % k].kind == NodeKind.ARROW]
    if len(starts) != 1:
        return None
    p1 = starts[0]
    if any(d.nodes[(p1 + i) % k].kind != NodeKind.XPOINT for i in range(w)):
        return None
    x_ids = tuple(d.nodes[(p1 + i) % k].id for i in range(w))
    seg_x = tuple([(p1 - 1) % k] + [(p1 + i) % k for i in range(w)])
    if d.is_finite and d.cut in seg_x[1:w]:
        return None
    arrow_ids = tuple(d.nodes[(p1 - s) % k].id for s in range(1, n + 1))
    seg_arr = tuple((p1 - 1 - s) % k for s in range(n + 1))
    v_arr = tuple(d.dims[s] for s in seg_arr)
    return SeparatedForm(d, arrow_ids, x_ids, v_arr, tuple(d.dims[s] for s in seg_x), seg_arr, seg_x)


def test_separated_view_matches_branch_oracle():
    # every kind string with k <= 8, affine and cut on each segment, four
    # id shuffles each; distinct dims make a wrong segment label show
    rng = random.Random(17)
    checked = 0
    for k in range(1, 9):
        for kinds in itertools.product((NodeKind.ARROW, NodeKind.XPOINT), repeat=k):
            for cut in (None, *range(k)):
                dims = tuple(0 if seg == cut else 10 + seg for seg in range(k))
                for _ in range(4):
                    ids = rng.sample(range(k), k)
                    d = BowDiagram(tuple(map(Node, ids, kinds)), dims, cut)
                    assert _separated_view(d) == oracle_separated_view(d), d
                    checked += 1
    assert checked == 16384


def test_separated_view_all_x_finite_cut_inside_run():
    # the lowest id sits at position 1, two nodes past the cut on segment
    # 2, so the run that starts there holds the cut; with one node kind
    # the diagram still gets a view
    d = diagram_from_json({"shape": "finite", "nodes": ["x", "x", "x"], "ids": [2, 0, 1], "dims": [0, 1, 2, 0]})
    assert d.dims == (1, 2, 0) and d.cut == 2 and d.nodes[1].id == 0
    sep = separated_view(d)
    assert sep == oracle_separated_view(d)
    assert sep.x_ids == (0, 1, 2) and sep.arrow_ids == ()
    assert sep.seg_x == (0, 1, 2, 0) and sep.v_x == (1, 2, 0, 1)
    assert sep.v_arr == (1,)


# ---------------------------------------------------------------------------
# reflection and move-log serialization


def test_s_dual_involution():
    for d in _random_diagrams():
        assert s_dual(s_dual(d)) == d
        assert s_dual(d).dims == d.dims


def test_s_dual_swaps_counts():
    d = parse_diagram("( 3 x 1 x 2 o 0 o )")
    dd = s_dual(d)
    assert dd.n_arrows == d.n_xpoints
    assert dd.n_xpoints == d.n_arrows


def test_move_log_json_round_trip():
    log = (
        HwMove(left=1, right=2),
        IncrementArrows(start=0, end=3, direction=Direction.ACW, amount=2),
        IncrementX(start=1, end=1, direction=Direction.CW, amount=1),
        SubtractArrowArc(amount=3),
        CutAt(segment=4),
    )
    data = log_to_json(log)
    assert data[0] == {"op": "hw", "left": 1, "right": 2}
    assert log_from_json(data) == log
    for entry in log:
        assert entry_from_json(entry_to_json(entry)) == entry
