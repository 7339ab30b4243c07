"""Move-engine tests: swaps, gathering, gap passes, increments, replay."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from bowforge.diagram import (
    CutAt,
    Direction,
    HwMove,
    IncrementArrows,
    IncrementX,
    NodeKind,
    SubtractArrowArc,
    parse_diagram,
    separated_view,
)
from bowforge.rewrite import (
    EquivClassSample,
    NegativeWitness,
    apply_entry,
    apply_hw,
    canonical_encoding,
    enumerate_equivalent,
    full_pass,
    legal_swaps,
    normalize_gap,
    replay,
    separate,
)

# ---------------------------------------------------------------------------
# single swaps


def test_apply_hw_local_values():
    d = parse_diagram("( 0 o 3 x 2 o 5 x )")
    out = apply_hw(d, d.nodes[0].id, d.nodes[1].id)
    # middle becomes 0 + 2 + 1 - 3 = 0
    assert out.dims[0] == 0
    assert out.nodes[0].kind == NodeKind.XPOINT
    assert out.nodes[1].kind == NodeKind.ARROW
    assert out.dims[1:] == d.dims[1:]


def test_apply_hw_produces_negative_value():
    d = parse_diagram("[ 0 o 2 x 0 ]")
    out = apply_hw(d, 0, 1)
    assert out.dims[0] == -1


def test_apply_hw_involution():
    d = parse_diagram("( 0 o 3 x 2 o 5 x )")
    once = apply_hw(d, 0, 1)
    back = apply_hw(once, 1, 0)
    assert back == d


def test_apply_hw_errors():
    d = parse_diagram("( 0 o 3 x 2 o 5 x )")
    with pytest.raises(ValueError):
        apply_hw(d, 0, 2)  # not adjacent
    with pytest.raises(ValueError):
        apply_hw(d, 2, 1)  # adjacent only in the other order
    same = parse_diagram("( 1 o 2 o 3 x )")
    with pytest.raises(ValueError):
        apply_hw(same, 0, 1)  # same kind
    fin = parse_diagram("[ 0 o 2 x 0 ]")
    with pytest.raises(ValueError):
        apply_hw(fin, 1, 0)  # across the cut


def test_legal_swaps_respects_cut():
    fin = parse_diagram("[ 0 o 2 x 0 ]")
    assert legal_swaps(fin) == [(0, 1)]
    aff = parse_diagram("( 5 x 2 o )")
    assert legal_swaps(aff) == [(0, 1), (1, 0)]


# ---------------------------------------------------------------------------
# separation


def test_separate_identity_on_separated():
    d = parse_diagram("( 3 x 1 x 2 o 0 o )")
    res = separate(d)
    assert not isinstance(res, NegativeWitness)
    sep, log = res
    assert log == ()
    assert sep.diagram == d


def test_separate_trivial_kinds():
    d = parse_diagram("( 5 o 3 o )")
    sep, log = separate(d)
    assert log == () and sep.diagram == d


def test_separate_interleaved():
    d = parse_diagram("( 1 x 2 o 3 x 4 o )")
    res = separate(d)
    assert not isinstance(res, NegativeWitness)
    sep, log = res
    assert len(log) >= 1
    assert replay(d, log) == sep.diagram
    assert separated_view(sep.diagram) is not None
    assert sorted(d.dims) != sorted(sep.diagram.dims) or sep.diagram != d


def test_separate_abort_on_negative():
    d = parse_diagram("( 0 x 0 o 0 x 9 o )")
    res = separate(d)
    assert isinstance(res, NegativeWitness)
    assert res.value == -8
    final = replay(d, res.move_log)
    assert final.dims[res.segment] == res.value


def test_separate_finite_respects_cut():
    d = parse_diagram("[ 1 x 2 o 3 x 4 ]")
    res = separate(d)
    assert not isinstance(res, NegativeWitness)
    sep, log = res
    assert sep.diagram.is_finite
    assert replay(d, log) == sep.diagram
    # the cut dim is still zero and every recorded swap was legal
    assert sep.diagram.dims[sep.diagram.cut] == 0


# ---------------------------------------------------------------------------
# gap normalization


def test_normalize_gap_identity():
    sep = separated_view(parse_diagram("( 3 x 1 x 2 o 0 o )"))
    assert sep.gap == 1
    out, log = normalize_gap(sep)
    assert log == () and out.diagram == sep.diagram


def test_normalize_gap_two_passes():
    d = parse_diagram("( 4 x 3 x 0 o 4 o )")
    sep = separated_view(d)
    assert sep.v_arr == (4, 4, 0) and sep.v_x == (4, 3, 0)
    assert sep.gap == 4
    res = normalize_gap(sep)
    assert not isinstance(res, NegativeWitness)
    out, log = res
    assert 0 <= out.gap < out.w
    assert len(log) == 4
    assert replay(d, log) == out.diagram


GAP_CASES = [(w, gap) for w in (1, 2, 3) for gap in range(-3 * w, 4 * w)] + [(2, 2001), (3, -3000)]


@pytest.mark.parametrize("w, gap", GAP_CASES, ids=[f"w{w}-gap{gap}" for w, gap in GAP_CASES])
def test_normalize_gap_makes_gap_over_w_passes(w, gap):
    # v_0 = base + gap and every other dim base, with base above what the
    # passes take off, so none goes negative: each pass moves the gap by
    # exactly w, so there are |gap // w| passes of w swaps each
    base = gap * gap + 3 * w
    dims = [base + gap] + [base] * (w + 1)
    d = parse_diagram("( " + " ".join(f"{v} {c}" for v, c in zip(dims, "x" * w + "oo")) + " )")
    sep = separated_view(d)
    assert sep.gap == gap
    res = normalize_gap(sep)
    assert not isinstance(res, NegativeWitness)
    out, log = res
    assert len(log) == w * abs(gap // w)
    assert 0 <= out.gap < w
    assert replay(d, log) == out.diagram


def test_full_pass_checks_every_swap():
    # the second swap of the pass would exchange two arrows
    d = parse_diagram("( 1 o 2 x 3 o 4 x )")
    with pytest.raises(ValueError, match="same kind"):
        full_pass(d, 0, True, 2, [])
    fin = parse_diagram("[ 0 o 2 x 0 ]")
    with pytest.raises(ValueError, match="across the cut"):
        full_pass(fin, 0, False, 1, [])


# the same circle twice: the mover is the arrow at position 0, then at the
# last position, so its first step wraps round the end of the lists
NEGATIVE_BEFORE_SAME_KIND = {
    "inside": ("( 0 o 3 x 2 x 0 o 0 x )", 0, [HwMove(0, 1), HwMove(0, 2)], 1),
    "wrapping": ("( 3 x 2 x 0 o 0 x 0 o )", 4, [HwMove(4, 0), HwMove(4, 1)], 0),
}


@pytest.mark.parametrize("text, mover, moves, segment", NEGATIVE_BEFORE_SAME_KIND.values(), ids=NEGATIVE_BEFORE_SAME_KIND.keys())
def test_pass_stops_at_a_negative_swap_before_a_later_refusal(text, mover, moves, segment):
    # swap 2 of the 3 goes negative; swap 3 would exchange two arrows
    d = parse_diagram(text)
    log = []
    res = full_pass(d, mover, True, 3, log)
    assert isinstance(res, NegativeWitness)
    assert list(res.move_log) == log == moves
    assert (res.segment, res.value) == (segment, -1)
    assert replay(d, res.move_log).dims[segment] == -1


def test_pass_raises_at_its_first_refusal():
    # clockwise from position 0: the first swap wraps to the last arrow and
    # is logged, the second would exchange two x points; the cut refusal
    # comes after the same-kind one
    d = parse_diagram("( 1 x 1 o 1 x 1 o )")
    log = []
    with pytest.raises(ValueError, match="same kind"):
        full_pass(d, 0, False, 2, log)
    assert log == [HwMove(3, 0)]
    fin = parse_diagram("[ 0 x 2 o 2 x 0 ]")
    assert fin.cut == 2
    with pytest.raises(ValueError, match="same kind"):
        full_pass(fin, 2, True, 1, [])


def test_normalize_gap_abort():
    # not supersymmetric: the second pass drives the middle negative
    d = parse_diagram("( 2 o 5 x )")
    sep = separated_view(d)
    assert sep.v_arr == (5, 2) and sep.v_x == (5, 2)
    res = normalize_gap(sep)
    assert isinstance(res, NegativeWitness)
    assert res.value == -1
    assert replay(d, res.move_log).dims[res.segment] == -1


# ---------------------------------------------------------------------------
# increments


def test_increment_x_through_arrow_side():
    d = parse_diagram("( 3 x 1 x 2 o )")
    sep = separated_view(d)
    assert sep.v_x == (3, 1, 2)
    x1, x2 = sep.x_ids
    out = apply_entry(d, IncrementX(start=x2, end=x1, direction=Direction.ACW, amount=5))
    after = separated_view(out)
    assert after.v_x == (8, 1, 7)
    assert after.v_arr == (8, 7)


def test_increment_full_loop():
    d = parse_diagram("( 3 x 1 x 2 o )")
    out = apply_entry(d, IncrementX(start=0, end=0, direction=Direction.CW, amount=2))
    assert out.dims == tuple(v + 2 for v in d.dims)


def test_increment_errors():
    d = parse_diagram("( 3 x 1 x 2 o )")
    with pytest.raises(ValueError):
        apply_entry(d, IncrementX(start=0, end=2, direction=Direction.ACW, amount=1))
    with pytest.raises(ValueError):
        apply_entry(d, IncrementArrows(start=0, end=1, direction=Direction.ACW, amount=1))
    with pytest.raises(ValueError):
        apply_entry(d, IncrementX(start=0, end=1, direction=Direction.ACW, amount=-1))
    fin = parse_diagram("[ 0 o 2 x 3 x 0 ]")
    with pytest.raises(ValueError):
        # the clockwise arc from x1 to x2 wraps across the cut
        apply_entry(fin, IncrementX(start=1, end=2, direction=Direction.CW, amount=1))


def test_increment_amount_zero_is_identity():
    d = parse_diagram("( 3 x 1 x 2 o )")
    out = apply_entry(d, IncrementX(start=0, end=1, direction=Direction.ACW, amount=0))
    assert out == d


# ---------------------------------------------------------------------------
# replay of the bookkeeping entries


def test_subtract_arrow_arc_entry():
    d = parse_diagram("( 4 x 3 x 2 o 4 o )")
    sep = separated_view(d)
    assert sep.v_arr == (4, 4, 2) and sep.v_x == (4, 3, 2)
    out = apply_entry(d, SubtractArrowArc(amount=2))
    sep2 = separated_view(out)
    assert sep2.v_arr == (2, 2, 0)
    assert sep2.v_x == (2, 3, 0)
    assert apply_entry(out, SubtractArrowArc(amount=2), inverse=True) == d


def test_arc_increment_undoes_subtraction():
    # w = 2: the clockwise arc from x_1 to x_w; w = 1: a full loop
    for text, laps in [("( 4 x 3 x 2 o 4 o )", False), ("( 3 x 2 o 4 o )", True)]:
        d = parse_diagram(text)
        sep = separated_view(d)
        entry = IncrementX(sep.x_ids[0], sep.x_ids[-1], Direction.CW, 2)
        assert (entry.start == entry.end) == laps
        out = apply_entry(d, SubtractArrowArc(amount=2))
        assert apply_entry(d, entry, inverse=True) == out
        assert apply_entry(out, entry) == d
        assert apply_entry(out, SubtractArrowArc(amount=2), inverse=True) == d
    # finite, x points in two runs, or one kind only
    for text in ["[ 0 o 2 x 0 ]", "( 1 x 1 o 1 x 1 o )", "( 1 x 1 x )", "( 1 o 1 o )"]:
        with pytest.raises(ValueError, match="affine separated"):
            apply_entry(parse_diagram(text), SubtractArrowArc(amount=1))


@pytest.mark.parametrize("inverse", [False, True], ids=["forward", "inverse"])
def test_negative_move_amounts_are_refused(inverse):
    # a negative subtraction would raise the arc and a negative inverse
    # increment would raise its arc: every amount is refused below zero,
    # whichever the direction, before the arc is looked for
    d = parse_diagram("( 4 x 3 x 2 o 4 o )")
    entries = [SubtractArrowArc(-1), IncrementX(0, 1, Direction.CW, -2), IncrementArrows(2, 3, Direction.ACW, -1)]
    for entry in entries:
        with pytest.raises(ValueError, match="amount must be nonnegative, got -"):
            apply_entry(d, entry, inverse=inverse)
    with pytest.raises(ValueError, match="amount must be nonnegative"):
        apply_entry(parse_diagram("[ 0 o 2 x 0 ]"), SubtractArrowArc(-1), inverse=inverse)
    # a zero amount moves nothing either way
    assert apply_entry(d, SubtractArrowArc(0), inverse=inverse) == d


def test_cut_entry_round_trip():
    d = parse_diagram("( 4 x 3 x 2 o 0 o )")
    zero_seg = d.dims.index(0)
    fin = apply_entry(d, CutAt(segment=zero_seg))
    assert fin.is_finite and fin.cut == zero_seg
    assert apply_entry(fin, CutAt(segment=zero_seg), inverse=True) == d
    with pytest.raises(ValueError):
        apply_entry(d, CutAt(segment=(zero_seg + 1) % d.k))


def test_cut_entry_refuses_segment_out_of_range():
    # dims[-1] is a zero segment, so only the range check can refuse it
    d = parse_diagram("( 0 x 1 o )")
    assert d.dims == (1, 0)
    for segment in (-1, d.k):
        with pytest.raises(ValueError, match="out of range"):
            apply_entry(d, CutAt(segment=segment))
        with pytest.raises(ValueError, match="out of range"):
            apply_entry(apply_entry(d, CutAt(segment=1)), CutAt(segment=segment), inverse=True)


def test_replay_inverse_round_trip():
    d = parse_diagram("( 1 x 2 o 3 x 4 o )")
    res = separate(d)
    sep, log = res
    assert replay(sep.diagram, log, inverse=True) == d


# ---------------------------------------------------------------------------
# bounded equivalence sampling


def test_enumerate_budget_zero():
    d = parse_diagram("( 5 x 2 o )")
    sample = enumerate_equivalent(d, 0)
    assert sample.encodings == frozenset({canonical_encoding(d)})
    assert sample.min_dim == 2


def test_enumerate_smallest_counterexample():
    d = parse_diagram("[ 0 o 2 x 0 ]")
    sample = enumerate_equivalent(d, 1)
    assert sample.min_dim == -1


def test_canonical_encoding_rotation_invariant():
    a = parse_diagram("( 1 x 2 o 3 x 4 o )")
    b = parse_diagram("( 3 x 4 o 1 x 2 o )")
    assert canonical_encoding(a) == canonical_encoding(b)
    assert isinstance(enumerate_equivalent(a, 2), EquivClassSample)


# ---------------------------------------------------------------------------
# crossing-count property on random move sequences


def _crossing_counts(moves, d):
    """Net clockwise-minus-anticlockwise crossings per (x, arrow) pair."""

    counts = {}
    kind = {node.id: node.kind for node in d.nodes}
    for entry in moves:
        kl, kr = kind[entry.left], kind[entry.right]
        if kl == NodeKind.XPOINT and kr == NodeKind.ARROW:
            key = (entry.left, entry.right)
            counts[key] = counts.get(key, 0) - 1
        elif kl == NodeKind.ARROW and kr == NodeKind.XPOINT:
            key = (entry.right, entry.left)
            counts[key] = counts.get(key, 0) + 1
    return counts


SEPARATED_SEEDS = [
    "( 3 x 1 x 2 o 0 o )",
    "( 4 x 3 x 0 o 4 o )",
    "( 2 x 2 x 2 x 2 o 2 o )",
    "( 1 x 0 o 3 o )",
]


def test_crossing_count_dichotomy_on_random_walks():
    rng = random.Random(20240817)
    for text in SEPARATED_SEEDS:
        d = parse_diagram(text)
        sep = separated_view(d)
        assert sep is not None
        x_first, x_last = sep.x_ids[0], sep.x_ids[-1]
        e_first, e_last = sep.arrow_ids[0], sep.arrow_ids[-1]
        for trial in range(40):
            cur = d
            moves = []
            for _ in range(rng.randrange(0, 14)):
                options = legal_swaps(cur)
                left, right = rng.choice(options)
                cur = apply_hw(cur, left, right)
                moves.append(HwMove(left, right))
            counts = _crossing_counts(moves, d)
            first_against_last = counts.get((x_first, e_last), 0)
            last_against_first = counts.get((x_last, e_first), 0)
            assert first_against_last >= 0 or last_against_first <= 0


# ---------------------------------------------------------------------------
# input checks survive python -O


def run_optimized(script: str) -> str:
    """Run ``script`` under ``python -O`` against this checkout; return its stdout."""

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_separate_rejects_duplicate_ids_under_optimize():
    script = (
        "from bowforge.diagram import BowDiagram, Node, NodeKind\n"
        "from bowforge.rewrite import separate\n"
        "d = BowDiagram((Node(0, NodeKind.ARROW), Node(0, NodeKind.XPOINT)), (1, 1))\n"
        "try:\n"
        "    separate(d)\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
        "else:\n"
        "    raise SystemExit('separate accepted duplicate node ids')\n"
    )
    assert "not distinct" in run_optimized(script)


def test_normalize_gap_rejects_invalid_diagram_under_optimize():
    # the labels of a valid view, put on a diagram with duplicate ids
    script = (
        "from bowforge.diagram import BowDiagram, Node, NodeKind, SeparatedForm, parse_diagram, separated_view\n"
        "from bowforge.rewrite import normalize_gap\n"
        "view = separated_view(parse_diagram('( 5 x 1 o )'))\n"
        "bad = BowDiagram((Node(0, NodeKind.XPOINT), Node(0, NodeKind.ARROW)), view.diagram.dims)\n"
        "labels = (view.arrow_ids, view.x_ids, view.v_arr, view.v_x, view.seg_arr, view.seg_x)\n"
        "try:\n"
        "    normalize_gap(SeparatedForm(bad, *labels))\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
        "else:\n"
        "    raise SystemExit('normalize_gap accepted a view of an invalid diagram')\n"
    )
    assert "not distinct" in run_optimized(script)


def test_apply_entry_rejects_invalid_diagram_under_optimize():
    # two nodes, three dims
    script = (
        "from bowforge.diagram import BowDiagram, HwMove, Node, NodeKind\n"
        "from bowforge.rewrite import apply_entry\n"
        "d = BowDiagram((Node(0, NodeKind.ARROW), Node(1, NodeKind.XPOINT)), (1, 2, 3))\n"
        "try:\n"
        "    out = apply_entry(d, HwMove(0, 1))\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
        "else:\n"
        "    raise SystemExit(f'apply_entry moved an invalid diagram to {out}')\n"
    )
    assert run_optimized(script).strip() == "expected 2 segment dims, found 3"


ONE_KIND_CALLS = {
    "check_finite_separated": ("bowforge.susy", "check_finite_separated", "[ 0 x 2 x 0 ]", "the finite check"),
    "reduce_to_finite": ("bowforge.susy", "reduce_to_finite", "( 1 o 2 o )", "reduction"),
    "reduce_to_finite_finite": ("bowforge.susy", "reduce_to_finite", "[ 0 o 1 o 0 ]", "reduction"),
    "separated_triple": ("bowforge.weights", "separated_triple", "( 1 o 2 o )", "a weight triple"),
}


@pytest.mark.parametrize("module, func, text, what", ONE_KIND_CALLS.values(), ids=ONE_KIND_CALLS.keys())
def test_one_node_kind_is_rejected_under_optimize(module, func, text, what):
    script = (
        "from bowforge.diagram import parse_diagram, separated_view\n"
        f"from {module} import {func} as call\n"
        f"view = separated_view(parse_diagram({text!r}))\n"
        "try:\n"
        "    result = call(view)\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
        "else:\n"
        "    raise SystemExit(f'accepted a one-kind layout: {result}')\n"
    )
    assert run_optimized(script).strip() == f"{what} needs both node kinds"


def test_ledger_move_rejects_mismatched_host_under_optimize():
    # branes for dims (1, 1) on a host with dims (5, 5)
    script = (
        "from bowforge.branes import Brane, BraneLedger, ledger_apply_move\n"
        "from bowforge.diagram import Direction, HwMove, parse_diagram\n"
        "ledger = BraneLedger(parse_diagram('( 5 x 5 o )'), {Brane(0, 0, Direction.CW, 1): 1})\n"
        "try:\n"
        "    ledger_apply_move(ledger, HwMove(left=1, right=0))\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
        "else:\n"
        "    raise SystemExit('ledger_apply_move accepted a ledger that does not match its host')\n"
    )
    assert "lost track of the host" in run_optimized(script)


def test_synthesize_finite_rejects_non_susy_layout_under_optimize():
    script = (
        "from bowforge.branes import synthesize_finite\n"
        "from bowforge.diagram import parse_diagram, separated_view\n"
        "try:\n"
        "    ledger = synthesize_finite(separated_view(parse_diagram('[ 0 o 2 x 0 ]')))\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
        "else:\n"
        "    raise SystemExit(f'built a ledger on a non-supersymmetric layout: {ledger}')\n"
    )
    assert run_optimized(script).strip() == "layout is not supersymmetric; no brane ledger exists"


def test_pass_refusal_order_under_optimize():
    # a swap of two x points across the cut names the kinds, under -O too
    script = (
        "from bowforge.diagram import parse_diagram\n"
        "from bowforge.rewrite import full_pass\n"
        "log = []\n"
        "try:\n"
        "    full_pass(parse_diagram('[ 0 x 2 o 2 x 0 ]'), 2, True, 1, log)\n"
        "except ValueError as exc:\n"
        "    print(exc, len(log))\n"
        "else:\n"
        "    raise SystemExit('the pass swapped two x points across the cut')\n"
    )
    assert run_optimized(script).strip() == "cannot swap two nodes of the same kind 0"


def test_label_refusals_raise_under_optimize():
    # a start that is not the run start, or a run across the cut, gets no
    # view; each stage that labels at the start it tracked raises when its
    # labelling refuses
    script = (
        "import bowforge.rewrite, bowforge.susy\n"
        "from bowforge.diagram import BowDiagram, _label, parse_diagram, separated_view\n"
        "from bowforge.rewrite import normalize_gap, separate\n"
        "from bowforge.susy import reduce_to_finite\n"
        "d = parse_diagram('( 1 o 2 x 3 x 4 o )')\n"
        "print(_label(d, 1, 2) == separated_view(d), _label(d, 0, 2), _label(d, 2, 2))\n"
        "print(_label(BowDiagram(d.nodes, (1, 0, 3, 4), cut=1), 1, 2))\n"
        "bowforge.rewrite._label = bowforge.susy._label = lambda *args: None\n"
        "stages = (\n"
        "    (separate, parse_diagram('( 1 x 2 o 1 x 3 o )')),\n"
        "    (normalize_gap, separated_view(parse_diagram('( 1 o 3 x )'))),\n"
        "    (reduce_to_finite, separated_view(parse_diagram('( 3 o 3 o 2 x 2 x 3 o )'))),\n"
        ")\n"
        "for stage, arg in stages:\n"
        "    try:\n"
        "        stage(arg)\n"
        "    except RuntimeError as exc:\n"
        "        print(exc)\n"
        "    else:\n"
        "        raise SystemExit(f'{stage.__name__} took a refused labelling')\n"
    )
    assert run_optimized(script).splitlines() == [
        "True None None",
        "None",
        "separation left the x points apart",
        "gap normalization left the x points apart",
        "the reduction did not reach the finite layout",
    ]
