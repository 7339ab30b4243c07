"""Bound-family and decision-procedure tests."""

import hashlib
import itertools
import json

import pytest

from bowforge.diagram import (
    BowDiagram,
    Direction,
    IncrementArrows,
    IncrementX,
    Node,
    NodeKind,
    SubtractArrowArc,
    parse_diagram,
    s_dual,
    separated_view,
)
from bowforge.rewrite import (
    NegativeWitness,
    apply_entry,
    apply_hw,
    enumerate_equivalent,
    legal_swaps,
    replay,
    separate,
)
from bowforge.susy import (
    InequalityViolation,
    TrivialNoNodes,
    certificate_to_json,
    check_finite_separated,
    decide_supersymmetry,
    reduce_to_finite,
    susy_bound,
)

CW, ACW = Direction.CW, Direction.ACW

# ---------------------------------------------------------------------------
# bound values


def test_susy_bound_pinned_values():
    sep = separated_view(parse_diagram("[ 0 o 3 x 2 x 0 ]"))
    assert susy_bound(sep, CW, 1, 1, 1) == 1 + 0 + 2 - 3
    assert susy_bound(sep, CW, 1, 1, 2) == 2 + 0 + 0 - 3 == -1


AFFINE_SEPARATED = [
    "( 4 x 3 x 0 o 4 o )",
    "( 3 x 1 x 2 o 0 o )",
    "( 2 o 5 x )",
    "( 7 x 2 x 1 x 3 o 2 o 5 o )",
]


def test_susy_bound_degenerate_identities():
    for text in AFFINE_SEPARATED:
        sep = separated_view(parse_diagram(text))
        assert sep is not None
        n, w = sep.n, sep.w
        for s in range(n + 1):
            assert susy_bound(sep, CW, 1, s, 0) == sep.v_arr[s]
        for k in range(w + 1):
            assert susy_bound(sep, CW, 1, 0, k) == sep.v_x[k]
        for t in range(1, 5):
            for k in range(w + 1):
                assert susy_bound(sep, CW, t, 0, k) == susy_bound(sep, CW, t - 1, n, k)
            for s in range(n + 1):
                assert susy_bound(sep, CW, t, s, 0) == susy_bound(sep, CW, t - 1, s, w)


def test_susy_bound_index_errors():
    sep = separated_view(parse_diagram("( 2 o 5 x )"))
    with pytest.raises(IndexError):
        susy_bound(sep, CW, 1, 2, 0)
    with pytest.raises(IndexError):
        susy_bound(sep, CW, 1, 0, 2)
    with pytest.raises(IndexError):
        susy_bound(sep, CW, -1, 0, 0)


def test_susy_bound_clockwise_replay_chain():
    # each full anticlockwise pass of the arrow produces the next cD^t_{1,1}
    d = parse_diagram("( 2 o 5 x )")
    sep = separated_view(d)
    cur = d
    for t in (1, 2, 3):
        pos = cur.position(0)
        middle = pos if cur.nodes[pos].kind.value == "o" else None
        assert middle is not None
        cur = apply_hw(cur, 0, 1)
        assert cur.dims[middle] == susy_bound(sep, CW, t, 1, 1)


def test_susy_bound_anticlockwise_replay():
    d = parse_diagram("( 4 x 3 x 0 o 4 o )")
    sep = separated_view(d)
    e_n = sep.arrow_ids[-1]
    x_w = sep.x_ids[-1]
    x_1 = sep.x_ids[0]
    step1 = apply_hw(d, x_w, e_n)
    assert step1.dims[d.position(x_w)] == susy_bound(sep, ACW, 1, 1, 1) == 8
    step2 = apply_hw(step1, x_1, e_n)
    assert step2.dims[step1.position(x_1)] == susy_bound(sep, ACW, 1, 1, 2) == 10


# ---------------------------------------------------------------------------
# finite check


def test_check_finite_simplest_counterexample():
    sep = separated_view(parse_diagram("[ 0 o 2 x 0 ]"))
    cert = check_finite_separated(sep)
    assert cert.verdict is False
    assert cert.witness == InequalityViolation(CW, 1, 1, 1, -1)


def test_check_finite_two_x_counterexample():
    sep = separated_view(parse_diagram("[ 0 o 3 x 2 x 0 ]"))
    cert = check_finite_separated(sep)
    assert cert.verdict is False
    assert cert.witness == InequalityViolation(CW, 1, 1, 2, -1)


def test_check_finite_passing_instance():
    # dims v1=1, v0=2, v-1=1 pass with margin values 1, 1, 1, 2
    sep = separated_view(parse_diagram("[ 0 o 1 o 2 x 1 x 0 ]"))
    cert = check_finite_separated(sep)
    assert cert.verdict is True
    values = {(s, k): value for s, k, value in cert.witness.checked}
    assert values[(1, 1)] == 1
    assert values[(1, 2)] == 1
    assert values[(2, 1)] == 1
    assert values[(2, 2)] == 2


def test_check_finite_requires_layout():
    with pytest.raises(ValueError):
        check_finite_separated(separated_view(parse_diagram("( 2 o 5 x )")))


def _family_62(v1, v0, vm1):
    return parse_diagram(f"[ 0 o {v1} o {v0} x {vm1} x 0 ]")


def test_check_finite_family_small_sweep():
    for v1, v0, vm1 in itertools.product(range(5), repeat=3):
        cert = check_finite_separated(separated_view(_family_62(v1, v0, vm1)))
        expected = (
            1 + v1 + vm1 - v0 >= 0
            and 2 + v1 - v0 >= 0
            and 2 + vm1 - v0 >= 0
            and 4 - v0 >= 0
        )
        assert cert.verdict == expected, (v1, v0, vm1)


# ---------------------------------------------------------------------------
# arc subtraction


def subtract_arrow_arc(sep, a: int) -> BowDiagram:
    """Every arrow-arc label v_0..v_n of a separated affine diagram lowered
    by a: the oracle for the host's ``SubtractArrowArc(a)``."""

    dims = list(sep.diagram.dims)
    for seg in sep.seg_arr:
        dims[seg] -= a
    return BowDiagram(sep.diagram.nodes, tuple(dims))


def test_subtract_preserves_verdict_both_ways():
    cases = 0
    for v0, vm1, v1, v2 in itertools.product(range(4), repeat=4):
        text = f"( {v0} x {vm1} x {v2} o {v1} o )"
        d = parse_diagram(text)
        sep = separated_view(d)
        if sep is None or not 0 <= sep.gap < sep.w:
            continue
        for a in range(min(sep.v_arr) + 1):
            lowered = subtract_arrow_arc(sep, a)
            # lowering the labelled arc is the move the entry replays
            assert lowered == apply_entry(d, SubtractArrowArc(a)), (text, a)
            assert decide_supersymmetry(d).verdict == decide_supersymmetry(lowered).verdict, (text, a)
            cases += 1
    assert cases > 20


# ---------------------------------------------------------------------------
# reduction


def test_reduce_pass_through():
    sep = separated_view(parse_diagram("[ 0 o 3 x 2 x 0 ]"))
    out, log = reduce_to_finite(sep)
    assert log == () and out.diagram == sep.diagram


def test_reduce_affine_supersymmetric():
    d = parse_diagram("( 4 x 3 x 0 o 4 o )")
    sep = separated_view(d)
    res = reduce_to_finite(sep)
    assert not isinstance(res, NegativeWitness)
    fin, log = res
    assert fin.is_finite_layout
    assert fin.v_arr[-1] == 0
    assert replay(d, log) == fin.diagram


def test_reduce_aborts_on_nonsusy_normalization():
    # the prose arithmetic continues to gap 0, but the second pass hits -1
    d = parse_diagram("( 2 o 5 x )")
    res = reduce_to_finite(separated_view(d))
    assert isinstance(res, NegativeWitness)
    assert res.value == -1
    assert replay(d, res.move_log).dims[res.segment] == -1


def test_reduce_finite_nonlayout_pushes():
    d = parse_diagram("[ 0 x 1 x 1 o 0 ]")
    sep = separated_view(d)
    assert sep is not None and not sep.is_finite_layout
    fin, log = reduce_to_finite(sep)
    assert fin.is_finite_layout
    assert len(log) == 2
    assert replay(d, log) == fin.diagram


def test_reduce_rejects_one_kind_finite_off_layout():
    xs = tuple(Node(i, NodeKind.XPOINT) for i in range(3))
    sep = separated_view(BowDiagram(xs, (0, 1, 2), cut=0))
    assert not sep.is_finite_layout
    with pytest.raises(ValueError, match="reduction needs both node kinds"):
        reduce_to_finite(sep)


# ---------------------------------------------------------------------------
# the decision procedure


def test_decide_simplest_counterexample():
    cert = decide_supersymmetry(parse_diagram("[ 0 o 2 x 0 ]"))
    assert cert.verdict is False
    assert cert.witness == InequalityViolation(CW, 1, 1, 1, -1)
    assert cert.pipeline == ()


def test_decide_two_x_counterexample():
    cert = decide_supersymmetry(parse_diagram("[ 0 o 3 x 2 x 0 ]"))
    assert cert.verdict is False
    assert cert.witness == InequalityViolation(CW, 1, 1, 2, -1)


def test_decide_trivial_kinds():
    cert = decide_supersymmetry(parse_diagram("( 5 o 3 o )"))
    assert cert.verdict is True and cert.witness == TrivialNoNodes(3)
    cert = decide_supersymmetry(parse_diagram("( -1 o 3 o )"))
    assert cert.verdict is False and cert.witness == TrivialNoNodes(-1)
    cert = decide_supersymmetry(parse_diagram("( 2 x )"))
    assert cert.verdict is True and cert.witness == TrivialNoNodes(2)


def test_decide_negative_input_dimension():
    cert = decide_supersymmetry(parse_diagram("( 3 x -2 o 1 x 4 o )"))
    assert cert.verdict is False
    assert isinstance(cert.witness, NegativeWitness)
    assert cert.witness.move_log == ()
    assert cert.witness.value == -2


def test_decide_balanced_nonnegative_is_susy():
    cert = decide_supersymmetry(parse_diagram("( 2 x 2 o 2 x 2 o )"))
    assert cert.verdict is True


def test_decide_affine_true_with_replay():
    d = parse_diagram("( 4 x 3 x 0 o 4 o )")
    cert = decide_supersymmetry(d)
    assert cert.verdict is True
    final = replay(d, cert.pipeline)
    fin = separated_view(final)
    assert fin is not None and fin.is_finite_layout
    assert check_finite_separated(fin).verdict is True


def test_decide_finite_nonlayout_true():
    cert = decide_supersymmetry(parse_diagram("[ 0 x 1 x 1 o 0 ]"))
    assert cert.verdict is True


def test_decide_negative_witness_replays():
    d = parse_diagram("( 2 o 5 x )")
    cert = decide_supersymmetry(d)
    assert cert.verdict is False
    assert isinstance(cert.witness, NegativeWitness)
    assert cert.pipeline == cert.witness.move_log
    assert replay(d, cert.pipeline).dims[cert.witness.segment] == cert.witness.value


# ---------------------------------------------------------------------------
# invariances (small smoke versions; the full sweeps live in acceptance)

SMOKE_DIAGRAMS = [
    "( 2 x 2 o 2 x 2 o )",
    "( 3 x 1 x 2 o 0 o )",
    "( 1 x 2 o 3 x 4 o )",
    "( 0 x 0 o 0 x 9 o )",
    "[ 0 o 1 o 2 x 1 x 0 ]",
    "[ 0 x 1 x 1 o 0 ]",
]


def test_verdict_invariant_under_single_moves():
    for text in SMOKE_DIAGRAMS:
        d = parse_diagram(text)
        verdict = decide_supersymmetry(d).verdict
        for left, right in legal_swaps(d):
            moved = apply_hw(d, left, right)
            assert decide_supersymmetry(moved).verdict == verdict, (text, left, right)


def test_verdict_invariant_under_reflection():
    for text in SMOKE_DIAGRAMS:
        d = parse_diagram(text)
        assert (
            decide_supersymmetry(d).verdict
            == decide_supersymmetry(s_dual(d)).verdict
        ), text


def test_increment_preserves_true_verdict():
    d = parse_diagram("( 2 x 2 o 2 x 2 o )")
    assert decide_supersymmetry(d).verdict
    x_ids = [node.id for node in d.nodes if node.kind.value == "x"]
    o_ids = [node.id for node in d.nodes if node.kind.value == "o"]
    raised = apply_entry(
        d, IncrementX(start=x_ids[0], end=x_ids[1], direction=ACW, amount=2)
    )
    assert decide_supersymmetry(raised).verdict
    looped = apply_entry(
        raised, IncrementArrows(start=o_ids[0], end=o_ids[0], direction=CW, amount=1)
    )
    assert decide_supersymmetry(looped).verdict


def test_susy_means_no_single_move_goes_negative():
    for text in SMOKE_DIAGRAMS:
        d = parse_diagram(text)
        if not decide_supersymmetry(d).verdict:
            continue
        for left, right in legal_swaps(d):
            assert min(apply_hw(d, left, right).dims) >= 0


def test_false_verdicts_have_nearby_negative_equivalents():
    for text in SMOKE_DIAGRAMS:
        d = parse_diagram(text)
        if min(d.dims) < 0 or decide_supersymmetry(d).verdict:
            continue
        sample = enumerate_equivalent(d, 2 * d.n_arrows * d.n_xpoints)
        assert sample.min_dim < 0, text


# ---------------------------------------------------------------------------
# serialization


def test_certificate_json_shapes():
    cert = decide_supersymmetry(parse_diagram("[ 0 o 2 x 0 ]"))
    data = certificate_to_json(cert)
    assert data["susy"] is False
    assert data["witness"]["kind"] == "inequality_violation"
    assert data["witness"]["value"] == -1
    assert data["pipeline"] == []

    cert = decide_supersymmetry(parse_diagram("( 4 x 3 x 0 o 4 o )"))
    data = certificate_to_json(cert)
    assert data["susy"] is True
    assert data["witness"]["kind"] == "finite_check_passed"
    assert len(data["pipeline"]) >= 1

    cert = decide_supersymmetry(parse_diagram("( 2 o 5 x )"))
    data = certificate_to_json(cert)
    assert data["witness"]["kind"] == "negative_dimension"

    cert = decide_supersymmetry(parse_diagram("( 2 x )"))
    assert certificate_to_json(cert)["witness"]["kind"] == "one_node_kind"


def certificate_line(d: BowDiagram) -> bytes:
    """The certificate of ``d`` as one canonical JSON line."""

    return json.dumps(certificate_to_json(decide_supersymmetry(d)), sort_keys=True, separators=(",", ":")).encode() + b"\n"


# The digest of every certificate on the affine diagrams with k <= 5 and
# dims 0..3, one canonical JSON line each, in sweep order.  It pins the
# move logs and witnesses themselves, not only the verdicts, so a faster
# gather, pass or view must reproduce them exactly.
CERTIFICATE_SWEEP_COUNT = 34720
CERTIFICATE_SWEEP_SHA256 = "24f8b8dbd68e6661a3fab838dcc45fa220d60c976a8c646ad00d36309a3078e7"


def test_certificate_sweep_guard():
    digest = hashlib.sha256()
    count = 0
    for k in range(2, 6):
        for kinds in itertools.product("ox", repeat=k):
            if "o" not in kinds or "x" not in kinds:
                continue
            for dims in itertools.product(range(4), repeat=k):
                d = parse_diagram("( " + " ".join(f"{v} {c}" for v, c in zip(dims, kinds)) + " )")
                digest.update(certificate_line(d))
                count += 1
    assert count == CERTIFICATE_SWEEP_COUNT
    assert digest.hexdigest() == CERTIFICATE_SWEEP_SHA256


# The same digest on every finite diagram [ 0 n0 d1 ... n_{k-1} 0 ] with
# k = 2..4, both node kinds and interior dims 0..3, in sweep order.  The
# affine sweep never starts from a cut; these inputs reach the layout
# pass-through, the pushes from a cut elsewhere on the arrow arc, and a
# negative dimension in the separation and in the pushes.
FINITE_SWEEP_SHA256 = "1bc9c89d5f0f3e58faead62eb31df39e8688db49a7c3ea92cce3bf123d428310"
FINITE_SWEEP_BRANCHES = {
    "negative in the separation": 51,
    "already laid out": 228,
    "pushed": 584,
    "negative in the pushes": 137,
}


def test_finite_certificate_sweep_guard():
    digest = hashlib.sha256()
    branches = dict.fromkeys(FINITE_SWEEP_BRANCHES, 0)
    for k in range(2, 5):
        for kinds in itertools.product("ox", repeat=k):
            if "o" not in kinds or "x" not in kinds:
                continue
            for dims in itertools.product(range(4), repeat=k - 1):
                d = parse_diagram("[ 0 " + " ".join(f"{c} {v}" for c, v in zip(kinds, dims + (0,))) + " ]")
                digest.update(certificate_line(d))
                res = separate(d)
                if isinstance(res, NegativeWitness):
                    branches["negative in the separation"] += 1
                elif res[0].is_finite_layout:
                    branches["already laid out"] += 1
                elif isinstance(reduce_to_finite(res[0]), NegativeWitness):
                    branches["negative in the pushes"] += 1
                else:
                    branches["pushed"] += 1
    assert branches == FINITE_SWEEP_BRANCHES
    assert digest.hexdigest() == FINITE_SWEEP_SHA256
