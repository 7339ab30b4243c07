"""Where diagrams are validated (once per route, and at every public
stage), and how often a decide labels a separated view."""

import sys

import pytest

import bowforge.diagram
from bowforge.branes import synthesize
from bowforge.diagram import (
    BowDiagram,
    HwMove,
    Node,
    NodeKind,
    SeparatedForm,
    SubtractArrowArc,
    parse_diagram,
    separated_view,
)
from bowforge.momentmap import construct_solution
from bowforge.rewrite import (
    apply_entry,
    apply_hw,
    normalize_gap,
    replay,
    separate,
)
from bowforge.susy import decide_supersymmetry, reduce_to_finite

# ---------------------------------------------------------------------------
# one validation per route

ROUTE_INPUTS = {
    # the pipeline holds a SubtractArrowArc (checked below)
    "affine-positive-subtract": "( 3 o 3 o 2 x 2 x 3 o )",
    "affine-positive": "( 1 x 2 o 1 x 3 o )",
    "affine-negative": "( 0 x 2 o 0 x 3 o )",
    "finite": "[ 0 x 2 o 1 x 1 o 0 ]",
}
ROUTES = {"decide": decide_supersymmetry, "synthesize": synthesize, "construct": construct_solution}


@pytest.fixture
def validations(monkeypatch):
    calls = []
    validate = bowforge.diagram.validate

    def counted(d):
        calls.append(d)
        return validate(d)

    monkeypatch.setattr(bowforge.diagram, "validate", counted)
    return calls


@pytest.mark.parametrize("route", ROUTES.values(), ids=ROUTES.keys())
@pytest.mark.parametrize("text", ROUTE_INPUTS.values(), ids=ROUTE_INPUTS.keys())
def test_each_route_validates_its_input_once(text, route, validations):
    d = parse_diagram(text)
    try:
        route(d)
    except ValueError as err:
        # synthesize and construct refuse a negative
        assert "not supersymmetric" in str(err)
    assert validations == [d]


def test_route_inputs_cover_both_verdicts_and_an_arc_subtraction():
    certs = {name: decide_supersymmetry(parse_diagram(text)) for name, text in ROUTE_INPUTS.items()}
    assert any(isinstance(entry, SubtractArrowArc) for entry in certs["affine-positive-subtract"].pipeline)
    assert [cert.verdict for cert in certs.values()] == [True, True, False, True]
    assert certs["finite"].pipeline


# ---------------------------------------------------------------------------
# two labellings per decide, no run-start scan

LABEL_INPUTS = {name: ROUTE_INPUTS[name] for name in ("affine-positive-subtract", "affine-positive")}


@pytest.fixture
def labellings(monkeypatch):
    """Calls of the run-start scan and of the labelling, in every module
    that holds them."""

    calls = {"_run_start": 0, "_label": 0}
    for name in calls:
        original = getattr(bowforge.diagram, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        for module_name, module in list(sys.modules.items()):
            if module_name.partition(".")[0] == "bowforge" and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("text", LABEL_INPUTS.values(), ids=LABEL_INPUTS.keys())
def test_decide_labels_twice_and_never_scans(text, labellings):
    # one view after the separation, one at the end of the reduction
    assert decide_supersymmetry(parse_diagram(text)).verdict
    assert labellings == {"_run_start": 0, "_label": 2}


def test_label_inputs_need_gap_passes():
    for text in LABEL_INPUTS.values():
        sep, _ = separate(parse_diagram(text))
        assert normalize_gap(sep)[1]


# ---------------------------------------------------------------------------
# every public stage refuses an invalid diagram

GOOD = parse_diagram("( 1 x 1 x 1 o 2 o )")
X, O = NodeKind.XPOINT, NodeKind.ARROW
BAD = {
    "duplicate-ids": (BowDiagram((Node(0, X), Node(0, X), Node(2, O), Node(3, O)), GOOD.dims), "not distinct"),
    "dims-length": (BowDiagram(GOOD.nodes, GOOD.dims + (1,)), "expected 4 segment dims"),
    "nonzero-cut": (BowDiagram(GOOD.nodes, GOOD.dims, cut=0), "cut segment carries dimension 1"),
}


def _view(d: BowDiagram) -> SeparatedForm:
    """The labels of GOOD's view, put on ``d``."""

    view = separated_view(GOOD)
    return SeparatedForm(d, view.arrow_ids, view.x_ids, view.v_arr, view.v_x, view.seg_arr, view.seg_x)


# each stage as a call on a diagram; on GOOD every one of them succeeds
STAGES = {
    "separate": separate,
    "normalize_gap": lambda d: normalize_gap(_view(d)),
    "reduce_to_finite": lambda d: reduce_to_finite(_view(d)),
    "separated_view": separated_view,
    "apply_hw": lambda d: apply_hw(d, 1, 2),
    "apply_entry": lambda d: apply_entry(d, HwMove(1, 2)),
    "replay": lambda d: replay(d, (HwMove(1, 2), HwMove(2, 1))),
}


@pytest.mark.parametrize("stage", STAGES.values(), ids=STAGES.keys())
def test_public_stages_accept_the_valid_diagram(stage):
    assert stage(GOOD) is not None


@pytest.mark.parametrize("stage", STAGES.values(), ids=STAGES.keys())
@pytest.mark.parametrize("bad, problem", BAD.values(), ids=BAD.keys())
def test_public_stages_refuse_invalid_diagrams(stage, bad, problem):
    with pytest.raises(ValueError, match=problem):
        stage(bad)
