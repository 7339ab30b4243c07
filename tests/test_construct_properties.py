"""Exact construction on random supersymmetric diagrams of every shape."""

from unittest import mock

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bowforge import momentmap
from bowforge.diagram import parse_diagram
from bowforge.momentmap import construct_solution
from bowforge.susy import decide_supersymmetry


@st.composite
def diagrams(draw, max_nodes=12, max_dim=6):
    """Affine or finite text with one node kind or both."""

    k = draw(st.integers(1, max_nodes))
    shape = draw(st.sampled_from(["x", "o", "both"]))
    if shape == "both":
        kinds = draw(st.lists(st.sampled_from("xo"), min_size=k, max_size=k))
    else:
        kinds = [shape] * k
    if draw(st.booleans()):
        dims = draw(st.lists(st.integers(0, max_dim), min_size=k, max_size=k))
        return "( " + " ".join(f"{v} {c}" for v, c in zip(dims, kinds)) + " )"
    dims = draw(st.lists(st.integers(0, max_dim), min_size=k + 1, max_size=k + 1))
    return "[ " + " ".join(f"{v} {c}" for v, c in zip(dims, kinds)) + f" {dims[-1]} ]"


def refuse(*args, **kwargs):
    raise AssertionError("construction called the numerical solver")


@settings(max_examples=200, deadline=None)
@given(diagrams())
def test_construct_is_exact_on_every_shape(text):
    d = parse_diagram(text)
    assume(decide_supersymmetry(d).verdict)
    with mock.patch.object(momentmap, "solve_lm", refuse), mock.patch.object(momentmap, "solve_numeric", refuse):
        sol = construct_solution(d)
    assert sol.converged and sol.stable, text
    assert sol.diagram == d
    assert sol.residual <= 1e-8, text
