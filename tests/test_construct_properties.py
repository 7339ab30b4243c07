"""Exact construction on random supersymmetric diagrams of every shape."""

from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bowforge import momentmap
from bowforge.diagram import parse_diagram
from bowforge.momentmap import construct_solution
from bowforge.susy import decide_supersymmetry
from test_cross_routes import drawn


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


def _tracked_steps(placed: list, worst: list):
    """``_spiral`` and ``_Zero`` stand-ins: the first records every shift
    it hands out, the second the farthest any B eigenvalue lies from
    those shifts and 0 after each move."""

    spiral = momentmap._spiral

    def recording_spiral(n):
        for shift in spiral(n):
            placed.append(shift)
            yield shift

    class CheckedZero(momentmap._Zero):
        def move(self, entry, inverse=False):
            super().move(entry, inverse)
            anchors = np.array([0j, *placed])
            for t in self.triangles.values():
                for block in (t.B_in, t.B_out):
                    if block.size:
                        eig = np.linalg.eigvals(block)
                        worst.append(float(np.abs(eig[:, None] - anchors[None, :]).min(axis=1).max()))

    return recording_spiral, CheckedZero


def test_every_b_spectrum_stays_on_the_placed_shifts():
    # why construction reads no spectrum: after every exact move, every B
    # block's eigenvalues sit on shifts already placed or on 0, and the
    # spiral's next point keeps more than 1.4/sqrt(n) from the placed ones
    # and ½ from 0; a Jordan block at 0 reads its eigenvalues less
    # exactly, hence the margin
    placed, worst = [], []
    spiral, zero = _tracked_steps(placed, worst)
    with mock.patch.object(momentmap, "_spiral", spiral), mock.patch.object(momentmap, "_Zero", zero):
        for text in drawn(5, 80, 12, True, max_nodes=6):
            placed.clear()
            sol = construct_solution(parse_diagram(text))
            assert sol.converged and sol.stable, text
            assert max(worst, default=0.0) < 1e-2, text
