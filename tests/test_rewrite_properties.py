"""Property tests for the gathering walker in ``rewrite.separate``.

The walker is compared with the step-by-step gather loop it replaced,
kept here as the oracle: that loop recomputes the x-runs of the whole
diagram before every single swap and applies each swap with
``apply_hw``.  Both must give the same separated form and move log, or
the same negative witness, on affine and finite diagrams up to k = 16.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings
from hypothesis import strategies as st

from bowforge.diagram import BowDiagram, HwMove, Node, NodeKind, parse_diagram, separated_view
from bowforge.rewrite import NegativeWitness, apply_hw, separate

ARROW, XPOINT = NodeKind.ARROW, NodeKind.XPOINT


def _cyclic_x_runs(d: BowDiagram) -> list[list[int]]:
    """Maximal runs of x-point positions, cyclically maximal."""

    k = d.k
    xpos = [pos for pos in range(k) if d.nodes[pos].kind == XPOINT]
    if not xpos or len(xpos) == k:
        return [xpos] if xpos else []
    runs = []
    starts = [pos for pos in xpos if d.nodes[(pos - 1) % k].kind == ARROW]
    for start in starts:
        run = [start]
        while d.nodes[(run[-1] + 1) % k].kind == XPOINT:
            run.append((run[-1] + 1) % k)
        runs.append(run)
    return runs


def _gather_step(d: BowDiagram) -> tuple[int, int] | None:
    """Next swap of the gathering strategy, None when done."""

    k = d.k
    if d.cut is None:
        runs = _cyclic_x_runs(d)
        if len(runs) <= 1:
            return None
        anchor = min(runs, key=lambda run: min(d.nodes[pos].id for pos in run))
        q = (anchor[0] - 1) % k
        while d.nodes[q].kind != XPOINT:
            q = (q - 1) % k
        return d.nodes[q].id, d.nodes[(q + 1) % k].id

    start_pos = (d.cut + 1) % k
    line = [(start_pos + i) % k for i in range(k)]
    blocks: list[list[int]] = []
    for i, pos in enumerate(line):
        if d.nodes[pos].kind != XPOINT:
            continue
        if blocks and blocks[-1][-1] == i - 1:
            blocks[-1].append(i)
        else:
            blocks.append([i])
    if len(blocks) <= 1:
        return None
    anchor_idx = min(
        range(len(blocks)),
        key=lambda bi: min(d.nodes[line[i]].id for i in blocks[bi]),
    )
    if anchor_idx > 0:
        q = line[blocks[anchor_idx - 1][-1]]
        return d.nodes[q].id, d.nodes[(q + 1) % k].id
    q = line[blocks[anchor_idx + 1][0]]
    return d.nodes[(q - 1) % k].id, d.nodes[q].id


def oracle_separate(d: BowDiagram):
    """The gather loop: one recomputed step and one ``apply_hw`` per swap."""

    if d.n_arrows == 0 or d.n_xpoints == 0:
        return separated_view(d), ()
    log, cur = [], d
    while (pair := _gather_step(cur)) is not None:
        left, right = pair
        middle_seg = cur.position(left)
        cur = apply_hw(cur, left, right)
        log.append(HwMove(left, right))
        if cur.dims[middle_seg] < 0:
            return NegativeWitness(tuple(log), middle_seg, cur.dims[middle_seg])
    return separated_view(cur), tuple(log)


@st.composite
def diagrams(draw):
    """Valid diagrams with k <= 16, shuffled ids and dims -1..8; a finite one has its cut anywhere."""

    k = draw(st.integers(1, 16))
    ids = draw(st.permutations(range(k)))
    kinds = draw(st.lists(st.sampled_from([ARROW, XPOINT]), min_size=k, max_size=k))
    values = draw(st.lists(st.integers(-1, 8), min_size=k, max_size=k))
    cut = draw(st.integers(0, k - 1)) if draw(st.booleans()) else None
    if cut is not None:
        values[cut] = 0
    return BowDiagram(tuple(Node(i, kind) for i, kind in zip(ids, kinds)), tuple(values), cut)


@given(diagrams())
@example(parse_diagram("( 0 x 0 o 0 x 9 o )"))  # aborts on its first swap
@example(  # the lowest id sits mid-line, so x-points come from both sides
    BowDiagram(
        tuple(Node(i, kind) for i, kind in zip((1, 2, 0, 3, 4, 5), (XPOINT, ARROW) * 3)),
        (2, 3, 1, 2, 4, 0),
        5,
    )
)
@settings(max_examples=400, deadline=None)
def test_walker_matches_gather_loop(d):
    assert separate(d) == oracle_separate(d)
