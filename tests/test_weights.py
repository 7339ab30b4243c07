"""Weight lattice tests: transposition, dominance, balancing, strata."""

import itertools
import random
from collections import namedtuple

import pytest

from bowforge.diagram import HwMove, NodeKind, parse_diagram, separated_view
from bowforge.rewrite import apply_hw, replay
from bowforge.susy import check_finite_separated, decide_supersymmetry
from bowforge.weights import (
    AffineWeight,
    _gyd_candidates,
    dominance_ge,
    is_gyd,
    separated_triple,
    stratum_check_affine,
    stratum_check_finite,
    transpose_gyd,
)

# ---------------------------------------------------------------------------
# transposition


def test_transpose_pinned():
    assert transpose_gyd((4, 1), 3) == (3, 1, 1)
    assert transpose_gyd((3, 1, 1), 2) == (4, 1)
    assert transpose_gyd((0, 0), 2) == (0, 0)
    assert transpose_gyd((-1, -1), 2) == (0, -2)


def _transpose_by_layers(vals, n):
    """Entry s counts strip column s over every layer q: the cells row
    lam adds at q >= 0 minus the cells it removes at q < 0."""

    if not vals:
        return (0,) * n
    q_hi = (max(vals) - 1) // n
    q_lo = (min(vals) - n) // n
    return tuple(
        sum(1 for q in range(0, q_hi + 1) for lam in vals if n * q + s <= lam)
        - sum(1 for q in range(q_lo, 0) for lam in vals if n * q + s > lam)
        for s in range(1, n + 1)
    )


def test_transpose_matches_layer_count_on_draws():
    rng = random.Random(20240818)
    for _ in range(300):
        w = rng.randint(1, 5)
        level = rng.randint(1, 5)
        base = rng.randint(-6, 6)
        values = sorted((base - rng.randint(0, level) for _ in range(w)), reverse=True)
        if values[0] - values[-1] > level:
            continue
        got = transpose_gyd(tuple(values), level)
        assert got == _transpose_by_layers(values, level), (values, level)


def test_transpose_matches_layer_count_on_sweep():
    # every GYD with n <= 6 columns, w <= 5 rows and entries in -7..7
    seen = 0
    for n in range(1, 7):
        for w in range(6):
            for vals in itertools.combinations_with_replacement(range(7, -8, -1), w):
                if is_gyd(vals, n):
                    assert transpose_gyd(vals, n) == _transpose_by_layers(vals, n), (vals, n)
                    seen += 1
    assert seen == 8884


def test_transpose_involution_and_charge():
    rng = random.Random(99)
    for _ in range(200):
        w = rng.randint(1, 4)
        level = rng.randint(1, 4)
        base = rng.randint(-5, 5)
        values = sorted((base - rng.randint(0, level) for _ in range(w)), reverse=True)
        if values[0] - values[-1] > level:
            continue
        t = transpose_gyd(tuple(values), level)
        assert is_gyd(t, w)
        assert sum(t) == sum(values)
        assert transpose_gyd(t, w) == tuple(values)


def test_transpose_classical_conjugate():
    rng = random.Random(7)
    for _ in range(200):
        w = rng.randint(1, 5)
        level = rng.randint(1, 5)
        values = sorted((rng.randint(0, level) for _ in range(w)), reverse=True)
        conj = tuple(sum(1 for v in values if v >= i) for i in range(1, level + 1))
        assert transpose_gyd(tuple(values), level) == conj


def test_transpose_rejects_bad_input():
    with pytest.raises(ValueError):
        transpose_gyd((1, 2), 3)
    with pytest.raises(ValueError):
        transpose_gyd((5, 0), 3)


def test_is_gyd():
    assert is_gyd((4, 1), 3)
    assert not is_gyd((4, 1), 2)
    assert is_gyd((), 1)
    assert is_gyd((0, -1, -2), 2)
    assert not is_gyd((0, 1), 5)


# ---------------------------------------------------------------------------
# weights and dominance


def transpose_weight(weight: AffineWeight) -> AffineWeight:
    """Transpose the diagram, swap rows and level, negate the pairing."""

    return AffineWeight(
        values=transpose_gyd(weight.values, weight.level),
        level=len(weight.values),
        dpair=-weight.dpair,
    )


def test_weight_transpose_flips_pairing():
    wt = AffineWeight(values=(4, 1), level=3, dpair=2)
    twt = transpose_weight(wt)
    assert twt == AffineWeight(values=(3, 1, 1), level=2, dpair=-2)
    assert transpose_weight(twt) == wt
    assert wt.charge == twt.charge == 5


def test_dominance_basics():
    a = AffineWeight((2, 0), 2, 0)
    b = AffineWeight((1, 1), 2, 0)
    assert dominance_ge(a, b)
    assert not dominance_ge(b, a)
    assert dominance_ge(a, a)
    # the pairing rescues a losing partial sum
    assert dominance_ge(AffineWeight((1, 1), 2, 1), a)
    assert not dominance_ge(AffineWeight((1, 1), 2, 0), a)
    with pytest.raises(ValueError):
        dominance_ge(a, AffineWeight((1, 0), 2, 0))
    with pytest.raises(ValueError):
        dominance_ge(a, AffineWeight((2, 0), 3, 0))
    with pytest.raises(ValueError):
        dominance_ge(a, AffineWeight((2, 0, 0), 2, 0))


# ---------------------------------------------------------------------------
# reading the triple


def test_separated_triple_pinned():
    fin = separated_view(parse_diagram("[ 0 o 3 x 2 x 0 ]"))
    triple = separated_triple(fin)
    assert triple.tlam == (3,)
    assert triple.mu == (1, 2)
    assert triple.v == 0


def test_separated_triple_inverts():
    for text in ["( 4 x 3 x 3 o 4 o )", "( 2 x 1 x 2 o 1 o )", "( 2 o 5 x )"]:
        sep = separated_view(parse_diagram(text))
        triple = separated_triple(sep)
        for s in range(sep.n + 1):
            assert sep.v_arr[s] == triple.v + sum(triple.tlam[s:])
        for i in range(sep.w + 1):
            assert sep.v_x[i] == sep.v_x[0] - sum(triple.mu[:i])


# ---------------------------------------------------------------------------
# balanced form: an independent route to the affine verdict, kept here as
# an oracle for decide once the package stopped using it

BalancedForm = namedtuple("BalancedForm", "diagram log lam mu")


def full_pass(d, mover, acw, w, log):
    """Swap node ``mover`` through its next w neighbours, anticlockwise
    when ``acw``, recording each swap; negative dimensions are legal
    data here, where ``rewrite.full_pass`` stops at the first one."""

    for _ in range(w):
        pos = d.position(mover)
        other = d.nodes[(pos + 1) % d.k if acw else pos - 1].id
        left, right = (mover, other) if acw else (other, mover)
        d = apply_hw(d, left, right)
        log.append(HwMove(left, right))
    return d


def balanced_form(sep):
    """Spread the arrows through the x points until every arrow sits
    between equal dimensions.

    The consecutive differences along the arrow arc must form a
    generalized Young diagram at level w; otherwise no balanced
    representative exists on this side and a ValueError is raised.
    """

    d = sep.diagram
    if d.is_finite:
        raise ValueError("balancing works on diagrams without a cut")
    n, w = sep.n, sep.w
    if n < 1 or w < 1:
        raise ValueError("balancing needs both node kinds")
    triple = separated_triple(sep)
    if not is_gyd(triple.tlam, w):
        raise ValueError(
            f"arrow-arc differences {triple.tlam} do not form a level-{w} diagram"
        )

    log = []
    cur = d
    view = sep
    # phase one: rotate whole passes until every difference is in [0, w]
    while True:
        t = separated_triple(view)
        if t.tlam[-1] < 0:
            cur = full_pass(cur, view.arrow_ids[-1], False, w, log)
        elif t.tlam[0] > w:
            cur = full_pass(cur, view.arrow_ids[0], True, w, log)
        else:
            break
        view = separated_view(cur)
        if view is None:
            raise RuntimeError("a balancing pass left the x points apart")

    # phase two: walk each arrow to its slot, front arrow first
    t = separated_triple(view)
    x_last = view.x_ids[-1]
    if not all(0 <= step <= w for step in t.tlam):
        raise RuntimeError(f"arrow-arc differences {t.tlam} outside [0, {w}] after rotation")
    for s in range(1, view.n + 1):
        cur = full_pass(cur, view.arrow_ids[s - 1], True, t.tlam[s - 1], log)

    for node in cur.nodes:
        if node.kind == NodeKind.ARROW:
            pos = cur.position(node.id)
            if cur.dims[(pos - 1) % cur.k] != cur.dims[pos]:
                raise RuntimeError(f"arrow {node.id} not balanced")

    vhat = cur.dims[cur.position(x_last)]
    lam_values = transpose_gyd(triple.tlam, w)
    lam = AffineWeight(values=lam_values, level=n, dpair=vhat)
    mu = AffineWeight(values=triple.mu, level=n, dpair=0)

    if w > triple.tlam[0] >= 0:
        if vhat != triple.v + sum(step for step in triple.tlam if step < 0):
            raise RuntimeError(f"balanced x-point dimension {vhat} disagrees with the triple")

    # arrows between consecutive x points count column differences
    x_ids = view.x_ids
    for i in range(1, w):
        a, b = cur.position(x_ids[i - 1]), cur.position(x_ids[i])
        count = 0
        pos = (a + 1) % cur.k
        while pos != b:
            count += cur.nodes[pos].kind == NodeKind.ARROW
            pos = (pos + 1) % cur.k
        if count != lam_values[i - 1] - lam_values[i]:
            raise RuntimeError(f"{count} arrows between x points {i} and {i + 1} disagree with the weight")
    outer = 0
    pos = (cur.position(x_ids[-1]) + 1) % cur.k
    while pos != cur.position(x_ids[0]):
        outer += cur.nodes[pos].kind == NodeKind.ARROW
        pos = (pos + 1) % cur.k
    if outer != n - lam_values[0] + lam_values[-1]:
        raise RuntimeError(f"{outer} arrows outside the x points disagree with the weight")

    return BalancedForm(diagram=cur, log=tuple(log), lam=lam, mu=mu)


def test_balanced_form_pinned():
    d = parse_diagram("( 2 x 1 x 2 o 1 o )")
    sep = separated_view(d)
    assert separated_triple(sep).tlam == (1, -1)
    bal = balanced_form(sep)
    assert replay(d, bal.log) == bal.diagram
    assert bal.diagram.dims == (1, 1, 1, 1)
    assert bal.lam == AffineWeight((1, -1), 2, 1)
    assert bal.mu == AffineWeight((1, -1), 2, 0)
    assert dominance_ge(bal.lam, bal.mu)


def test_balanced_form_rejects_steep_arcs():
    sep = separated_view(parse_diagram("( 3 x 1 x 2 o 0 o )"))
    assert separated_triple(sep).tlam == (3, -2)
    with pytest.raises(ValueError):
        balanced_form(sep)


def test_balanced_form_agrees_with_decision():
    checked = 0
    for dims in itertools.product(range(4), repeat=4):
        v0, vm1, v2, v1 = dims
        d = parse_diagram(f"( {v0} x {vm1} x {v2} o {v1} o )")
        sep = separated_view(d)
        triple = separated_triple(sep)
        if not is_gyd(triple.tlam, sep.w):
            continue
        bal = balanced_form(sep)
        nonneg = min(bal.diagram.dims) >= 0
        assert dominance_ge(bal.lam, bal.mu) == nonneg
        assert decide_supersymmetry(d).verdict == nonneg, dims
        checked += 1
    assert checked > 30


# ---------------------------------------------------------------------------
# stratum membership, finite side


def test_stratum_finite_pinned():
    fin = separated_view(parse_diagram("[ 0 o 1 o 2 x 1 x 0 ]"))
    assert stratum_check_finite(fin) == (1, 1)
    fin = separated_view(parse_diagram("[ 0 o 2 x 0 ]"))
    assert stratum_check_finite(fin) is None
    fin = separated_view(parse_diagram("[ 0 o 3 x 2 x 0 ]"))
    assert stratum_check_finite(fin) is None
    fin = separated_view(parse_diagram("[ 0 o 2 x -1 x 0 ]"))
    assert stratum_check_finite(fin) is None


def test_stratum_finite_agrees_with_finite_check():
    checked = 0
    for dims in itertools.product(range(4), repeat=3):
        v1, v0, vm1 = dims
        fin = separated_view(parse_diagram(f"[ 0 o {v1} o {v0} x {vm1} x 0 ]"))
        verdict = check_finite_separated(fin).verdict
        assert (stratum_check_finite(fin) is not None) == verdict, dims
        checked += 1
    assert checked == 64


def test_stratum_finite_requires_layout():
    with pytest.raises(ValueError):
        stratum_check_finite(separated_view(parse_diagram("( 2 o 5 x )")))


# ---------------------------------------------------------------------------
# stratum membership, affine side


def _gyd_candidates_eager(rows: int, level: int, total: int) -> list:
    """Every candidate at once, as the affine search once built them: the oracle."""

    lo1 = -(-total // rows)
    hi1 = total // rows + level
    results = []

    def rec(prefix: list[int], remaining: int, target: int) -> None:
        if remaining == 0:
            if target == 0:
                results.append(tuple(prefix))
            return
        low = prefix[0] - level
        high = min(prefix[-1], target - (remaining - 1) * low)
        for val in range(high, low - 1, -1):
            if val * remaining < target:
                break
            prefix.append(val)
            rec(prefix, remaining - 1, target - val)
            prefix.pop()

    for first in range(hi1, lo1 - 1, -1):
        rec([first], rows - 1, total - first)
    return results


def test_gyd_candidates_lazy_matches_eager():
    for rows in range(1, 8):
        for level in range(8):
            for total in range(-rows, rows * (level + 1)):
                assert list(_gyd_candidates(rows, level, total)) == _gyd_candidates_eager(rows, level, total)


def test_stratum_affine_requires_normalized():
    with pytest.raises(ValueError):
        stratum_check_affine(separated_view(parse_diagram("( 2 o 5 x )")))
    with pytest.raises(ValueError):
        stratum_check_affine(separated_view(parse_diagram("[ 0 o 2 x 0 ]")))


def test_stratum_affine_agrees_with_decision():
    checked = hits = 0
    shapes = [
        ("( {0} x {1} o )", 2),
        ("( {0} x {1} x {2} o )", 3),
        ("( {0} x {1} o {2} o )", 3),
        ("( {0} x {1} x {2} o {3} o )", 4),
    ]
    for template, arity in shapes:
        for dims in itertools.product(range(4), repeat=arity):
            d = parse_diagram(template.format(*dims))
            sep = separated_view(d)
            if sep is None or not 0 <= sep.gap < sep.w:
                continue
            weight = stratum_check_affine(sep)
            verdict = decide_supersymmetry(d).verdict
            assert (weight is not None) == verdict, (template, dims)
            if weight is not None:
                assert weight.level == sep.n
                assert len(weight.values) == sep.w
                hits += 1
            checked += 1
    assert checked > 100 and hits > 30
