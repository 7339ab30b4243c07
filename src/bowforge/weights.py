"""Affine weights, transposition, dominance, and stratum membership.

A generalized Young diagram with ``rows`` rows at level ``level`` is a
weakly decreasing integer vector whose first and last entries differ by
at most the level.  Entries may be negative; adding 1 to every entry of
an n-row diagram at level w gives another representative of the same
affine weight, shifted by one basic rotation.

An AffineWeight couples such a vector with the level and an integer
pairing against the lattice direction delta.  Dominance between two
weights of the same level and charge is decided by partial sums.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagram import (
    BowDiagram,
    HwMove,
    NodeKind,
    SeparatedForm,
    separated_view,
)
from .rewrite import apply_hw

# ---------------------------------------------------------------------------
# generalized Young diagrams


def is_gyd(values, level: int) -> bool:
    """Weakly decreasing with total spread at most the level."""

    vals = tuple(values)
    if not vals:
        return True
    if any(vals[i] < vals[i + 1] for i in range(len(vals) - 1)):
        return False
    return vals[0] - level <= vals[-1]


def transpose_gyd(values, level: int) -> tuple[int, ...]:
    """Transpose a generalized Young diagram across the diagonal.

    The diagram is laid out on a half-infinite strip ``level`` columns
    wide; row i occupies the cells left of ``values[i]``, negative
    values removing cells right of zero.  Column s of the strip, read
    across all layers q, gives entry s of the transpose.
    """

    vals = tuple(values)
    n = level
    if n < 1:
        raise ValueError("level must be positive")
    if not is_gyd(vals, n):
        raise ValueError(f"{vals} is not weakly decreasing with spread <= {n}")
    w = len(vals)
    if w == 0:
        return (0,) * n
    q_hi = (max(vals) - 1) // n
    q_lo = (min(vals) - n) // n
    out = []
    for s in range(1, n + 1):
        added = sum(
            1
            for q in range(0, q_hi + 1)
            for lam in vals
            if n * q + s <= lam
        )
        removed = sum(
            1
            for q in range(q_lo, 0)
            for lam in vals
            if n * q + s > lam
        )
        out.append(added - removed)
    return tuple(out)


# ---------------------------------------------------------------------------
# weights


@dataclass(frozen=True)
class AffineWeight:
    values: tuple[int, ...]
    level: int
    dpair: int

    @property
    def charge(self) -> int:
        return sum(self.values)


def transpose_weight(weight: AffineWeight) -> AffineWeight:
    return AffineWeight(
        values=transpose_gyd(weight.values, weight.level),
        level=len(weight.values),
        dpair=-weight.dpair,
    )


def dominance_ge(a: AffineWeight, b: AffineWeight) -> bool:
    """Whether a dominates b: every partial sum gap stays nonnegative.

    Comparable weights share length, level, and charge; the pairing
    difference enters every partial sum, including the full one.
    """

    if len(a.values) != len(b.values):
        raise ValueError("weights of different lengths are incomparable")
    if a.level != b.level:
        raise ValueError("weights of different levels are incomparable")
    if a.charge != b.charge:
        raise ValueError("weights of different charges are incomparable")
    shift = a.dpair - b.dpair
    partial = 0
    for x, y in zip(a.values, b.values):
        partial += x - y
        if partial + shift < 0:
            return False
    return True


# ---------------------------------------------------------------------------
# reading weights off a separated diagram


@dataclass(frozen=True)
class WeightTriple:
    tlam: tuple[int, ...]
    mu: tuple[int, ...]
    v: int


def separated_triple(sep: SeparatedForm) -> WeightTriple:
    """Consecutive differences along both arcs, plus the shared corner."""

    if sep.n < 1 or sep.w < 1:
        raise ValueError("a weight triple needs both node kinds")
    tlam = tuple(sep.v_arr[s - 1] - sep.v_arr[s] for s in range(1, sep.n + 1))
    mu = tuple(sep.v_x[i - 1] - sep.v_x[i] for i in range(1, sep.w + 1))
    return WeightTriple(tlam=tlam, mu=mu, v=sep.v_arr[-1])


# ---------------------------------------------------------------------------
# balanced form


@dataclass(frozen=True)
class BalancedForm:
    diagram: BowDiagram
    log: tuple[HwMove, ...]
    lam: AffineWeight
    mu: AffineWeight


def _raw_pass(d: BowDiagram, mover: int, count: int, acw: bool, log: list) -> BowDiagram:
    """Move one arrow through ``count`` x points, allowing negatives."""

    cur = d
    for _ in range(count):
        pos = cur.position(mover)
        if acw:
            other = cur.nodes[(pos + 1) % cur.k].id
            left, right = mover, other
        else:
            other = cur.nodes[(pos - 1) % cur.k].id
            left, right = other, mover
        assert cur.node_by_id(other).kind == NodeKind.XPOINT
        log.append(HwMove(left=left, right=right))
        cur = apply_hw(cur, left, right)
    return cur


def balanced_form(sep: SeparatedForm) -> BalancedForm:
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

    log: list[HwMove] = []
    cur = d
    view = sep
    # phase one: rotate whole passes until every difference is in [0, w]
    while True:
        t = separated_triple(view)
        if t.tlam[-1] < 0:
            cur = _raw_pass(cur, view.arrow_ids[-1], w, acw=False, log=log)
        elif t.tlam[0] > w:
            cur = _raw_pass(cur, view.arrow_ids[0], w, acw=True, log=log)
        else:
            break
        view = separated_view(cur)
        assert view is not None

    # phase two: walk each arrow to its slot, front arrow first
    t = separated_triple(view)
    x_last = view.x_ids[-1]
    assert all(0 <= step <= w for step in t.tlam)
    for s in range(1, view.n + 1):
        cur = _raw_pass(cur, view.arrow_ids[s - 1], t.tlam[s - 1], acw=True, log=log)

    for node in cur.nodes:
        if node.kind == NodeKind.ARROW:
            pos = cur.position(node.id)
            assert cur.dims[(pos - 1) % cur.k] == cur.dims[pos], "arrow not balanced"

    vhat = cur.dims[cur.position(x_last)]
    lam_values = transpose_gyd(triple.tlam, w)
    lam = AffineWeight(values=lam_values, level=n, dpair=vhat)
    mu = AffineWeight(values=triple.mu, level=n, dpair=0)

    if w > triple.tlam[0] >= 0:
        assert vhat == triple.v + sum(step for step in triple.tlam if step < 0)

    # arrows between consecutive x points count column differences
    x_ids = view.x_ids
    for i in range(1, w):
        a, b = cur.position(x_ids[i - 1]), cur.position(x_ids[i])
        count = 0
        pos = (a + 1) % cur.k
        while pos != b:
            count += cur.nodes[pos].kind == NodeKind.ARROW
            pos = (pos + 1) % cur.k
        assert count == lam_values[i - 1] - lam_values[i]
    outer = 0
    pos = (cur.position(x_ids[-1]) + 1) % cur.k
    while pos != cur.position(x_ids[0]):
        outer += cur.nodes[pos].kind == NodeKind.ARROW
        pos = (pos + 1) % cur.k
    assert outer == n - lam_values[0] + lam_values[-1]

    return BalancedForm(diagram=cur, log=tuple(log), lam=lam, mu=mu)


# ---------------------------------------------------------------------------
# stratum membership


def stratum_check_finite(fin: SeparatedForm):
    """Largest stratum candidate on a separated finite layout.

    Returns the column-count partition when the greedy fixed-brane
    profile witnesses membership, None when no stratum admits the
    layout (which happens exactly for non-supersymmetric layouts).
    """

    from .branes import greedy_fixed_counts

    if not fin.is_finite_layout:
        raise ValueError("stratum check needs a separated finite layout")
    if fin.n < 1 or fin.w < 1:
        raise ValueError("stratum check needs both node kinds")
    n, w = fin.n, fin.w
    counts, _ = greedy_fixed_counts(fin.v_arr, fin.v_x)
    kappa = tuple(sum(1 for c in counts if c >= j) for j in range(1, w + 1))
    mu = tuple(fin.v_x[i - 1] - fin.v_x[i] for i in range(1, w + 1))

    if sum(kappa) != fin.v_arr[0]:
        return None
    partial = 0
    for j in range(w):
        partial += kappa[j] - mu[j]
        if partial < 0:
            return None
    head = 0
    for d in range(1, n + 1):
        head += counts[d - 1]
        if head < fin.v_arr[0] - fin.v_arr[d]:
            return None
    return kappa


def _gyd_candidates(rows: int, level: int, total: int):
    """Weakly decreasing level-bounded vectors with the given sum,
    first entry inside the canonical window, descending lexicographic."""

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


def stratum_check_affine(sep: SeparatedForm):
    """Search for a stratum weight compatible with a normalized
    separated diagram.

    Requires the arrow-arc overhang to be normalized into [0, w).
    Returns the first candidate weight in descending lexicographic
    order, or None when every candidate fails; failure coincides with
    the diagram not being supersymmetric.
    """

    d = sep.diagram
    if d.is_finite:
        raise ValueError("affine stratum check needs a diagram without a cut")
    n, w = sep.n, sep.w
    if n < 1 or w < 1:
        raise ValueError("stratum check needs both node kinds")
    if not 0 <= sep.gap < w:
        raise ValueError(f"overhang {sep.gap} not normalized into [0, {w})")

    triple = separated_triple(sep)
    total = sum(triple.mu)
    assert total == sep.gap

    for kappa in _gyd_candidates(w, n, total):
        tkappa = transpose_gyd(kappa, n)
        c_neg = sum(step for step in tkappa if step < 0)
        lo = 0
        partial = 0
        for j in range(w):
            partial += triple.mu[j] - kappa[j]
            lo = max(lo, partial)
        hi = c_neg + triple.v
        partial = 0
        for dd in range(1, n):
            partial += tkappa[dd - 1] - triple.tlam[dd - 1]
            hi = min(hi, c_neg + triple.v + partial)
        if lo <= hi:
            chosen = AffineWeight(values=kappa, level=n, dpair=lo)
            assert dominance_ge(
                chosen, AffineWeight(values=triple.mu, level=n, dpair=0)
            )
            assert dominance_ge(
                AffineWeight(values=tkappa, level=w, dpair=c_neg - lo),
                AffineWeight(values=triple.tlam, level=w, dpair=-triple.v),
            )
            return chosen
    return None
