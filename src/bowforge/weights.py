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

from .diagram import SeparatedForm, _set, _Value

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
    across all layers q, gives entry s of the transpose.  Row λ holds
    the cells n q + s <= λ of column s, which are the layers
    q <= f = ⌊(λ - s)/n⌋: it adds layers 0..f, or removes f+1..-1, and
    either way counts f + 1.
    """

    vals = tuple(values)
    n = level
    if n < 1:
        raise ValueError("level must be positive")
    if not is_gyd(vals, n):
        raise ValueError(f"{vals} is not weakly decreasing with spread <= {n}")
    return tuple(sum((lam - s) // n + 1 for lam in vals) for s in range(1, n + 1))


# ---------------------------------------------------------------------------
# weights


class AffineWeight(_Value):
    __slots__ = ("values", "level", "dpair")

    def __init__(self, values: tuple[int, ...], level: int, dpair: int):
        _set(self, "values", values)
        _set(self, "level", level)
        _set(self, "dpair", dpair)

    @property
    def charge(self) -> int:
        return sum(self.values)


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


class WeightTriple(_Value):
    __slots__ = ("tlam", "mu", "v")

    def __init__(self, tlam: tuple[int, ...], mu: tuple[int, ...], v: int):
        _set(self, "tlam", tlam)
        _set(self, "mu", mu)
        _set(self, "v", v)


def separated_triple(sep: SeparatedForm) -> WeightTriple:
    """Consecutive differences along both arcs, plus the shared corner."""

    if sep.n < 1 or sep.w < 1:
        raise ValueError("a weight triple needs both node kinds")
    tlam = tuple(sep.v_arr[s - 1] - sep.v_arr[s] for s in range(1, sep.n + 1))
    mu = tuple(sep.v_x[i - 1] - sep.v_x[i] for i in range(1, sep.w + 1))
    return WeightTriple(tlam=tlam, mu=mu, v=sep.v_arr[-1])


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
    if min(fin.diagram.dims) < 0:
        return None
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
    first entry inside the canonical window, descending lexicographic.

    Lazy by first entry: each block of candidates sharing a first entry
    is built only when the one before it has been used up.
    """

    lo1 = -(-total // rows)
    hi1 = total // rows + level
    results: list[tuple[int, ...]] = []

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
        yield from results
        results.clear()


def stratum_check_affine(sep: SeparatedForm):
    """Search for a stratum weight compatible with a normalized
    separated diagram.

    Requires the arrow-arc overhang to be normalized into [0, w).
    Returns the first candidate weight in descending lexicographic
    order, or None when every candidate fails; failure coincides with
    the diagram not being supersymmetric.  Candidates are built one
    first-entry block at a time, so the search stops at the first
    accepted weight; a negative verdict still tries every candidate.
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
    if total != sep.gap:
        raise RuntimeError(f"mu sums to {total}, not the gap {sep.gap}")

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
            if not dominance_ge(chosen, AffineWeight(values=triple.mu, level=n, dpair=0)):
                raise RuntimeError(f"chosen weight {kappa} does not dominate mu")
            if not dominance_ge(
                AffineWeight(values=tkappa, level=w, dpair=c_neg - lo),
                AffineWeight(values=triple.tlam, level=w, dpair=-triple.v),
            ):
                raise RuntimeError(f"transpose of the chosen weight {kappa} does not dominate lambda")
            return chosen
    return None
