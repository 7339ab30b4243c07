"""Decide, the brane ledger and the constructed zero agree above the sweeps.

The exhaustive sweeps stop at dims 4; the numerical routes first failed
near dims 30.  This draws supersymmetric diagrams with k ≤ 5 and dims
≤ 60 from a fixed seed and runs every route on each.
"""

import random

import pytest

from bowforge.branes import check_ledger, synthesize
from bowforge.diagram import parse_diagram
from bowforge.momentmap import construct_solution
from bowforge.susy import decide_supersymmetry

SEED = 11
COUNT = 40
MAX_DIM = 60

# stable zeros whose residual misses 1e-8, or a swap that loses rank: the
# increment shifts crowd the unit circle, so (B - c)^-1 and the swap
# kernels are ill-conditioned
KNOWN_FAILURES = ("( 31 x 48 o 58 x )", "( 53 x 29 o 37 x )", "( 138 o 110 o 121 x 129 x )")
CAUSE_2 = "ill-conditioned shifts in the exact construction (ROADMAP item 1, cause 2)"


def drawn_positives(seed: int, count: int, max_dim: int) -> list[str]:
    """The first ``count`` supersymmetric draws, affine or finite, k 2..5."""

    rng = random.Random(seed)
    found = []
    while len(found) < count:
        k = rng.randint(2, 5)
        kinds = [rng.choice("xo") for _ in range(k)]
        if rng.random() < 0.5:
            dims = [rng.randint(0, max_dim) for _ in range(k)]
            text = "( " + " ".join(f"{v} {c}" for v, c in zip(dims, kinds)) + " )"
        else:
            dims = [rng.randint(0, max_dim) for _ in range(k + 1)]
            text = "[ " + " ".join(f"{v} {c}" for v, c in zip(dims, kinds)) + f" {dims[-1]} ]"
        if decide_supersymmetry(parse_diagram(text)).verdict:
            found.append(text)
    return found


def cases():
    texts = drawn_positives(SEED, COUNT, MAX_DIM)
    texts += [text for text in KNOWN_FAILURES if text not in texts]
    for text in texts:
        marks = pytest.mark.xfail(strict=True, reason=CAUSE_2) if text in KNOWN_FAILURES else ()
        yield pytest.param(text, marks=marks)


@pytest.mark.parametrize("text", cases())
def test_routes_agree_on_mid_size_positives(text):
    d = parse_diagram(text)
    assert decide_supersymmetry(d).verdict
    assert check_ledger(synthesize(d)) == []
    sol = construct_solution(d)
    assert sol.converged and sol.stable, f"residual {sol.residual:.2e}, stable {sol.stable}"
