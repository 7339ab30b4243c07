"""End-to-end acceptance checks, one criterion per test.

Each test prints exactly one ``[ACCEPTANCE] criterion k: PASS|FAIL`` line
(bypassing capture so the line shows up in plain pytest output) and then
asserts, so a red criterion is visible both ways.  Sub-checks collect
problems instead of asserting early; the single line reports the whole
criterion.
"""

import itertools
import random
import time
from collections import deque

import numpy as np

from bowforge.branes import check_ledger, synthesize
from bowforge.diagram import (
    Direction,
    IncrementArrows,
    IncrementX,
    NodeKind,
    parse_diagram,
    s_dual,
)
from bowforge.momentmap import (
    _complex_jacobian,
    _param_layout,
    _unpack,
    construct_solution,
    moment_residual,
    solve_numeric,
    stability_report,
    zero_solution,
)
from bowforge.rewrite import (
    HwMove,
    NegativeWitness,
    SubtractArrowArc,
    apply_entry,
    apply_hw,
    canonical_encoding,
    enumerate_equivalent,
    legal_swaps,
    normalize_gap,
    separate,
)
from bowforge.susy import InequalityViolation, decide_supersymmetry
from bowforge.weights import is_gyd, stratum_check_affine, transpose_gyd
from test_branes import brane_is_fixed, ledger_is_susy

CW, ACW = Direction.CW, Direction.ACW

EQ_ONE_ONE = "[ 0 o 2 x 0 ]"


def _report(capsys, criterion: int, problems: list, detail: str) -> None:
    ok = not problems
    with capsys.disabled():
        print(f"[ACCEPTANCE] criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion}: {problems[:5]}"


def _affine_sweep(max_nodes: int, dim_range):
    """Every affine diagram with the given node budget and segment range."""

    for k in range(2, max_nodes + 1):
        for kinds in itertools.product("ox", repeat=k):
            if "o" not in kinds or "x" not in kinds:
                continue
            for dims in itertools.product(dim_range, repeat=k):
                text = "( " + " ".join(f"{d} {c}" for d, c in zip(dims, kinds)) + " )"
                yield parse_diagram(text)


# ---------------------------------------------------------------------------
# 1: the smallest non-supersymmetric diagram decides instantly


def test_criterion_1_minimal_counterexample(capsys):
    problems = []
    d = parse_diagram(EQ_ONE_ONE)
    decide_supersymmetry(d)  # warm up imports and caches
    t0 = time.perf_counter()
    cert = decide_supersymmetry(d)
    elapsed = time.perf_counter() - t0
    if cert.verdict:
        problems.append("verdict should be false")
    if not isinstance(cert.witness, InequalityViolation) or cert.witness.value != -1:
        problems.append(f"witness {cert.witness!r} should carry value -1")
    if elapsed >= 0.010:
        problems.append(f"decision took {elapsed * 1000:.2f} ms")
    _report(capsys, 1, problems, f"{elapsed * 1000:.3f} ms, witness value -1")


# ---------------------------------------------------------------------------
# 2: the worked three-x counterexample pins the exact witness arithmetic


def test_criterion_2_pinned_witness_arithmetic(capsys):
    problems = []
    cert = decide_supersymmetry(parse_diagram("[ 0 o 3 x 2 x 0 ]"))
    expected = InequalityViolation(direction=CW, t=1, s=1, k=2, value=-1)
    if cert.verdict:
        problems.append("verdict should be false")
    if cert.witness != expected:
        problems.append(f"witness {cert.witness!r} != {expected!r}")
    if 2 + 0 + 0 - 3 != -1 or cert.witness.value != 2 + 0 + 0 - 3:
        problems.append("witness value should equal the printed sum 2+0+0-3")
    _report(capsys, 2, problems, "witness (cw, t=1, s=1, k=2) value -1")


# ---------------------------------------------------------------------------
# 3: the two-arrow/two-x family matches its closed-form inequalities


def test_criterion_3_family_closed_form(capsys):
    problems = []
    t0 = time.perf_counter()
    checked = 0
    for v1, v0, vm1 in itertools.product(range(7), repeat=3):
        d = parse_diagram(f"[ 0 o {v1} o {v0} x {vm1} x 0 ]")
        expected = (
            1 + v1 + vm1 - v0 >= 0
            and 2 + v1 - v0 >= 0
            and 2 + vm1 - v0 >= 0
            and 4 - v0 >= 0
        )
        got = decide_supersymmetry(d).verdict
        if got != expected:
            problems.append(f"(v1,v0,vm1)=({v1},{v0},{vm1}): got {got}, expected {expected}")
        checked += 1
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        problems.append(f"family sweep took {elapsed:.2f} s")
    _report(capsys, 3, problems, f"{checked} members in {elapsed:.2f} s")


# ---------------------------------------------------------------------------
# 4: verdicts agree with a direct search of the swap-equivalence class


def _first_negative_depth(d, cap: int):
    """Depth of the closest swap-reachable diagram with a negative segment."""

    seen = {canonical_encoding(d)}
    frontier = deque([(d, 0)])
    while frontier:
        cur, depth = frontier.popleft()
        if depth == cap:
            continue
        for left, right in legal_swaps(cur):
            child = apply_hw(cur, left, right)
            enc = canonical_encoding(child)
            if enc in seen:
                continue
            seen.add(enc)
            if min(child.dims) < 0:
                return depth + 1
            frontier.append((child, depth + 1))
    return None


def _witness_budget(d, cert) -> int:
    """Search depth promised by a false certificate.

    An inequality witness flags a sweep of t laps plus a partial pass
    (t*n*w + s*k moves).  A negative witness carries its own move log:
    the swap count reaches the flagged diagram directly, with one extra
    lap of crossings for every subtracted arc the log contains.
    """

    wit = cert.witness
    if isinstance(wit, InequalityViolation):
        return wit.t * d.n_arrows * d.n_xpoints + wit.s * wit.k
    assert isinstance(wit, NegativeWitness)
    swaps = sum(1 for e in wit.move_log if isinstance(e, HwMove))
    arcs = sum(e.amount for e in wit.move_log if isinstance(e, SubtractArrowArc))
    return swaps if arcs == 0 else swaps + (arcs + 1) * d.n_xpoints


def test_criterion_4_orbit_search_oracle(capsys):
    problems = []
    t0 = time.perf_counter()
    n_false = n_true = 0
    for d in _affine_sweep(4, range(4)):
        cert = decide_supersymmetry(d)
        if cert.verdict:
            sample = enumerate_equivalent(d, 2 * d.n_arrows * d.n_xpoints)
            if sample.min_dim < 0:
                problems.append(f"{d.dims}: declared susy but orbit dips to {sample.min_dim}")
            n_true += 1
        else:
            budget = _witness_budget(d, cert)
            if _first_negative_depth(d, budget) is None:
                problems.append(f"{d.dims}: no negative within witness budget {budget}")
            n_false += 1
    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        problems.append(f"oracle sweep took {elapsed:.1f} s")
    _report(capsys, 4, problems, f"{n_true} true + {n_false} false in {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# 5: the verdict is invariant under swaps and S-duality, and increments
#    never break a supersymmetric diagram


def test_criterion_5_verdict_invariance(capsys):
    problems = []
    checked = 0
    for d in _affine_sweep(4, range(4)):
        verdict = decide_supersymmetry(d).verdict
        for left, right in legal_swaps(d):
            if decide_supersymmetry(apply_hw(d, left, right)).verdict != verdict:
                problems.append(f"{d.dims}: swap ({left},{right}) flipped the verdict")
            checked += 1
        if decide_supersymmetry(s_dual(d)).verdict != verdict:
            problems.append(f"{d.dims}: S-duality flipped the verdict")
        checked += 1
        if not verdict:
            continue
        arrows = [n.id for n in d.nodes if n.kind == NodeKind.ARROW]
        xs = [n.id for n in d.nodes if n.kind == NodeKind.XPOINT]
        for ids, ctor in ((arrows, IncrementArrows), (xs, IncrementX)):
            for start in ids:
                for end in ids:
                    for direction in (CW, ACW):
                        entry = ctor(start=start, end=end, direction=direction, amount=1)
                        raised = apply_entry(d, entry)
                        if not decide_supersymmetry(raised).verdict:
                            problems.append(f"{d.dims}: increment {entry} broke supersymmetry")
                        checked += 1
    _report(capsys, 5, problems, f"{checked} invariance checks")


# ---------------------------------------------------------------------------
# 6: every supersymmetric diagram gets a certifying ledger, and the
#    one-arrow/one-x family shows one anticlockwise fixed brane per winding


def test_criterion_6_ledger_synthesis(capsys):
    problems = []
    n_ledgers = 0
    for d in _affine_sweep(4, range(4)):
        if not decide_supersymmetry(d).verdict:
            continue
        ledger = synthesize(d)
        issues = check_ledger(ledger)
        if issues:
            problems.append(f"{d.dims}: {issues[0]}")
        if not ledger_is_susy(ledger):
            problems.append(f"{d.dims}: ledger packs a fixed slot twice")
        n_ledgers += 1

    windings_seen = []
    for gap in range(5):
        v1 = gap * gap + 1
        v0 = v1 + gap
        d = parse_diagram(f"( {v0} x {v1} o )")
        if not decide_supersymmetry(d).verdict:
            problems.append(f"gap {gap}: family member unexpectedly not susy")
            continue
        ledger = synthesize(d)
        fixed = [
            (brane, mult)
            for brane, mult in ledger.branes.items()
            if brane_is_fixed(ledger.diagram, brane)
        ]
        laps = sorted(brane.laps for brane, _ in fixed)
        if any(brane.direction != ACW for brane, _ in fixed):
            problems.append(f"gap {gap}: fixed brane with wrong direction")
        if any(mult != 1 for _, mult in fixed):
            problems.append(f"gap {gap}: fixed brane with multiplicity > 1")
        if laps != list(range(gap)):
            problems.append(f"gap {gap}: windings {laps} != {list(range(gap))}")
        windings_seen.append(laps)
    _report(capsys, 6, problems, f"{n_ledgers} ledgers, windings up to gap 4")


# ---------------------------------------------------------------------------
# 7: transposition behaves, and the weight-side membership test agrees
#    with the decision procedure


def test_criterion_7_weight_side(capsys):
    problems = []
    if transpose_gyd((4, 1), 3) != (3, 1, 1):
        problems.append("pinned transpose of (4,1) at level 3 is wrong")

    rng = random.Random(20260819)
    members = 0
    while members < 1000:
        w = rng.randint(1, 5)
        level = rng.randint(1, 5)
        base = rng.randint(-6, 6)
        values = tuple(sorted((base - rng.randint(0, level) for _ in range(w)), reverse=True))
        if values[0] - values[-1] > level:
            continue
        t = transpose_gyd(values, level)
        if not is_gyd(t, w):
            problems.append(f"{values} at level {level}: transpose not a member")
        if sum(t) != sum(values):
            problems.append(f"{values} at level {level}: transpose changed the total")
        if transpose_gyd(t, w) != values:
            problems.append(f"{values} at level {level}: transpose is not an involution")
        members += 1

    conj_members = 0
    while conj_members < 1000:
        w = rng.randint(1, 5)
        level = rng.randint(1, 5)
        values = tuple(sorted((rng.randint(0, level) for _ in range(w)), reverse=True))
        conj = tuple(sum(1 for v in values if v >= i) for i in range(1, level + 1))
        if transpose_gyd(values, level) != conj:
            problems.append(f"{values} at level {level}: transpose != classical conjugate")
        conj_members += 1

    compared = aborted = 0
    for d in _affine_sweep(5, range(5)):
        verdict = decide_supersymmetry(d).verdict
        res = separate(d)
        if isinstance(res, NegativeWitness):
            if verdict:
                problems.append(f"{d.dims}: separation aborted on a susy diagram")
            aborted += 1
            continue
        res = normalize_gap(res[0])
        if isinstance(res, NegativeWitness):
            if verdict:
                problems.append(f"{d.dims}: normalization aborted on a susy diagram")
            aborted += 1
            continue
        weight = stratum_check_affine(res[0])
        if (weight is not None) != verdict:
            problems.append(f"{d.dims}: stratum says {weight is not None}, verdict {verdict}")
        compared += 1
    _report(
        capsys,
        7,
        problems,
        f"2000 random members, {compared} stratum comparisons, {aborted} aborted",
    )


# ---------------------------------------------------------------------------
# 8: moment-map zeros, closed form and constructed, with honest gradients


def _two_x_closed_form(v1: int, m: int):
    d = parse_diagram(f"[ 0 o {v1} o 0 x {m} x 0 ]")
    sol = zero_solution(d)
    first, second = [n.id for n in d.nodes if n.kind == NodeKind.XPOINT]
    shifts = np.diag(np.arange(1, m + 1)).astype(complex)
    sol.triangles[first].B_out = shifts.copy()
    sol.triangles[first].a = np.ones((m, 1), dtype=complex)
    sol.triangles[second].B_in = shifts.copy()
    sol.triangles[second].b = np.ones((1, m), dtype=complex)
    return sol


def _real_jr(d, layout, size, lam):
    """Real-valued (jacobian, residual) callable over stacked Re/Im."""

    def jr(x):
        z = x[:size] + 1j * x[size:]
        jac, res = _complex_jacobian(_unpack(d, z, layout, lam), layout, size)
        top = np.hstack([jac.real, -jac.imag])
        bot = np.hstack([jac.imag, jac.real])
        return np.vstack([top, bot]), np.concatenate([res.real, res.imag])

    return jr


def test_criterion_8_moment_map(capsys):
    problems = []
    t0 = time.perf_counter()

    for v1, m in [(0, 1), (2, 3), (1, 4), (3, 2)]:
        sol = _two_x_closed_form(v1, m)
        if moment_residual(sol) > 1e-12:
            problems.append(f"closed form ({v1},{m}): residual {moment_residual(sol):.2e}")
        if not stability_report(sol).ok:
            problems.append(f"closed form ({v1},{m}): stability failed")

    solved = 0
    worst = 0.0
    for d in _affine_sweep(4, range(4)):
        if not decide_supersymmetry(d).verdict:
            continue
        sol = construct_solution(d, seed=11)
        if not sol.converged or sol.residual > 1e-8 or not sol.stable:
            problems.append(
                f"{d.dims}: residual {sol.residual:.2e}, "
                f"converged {sol.converged}, stable {sol.stable}"
            )
        solved += 1
        worst = max(worst, sol.residual)

    d = parse_diagram("( 1 x 2 o 2 x 1 o )")
    layout, size = _param_layout(d)
    jr = _real_jr(d, layout, size, {})
    rng = np.random.default_rng(11)
    x = rng.standard_normal(2 * size)
    jac, res = jr(x)
    grad = 2.0 * jac.T @ res

    def cost(point):
        _, r = jr(point)
        return float(r @ r)

    h = 1e-6
    fd = np.zeros_like(grad)
    for i in range(len(x)):
        step = np.zeros_like(x)
        step[i] = h
        fd[i] = (cost(x + step) - cost(x - step)) / (2 * h)
    rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-12)
    if rel >= 1e-5:
        problems.append(f"gradient vs finite differences: relative error {rel:.2e}")

    elapsed = time.perf_counter() - t0
    if elapsed >= 600.0:
        problems.append(f"moment-map suite took {elapsed:.0f} s")
    _report(
        capsys,
        8,
        problems,
        f"{solved} constructed zeros, worst residual {worst:.2e}, in {elapsed:.1f} s",
    )


# ---------------------------------------------------------------------------
# 9: the solver never accepts a zero where none exists


def test_criterion_9_negative_control(capsys):
    problems = []
    d = parse_diagram(EQ_ONE_ONE)
    for seed in range(50):
        sol = solve_numeric(d, seed=seed)
        if sol.converged:
            problems.append(f"seed {seed}: accepted residual {sol.residual:.2e}")
    _report(capsys, 9, problems, "50 seeds, none accepted")
