"""Moment-map residuals, stability, exact transports, and the solver."""

import functools
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bowforge import momentmap
from bowforge.branes import ledger_apply_move, synthesize
from bowforge.diagram import (
    Direction,
    HwMove,
    IncrementArrows,
    IncrementX,
    NodeKind,
    SubtractArrowArc,
    parse_diagram,
)
from bowforge.momentmap import (
    Solution,
    _complex_jacobian,
    _param_layout,
    _unpack,
    construct_solution,
    extend_increment,
    moment_residual,
    residual_blocks,
    solution_from_json,
    solution_to_json,
    solve_numeric,
    stability_report,
    transport_hw_solution,
    zero_solution,
)
from bowforge.rewrite import _Host, apply_entry
from bowforge.susy import decide_supersymmetry

CW, ACW = Direction.CW, Direction.ACW


def _real_jr(d, layout, size, lam):
    """Real-valued (jacobian, residual) callable over stacked Re/Im."""

    def jr(x):
        z = x[:size] + 1j * x[size:]
        jac, res = _complex_jacobian(_unpack(d, z, layout, lam), layout, size)
        top = np.hstack([jac.real, -jac.imag])
        bot = np.hstack([jac.imag, jac.real])
        return np.vstack([top, bot]), np.concatenate([res.real, res.imag])

    return jr

# ---------------------------------------------------------------------------
# closed-form family: two arrows, two x points, one populated x segment


def two_x_closed_form(v1: int, m: int) -> Solution:
    """Diagonal solution on [ 0 o v1 o 0 x m x 0 ] with distinct shifts."""

    d = parse_diagram(f"[ 0 o {v1} o 0 x {m} x 0 ]")
    sol = zero_solution(d)
    first, second = [node.id for node in d.nodes if node.kind == NodeKind.XPOINT]
    shifts = np.diag(np.arange(1, m + 1)).astype(complex)
    sol.triangles[first].B_out = shifts.copy()
    sol.triangles[first].a = np.ones((m, 1), dtype=complex)
    sol.triangles[second].B_in = shifts.copy()
    sol.triangles[second].b = np.ones((1, m), dtype=complex)
    return sol


def test_closed_form_residual_and_stability():
    for v1, m in [(0, 1), (2, 3), (1, 4), (3, 2)]:
        sol = two_x_closed_form(v1, m)
        assert moment_residual(sol) == 0.0
        report = stability_report(sol)
        assert report.ok
        for entry in report.entries.values():
            assert entry.cond_a == 0.0


def test_closed_form_perturbation_raises_residual():
    sol = two_x_closed_form(2, 3)
    first = [n.id for n in sol.diagram.nodes if n.kind == NodeKind.XPOINT][0]
    sol.triangles[first].B_out[0, 0] += 1e-3
    assert moment_residual(sol) > 1e-4


def test_residual_blocks_shapes():
    d = parse_diagram("( 1 o 2 x 3 x 4 o )")
    blocks = residual_blocks(zero_solution(d))
    assert [b.shape for b in blocks[:4]] == [(2, 2), (3, 3), (4, 4), (1, 1)]
    assert len(blocks) == 4 + 2


def test_residual_gauge_invariance():
    rng = np.random.default_rng(5)
    sol = construct_solution(parse_diagram("( 1 x 2 o 2 x 1 o )"), seed=3)
    assert sol.converged
    d = sol.diagram
    gauges = []
    for m in d.dims:
        q, _ = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
        gauges.append(q if m else np.zeros((0, 0), dtype=complex))
    for node in d.nodes:
        pos = d.position(node.id)
        g_in = gauges[(pos - 1) % d.k]
        g_out = gauges[pos]
        if node.kind == NodeKind.XPOINT:
            t = sol.triangles[node.id]
            t.A = g_out @ t.A @ g_in.conj().T
            t.B_in = g_in @ t.B_in @ g_in.conj().T
            t.B_out = g_out @ t.B_out @ g_out.conj().T
            t.a = g_out @ t.a
            t.b = t.b @ g_in.conj().T
        else:
            ad = sol.arrows[node.id]
            ad.C = g_out @ ad.C @ g_in.conj().T
            ad.D = g_in @ ad.D @ g_out.conj().T
    assert moment_residual(sol) < 1e-8
    assert stability_report(sol).ok


# ---------------------------------------------------------------------------
# stability report details


def test_stability_vacuous_sides():
    d = parse_diagram("[ 0 o 2 o 0 x 3 x 0 ]")
    sol = two_x_closed_form(2, 3)
    report = stability_report(sol)
    first, second = [n.id for n in d.nodes if n.kind == NodeKind.XPOINT]
    assert report.entries[first].krylov_rank == 3
    assert report.entries[second].chain_dim == 0


def x_ids(sol: Solution) -> list[int]:
    return [n.id for n in sol.diagram.nodes if n.kind == NodeKind.XPOINT]


def zeroed_tail():
    sol = two_x_closed_form(0, 2)
    first = x_ids(sol)[0]
    sol.triangles[first].a = np.zeros((2, 1), dtype=complex)
    return sol, first, "krylov_rank", 0


def all_zero_maps():
    sol = zero_solution(parse_diagram("( 2 x 2 o )"))
    return sol, x_ids(sol)[0], "krylov_rank", 0


def constructed_without_span():
    sol = construct_solution(parse_diagram("( 2 x 2 o )"))
    xid = x_ids(sol)[0]
    t = sol.triangles[xid]
    t.A = np.zeros_like(t.A)
    t.a = np.zeros_like(t.a)
    return sol, xid, "krylov_rank", 0


def span_in_invariant_block():
    # B_out is block upper-triangular and im [A | a] lies in its leading
    # invariant block, so the span stops at 2 of 4
    sol = two_x_closed_form(0, 4)
    first, second = x_ids(sol)
    upper = np.diag(np.arange(1, 5)).astype(complex)
    upper[:2, 2:] = 1.0
    sol.triangles[first].B_out = upper
    sol.triangles[second].B_in = upper.copy()
    sol.triangles[first].a = np.array([[1], [1], [0], [0]], dtype=complex)
    return sol, first, "krylov_rank", 2


def invariant_line_in_kernel():
    # e_0 is an eigenvector of B_in and b kills it
    sol = two_x_closed_form(0, 3)
    second = x_ids(sol)[1]
    sol.triangles[second].b = np.array([[0, 1, 1]], dtype=complex)
    return sol, second, "chain_dim", 1


def test_stability_zero_span_fails():
    for build in (
        zeroed_tail,
        all_zero_maps,
        constructed_without_span,
        span_in_invariant_block,
        invariant_line_in_kernel,
    ):
        sol, xid, field, value = build()
        assert moment_residual(sol) < 1e-8, build.__name__
        assert getattr(stability_report(sol).entries[xid], field) == value, build.__name__
        assert not stability_report(sol).ok, build.__name__


@functools.cache
def susy_sweep() -> list:
    """Every supersymmetric affine diagram with k <= 4 and dims 0..3."""

    texts = [
        "( " + " ".join(f"{v} {c}" for v, c in zip(dims, kinds)) + " )"
        for k in range(1, 5)
        for kinds in itertools.product("xo", repeat=k)
        for dims in itertools.product(range(4), repeat=k)
    ]
    return [d for d in map(parse_diagram, texts) if decide_supersymmetry(d).verdict]


def test_settle_agrees_with_residual_and_report(monkeypatch):
    # settle's verdict is moment_residual and stability_report, bit for
    # bit, called by name once each (the tracer counts those names):
    # every sixteenth zero of criterion 8, then the unstable zeros above
    both_kinds = [d for d in susy_sweep() if len({node.kind for node in d.nodes}) == 2]
    sols = [construct_solution(d) for d in both_kinds[::16]]
    builds = (zeroed_tail, all_zero_maps, constructed_without_span, span_in_invariant_block, invariant_line_in_kernel)
    sols += [build()[0] for build in builds]
    for sol in sols:
        residual = moment_residual(sol)
        report = stability_report(sol)
        with monkeypatch.context() as patch:
            calls = _count_calls(patch, momentmap, ["stability_report", "moment_residual"])
            settled = momentmap.settle(sol)
        assert calls == {"stability_report": 1, "moment_residual": 1}
        assert sol.residual.hex() == residual.hex()
        assert sol.stable == settled.ok == report.ok
        assert sol.converged == (residual <= 1e-8 and report.ok)
        assert [(nid, e.cond_a.hex(), e.s1, e.s2, e.chain_dim, e.krylov_rank) for nid, e in settled.entries.items()] == [
            (nid, e.cond_a.hex(), e.s1, e.s2, e.chain_dim, e.krylov_rank) for nid, e in report.entries.items()
        ]
    assert len(sols) > 200
    assert sum(not sol.stable for sol in sols) == len(builds)


def test_scaled_stable_zero_stays_stable():
    # both conditions are invariant under scaling every triangle map
    sol = construct_solution(parse_diagram("( 3 x 2 o 2 x 1 o )"))
    assert sol.stable
    for t in sol.triangles.values():
        for name in ("A", "B_in", "B_out", "a", "b"):
            setattr(t, name, 1e-3 * getattr(t, name))
    assert stability_report(sol).ok


# the k = 40 diagram of ROADMAP item 4: unbounded shift sequences (the
# integers, or sqrt(j) exp(2 pi i 0.618034 j)) lose rank at one of its swaps
K40 = (
    "( 11 x 12 o 12 x 12 x 12 o 11 x 10 o 12 o 10 o 10 o 10 x 11 o 11 x 10 x 11 o 12 o 12 x 10 o "
    "10 x 10 x 10 o 11 o 10 x 11 o 11 x 11 o 11 o 12 x 12 o 11 x 11 o 11 o 12 o 10 o 12 o 10 o 12 x "
    "10 o 11 o 12 o )"
)


@pytest.mark.parametrize(
    "text",
    [
        # the kernel chain and the raw Krylov rank lost rank on these three
        "( 32 x 18 x 28 x 40 o )",
        "( 50 x 58 x 55 x 51 x 59 o )",
        "( 31 x 37 o 46 o 47 x )",
        # shifts crowded on the unit circle left residuals of 2.1e-7 and 3.0e-8
        "( 57 o 21 x 56 x 34 o )",
        "( 27 x 30 x 34 o )",
        K40,
    ],
)
def test_large_dims_construct_stable_zeros(text):
    sol = construct_solution(parse_diagram(text))
    assert sol.converged and sol.stable, f"residual {sol.residual:.2e}"
    for xid, entry in stability_report(sol).entries.items():
        assert entry.chain_dim == 0
        assert entry.krylov_rank == sol.triangles[xid].B_out.shape[0]


# ---------------------------------------------------------------------------
# analytic gradient against central differences


def test_gradient_matches_finite_differences():
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
    assert rel < 1e-5


@pytest.mark.parametrize("level", [None, 0.5 - 0.25j])
def test_jacobian_is_holomorphic_and_cond_a_is_the_triangle_block(level):
    # the residual is quadratic, so the central difference is exact up to
    # rounding; a conjugate anywhere in the equations would break it, and
    # the complex LM step relies on J(z) alone
    d = parse_diagram("( 1 x 2 o 2 x 1 o )")
    lam = {} if level is None else {d.nodes[1].id: level}
    layout, size = _param_layout(d)
    xs = [node.id for node in d.nodes if node.kind == NodeKind.XPOINT]
    rng = np.random.default_rng(17)

    def residual(z):
        return np.concatenate([block.reshape(-1) for block in residual_blocks(_unpack(d, z, layout, lam))])

    for _ in range(5):
        z, delta = (rng.standard_normal(size) + 1j * rng.standard_normal(size) for _ in range(2))
        sol = _unpack(d, z, layout, lam)
        jac, _ = _complex_jacobian(sol, layout, size)
        central = (residual(z + delta) - residual(z - delta)) / 2
        assert np.linalg.norm(jac @ delta - central) <= 1e-12 * np.linalg.norm(central)
        triangle_blocks = residual_blocks(sol)[d.k :]
        cond_a = {xid: entry.cond_a for xid, entry in stability_report(sol).entries.items()}
        assert cond_a == {xid: float(np.linalg.norm(block)) for xid, block in zip(xs, triangle_blocks)}


# ---------------------------------------------------------------------------
# numerical search


def test_solve_numeric_trivial_diagram():
    sol = solve_numeric(parse_diagram("( 0 x 0 o )"))
    assert sol.converged
    assert sol.residual == 0.0


def test_solve_numeric_small_cases():
    for text in ["( 1 x 1 o )", "( 2 x 2 o )", "( 1 x 2 o 2 x 1 o )"]:
        d = parse_diagram(text)
        assert decide_supersymmetry(d).verdict
        sol = solve_numeric(d, seed=1)
        assert sol.converged, text
        assert sol.residual <= 1e-8
        assert sol.stable


def test_solve_numeric_rejects_empty_variety():
    d = parse_diagram("[ 0 o 2 x 0 ]")
    for seed in range(8):
        sol = solve_numeric(d, seed=seed)
        assert not sol.converged


# ---------------------------------------------------------------------------
# exact extensions


def test_extend_arrow_arc_keeps_residual():
    base = construct_solution(parse_diagram("( 1 o 2 x 2 x 1 o )"), seed=2)
    assert base.converged
    entry = IncrementArrows(start=0, end=3, direction=CW, amount=2)
    out = extend_increment(base, entry)
    assert out.diagram == apply_entry(base.diagram, entry)
    assert moment_residual(out) < 1e-10
    assert stability_report(out).ok


def test_extend_x_segment_keeps_residual():
    base = construct_solution(parse_diagram("( 1 o 2 x 2 x 1 o )"), seed=2)
    assert base.converged
    entry = IncrementX(start=1, end=2, direction=ACW, amount=3)
    out = extend_increment(base, entry)
    assert out.diagram == apply_entry(base.diagram, entry)
    assert moment_residual(out) < 1e-10
    assert stability_report(out).ok


def test_extend_orders_commute_on_residual():
    base = construct_solution(parse_diagram("( 1 o 2 x 2 x 1 o )"), seed=2)
    arrows = IncrementArrows(start=0, end=3, direction=CW, amount=1)
    xseg = IncrementX(start=1, end=2, direction=ACW, amount=1)
    one = extend_increment(extend_increment(base, arrows), xseg)
    two = extend_increment(extend_increment(base, xseg), arrows)
    assert one.diagram == two.diagram
    assert moment_residual(one) < 1e-10
    assert moment_residual(two) < 1e-10


def test_extend_arrow_arc_needs_level_zero():
    d = parse_diagram("( 1 o 2 x 2 x 1 o )")
    sol = zero_solution(d, {0: 1.0})
    with pytest.raises(ValueError):
        extend_increment(sol, IncrementArrows(start=0, end=3, direction=CW, amount=1))


@pytest.mark.parametrize(
    "entry",
    [
        IncrementX(start=1, end=2, direction=ACW, amount=-1),
        IncrementArrows(start=0, end=3, direction=ACW, amount=-2),
        IncrementX(start=0, end=3, direction=ACW, amount=0),
    ],
)
def test_bad_increments_are_refused_alike(entry):
    # a negative amount and a wrong node kind, even at amount 0, are
    # refused by the exact extension as by the diagram move
    base = construct_solution(parse_diagram("( 1 o 2 x 2 x 1 o )"), seed=2)

    def refusal(call):
        with pytest.raises((KeyError, ValueError)) as info:
            call()
        return type(info.value), str(info.value)

    assert refusal(lambda: extend_increment(base, entry)) == refusal(lambda: apply_entry(base.diagram, entry))


def test_zero_refuses_to_shrink_an_arc():
    # the diagram move lowers an arc on an inverse increment; no exact
    # step removes dimensions from a zero
    base = construct_solution(parse_diagram("( 1 o 2 x 2 x 1 o )"), seed=2)
    entry = IncrementX(start=1, end=2, direction=ACW, amount=1)
    apply_entry(base.diagram, entry, inverse=True)
    with pytest.raises(ValueError, match="cannot shrink"):
        momentmap._Zero(base).move(entry, inverse=True)


def test_spiral_shifts_are_bounded_and_spread():
    # the first n points lie in the annulus ½ ≤ |c| ≤ 1, pairwise at
    # least 1.4/sqrt(n) apart, so none comes near 0 or another
    for n in [*range(1, 65), 100, 333, 1000, 2500, 4000]:
        z = np.array(list(itertools.islice(momentmap._spiral(n), n)))
        assert np.all(np.abs(z) >= 0.5 - 1e-12) and np.all(np.abs(z) <= 1 + 1e-12), n
        nearest = np.inf
        for lo in range(0, n, 500):
            gaps = np.abs(z[lo : lo + 500, None] - z[None, :])
            gaps[np.arange(gaps.shape[0]), np.arange(lo, lo + gaps.shape[0])] = np.inf
            nearest = min(nearest, float(gaps.min()))
        assert nearest >= 1.4 / np.sqrt(n), n


def _count_calls(monkeypatch, module, names):
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


def test_construct_reads_no_spectrum_and_runs_no_qr(monkeypatch):
    # the shifts come from a counter and the basis is closed-form; checked
    # on every eighth supersymmetric affine diagram with k <= 4, dims 0..3
    sample = susy_sweep()[::8]
    calls = _count_calls(monkeypatch, np.linalg, ["eigvals", "eig", "qr"])
    for d in sample:
        sol = construct_solution(d)
        assert sol.converged and sol.stable, d
    assert calls == {"eigvals": 0, "eig": 0, "qr": 0}


def test_extend_reads_the_end_spectra_once_per_call(monkeypatch):
    base = construct_solution(parse_diagram("( 1 o 2 x 2 x 1 o )"), seed=2)
    calls = _count_calls(monkeypatch, np.linalg, ["eigvals"])
    out = extend_increment(base, IncrementX(start=1, end=2, direction=ACW, amount=5))
    assert moment_residual(out) < 1e-10
    assert stability_report(out).ok
    # two end triangles, two B blocks each, whatever the amount
    assert calls == {"eigvals": 4}


class UnitZero(momentmap._Zero):
    """The zero with the unit-by-unit increment that ``_Zero.increment``
    replaced by one block per increment; kept as its oracle."""

    __slots__ = ()

    def increment(self, entry, delta):
        segs = _Host.increment(self, entry, delta)
        if delta < 0:
            raise ValueError("exact extension cannot shrink an arc")

        def pad(mat, rows, cols):
            out = np.zeros((mat.shape[0] + rows, mat.shape[1] + cols), dtype=complex)
            out[: mat.shape[0], : mat.shape[1]] = mat
            return out

        def shifted_inv(mat, c):
            return np.linalg.inv(mat - c * np.eye(mat.shape[0]))

        covered = set(segs)
        k = len(self.nodes)
        grown = [(node, (pos - 1) % k in covered, pos in covered) for pos, node in enumerate(self.nodes)]
        for _ in range(delta):
            c = next(self.shifts) if isinstance(entry, IncrementX) else 0j
            for node, grow_in, grow_out in grown:
                if not (grow_in or grow_out):
                    continue
                if node.kind == NodeKind.ARROW:
                    ad = self.arrows[node.id]
                    C = pad(ad.C, grow_out, grow_in)
                    D = pad(ad.D, grow_in, grow_out)
                    if grow_in and grow_out:
                        C[-1, -1] = 1.0
                        D[-1, -1] = -c
                    self.arrows[node.id] = momentmap.ArrowData(C=C, D=D)
                    continue
                t = self.triangles[node.id]
                A, B_in, B_out, a, b = t.A, t.B_in, t.B_out, t.a, t.b
                if grow_in and grow_out:
                    loop = node.id == entry.start == entry.end
                    row = b @ shifted_inv(B_in, c) if loop else np.zeros((1, A.shape[1]))
                    A = np.block([[A, np.zeros((A.shape[0], 1))], [row, np.ones((1, 1))]])
                    a = np.vstack([a, np.full((1, 1), 1.0 if loop else 0.0)])
                    b = pad(b, 0, 1)
                elif grow_out:
                    A = np.vstack([A, b @ shifted_inv(B_in, c)])
                    a = np.vstack([a, np.ones((1, 1))])
                else:
                    A = np.hstack([A, -shifted_inv(B_out, c) @ a])
                    b = np.hstack([b, np.ones((1, 1))])
                if grow_in:
                    B_in = pad(B_in, 1, 1)
                    B_in[-1, -1] = c
                if grow_out:
                    B_out = pad(B_out, 1, 1)
                    B_out[-1, -1] = c
                self.triangles[node.id] = momentmap.TriangleData(A=A, B_in=B_in, B_out=B_out, a=a, b=b)
        return segs


def _bytes(sol):
    return [(mat.shape, mat.tobytes()) for mat in _maps(sol)]


# on ( 1 o 2 x 2 x 1 o 2 x ), nodes 0 o, 1 x, 2 x, 3 o, 4 x: open x arcs
# in both directions, with and without interior nodes, arrow arcs with
# interior x points, and full loops of both kinds
GROWTHS = [
    (IncrementX, 1, 2, ACW),
    (IncrementX, 1, 2, CW),
    (IncrementX, 1, 4, ACW),
    (IncrementX, 4, 2, ACW),
    (IncrementX, 1, 4, CW),
    (IncrementArrows, 0, 3, ACW),
    (IncrementArrows, 3, 0, ACW),
    (IncrementArrows, 0, 3, CW),
    (IncrementX, 2, 2, CW),
    (IncrementX, 4, 4, ACW),
    (IncrementArrows, 3, 3, ACW),
]


@pytest.mark.parametrize("amount", [1, 2, 3, 4])
def test_block_increment_matches_unit_oracle(amount, monkeypatch):
    base = construct_solution(parse_diagram("( 1 o 2 x 2 x 1 o 2 x )"), seed=0)
    for kind, start, end, direction in GROWTHS:
        entry = kind(start, end, direction, amount)
        got = extend_increment(base, entry)
        with monkeypatch.context() as patch:
            patch.setattr(momentmap, "_Zero", UnitZero)
            want = extend_increment(base, entry)
        assert got.diagram == want.diagram == apply_entry(base.diagram, entry), entry
        assert _bytes(got) == _bytes(want), entry
        assert moment_residual(got) < 1e-10, entry


def test_block_construction_matches_unit_oracle(monkeypatch):
    # every 24th zero of the k <= 4, dims 0..3 sweep, and diagrams whose
    # construction grows full x loops and undoes arc subtractions
    texts = [*K10_REGRESSIONS, "( 1 o 1 x )", "( 1 o 1 x 0 x )", "( 1 x 3 o 1 x 3 o )", "( 7 x 7 x 7 x 7 x )"]
    diagrams = susy_sweep()[::24] + [parse_diagram(text) for text in texts]
    increments = []

    class RecordingZero(UnitZero):
        __slots__ = ()

        def increment(self, entry, delta):
            increments.append((isinstance(entry, IncrementX), entry.start == entry.end, delta))
            return super().increment(entry, delta)

    for d in diagrams:
        got = construct_solution(d)
        with monkeypatch.context() as patch:
            patch.setattr(momentmap, "_Zero", RecordingZero)
            want = construct_solution(d)
        assert _bytes(got) == _bytes(want), d
        assert (got.residual, got.converged, got.stable) == (want.residual, want.converged, want.stable), d
    # the sample reaches multi-unit blocks of every kind, and full x loops
    assert {(x_arc, loop) for x_arc, loop, delta in increments if delta > 1} >= {(True, False), (False, False)}
    assert any(x_arc and loop for x_arc, loop, _ in increments)


@pytest.mark.parametrize("amount", [1, 3])
def test_increment_at_empty_end_blocks_takes_no_inverse(amount, monkeypatch):
    # on ( 1 x 0 x 2 o ) the x arc from x 1 through arrow 2 to x 0 ends
    # at two empty segments, so each end gains an empty row or column of A
    base = construct_solution(parse_diagram("( 1 x 0 x 2 o )"))
    assert base.triangles[1].B_in.shape == base.triangles[0].B_out.shape == (0, 0)
    entry = IncrementX(start=1, end=0, direction=ACW, amount=amount)
    with monkeypatch.context() as patch:
        calls = _count_calls(patch, np.linalg, ["inv"])
        got = extend_increment(base, entry)
    assert calls == {"inv": 0}
    with monkeypatch.context() as patch:
        patch.setattr(momentmap, "_Zero", UnitZero)
        want = extend_increment(base, entry)
    assert got.diagram == want.diagram == apply_entry(base.diagram, entry)
    assert _bytes(got) == _bytes(want)
    assert moment_residual(got) < 1e-10


def test_construct_builds_no_ledger_walker(monkeypatch):
    # staging runs on a plain move host that carries no brane; checked
    # on every eighth supersymmetric affine diagram with k <= 4, dims 0..3
    from bowforge import branes

    calls = _count_calls(monkeypatch, branes._Walk, ["__init__"])
    for d in susy_sweep()[::8]:
        construct_solution(d)
    assert calls == {"__init__": 0}
    # the counter sees a walker
    branes._Walk(parse_diagram("( 0 x 0 o )"), {})
    assert calls == {"__init__": 1}


def test_construct_audits_the_layout_ledger(monkeypatch):
    # a layout ledger short of one fixed brane fails the one audit, as a
    # fault of the construction, not as a negative verdict
    from bowforge import branes

    real = branes._finite_branes
    dropped = []

    def planted(v_arr, v_x, arrow_ids, x_ids):
        out = real(v_arr, v_x, arrow_ids, x_ids)
        key = next(key for key in out if key[0] in arrow_ids and key[1] in x_ids)
        dropped.append(key)
        del out[key]
        return out

    monkeypatch.setattr(branes, "_finite_branes", planted)
    with pytest.raises(RuntimeError, match="layout ledger covers"):
        construct_solution(parse_diagram(K10_REGRESSIONS[0]))
    assert len(dropped) == 1


# ---------------------------------------------------------------------------
# exact transport across a swap


def test_transport_forward_and_back():
    d = parse_diagram("( 2 x 2 o )")
    base = construct_solution(d, seed=0)
    assert base.converged
    moved = transport_hw_solution(base, 0, 1)
    assert moved.diagram == apply_entry(d, HwMove(left=0, right=1))
    assert moment_residual(moved) < 1e-10
    assert stability_report(moved).ok
    back = transport_hw_solution(moved, 1, 0)
    assert back.diagram == d
    assert moment_residual(back) < 1e-10
    assert stability_report(back).ok


def test_transport_longer_diagram():
    d = parse_diagram("( 1 x 3 o 1 x 3 o )")
    base = construct_solution(d, seed=4)
    assert base.converged
    moved = transport_hw_solution(base, 0, 1)
    assert moment_residual(moved) < 1e-9
    assert stability_report(moved).ok
    back = transport_hw_solution(moved, 1, 0)
    assert back.diagram == d
    assert moment_residual(back) < 1e-9
    assert stability_report(back).ok


def test_transport_needs_level_zero_and_adjacency():
    d = parse_diagram("( 2 x 2 o )")
    sol = zero_solution(d, {1: 0.5})
    with pytest.raises(ValueError):
        transport_hw_solution(sol, 0, 1)
    sol = zero_solution(parse_diagram("( 1 x 1 o 1 x 1 o )"))
    with pytest.raises(ValueError):
        transport_hw_solution(sol, 0, 2)


@pytest.mark.parametrize(
    "text, left, right, reason",
    [
        ("( 3 o 2 x 4 x 1 o 2 x )", 0, 2, "not adjacent"),
        ("( 3 o 2 x 4 x 1 o 2 x )", 1, 0, "not adjacent"),
        ("( 3 o 2 x 4 x 1 o 2 x )", 1, 2, "same kind"),
        ("[ 1 x 2 o 3 o 1 x 0 ]", 4, 0, "across the cut"),
        ("( 3 o 2 x 4 x 1 o 2 x )", 0, 9, "no node with id 9"),
        ("( 3 o 2 x 4 x 1 o 2 x )", 9, 0, "no node with id 9"),
    ],
)
def test_bad_swaps_are_refused_alike(text, left, right, reason):
    # the diagram move, the ledger walker and the exact transport check a
    # swap in one place, so each refuses it with one exception and message
    d = parse_diagram(text)

    def refusal(call):
        with pytest.raises((KeyError, ValueError)) as info:
            call()
        return type(info.value), str(info.value)

    want = refusal(lambda: apply_entry(d, HwMove(left, right)))
    assert reason in want[1]
    assert refusal(lambda: ledger_apply_move(synthesize(d), HwMove(left, right))) == want
    assert refusal(lambda: transport_hw_solution(zero_solution(d), left, right)) == want


def test_transport_detects_rank_collapse():
    # the all-zero point on a populated diagram is not stable, and the
    # stacked segment map collapses in rank, which transport refuses
    sol = zero_solution(parse_diagram("( 2 x 2 o )"))
    with pytest.raises(ValueError):
        transport_hw_solution(sol, 0, 1)


def test_transport_keeps_unstable_zeros_honest():
    # a level-zero point with vanishing B, b, C blocks is an exact zero
    # even when unstable; transport carries it and recomputes residual
    d = parse_diagram("( 2 x 2 o )")
    sol = zero_solution(d)
    rng = np.random.default_rng(0)
    sol.triangles[0].A = rng.standard_normal((2, 2)) + 0j
    sol.triangles[0].a = rng.standard_normal((2, 1)) + 0j
    sol.arrows[1].D = rng.standard_normal((2, 2)) + 0j
    assert moment_residual(sol) == 0.0
    moved = transport_hw_solution(sol, 0, 1)
    assert moved.residual < 1e-12


# ---------------------------------------------------------------------------
# staged construction


def test_construct_zero_diagram():
    sol = construct_solution(parse_diagram("( 0 x 0 o 0 x 0 o )"))
    assert sol.converged
    assert sol.residual == 0.0


def test_construct_rejects_non_susy():
    with pytest.raises(ValueError):
        construct_solution(parse_diagram("[ 0 o 2 x 0 ]"))


def test_construct_small_family():
    texts = [
        "( 1 x 1 o )",
        "( 2 x 1 o )",
        "( 1 x 2 o )",
        "( 3 x 2 o )",
        "( 1 x 2 o 2 x 1 o )",
        "( 2 o 2 o 1 x 1 x )",
    ]
    for text in texts:
        d = parse_diagram(text)
        assert decide_supersymmetry(d).verdict, text
        sol = construct_solution(d, seed=1)
        assert sol.converged, text
        assert sol.diagram == d
        assert sol.residual <= 1e-8
        assert sol.stable


def test_construct_thin_stratum_family():
    # these hosts admit zeros whose stable locus random starts miss;
    # only the exact swap transport reaches them reliably
    texts = [
        "( 0 x 1 x 2 x 3 o )",
        "( 0 x 2 x 2 x 3 o )",
        "( 1 x 3 o 1 x 3 o )",
    ]
    for text in texts:
        d = parse_diagram(text)
        assert decide_supersymmetry(d).verdict, text
        sol = construct_solution(d, seed=0)
        assert sol.converged, text
        assert sol.residual <= 1e-8
        assert sol.stable


def test_construct_matches_closed_form_family():
    d = parse_diagram("[ 0 o 2 o 0 x 3 x 0 ]")
    sol = construct_solution(d, seed=0)
    assert sol.converged
    assert sol.diagram == d
    assert sol.residual <= 1e-8


# both diagrams once ended in an unconverged numerical re-solve
K10_REGRESSIONS = [
    "( 0 o 1 o 4 x 4 x 3 x 0 x 4 x 2 o 4 o 2 x )",
    "( 0 x 4 o 4 x 0 x 0 o 4 x 3 x 3 o 0 o 2 o )",
]


@pytest.mark.parametrize("text", K10_REGRESSIONS)
def test_construct_k10_regressions(text):
    d = parse_diagram(text)
    sol = construct_solution(d, seed=0)
    assert sol.converged and sol.stable
    assert sol.diagram == d
    assert moment_residual(sol) <= 1e-12


@pytest.mark.parametrize("text", ["( 1 o 1 x )", "( 1 o 1 x 0 x )"])
def test_construct_undoes_arc_subtraction_exactly(text, monkeypatch):
    # w = 1 closes the arc into a full loop, w = 2 runs it x_1 -> x_2
    d = parse_diagram(text)
    assert any(isinstance(e, SubtractArrowArc) for e in decide_supersymmetry(d).pipeline)

    def refuse(*args, **kwargs):
        raise RuntimeError("construction called the numerical solver")

    monkeypatch.setattr(momentmap, "solve_lm", refuse)
    sol = construct_solution(d, seed=0)
    assert sol.converged and sol.stable
    assert sol.diagram == d
    assert moment_residual(sol) <= 1e-12


def test_construct_ignores_seed():
    d = parse_diagram(K10_REGRESSIONS[1])
    one = construct_solution(d, seed=0)
    two = construct_solution(d, seed=11)
    for nid, t in one.triangles.items():
        for name in ("A", "B_in", "B_out", "a", "b"):
            assert np.array_equal(getattr(t, name), getattr(two.triangles[nid], name))
    for nid, ad in one.arrows.items():
        assert np.array_equal(ad.C, two.arrows[nid].C)
        assert np.array_equal(ad.D, two.arrows[nid].D)


@pytest.mark.parametrize("text", [*K10_REGRESSIONS, "( 1 o 1 x 0 x )", "( 7 x 7 x 7 x 7 x )"])
def test_construct_computes_one_residual(text, monkeypatch):
    # the exact steps carry no residual; settle computes the only one
    calls = {"residual_blocks": 0, "solve_lm": 0}

    def counted(name):
        original = getattr(momentmap, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(momentmap, name, wrapper)

    counted("residual_blocks")
    counted("solve_lm")
    sol = construct_solution(parse_diagram(text), seed=0)
    assert sol.converged and sol.stable
    assert calls == {"residual_blocks": 1, "solve_lm": 0}


def refuse_numerics(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("construction called the numerical solver")

    monkeypatch.setattr(momentmap, "solve_lm", refuse)
    monkeypatch.setattr(momentmap, "solve_numeric", refuse)


@pytest.mark.parametrize("kind", ["x", "o"])
def test_construct_one_kind_sweep_is_exact(kind, monkeypatch):
    # every arrow-free or x-free diagram, k <= 4 and dims 0..4, grows from
    # the all-zero host by the increments of its ledger
    refuse_numerics(monkeypatch)
    for k in range(1, 5):
        for dims in itertools.product(range(5), repeat=k):
            d = parse_diagram("( " + " ".join(f"{v} {kind}" for v in dims) + " )")
            sol = construct_solution(d)
            assert sol.converged and sol.stable, dims
            assert sol.diagram == d
            assert sol.residual <= 1e-12, dims


@pytest.mark.parametrize("text", ["[ 0 x 2 x 0 ]", "[ 0 x 3 x 1 x 0 ]"])
def test_construct_finite_arrow_free_is_exact(text, monkeypatch):
    refuse_numerics(monkeypatch)
    d = parse_diagram(text)
    sol = construct_solution(d)
    assert sol.converged and sol.stable
    assert sol.diagram == d
    assert moment_residual(sol) <= 1e-12


def test_construct_x_free_maps_are_not_all_zero():
    sol = construct_solution(parse_diagram("( 2 o 1 o )"))
    assert sol.converged
    assert any(np.any(ad.C) for ad in sol.arrows.values())


def test_construct_failed_step_raises_naming_entry(monkeypatch):
    calls = []

    def broken(*args, **kwargs):
        raise ValueError("stacked map lost full rank; not a stable zero")

    def counted(*args, **kwargs):
        calls.append(args)

    monkeypatch.setattr(momentmap, "_kernel_with_dim", broken)
    monkeypatch.setattr(momentmap, "solve_numeric", counted)
    with pytest.raises(RuntimeError, match=r"exact step HwMove\(left=\d+, right=\d+\) failed: stacked map"):
        construct_solution(parse_diagram("( 2 x 2 o )"))
    assert calls == []


def _maps(sol):
    for t in sol.triangles.values():
        yield from (t.A, t.B_in, t.B_out, t.a, t.b)
    for ad in sol.arrows.values():
        yield from (ad.C, ad.D)


def _snapshot(sol):
    return [mat.copy() for mat in _maps(sol)]


def _public_steps(base):
    # both swap directions, an arrow arc, an x arc and a full x loop
    return [
        transport_hw_solution(base, 0, 1),
        transport_hw_solution(base, 2, 3),
        extend_increment(base, IncrementArrows(start=0, end=3, direction=CW, amount=2)),
        extend_increment(base, IncrementX(start=1, end=2, direction=ACW, amount=1)),
        extend_increment(base, IncrementX(start=1, end=1, direction=CW, amount=1)),
    ]


def test_public_steps_share_no_array_with_their_input():
    base = construct_solution(parse_diagram("( 1 o 2 x 2 x 1 o )"), seed=2)
    before = moment_residual(base)
    for out in _public_steps(base):
        assert not any(np.shares_memory(x, y) for x in _maps(out) for y in _maps(base))
        for mat in _maps(out):
            mat += 1.0
        assert moment_residual(base) == before


def test_construct_chain_steps_share_but_never_write():
    # inside construct_solution a step keeps the untouched nodes' maps
    # and leaves every array of its input as it was
    base = construct_solution(parse_diagram("( 1 o 2 x 2 x 1 o )"), seed=2)
    kept = _snapshot(base)
    moved = momentmap._Zero(base)
    moved.swap(0, 1)
    assert moved.triangles[2] is base.triangles[2]
    assert moved.arrows[3] is base.arrows[3]
    grown = momentmap._Zero(base, momentmap._spiral(1))
    grown.move(IncrementX(start=1, end=2, direction=ACW, amount=1))
    assert grown.arrows[0] is base.arrows[0]
    assert grown.arrows[3] is base.arrows[3]
    assert all(np.array_equal(x, y) for x, y in zip(_snapshot(base), kept, strict=True))


@pytest.mark.parametrize("text", [*K10_REGRESSIONS, "( 1 o 1 x 0 x )", "( 1 x 3 o 1 x 3 o )"])
def test_construct_result_maps_share_no_memory(text):
    maps = list(_maps(construct_solution(parse_diagram(text), seed=0)))
    for i, one in enumerate(maps):
        for two in maps[i + 1 :]:
            assert not np.shares_memory(one, two)


def test_extend_full_x_loop_keeps_residual():
    base = construct_solution(parse_diagram("( 1 o 2 x 2 x 1 o )"), seed=2)
    entry = IncrementX(start=1, end=1, direction=CW, amount=2)
    out = extend_increment(base, entry)
    assert out.diagram == apply_entry(base.diagram, entry)
    assert moment_residual(out) < 1e-10
    assert stability_report(out).ok


def test_generic_bases_are_unitary_read_only_and_kept():
    bases = momentmap._BASES
    d = parse_diagram("( " + " ".join(f"{m} x" for m in range(17)) + " )")
    momentmap._generic_basis(zero_solution(d))
    construct_solution(parse_diagram("( 1 x 2 o 2 x 1 o )"))
    assert momentmap._BASES is bases
    for m in range(17):
        g, h = bases[m]
        # the closed form of _generic_basis, computed afresh
        r = np.arange(m)
        n = max(m, 1)
        fourier = np.exp((-2j * math.pi / n) * (np.outer(r, r) % n)) / math.sqrt(n)
        fresh = np.exp(1j * math.sqrt(2) * r**2)[:, None] * fourier * np.exp(1j * math.sqrt(3) * r**2)
        assert g.tobytes() == fresh.tobytes() and h.tobytes() == fresh.conj().T.tobytes(), m
        assert np.abs(g @ h - np.eye(m)).max(initial=0.0) <= 1e-12, m
        for mat in (g, h):
            with pytest.raises(ValueError, match="read-only"):
                mat[..., :1] = 0


def test_generic_bases_fill_on_first_use_not_at_import():
    code = "import sys, bowforge; print(bowforge.momentmap._BASES == {}, 'numpy' in sys.modules)"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.split() == ["True", "False"]


# ---------------------------------------------------------------------------
# serialization


def test_solution_json_round_trip():
    sol = construct_solution(parse_diagram("( 1 x 2 o 2 x 1 o )"), seed=3)
    data = solution_to_json(sol)
    clone = solution_from_json(data)
    assert clone.diagram == sol.diagram
    assert clone.converged == sol.converged
    assert clone.stable == sol.stable
    assert abs(moment_residual(clone) - moment_residual(sol)) < 1e-12
    for nid, t in sol.triangles.items():
        assert np.allclose(clone.triangles[nid].A, t.A)
        assert np.allclose(clone.triangles[nid].b, t.b)
    for nid, ad in sol.arrows.items():
        assert np.allclose(clone.arrows[nid].C, ad.C)
        assert np.allclose(clone.arrows[nid].D, ad.D)


def test_solution_json_keeps_level():
    d = parse_diagram("( 1 x 1 o )")
    sol = zero_solution(d, {1: 0.25 + 1j})
    clone = solution_from_json(solution_to_json(sol))
    assert clone.lam == {1: 0.25 + 1j}
