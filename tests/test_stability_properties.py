"""The closure routine against the two loops it replaced.

``stability_report`` reads both conditions from one invariant-subspace
closure.  The loops below are the earlier implementation: S1 from a
chain of null spaces, S2 from the rank of the raw Krylov matrix.  On
small integer triangles, where neither loses rank to rounding, both
must report the same ``chain_dim`` and ``krylov_rank``.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from bowforge.diagram import NodeKind, parse_diagram
from bowforge.momentmap import stability_report, zero_solution

RTOL = 1e-6


def null_space(mat: np.ndarray) -> np.ndarray:
    """Orthonormal kernel basis, tolerance floored at the unit scale."""

    if mat.shape[0] == 0:
        return np.eye(mat.shape[1], dtype=complex)
    if mat.shape[1] == 0:
        return np.zeros((0, 0), dtype=complex)
    _, s, vh = np.linalg.svd(mat)
    tol = RTOL * max(float(s[0]) if s.size else 0.0, 1.0)
    return vh[int(np.sum(s > tol)) :].conj().T


def matrix_rank(mat: np.ndarray) -> int:
    if min(mat.shape) == 0:
        return 0
    s = np.linalg.svd(mat, compute_uv=False)
    return int(np.sum(s > RTOL * max(float(s[0]), 1.0)))


def oracle(t) -> tuple[int, int]:
    """(chain_dim, krylov_rank) by the kernel chain and the Krylov matrix."""

    v_in = t.B_in.shape[0]
    v_out = t.B_out.shape[0]
    chain_dim = 0
    if v_in > 0:
        basis = null_space(np.vstack([t.A, t.b]))
        while basis.shape[1] > 0:
            perp = null_space(basis.conj().T)
            if perp.shape[1] == 0:
                shrunk = basis
            else:
                shrunk = basis @ null_space(perp.conj().T @ t.B_in @ basis)
            if shrunk.shape[1] == basis.shape[1]:
                break
            basis = shrunk
        chain_dim = basis.shape[1]

    krylov_rank = 0
    if v_out > 0:
        span = np.hstack([t.A, t.a])
        krylov = [span]
        for _ in range(v_out):
            span = t.B_out @ span
            krylov.append(span)
        krylov_rank = matrix_rank(np.hstack(krylov))
    return chain_dim, krylov_rank


@st.composite
def triangle_solutions(draw, max_dim=6):
    """One x point between segments of dims ≤ ``max_dim``, entries in -1..1.

    A is a product through a drawn inner dimension, so it is often
    rank-deficient; a and b are often zero.
    """

    v_in = draw(st.integers(0, max_dim))
    v_out = draw(st.integers(0, max_dim))

    def ints(rows, cols):
        entries = draw(st.lists(st.integers(-1, 1), min_size=rows * cols, max_size=rows * cols))
        return np.array(entries, dtype=complex).reshape(rows, cols)

    inner = draw(st.integers(0, max_dim))
    sol = zero_solution(parse_diagram(f"[ 0 o {v_in} x {v_out} o 0 ]"))
    (xid,) = [n.id for n in sol.diagram.nodes if n.kind == NodeKind.XPOINT]
    t = sol.triangles[xid]
    t.A = ints(v_out, inner) @ ints(inner, v_in)
    t.B_in = ints(v_in, v_in)
    t.B_out = ints(v_out, v_out)
    t.a = ints(v_out, 1)
    t.b = ints(1, v_in)
    return sol, xid


@settings(max_examples=200, deadline=None)
@given(triangle_solutions())
def test_closure_matches_chain_and_krylov_oracle(drawn):
    sol, xid = drawn
    t = sol.triangles[xid]
    entry = stability_report(sol).entries[xid]
    assert (entry.chain_dim, entry.krylov_rank) == oracle(t)
    assert entry.s1 == (entry.chain_dim == 0)
    assert entry.s2 == (entry.krylov_rank == t.B_out.shape[0])
