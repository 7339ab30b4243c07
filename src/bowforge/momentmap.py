"""Numerical moment-map solutions on bow diagrams.

Every x point carries a triangle of linear maps between the vector
spaces of its two neighbouring segments, plus a one-dimensional tail:

    A: in -> out    B_in: in -> in    B_out: out -> out
    a: C -> out     b: in -> C

Every arrow carries a dual pair C: tail -> head, D: head -> tail.
The moment map collects one square matrix per segment and one triangle
relation per x point; a solution drives them all to zero at a chosen
level.  Two rank conditions per x point cut the solution set down to
the stable locus; only stable zeros count.

``construct_solution`` builds level-zero zeros on supersymmetric
diagrams by exact linear algebra alone: swap transports and arc
increments.  The Levenberg-Marquardt solver is used only by
``solve_numeric``, which serves non-zero levels, diagrams without
arrows, and the fallback when an exact step fails.

All computations use dense complex128 arrays; diagram dimensions stay
small enough that dense linear algebra is the honest choice.  numpy is
imported on the first matrix operation, not with the package: deciding
and certifying are integer work, so ``check``, ``synth`` and the other
combinatorial CLI verbs never load it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .diagram import (
    BowDiagram,
    CutAt,
    HwMove,
    IncrementArrows,
    IncrementX,
    NodeKind,
    diagram_from_json,
    diagram_to_json,
)
from .rewrite import _increment_segments, apply_entry, arc_increment


class _LazyNumpy:
    """Stands in for numpy until the first attribute lookup.

    That lookup imports numpy and rebinds the module global ``np`` to it,
    so every later call reads the real module directly.
    """

    def __getattr__(self, name: str):
        global np
        import numpy

        np = numpy
        return getattr(numpy, name)


np = _LazyNumpy()

# ---------------------------------------------------------------------------
# data model


@dataclass
class TriangleData:
    """Maps attached to one x point."""

    A: np.ndarray
    B_in: np.ndarray
    B_out: np.ndarray
    a: np.ndarray
    b: np.ndarray


@dataclass
class ArrowData:
    """Dual pair attached to one arrow."""

    C: np.ndarray
    D: np.ndarray


@dataclass
class Solution:
    diagram: BowDiagram
    triangles: dict[int, TriangleData]
    arrows: dict[int, ArrowData]
    lam: dict[int, complex] = field(default_factory=dict)
    seed: int | None = None
    residual: float = 0.0
    converged: bool = False
    stable: bool = False


def _seg_dims(d: BowDiagram, node_id: int) -> tuple[int, int]:
    """(incoming, outgoing) segment dimensions at a node."""

    pos = d.position(node_id)
    return d.dims[(pos - 1) % d.k], d.dims[pos]


def zero_solution(d: BowDiagram, lam: dict[int, complex] | None = None) -> Solution:
    """All maps zero; exact when every product term vanishes anyway."""

    triangles = {}
    arrows = {}
    for node in d.nodes:
        v_in, v_out = _seg_dims(d, node.id)
        if node.kind == NodeKind.XPOINT:
            triangles[node.id] = TriangleData(
                A=np.zeros((v_out, v_in), dtype=complex),
                B_in=np.zeros((v_in, v_in), dtype=complex),
                B_out=np.zeros((v_out, v_out), dtype=complex),
                a=np.zeros((v_out, 1), dtype=complex),
                b=np.zeros((1, v_in), dtype=complex),
            )
        else:
            arrows[node.id] = ArrowData(
                C=np.zeros((v_out, v_in), dtype=complex),
                D=np.zeros((v_in, v_out), dtype=complex),
            )
    return Solution(diagram=d, triangles=triangles, arrows=arrows, lam=dict(lam or {}))


# ---------------------------------------------------------------------------
# residual


def residual_blocks(sol: Solution) -> list[np.ndarray]:
    """One square block per segment, then one triangle block per x."""

    d = sol.diagram
    k = d.k
    blocks = []
    for seg in range(k):
        left = d.nodes[seg]
        right = d.nodes[(seg + 1) % k]
        m = d.dims[seg]
        block = np.zeros((m, m), dtype=complex)
        if left.kind == NodeKind.ARROW:
            ad = sol.arrows[left.id]
            block = block + ad.C @ ad.D
            block = block - complex(sol.lam.get(left.id, 0.0)) * np.eye(m)
        else:
            block = block - sol.triangles[left.id].B_out
        if right.kind == NodeKind.ARROW:
            ad = sol.arrows[right.id]
            block = block - ad.D @ ad.C
        else:
            block = block + sol.triangles[right.id].B_in
        blocks.append(block)
    for node in d.nodes:
        if node.kind == NodeKind.XPOINT:
            t = sol.triangles[node.id]
            blocks.append(t.B_out @ t.A - t.A @ t.B_in + t.a @ t.b)
    return blocks


def moment_residual(sol: Solution) -> float:
    total = 0.0
    for block in residual_blocks(sol):
        total += float(np.sum(np.abs(block) ** 2))
    return float(np.sqrt(total))


# ---------------------------------------------------------------------------
# stability


def _null_space(mat: np.ndarray, rtol: float) -> np.ndarray:
    """Orthonormal kernel basis; tolerance floored at the unit scale so
    a block that merely converged to zero is treated as zero."""

    if mat.shape[0] == 0:
        return np.eye(mat.shape[1], dtype=complex)
    if mat.shape[1] == 0:
        return np.zeros((0, 0), dtype=complex)
    u, s, vh = np.linalg.svd(mat)
    tol = rtol * max(float(s[0]) if s.size else 0.0, 1.0)
    rank = int(np.sum(s > tol))
    return vh[rank:].conj().T


def _matrix_rank(mat: np.ndarray, rtol: float) -> int:
    if min(mat.shape) == 0:
        return 0
    s = np.linalg.svd(mat, compute_uv=False)
    tol = rtol * max(float(s[0]) if s.size else 0.0, 1.0)
    return int(np.sum(s > tol))


@dataclass
class XStability:
    """Per x-point stability facts: triangle residual plus both ranks."""

    cond_a: float
    s1: bool
    s2: bool
    chain_dim: int
    krylov_rank: int


@dataclass
class StabilityReport:
    entries: dict[int, XStability]
    rtol: float

    @property
    def ok(self) -> bool:
        return all(e.s1 and e.s2 for e in self.entries.values())


def stability_report(sol: Solution, rtol: float = 1e-6) -> StabilityReport:
    """Both rank conditions at every x point, with the evidence.

    First condition: the kernel of the stacked [A; b] admits no
    invariant subspace under B_in except zero; the chain of kernel
    intersections must shrink to nothing.  Second: the columns of
    [A | a] generate everything under repeated B_out.
    """

    entries: dict[int, XStability] = {}
    for node in sol.diagram.nodes:
        if node.kind != NodeKind.XPOINT:
            continue
        t = sol.triangles[node.id]
        v_in = t.B_in.shape[0]
        v_out = t.B_out.shape[0]
        cond_a = float(np.linalg.norm(t.B_out @ t.A - t.A @ t.B_in + t.a @ t.b))

        chain_dim = 0
        if v_in > 0:
            basis = _null_space(np.vstack([t.A, t.b]), rtol)
            while basis.shape[1] > 0:
                perp = _null_space(basis.conj().T, rtol)
                if perp.shape[1] == 0:
                    shrunk = basis
                else:
                    coeff = _null_space(perp.conj().T @ t.B_in @ basis, rtol)
                    shrunk = basis @ coeff
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
            krylov_rank = _matrix_rank(np.hstack(krylov), rtol)

        entries[node.id] = XStability(
            cond_a=cond_a,
            s1=chain_dim == 0,
            s2=krylov_rank == v_out,
            chain_dim=chain_dim,
            krylov_rank=krylov_rank,
        )
    return StabilityReport(entries=entries, rtol=rtol)


def stability_check(sol: Solution, rtol: float = 1e-6) -> bool:
    return stability_report(sol, rtol).ok


# ---------------------------------------------------------------------------
# packing and the analytic Jacobian


def _param_layout(d: BowDiagram):
    """Deterministic (owner, field, shape, offset) table for packing."""

    layout = []
    offset = 0
    for node in sorted(d.nodes, key=lambda nd: nd.id):
        v_in, v_out = _seg_dims(d, node.id)
        if node.kind == NodeKind.XPOINT:
            fields = [
                ("A", (v_out, v_in)),
                ("B_in", (v_in, v_in)),
                ("B_out", (v_out, v_out)),
                ("a", (v_out, 1)),
                ("b", (1, v_in)),
            ]
        else:
            fields = [("C", (v_out, v_in)), ("D", (v_in, v_out))]
        for name, shape in fields:
            size = shape[0] * shape[1]
            layout.append((node.id, name, shape, offset))
            offset += size
    return layout, offset


def _unpack(d: BowDiagram, z: np.ndarray, layout, lam) -> Solution:
    sol = zero_solution(d, lam)
    for node_id, name, shape, offset in layout:
        owner = sol.triangles.get(node_id)
        if owner is None:
            owner = sol.arrows[node_id]
        setattr(owner, name, z[offset : offset + shape[0] * shape[1]].reshape(shape))
    return sol


def _complex_jacobian(sol: Solution, layout, size) -> tuple[np.ndarray, np.ndarray]:
    """Holomorphic Jacobian of the stacked residual, plus the residual.

    For a product R = X Y in row-major layout, dR/dX = I (x) Y^T and
    dR/dY = X (x) I.
    """

    d = sol.diagram
    k = d.k
    slot = {(node_id, name): (shape, offset) for node_id, name, shape, offset in layout}

    blocks = residual_blocks(sol)
    rows = sum(block.size for block in blocks)
    jac = np.zeros((rows, size), dtype=complex)
    res = np.concatenate([block.reshape(-1) for block in blocks]) if rows else np.zeros(0, dtype=complex)

    def add(row0, block_rows, node_id, name, mat):
        shape, offset = slot[(node_id, name)]
        jac[row0 : row0 + block_rows, offset : offset + shape[0] * shape[1]] += mat

    row0 = 0
    for seg in range(k):
        m = d.dims[seg]
        rows_here = m * m
        left = d.nodes[seg]
        right = d.nodes[(seg + 1) % k]
        eye = np.eye(m)
        if left.kind == NodeKind.ARROW:
            ad = sol.arrows[left.id]
            add(row0, rows_here, left.id, "C", np.kron(eye, ad.D.T))
            add(row0, rows_here, left.id, "D", np.kron(ad.C, eye))
        else:
            add(row0, rows_here, left.id, "B_out", -np.eye(rows_here))
        if right.kind == NodeKind.ARROW:
            ad = sol.arrows[right.id]
            add(row0, rows_here, right.id, "D", -np.kron(eye, ad.C.T))
            add(row0, rows_here, right.id, "C", -np.kron(ad.D, eye))
        else:
            add(row0, rows_here, right.id, "B_in", np.eye(rows_here))
        row0 += rows_here
    for node in d.nodes:
        if node.kind != NodeKind.XPOINT:
            continue
        t = sol.triangles[node.id]
        v_out, v_in = t.A.shape
        rows_here = v_out * v_in
        add(row0, rows_here, node.id, "B_out", np.kron(np.eye(v_out), t.A.T))
        add(
            row0,
            rows_here,
            node.id,
            "A",
            np.kron(t.B_out, np.eye(v_in)) - np.kron(np.eye(v_out), t.B_in.T),
        )
        add(row0, rows_here, node.id, "B_in", -np.kron(t.A, np.eye(v_in)))
        add(row0, rows_here, node.id, "a", np.kron(np.eye(v_out), t.b.T))
        add(row0, rows_here, node.id, "b", np.kron(t.a, np.eye(v_in)))
        row0 += rows_here
    return jac, res


def _real_jr(d: BowDiagram, layout, size, lam):
    """Real-valued (jacobian, residual) callable over stacked Re/Im."""

    def jr(x: np.ndarray):
        z = x[:size] + 1j * x[size:]
        sol = _unpack(d, z, layout, lam)
        jac, res = _complex_jacobian(sol, layout, size)
        top = np.hstack([jac.real, -jac.imag])
        bot = np.hstack([jac.imag, jac.real])
        return np.vstack([top, bot]), np.concatenate([res.real, res.imag])

    return jr


# ---------------------------------------------------------------------------
# damped least squares


def solve_lm(jr, x0, regu=1e-4, max_iter=250, eps=1e-28, seps=1e-15):
    """Levenberg-Marquardt with multiplicative damping control.

    jr returns the (jacobian, residual) pair at a point; iteration
    stops at tiny cost, tiny steps, or runaway damping.
    """

    x = np.asarray(x0, dtype=float)
    damp = regu
    jac, res = jr(x)
    cost = float(res @ res)
    for _ in range(max_iter):
        if cost < eps:
            break
        lhs = jac.T @ jac
        rhs = jac.T @ res
        stalled = False
        while True:
            step, *_ = np.linalg.lstsq(
                lhs + damp * np.eye(lhs.shape[0]), rhs, rcond=None
            )
            x_try = x - step
            jac_try, res_try = jr(x_try)
            cost_try = float(res_try @ res_try)
            if cost_try < cost:
                x, jac, res, cost = x_try, jac_try, res_try, cost_try
                damp = max(damp / 3.0, 1e-12)
                break
            damp *= 4.0
            if damp > 1e14:
                stalled = True
                break
        if stalled or float(np.linalg.norm(step)) < seps:
            break
    return x, float(np.sqrt(cost))


# ---------------------------------------------------------------------------
# numerical search


def _accept_threshold(lam: dict[int, complex]) -> float:
    level = sum(abs(complex(v)) ** 2 for v in lam.values())
    return 1e-8 * (1.0 + level)


def settle(sol: Solution, tol: float | None = None) -> StabilityReport:
    """Recompute residual and stability, then decide convergence.

    A solution is converged when it is stable and its residual is at
    most ``tol``, by default ``_accept_threshold`` of its level.  The
    report comes back for callers that show the evidence.
    """

    report = stability_report(sol)
    sol.residual = moment_residual(sol)
    sol.stable = report.ok
    threshold = _accept_threshold(sol.lam) if tol is None else tol
    sol.converged = sol.residual <= threshold and sol.stable
    return report


def solve_numeric(
    d: BowDiagram,
    lam: dict[int, complex] | None = None,
    seed: int = 0,
    retries: int = 6,
) -> Solution:
    """Search for a stable moment-map zero from random starts.

    This is the only caller of the Levenberg-Marquardt solver.  Never
    raises on failure: the best attempt comes back with ``converged``
    False so callers can report honestly.
    """

    lam = dict(lam or {})
    layout, size = _param_layout(d)
    if size == 0 or max(d.dims, default=0) == 0:
        sol = zero_solution(d, lam)
        sol.seed = seed
        settle(sol)
        return sol

    jr = _real_jr(d, layout, size, lam)
    best: Solution | None = None
    for attempt in range(retries):
        attempt_seed = seed + 1000 * attempt
        rng = np.random.default_rng(attempt_seed)
        x0 = np.concatenate(
            [rng.standard_normal(size), rng.standard_normal(size)]
        )
        x, _ = solve_lm(jr, x0)
        sol = _unpack(d, x[:size] + 1j * x[size:], layout, lam)
        sol.seed = attempt_seed
        settle(sol)
        if sol.converged:
            return sol
        if best is None or sol.residual < best.residual:
            best = sol
    return best


# ---------------------------------------------------------------------------
# exact extensions along increments


def _extend_block(mat: np.ndarray, rows: int, cols: int) -> np.ndarray:
    out = np.zeros((mat.shape[0] + rows, mat.shape[1] + cols), dtype=complex)
    out[: mat.shape[0], : mat.shape[1]] = mat
    return out


def _copy_solution(sol: Solution) -> Solution:
    return Solution(
        diagram=sol.diagram,
        triangles={
            nid: TriangleData(t.A.copy(), t.B_in.copy(), t.B_out.copy(), t.a.copy(), t.b.copy())
            for nid, t in sol.triangles.items()
        },
        arrows={nid: ArrowData(ad.C.copy(), ad.D.copy()) for nid, ad in sol.arrows.items()},
        lam=dict(sol.lam),
        seed=sol.seed,
        residual=sol.residual,
        converged=sol.converged,
        stable=sol.stable,
    )


_SHIFT_GAP = 1e-3


def _pick_shift(mats: list[np.ndarray], c: complex | None) -> complex:
    """Shift scalar at least _SHIFT_GAP away from every spectrum.

    A given shift is checked; otherwise the first point of the golden
    angle walk exp(2 pi i 0.618034 j), j = 1, 2, ..., on the unit
    circle that is clear of them all is taken.
    """

    spectrum = np.concatenate([np.linalg.eigvals(mat) for mat in mats])

    def clear(z: complex) -> bool:
        return spectrum.size == 0 or float(np.min(np.abs(spectrum - z))) >= _SHIFT_GAP

    if c is not None:
        if not clear(complex(c)):
            raise ValueError(f"shift {c} does not keep the shifted blocks invertible")
        return complex(c)
    j = 1
    while not clear(z := complex(np.exp(2j * np.pi * 0.618034 * j))):
        j += 1
    return z


def _shifted_inv(mat: np.ndarray, c: complex) -> np.ndarray:
    return np.linalg.inv(mat - c * np.eye(mat.shape[0]))


def _extend_arc_unit(
    sol: Solution, entry: IncrementArrows | IncrementX, c: complex | None
) -> Solution:
    """Grow every segment of the entry's arc by one dimension, exactly.

    Every segment block gains the entry -c from its anticlockwise node
    and +c from its clockwise node.  Inside the arc an arrow gets the
    pair C = 1, D = -c and an x point the unit in A.  An x point ending
    the arc grows one side only; the (B - c)^-1 trick keeps its
    triangle at zero: the end whose incoming segment grows gains the A
    column -(B_out - c)^-1 a and the b entry 1, the end whose outgoing
    segment grows gains the A row b (B_in - c)^-1 and the a entry 1.  A
    full loop from an x point to itself does both at that point.  Arrow
    arcs end at arrows, which are zero-padded, so their shift is 0.
    """

    if any(abs(complex(v)) > 0 for v in sol.lam.values()):
        raise ValueError("exact arc extension needs level zero")
    d = sol.diagram
    covered = set(_increment_segments(d, entry))
    if isinstance(entry, IncrementX):
        ends = [sol.triangles[entry.start], sol.triangles[entry.end]]
        c = _pick_shift([m for t in ends for m in (t.B_in, t.B_out)], c)
    else:
        c = 0j
    out = _copy_solution(sol)
    for pos, node in enumerate(d.nodes):
        grow_in = (pos - 1) % d.k in covered
        grow_out = pos in covered
        if not (grow_in or grow_out):
            continue
        if node.kind == NodeKind.ARROW:
            ad = out.arrows[node.id]
            # head rows track the outgoing segment, tail columns the incoming
            ad.C = _extend_block(ad.C, grow_out, grow_in)
            ad.D = _extend_block(ad.D, grow_in, grow_out)
            if grow_in and grow_out:
                ad.C[-1, -1] = 1.0
                ad.D[-1, -1] = -c
            continue
        t = out.triangles[node.id]
        if grow_in and grow_out:
            # a full loop is its own outgoing end: b feeds the new row
            loop = node.id == entry.start == entry.end
            row = t.b @ _shifted_inv(t.B_in, c) if loop else np.zeros((1, t.A.shape[1]))
            t.A = np.block([[t.A, np.zeros((t.A.shape[0], 1))], [row, np.ones((1, 1))]])
            t.a = np.vstack([t.a, np.full((1, 1), 1.0 if loop else 0.0)])
            t.b = _extend_block(t.b, 0, 1)
        elif grow_out:
            t.A = np.vstack([t.A, t.b @ _shifted_inv(t.B_in, c)])
            t.a = np.vstack([t.a, np.ones((1, 1))])
        else:
            t.A = np.hstack([t.A, -_shifted_inv(t.B_out, c) @ t.a])
            t.b = np.hstack([t.b, np.ones((1, 1))])
        if grow_in:
            t.B_in = _extend_block(t.B_in, 1, 1)
            t.B_in[-1, -1] = c
        if grow_out:
            t.B_out = _extend_block(t.B_out, 1, 1)
            t.B_out[-1, -1] = c
    dims = tuple(v + (1 if seg in covered else 0) for seg, v in enumerate(d.dims))
    out.diagram = BowDiagram(nodes=d.nodes, dims=dims, cut=d.cut)
    return out


def extend_increment(sol: Solution, entry, c: complex | None = None) -> Solution:
    """Exactly extend a level-zero solution along one increment entry.

    The optional shift scalar applies to arcs between two x points.  A
    given shift is used for the first unit only: that unit puts it on
    the end triangles' diagonals, so every later unit, and every unit
    when it is omitted, chooses one clear of the end triangles' spectra.
    """

    if not isinstance(entry, (IncrementArrows, IncrementX)):
        raise ValueError(f"cannot extend along {entry!r}")
    out = sol
    for _ in range(entry.amount):
        out = _extend_arc_unit(out, entry, c)
        c = None
    return out


# ---------------------------------------------------------------------------
# exact transport across a swap


def _kernel_with_dim(mat: np.ndarray, want: int) -> np.ndarray:
    """Orthonormal kernel basis whose dimension is known in advance.

    Raises when the singular spectrum shows no clean gap at the
    expected rank; that means the input was not a stable zero.
    """

    cols = mat.shape[1]
    rank = cols - want
    if rank < 0:
        raise ValueError("kernel cannot exceed the ambient dimension")
    if cols == 0:
        return np.zeros((0, 0), dtype=complex)
    if mat.shape[0] == 0:
        if rank != 0:
            raise ValueError("empty map cannot have full rank")
        return np.eye(cols, dtype=complex)
    u, s, vh = np.linalg.svd(mat, full_matrices=True)
    scale = max(float(s[0]) if s.size else 0.0, 1.0)
    if rank > 0 and (s.size < rank or s[rank - 1] <= 1e-9 * scale):
        raise ValueError("stacked map lost full rank; not a stable zero")
    if s.size > rank and s[rank] > 1e-5 * scale:
        raise ValueError("stacked map kernel larger than the swap allows")
    return vh[rank:].conj().T


def transport_hw_solution(sol: Solution, left: int, right: int) -> Solution:
    """Exactly carry a level-zero stable zero across one swap.

    The two named nodes must sit on adjacent positions in that order.
    The segment between them is replaced the same way the diagram move
    replaces it; the new maps come from an orthonormal kernel (x before
    arrow) or cokernel (arrow before x) basis of the three maps stacked
    over the disappearing segment, so no numerical search is involved
    and the residual stays at the input level.
    """

    if any(abs(complex(v)) > 0 for v in sol.lam.values()):
        raise ValueError("exact swap transport needs level zero")
    d = sol.diagram
    pos_l = d.position(left)
    pos_r = d.position(right)
    if (pos_l + 1) % d.k != pos_r:
        raise ValueError("swap transport needs adjacent nodes")
    host = apply_entry(d, HwMove(left=left, right=right))
    v_minus = d.dims[(pos_l - 1) % d.k]
    v_plus = d.dims[pos_r]
    v_new = host.dims[pos_l]
    out = _copy_solution(sol)
    out.diagram = host

    if d.node_by_id(left).kind == NodeKind.XPOINT:
        # x moves right past the arrow; the new segment is the kernel
        # of [A | D | a], which is onto by the spanning rank condition
        t = sol.triangles[left]
        ad = sol.arrows[right]
        basis = _kernel_with_dim(np.hstack([t.A, ad.D, t.a]), v_new)
        k_minus = basis[:v_minus]
        k_tail = basis[v_minus + v_plus :]
        stack = np.vstack([-t.B_in, -ad.C @ t.A, t.b])
        c_new = basis.conj().T @ stack
        out.arrows[right] = ArrowData(C=c_new, D=k_minus)
        out.triangles[left] = TriangleData(
            A=basis[v_minus : v_minus + v_plus],
            B_in=-c_new @ k_minus,
            B_out=-ad.C @ ad.D,
            a=-ad.C @ t.a,
            b=k_tail,
        )
    else:
        # arrow moves right past the x; the new segment is the cokernel
        # of stacked [D; A; b], injective by the kernel rank condition
        ad = sol.arrows[left]
        t = sol.triangles[right]
        theta = np.vstack([ad.D, t.A, t.b])
        basis = _kernel_with_dim(theta.conj().T, v_new)
        q_minus = basis[:v_minus]
        q_plus = basis[v_minus : v_minus + v_plus]
        q_tail = basis[v_minus + v_plus :]
        c_new = -t.A @ ad.C @ q_minus - t.B_out @ q_plus - t.a @ q_tail
        d_new = q_plus.conj().T
        out.arrows[left] = ArrowData(C=c_new, D=d_new)
        out.triangles[right] = TriangleData(
            A=q_minus.conj().T,
            B_in=-ad.D @ ad.C,
            B_out=-d_new @ c_new,
            a=q_tail.conj().T,
            b=t.b @ ad.C,
        )
    out.residual = moment_residual(out)
    return out


# ---------------------------------------------------------------------------
# staged construction


def _generic_basis(sol: Solution) -> Solution:
    """The same zero written in a fixed generic unitary basis per segment.

    The exact steps produce coordinate-aligned zeros (diagonal B blocks,
    b = 0 after full loops) on which changing a single entry can land on
    another zero; in a generic basis every entry is tied to the
    relations.  The basis comes from a fixed generator, so the result
    does not depend on any seed; the standard-library one keeps the
    exact path clear of the memory numpy.random takes up.
    """

    d = sol.diagram
    rng = random.Random(0)
    bases = []
    for m in d.dims:
        z = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(m * m)]
        bases.append(np.linalg.qr(np.array(z).reshape(m, m))[0])
    out = _copy_solution(sol)
    for pos, node in enumerate(d.nodes):
        g_in, g_out = bases[(pos - 1) % d.k], bases[pos]
        if node.kind == NodeKind.XPOINT:
            t = out.triangles[node.id]
            t.A = g_out @ t.A @ g_in.conj().T
            t.B_in = g_in @ t.B_in @ g_in.conj().T
            t.B_out = g_out @ t.B_out @ g_out.conj().T
            t.a = g_out @ t.a
            t.b = t.b @ g_in.conj().T
        else:
            ad = out.arrows[node.id]
            ad.C = g_out @ ad.C @ g_in.conj().T
            ad.D = g_in @ ad.D @ g_out.conj().T
    return out


def construct_solution(d: BowDiagram, seed: int = 0) -> Solution:
    """Stable level-zero moment-map solution on a supersymmetric diagram.

    Builds the certified finite layout first, grows it from nothing by
    exact swap transports and increments, then walks the decision
    pipeline backwards to the original diagram: swaps by transport, arc
    subtractions by the increment that undoes them.  Every step is exact
    linear algebra, so the result does not depend on ``seed``.  Only
    diagrams without arrows, and a failed exact path, go to the
    numerical search of ``solve_numeric`` with that seed; an unconverged
    result is returned rather than raised.
    """

    from .branes import (
        BraneLedger,
        brane_is_fixed,
        coverage,
        greedy_fixed_counts,
        ledger_apply_move,
        synthesize_finite,
    )
    from .susy import _decide_full

    cert, fin = _decide_full(d)
    if not cert.verdict:
        raise ValueError("diagram is not supersymmetric; no stable zero exists")

    if max(d.dims, default=0) == 0 or d.n_xpoints == 0:
        sol = zero_solution(d)
        sol.seed = seed
        settle(sol)
        return sol
    if d.n_arrows == 0:
        return solve_numeric(d, seed=seed)

    ledger = synthesize_finite(fin)
    counts, _ = greedy_fixed_counts(fin.v_arr, fin.v_x)
    fixed = {
        brane: mult
        for brane, mult in ledger.branes.items()
        if brane_is_fixed(fin.diagram, brane)
    }
    unfixed = {brane: mult for brane, mult in ledger.branes.items() if brane not in fixed}

    fix_led = BraneLedger(fin.diagram, dict(fixed))
    fix_dims = coverage(fix_led)
    fix_led.diagram = BowDiagram(nodes=fin.diagram.nodes, dims=fix_dims, cut=fin.diagram.cut)

    # march every x point clockwise through the arrows its fixed branes
    # attach to; each crossing annihilates one brane, ending at nothing
    staging = []
    for i in range(1, fin.w + 1):
        pulls = sum(1 for f in counts if f >= i)
        x_id = fin.x_ids[i - 1]
        for _ in range(pulls):
            pos = fix_led.diagram.position(x_id)
            neighbor = fix_led.diagram.nodes[(pos - 1) % fix_led.diagram.k]
            assert neighbor.kind == NodeKind.ARROW
            entry = HwMove(left=neighbor.id, right=x_id)
            fix_led = ledger_apply_move(fix_led, entry)
            staging.append(entry)
    assert max(fix_led.diagram.dims) == 0, "staging did not empty the layout"
    assert not fix_led.branes

    sol: Solution | None = zero_solution(fix_led.diagram)
    try:
        for entry in reversed(staging):
            sol = transport_hw_solution(sol, entry.right, entry.left)
        # unfixed branes are increments on top of the fixed skeleton
        for brane in sorted(
            unfixed, key=lambda br: (br.start, br.end, br.direction.value, br.laps)
        ):
            assert brane.laps == 0
            kind = fin.diagram.node_by_id(brane.start).kind
            increment = IncrementArrows if kind == NodeKind.ARROW else IncrementX
            sol = extend_increment(
                sol, increment(brane.start, brane.end, brane.direction, unfixed[brane])
            )
        assert sol.diagram == fin.diagram

        for entry in reversed(cert.pipeline):
            if isinstance(entry, CutAt):
                sol = _copy_solution(sol)
                sol.diagram = apply_entry(sol.diagram, entry, inverse=True)
            elif isinstance(entry, HwMove):
                sol = transport_hw_solution(sol, entry.right, entry.left)
            else:
                sol = extend_increment(sol, arc_increment(sol.diagram, entry))
        assert sol.diagram == d
    except ValueError:
        sol = None

    if sol is not None:
        sol = _generic_basis(sol)
        sol.seed = seed
        settle(sol)
        if sol.converged:
            return sol
    direct = solve_numeric(d, seed=seed)
    return direct if sol is None or direct.converged else sol


# ---------------------------------------------------------------------------
# serialization


def _matrix_to_json(mat: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in mat]


def _matrix_from_json(data, shape) -> np.ndarray:
    out = np.zeros(shape, dtype=complex)
    for i, row in enumerate(data):
        for j, pair in enumerate(row):
            out[i, j] = complex(pair[0], pair[1])
    return out


def solution_to_json(sol: Solution) -> dict:
    return {
        "diagram": diagram_to_json(sol.diagram),
        "lambda": {str(nid): [float(complex(v).real), float(complex(v).imag)] for nid, v in sol.lam.items()},
        "triangles": {
            str(nid): {
                "A": _matrix_to_json(t.A),
                "B_in": _matrix_to_json(t.B_in),
                "B_out": _matrix_to_json(t.B_out),
                "a": _matrix_to_json(t.a),
                "b": _matrix_to_json(t.b),
            }
            for nid, t in sol.triangles.items()
        },
        "arrows": {
            str(nid): {"C": _matrix_to_json(ad.C), "D": _matrix_to_json(ad.D)}
            for nid, ad in sol.arrows.items()
        },
        "meta": {
            "seed": sol.seed,
            "residual": sol.residual,
            "converged": sol.converged,
            "stable": sol.stable,
        },
    }


def solution_from_json(data: dict) -> Solution:
    d = diagram_from_json(data["diagram"])
    lam = {
        int(nid): complex(pair[0], pair[1]) for nid, pair in data.get("lambda", {}).items()
    }
    sol = zero_solution(d, lam)
    for nid, fields in data.get("triangles", {}).items():
        t = sol.triangles[int(nid)]
        t.A = _matrix_from_json(fields["A"], t.A.shape)
        t.B_in = _matrix_from_json(fields["B_in"], t.B_in.shape)
        t.B_out = _matrix_from_json(fields["B_out"], t.B_out.shape)
        t.a = _matrix_from_json(fields["a"], t.a.shape)
        t.b = _matrix_from_json(fields["b"], t.b.shape)
    for nid, fields in data.get("arrows", {}).items():
        ad = sol.arrows[int(nid)]
        ad.C = _matrix_from_json(fields["C"], ad.C.shape)
        ad.D = _matrix_from_json(fields["D"], ad.D.shape)
    meta = data.get("meta", {})
    sol.seed = meta.get("seed")
    sol.residual = float(meta.get("residual", moment_residual(sol)))
    sol.converged = bool(meta.get("converged", False))
    sol.stable = bool(meta.get("stable", False))
    return sol
