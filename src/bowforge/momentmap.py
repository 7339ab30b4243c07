"""Numerical moment-map solutions on bow diagrams.

Every x point carries a triangle of linear maps between the vector
spaces of its two neighbouring segments, plus a one-dimensional tail:

    A: in -> out    B_in: in -> in    B_out: out -> out
    a: C -> out     b: in -> C

Every arrow carries a dual pair C: tail -> head, D: head -> tail.
The moment map collects one square matrix per segment and one triangle
relation per x point; a solution drives them all to zero at a chosen
level.  One table of those equations (``_equations``) feeds the
residual, its holomorphic Jacobian and each x point's ``cond_a``.  Two
rank conditions per x point cut the solution set down to the stable
locus; only stable zeros count.

``construct_solution`` builds the level-zero zero of every
supersymmetric diagram, with one node kind or both, by carrying a zero
(``_Zero``) through the moves of its brane ledger: exact transport
across swaps, exact extension along increments, a whole multiplicity
at once.  The moves that stage the ledger away run on a plain move
host, which carries no brane, and an increment visits only the nodes
of its arc.  The Levenberg-Marquardt solver, which steps in the complex
unknowns themselves, is used only by ``solve_numeric``, which serves
non-zero levels alone.

The moves compute no residual and no stability; ``settle`` does both,
once, on the finished zero.  The public ``transport_hw_solution`` and
``extend_increment`` are one move each and return solutions that share
no array with their argument.

Construction reads no spectrum and runs no QR: the shifts that keep
each x-arc unit's B - c invertible are counted off a spiral (see
``_construct_decided``), and the finished zero is written in one
closed-form unitary basis per dimension (``_generic_basis``).  No numpy
call is made whose result the shapes already fix.  A product through a
0-dimensional space, or with no entries, is the zero block of its shape
(``_product``), and every 0-sized map is one shared read-only empty
(``_zeros``).  A swap whose disappearing segment is empty stacks
nothing, since a map with no rows has the identity as its kernel, and a
swap into an empty segment asks the stacked map for its singular values
alone.  A closure whose generators already span takes no singular
vectors.  An empty end block takes no inverse, an empty map no change
of basis, and a 0-dimensional side of an x point no closure.

All computations use dense complex128 arrays; diagram dimensions stay
small enough that dense linear algebra is the honest choice.  numpy is
imported on the first matrix operation, not with the package: deciding
and certifying are integer work, so ``check``, ``synth`` and the other
combinatorial CLI verbs never load it.
"""

from __future__ import annotations

import cmath
import itertools
import math
from collections.abc import Iterable, Iterator

from .diagram import (
    BowDiagram,
    Direction,
    HwMove,
    IncrementArrows,
    IncrementX,
    NodeKind,
    diagram_from_json,
    diagram_to_json,
)
from .rewrite import _Host


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
# blocks whose shape fixes them

# one read-only zero block per 0-sized shape, shared by every map of that
# shape: it has no entry to write, so no solution needs its own
_EMPTY: dict[tuple[int, int], np.ndarray] = {}


def _zeros(rows: int, cols: int) -> np.ndarray:
    """The complex zero block of this shape; a 0-sized one is shared."""

    if rows and cols:
        return np.zeros((rows, cols), dtype=complex)
    empty = _EMPTY.get((rows, cols))
    if empty is None:
        empty = _EMPTY[rows, cols] = np.zeros((rows, cols), dtype=complex)
        empty.flags.writeable = False
    return empty


def _product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``x @ y``.  A product through a 0-dimensional space, or one with no
    entries, is the zero block of its shape, so it takes no matrix product."""

    rows, inner = x.shape
    cols = y.shape[1]
    return x @ y if rows and inner and cols else _zeros(rows, cols)


# ---------------------------------------------------------------------------
# data model


class TriangleData:
    """Maps attached to one x point, in the order the JSON codec writes them."""

    def __init__(self, A: np.ndarray, B_in: np.ndarray, B_out: np.ndarray, a: np.ndarray, b: np.ndarray):
        self.A = A
        self.B_in = B_in
        self.B_out = B_out
        self.a = a
        self.b = b


class ArrowData:
    """Dual pair attached to one arrow."""

    def __init__(self, C: np.ndarray, D: np.ndarray):
        self.C = C
        self.D = D


class Solution:
    """Maps on every node of a diagram, with the verdict ``settle`` gave.

    ``residual``, ``converged`` and ``stable`` are computed together by
    ``settle``; a solution between two exact steps carries stale ones.
    Code that builds a solution from another replaces its maps and never
    writes into them, so two solutions may share an array.
    """

    def __init__(
        self,
        diagram: BowDiagram,
        triangles: dict[int, TriangleData],
        arrows: dict[int, ArrowData],
        lam: dict[int, complex] | None = None,
        seed: int | None = None,
        residual: float = 0.0,
        converged: bool = False,
        stable: bool = False,
    ):
        self.diagram = diagram
        self.triangles = triangles
        self.arrows = arrows
        self.lam = {} if lam is None else lam
        self.seed = seed
        self.residual = residual
        self.converged = converged
        self.stable = stable


def zero_solution(d: BowDiagram, lam: dict[int, complex] | None = None) -> Solution:
    """All maps zero; exact when every product term vanishes anyway.

    A level sits on an arrow: a key of ``lam`` that names no arrow
    raises ValueError.
    """

    triangles = {}
    arrows = {}
    for pos, node in enumerate(d.nodes):
        v_in, v_out = d.dims[pos - 1], d.dims[pos]
        if node.kind == NodeKind.XPOINT:
            triangles[node.id] = TriangleData(
                A=_zeros(v_out, v_in),
                B_in=_zeros(v_in, v_in),
                B_out=_zeros(v_out, v_out),
                a=_zeros(v_out, 1),
                b=_zeros(1, v_in),
            )
        else:
            arrows[node.id] = ArrowData(C=_zeros(v_out, v_in), D=_zeros(v_in, v_out))
    lam = dict(lam or {})
    if strays := sorted(lam.keys() - arrows.keys()):
        raise ValueError(f"levels sit on arrows only; nodes {strays} are not arrows of the diagram")
    return Solution(diagram=d, triangles=triangles, arrows=arrows, lam=lam)


# ---------------------------------------------------------------------------
# residual


def _equations(d: BowDiagram) -> list[tuple[list, int | None]]:
    """The moment map of ``d`` as a table: one square block per segment,
    then one triangle block per x point.

    A block is (terms, level): each term (sign, X, Y) means sign X @ Y,
    where X and Y name a map as (node id, field) and a Y of None is an
    identity; ``level`` is the arrow whose -λ comes off the block after
    its first term, or None.  This table is the only place that knows
    the equations: the residual, its Jacobian and ``cond_a`` all read it.
    """

    arrow = NodeKind.ARROW
    blocks = []
    for left, right in zip(d.nodes, d.nodes[1:] + d.nodes[:1]):
        l, r = left.id, right.id
        if left.kind is arrow:
            first, level = (1, (l, "C"), (l, "D")), l
        else:
            first, level = (-1, (l, "B_out"), None), None
        second = (-1, (r, "D"), (r, "C")) if right.kind is arrow else (1, (r, "B_in"), None)
        blocks.append(([first, second], level))
    return blocks + _triangle_equations(d)


def _triangle_equations(d: BowDiagram) -> list[tuple[list, int | None]]:
    """The x-point rows of ``_equations(d)``, in node order."""

    xs = [node.id for node in d.nodes if node.kind is NodeKind.XPOINT]
    return [([(1, (x, "B_out"), (x, "A")), (-1, (x, "A"), (x, "B_in")), (1, (x, "a"), (x, "b"))], None) for x in xs]


def _evaluate(sol: Solution, blocks: list) -> list[np.ndarray]:
    """Each of ``blocks`` at the maps of ``sol``: its terms summed in table
    order, the level coming off after the first."""

    owners = sol.triangles | sol.arrows
    out = []
    for terms, level in blocks:
        block = None
        for sign, (x_id, x_field), y in terms:
            x = getattr(owners[x_id], x_field)
            prod = x if y is None else _product(x, getattr(owners[y[0]], y[1]))
            if block is None:
                if not prod.size:
                    # a block with no entries is the empty its first term gave
                    block = prod
                    break
                block = prod if sign > 0 else -prod
                if level is not None and (lam := complex(sol.lam.get(level, 0.0))):
                    block = block - lam * np.eye(block.shape[0])
            else:
                block = block + prod if sign > 0 else block - prod
        out.append(block)
    return out


def residual_blocks(sol: Solution) -> list[np.ndarray]:
    """One square block per segment, then one triangle block per x."""

    return _evaluate(sol, _equations(sol.diagram))


def moment_residual(sol: Solution) -> float:
    total = 0.0
    for block in residual_blocks(sol):
        if block.size:
            total += np.vdot(block, block).real
    return float(np.sqrt(total))


# ---------------------------------------------------------------------------
# stability

# every rank in a closure counts singular values above this share of
# max(||op||_F, 1): the operator's scale, not the generators', so one
# huge generator cannot swamp the others
_RANK_RTOL = 1e-6


def _closure_dim(op: np.ndarray, gens: np.ndarray) -> int:
    """Dimension of the smallest ``op``-invariant subspace containing im ``gens``.

    Grows an orthonormal basis: an SVD of ``gens``, then ``op`` applied
    to the newest columns, orthogonalized twice against the basis so far,
    keeping the directions above tolerance, until nothing new appears or
    the basis is full (the controllability staircase).  Generators at
    least as many as the dimension are first asked for their singular
    values alone: when those already span, no vector is computed.
    """

    n = op.shape[0]
    if n == 0:
        return 0
    tol = _RANK_RTOL * max(float(np.linalg.norm(op)), 1.0)
    if gens.shape[1] >= n and np.linalg.svd(gens, compute_uv=False)[-1] > tol:
        return n
    u, s, _ = np.linalg.svd(gens, full_matrices=False)
    basis = new = u[:, s > tol]
    while new.shape[1] and basis.shape[1] < n:
        grown = op @ new
        for _ in range(2):
            grown = grown - basis @ (basis.conj().T @ grown)
        u, s, _ = np.linalg.svd(grown, full_matrices=False)
        new = u[:, s > tol]
        basis = np.concatenate([basis, new], axis=1)
    return basis.shape[1]


class XStability:
    """Per x-point stability facts: triangle residual plus both ranks.

    ``chain_dim`` is the dimension of the largest B_in-invariant subspace
    inside ker [A; b], read as v_in minus the B_inᴴ-closure of the rows
    of [A; b]; S1 holds when it is 0.  ``krylov_rank`` is the dimension
    of the B_out-closure of im [A | a]; S2 holds when it is v_out.
    """

    def __init__(self, cond_a: float, s1: bool, s2: bool, chain_dim: int, krylov_rank: int):
        self.cond_a = cond_a
        self.s1 = s1
        self.s2 = s2
        self.chain_dim = chain_dim
        self.krylov_rank = krylov_rank


class StabilityReport:
    def __init__(self, entries: dict[int, XStability], rtol: float):
        self.entries = entries
        self.rtol = rtol

    @property
    def ok(self) -> bool:
        return all(e.s1 and e.s2 for e in self.entries.values())


def stability_report(sol: Solution) -> StabilityReport:
    """Both rank conditions at every x point, with the evidence.

    Both are one question for ``_closure_dim``: does the smallest
    invariant subspace containing some vectors fill the space?  S2: the
    columns of [A | a] generate everything under B_out.  S1, in dual
    form: ker [A; b] holds no nonzero B_in-invariant subspace exactly
    when the rows of [A; b] generate everything under B_inᴴ.
    """

    entries: dict[int, XStability] = {}
    d = sol.diagram
    xs = [node.id for node in d.nodes if node.kind == NodeKind.XPOINT]
    for node_id, triangle in zip(xs, _evaluate(sol, _triangle_equations(d))):
        t = sol.triangles[node_id]
        v_in = t.B_in.shape[0]
        v_out = t.B_out.shape[0]
        cond_a = float(np.linalg.norm(triangle)) if triangle.size else 0.0
        # a 0-dimensional side closes on nothing, so it takes no closure,
        # and facing one, A has no entries: the tail alone generates
        chain_dim = krylov_rank = 0
        if v_in:
            rows = np.concatenate([t.A, t.b]) if v_out else t.b
            chain_dim = v_in - _closure_dim(t.B_in.conj().T, rows.conj().T)
        if v_out:
            krylov_rank = _closure_dim(t.B_out, np.concatenate([t.A, t.a], axis=1) if v_in else t.a)
        entries[node_id] = XStability(
            cond_a=cond_a,
            s1=chain_dim == 0,
            s2=krylov_rank == v_out,
            chain_dim=chain_dim,
            krylov_rank=krylov_rank,
        )
    return StabilityReport(entries=entries, rtol=_RANK_RTOL)


# ---------------------------------------------------------------------------
# packing and the analytic Jacobian


def _param_layout(d: BowDiagram) -> tuple[dict, int]:
    """Where each map of ``d`` sits in the packed unknowns.

    ``{(node id, field): (shape, offset)}`` in node-id order, with the
    shapes read off ``zero_solution(d)``, and the total size.
    """

    sol = zero_solution(d)
    layout = {}
    size = 0
    for node_id, owner in sorted((sol.triangles | sol.arrows).items()):
        for name, mat in vars(owner).items():
            layout[(node_id, name)] = (mat.shape, size)
            size += mat.size
    return layout, size


def _unpack(d: BowDiagram, z: np.ndarray, layout: dict, lam) -> Solution:
    sol = zero_solution(d, lam)
    owners = sol.triangles | sol.arrows
    for (node_id, name), (shape, offset) in layout.items():
        setattr(owners[node_id], name, z[offset : offset + shape[0] * shape[1]].reshape(shape))
    return sol


def _complex_jacobian(sol: Solution, layout: dict, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Holomorphic Jacobian of the stacked residual, plus the residual.

    Every column block comes from a term of ``_equations``: for a
    product R = X Y in row-major layout, dR/dX = I (x) Y^T and
    dR/dY = X (x) I; an identity factor has no derivative.
    """

    table = _equations(sol.diagram)
    blocks = _evaluate(sol, table)
    rows = sum(block.size for block in blocks)
    jac = np.zeros((rows, size), dtype=complex)
    res = np.concatenate([block.reshape(-1) for block in blocks]) if rows else np.zeros(0, dtype=complex)
    owners = sol.triangles | sol.arrows
    row0 = 0
    for block, (terms, _) in zip(blocks, table):
        p, q = block.shape
        rows_here = p * q
        for sign, x_ref, y_ref in terms:
            if y_ref is None:
                parts = [(x_ref, np.eye(rows_here))]
            else:
                x = getattr(owners[x_ref[0]], x_ref[1])
                y = getattr(owners[y_ref[0]], y_ref[1])
                parts = [(x_ref, np.kron(np.eye(p), y.T)), (y_ref, np.kron(x, np.eye(q)))]
            for ref, mat in parts:
                shape, offset = layout[ref]
                cols = jac[row0 : row0 + rows_here, offset : offset + shape[0] * shape[1]]
                cols += mat if sign > 0 else -mat
        row0 += rows_here
    return jac, res


# ---------------------------------------------------------------------------
# damped least squares


def solve_lm(jr, x0):
    """Levenberg-Marquardt over complex unknowns, with multiplicative
    damping control.

    jr returns the (jacobian, residual) pair at a complex point; the
    residual is holomorphic, so each damped step solves
    (JᴴJ + damp I) step = Jᴴr, the realified Gauss-Newton system at
    half its dimension.  Iteration stops at tiny cost, tiny steps, or
    runaway damping.
    """

    x = np.asarray(x0, dtype=complex)
    damp = 1e-4
    jac, res = jr(x)
    cost = float(np.vdot(res, res).real)
    for _ in range(250):
        if cost < 1e-28:
            break
        jac_h = jac.conj().T
        lhs, rhs = jac_h @ jac, jac_h @ res
        while damp <= 1e14:
            step, *_ = np.linalg.lstsq(
                lhs + damp * np.eye(lhs.shape[0]), rhs, rcond=None
            )
            x_try = x - step
            jac_try, res_try = jr(x_try)
            cost_try = float(np.vdot(res_try, res_try).real)
            if cost_try < cost:
                x, jac, res, cost = x_try, jac_try, res_try, cost_try
                damp = max(damp / 3.0, 1e-12)
                break
            damp *= 4.0
        else:
            break  # runaway damping
        if float(np.linalg.norm(step)) < 1e-15:
            break
    return x, float(np.sqrt(cost))


# ---------------------------------------------------------------------------
# numerical search


def _level_acts(d: BowDiagram, lam: dict[int, complex]) -> bool:
    """Whether some non-zero level of ``lam`` changes an equation of ``d``.

    A level comes off the block of its arrow's outgoing segment (see
    ``_equations``), so on a 0-dimensional segment it changes nothing.
    """

    return any(lam.get(node.id) and d.dims[pos] for pos, node in enumerate(d.nodes))


def _accept_threshold(d: BowDiagram, lam: dict[int, complex]) -> float:
    """1e-8 scaled by the squared size of the levels that act on ``d``,
    by :func:`_level_acts`'s rule: a level on an empty block counts none."""

    level = sum(abs(complex(lam[node.id])) ** 2 for pos, node in enumerate(d.nodes) if node.id in lam and d.dims[pos])
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
    threshold = _accept_threshold(sol.diagram, sol.lam) if tol is None else tol
    sol.converged = sol.residual <= threshold and sol.stable
    return report


def solve_numeric(d: BowDiagram, lam: dict[int, complex] | None = None, seed: int = 0) -> Solution:
    """Search for a stable moment-map zero from six random starts.

    This serves non-zero levels only, and it is the only caller of the
    Levenberg-Marquardt solver.  Never raises on failure: the best
    attempt comes back with ``converged`` False so callers can report
    honestly.
    """

    lam = dict(lam or {})
    layout, size = _param_layout(d)
    if size == 0 or max(d.dims, default=0) == 0:
        sol = zero_solution(d, lam)
        sol.seed = seed
        settle(sol)
        return sol

    def jr(z):
        return _complex_jacobian(_unpack(d, z, layout, lam), layout, size)

    best: Solution | None = None
    for attempt in range(6):
        attempt_seed = seed + 1000 * attempt
        rng = np.random.default_rng(attempt_seed)
        z0 = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        z, _ = solve_lm(jr, z0)
        sol = _unpack(d, z, layout, lam)
        sol.seed = attempt_seed
        settle(sol)
        if sol.converged:
            return sol
        if best is None or sol.residual < best.residual:
            best = sol
    return best


# ---------------------------------------------------------------------------
# exact steps: a zero carried through moves


def _extend_block(mat: np.ndarray, rows: int, cols: int, diagonal=None) -> np.ndarray:
    """``mat`` padded by ``rows`` zero rows and ``cols`` zero columns, with
    ``diagonal`` (a value, or one per new row) down the square corner
    where they meet.  A 0-sized result is the shared empty of its shape."""

    old_rows, old_cols = mat.shape
    out = _zeros(old_rows + rows, old_cols + cols)
    if mat.size:
        out[:old_rows, :old_cols] = mat
    if diagonal is not None:
        # the corner's diagonal, read through the flat row-major entries
        out.reshape(-1)[old_rows * out.shape[1] + old_cols :: out.shape[1] + 1] = diagonal
    return out


def _copy_solution(sol: Solution) -> Solution:
    """A solution that shares no array with ``sol``."""

    def copied(owners):
        return {nid: type(o)(*(mat.copy() for mat in vars(o).values())) for nid, o in owners.items()}

    s = sol
    return Solution(s.diagram, copied(s.triangles), copied(s.arrows), dict(s.lam), s.seed, s.residual, s.converged, s.stable)


_SHIFT_GAP = 1e-3


def _spiral(n: int) -> Iterator[complex]:
    """Shifts c_j = sqrt(1/4 + 3/4 j/n) exp(2 pi i 0.618034 j), j = 0, 1, ...

    The sunflower packing of a disc (Vogel 1979) fitted into the annulus
    ½ ≤ |c| ≤ 1: the first n points are clear of 0 and pairwise at least
    1.4/sqrt(n) apart.  Later points go on outward as sqrt(j).
    """

    for j in itertools.count():
        yield cmath.rect(math.sqrt(0.25 + 0.75 * j / max(n, 1)), 2 * math.pi * 0.618034 * j)


def _shifted_inv(mat: np.ndarray, c: np.ndarray) -> np.ndarray:
    # the stack of (mat - c_j)^-1, one per shift
    return np.linalg.inv(mat - c[:, None, None] * np.eye(mat.shape[0]))


def _kernel_with_dim(mat: np.ndarray, want: int) -> np.ndarray:
    """Orthonormal kernel basis whose dimension is known in advance.

    ``mat`` has rows and columns: a map with no rows has every vector in
    its kernel, which its caller writes as the identity.  Raises when the
    singular spectrum shows no clean gap at the expected rank; that means
    the input was not a stable zero.  An expected kernel of 0 needs the
    singular values alone, for the rank check.
    """

    cols = mat.shape[1]
    rank = cols - want
    if rank < 0:
        raise ValueError("kernel cannot exceed the ambient dimension")
    if want:
        _, s, vh = np.linalg.svd(mat, full_matrices=True)
    else:
        s = np.linalg.svd(mat, compute_uv=False)
    s = s.tolist()
    scale = max(s[0] if s else 0.0, 1.0)
    if rank > 0 and (len(s) < rank or s[rank - 1] <= 1e-9 * scale):
        raise ValueError("stacked map lost full rank; not a stable zero")
    if len(s) > rank and s[rank] > 1e-5 * scale:
        raise ValueError("stacked map kernel larger than the swap allows")
    return vh[rank:].conj().T if want else _zeros(cols, 0)


class _Zero(_Host):
    """A level-zero zero carried through moves in place.

    The host half is a ``rewrite._Host``: its :meth:`move` checks and
    applies each entry, with the errors of ``rewrite.apply_entry``.  The
    zero extends the host's swap and increment to carry the maps along;
    a cut moves the diagram alone.  Maps are replaced and never written
    into: a move builds new arrays for the nodes it touches, and every
    other node keeps the arrays of ``sol``, so a construction copies no
    matrix it does not change.

    ``_Zero(sol, shifts)`` refuses a solution at a non-zero level.  An
    x-arc unit takes the next of ``shifts``, which the caller keeps
    clear of the end blocks' spectra; arrow arcs end at arrows, which
    are zero-padded, so their shift is 0.
    """

    __slots__ = ("sol", "triangles", "arrows", "shifts")

    def __init__(self, sol: Solution, shifts: Iterable[complex] = ()):
        if any(abs(complex(v)) > 0 for v in sol.lam.values()):
            raise ValueError("exact transport needs level zero")
        super().__init__(sol.diagram)
        self.sol, self.shifts = sol, iter(shifts)
        self.triangles, self.arrows = dict(sol.triangles), dict(sol.arrows)

    def solution(self) -> Solution:
        """``sol`` moved: the host's diagram with the carried maps."""

        s = self.sol
        return Solution(self.diagram(), self.triangles, self.arrows, s.lam, s.seed, s.residual, s.converged, s.stable)

    def swap(self, left: int, right: int) -> int:
        """Carry the zero across the swap exactly.

        The segment between the pair is replaced the same way the
        diagram move replaces it; the new maps come from an orthonormal
        kernel (x before arrow) or cokernel (arrow before x) basis of the
        three maps stacked over the disappearing segment, so no numerical
        search is involved and the residual stays at level zero.  Only
        the two swapped nodes get new maps.

        An empty old segment gives the stacked map no rows, so its kernel
        is the identity and nothing is stacked; an empty new segment
        needs the stacked map's singular values alone.
        """

        pos = _Host.swap(self, left, right)
        dims = self.dims
        v_minus, v_plus, v_new = dims[pos - 1], dims[(pos + 1) % len(dims)], dims[pos]
        # the disappearing segment: the swap's dim rule is an involution
        v_old = v_minus + v_plus + 1 - v_new
        triangles, arrows = self.triangles, self.arrows

        if self.index[left][1] == NodeKind.XPOINT:
            # x moves right past the arrow; the new segment is the kernel
            # of [A | D | a], which is onto by the spanning rank condition
            t = triangles[left]
            ad = arrows[right]
            neg_c = -ad.C
            if v_old:
                basis = _kernel_with_dim(np.concatenate([t.A, ad.D, t.a], axis=1), v_new)
            else:
                basis = np.eye(v_new, dtype=complex)
            k_minus = basis[:v_minus]
            if v_minus and v_new:
                c_new = basis.conj().T @ np.concatenate([-t.B_in, _product(neg_c, t.A), t.b])
            else:
                c_new = _zeros(v_new, v_minus)
            arrows[right] = ArrowData(C=c_new, D=k_minus)
            triangles[left] = TriangleData(
                A=basis[v_minus : v_minus + v_plus],
                B_in=_product(-c_new, k_minus),
                B_out=_product(neg_c, ad.D),
                a=_product(neg_c, t.a),
                b=basis[v_minus + v_plus :],
            )
        else:
            # arrow moves right past the x; the new segment is the cokernel
            # of stacked [D; A; b], injective by the kernel rank condition
            ad = arrows[left]
            t = triangles[right]
            if v_old:
                basis = _kernel_with_dim(np.concatenate([ad.D, t.A, t.b]).conj().T, v_new)
            else:
                basis = np.eye(v_new, dtype=complex)
            q_minus = basis[:v_minus]
            q_plus = basis[v_minus : v_minus + v_plus]
            q_tail = basis[v_minus + v_plus :]
            if v_plus and v_new:
                c_new = _product(_product(-t.A, ad.C), q_minus) - t.B_out @ q_plus - t.a @ q_tail
            else:
                c_new = _zeros(v_plus, v_new)
            d_new = q_plus.conj().T
            arrows[left] = ArrowData(C=c_new, D=d_new)
            triangles[right] = TriangleData(
                A=q_minus.conj().T,
                B_in=_product(-ad.D, ad.C),
                B_out=_product(-d_new, c_new),
                a=q_tail.conj().T,
                b=_product(t.b, ad.C),
            )
        return pos

    def increment(self, entry: IncrementArrows | IncrementX, delta: int) -> range | list[int]:
        """Grow every segment of the entry's arc by ``delta`` dimensions,
        exactly, one ``delta``-wide block per touched map; an arc cannot
        shrink.  Unit j takes the shift c_j.

        Every segment block gains -c_j from its anticlockwise node and +c_j
        from its clockwise node.  Inside the arc an arrow gets the pair
        C = 1, D = -c_j and an x point the unit in A.  An x point ending the
        arc grows one side only; the (B - c_j)^-1 trick keeps its triangle
        at zero: the end whose incoming segment grows gains the A column
        -(B_out - c_j)^-1 a and the b entry 1, the end whose outgoing
        segment grows gains the A row b (B_in - c_j)^-1 and the a entry 1.
        A full loop from an x point to itself does both at that point, one
        unit at a time, since each of its rows reads the grown B_in.

        Only the nodes that bound the arc or sit inside it are visited.
        The units' 1, c_j and -c_j go straight onto the diagonal of each
        grown block's new corner, so no I, diag(c) or diag(-c) is built.
        An end whose B block is 0x0 gains an empty row or column of A, so
        it takes no inverse, and a map that stays 0-sized takes no new
        array.
        """

        segs = _Host.increment(self, entry, delta)
        if delta < 0:
            raise ValueError("exact extension cannot shrink an arc")
        x_arc = isinstance(entry, IncrementX)
        shifts = np.array([next(self.shifts) if x_arc else 0j for _ in range(delta)], dtype=complex)
        nodes, k, span = self.nodes, len(self.nodes), len(segs)
        if span == k:
            grown = [(node, True, True) for node in nodes]
        else:
            # the arc runs from the node at segs[0] to the one after segs[-1]
            grown = [(nodes[(segs[0] + step) % k], step > 0, step < span) for step in range(span + 1)]
        triangles, arrows = self.triangles, self.arrows
        for c in shifts.reshape(-1, 1) if x_arc and entry.start == entry.end else shifts.reshape(1, -1):
            m = len(c)
            for node, grow_in, grow_out in grown:
                if node.kind == NodeKind.ARROW:
                    ad = arrows[node.id]
                    # head rows track the outgoing segment, tail columns the incoming
                    both = grow_in and grow_out
                    C = _extend_block(ad.C, m * grow_out, m * grow_in, 1.0 if both else None)
                    D = _extend_block(ad.D, m * grow_in, m * grow_out, -c if both else None)
                    arrows[node.id] = ArrowData(C=C, D=D)
                    continue
                t = triangles[node.id]
                A, B_in, B_out, a, b = t.A, t.B_in, t.B_out, t.a, t.b
                if grow_in and grow_out:
                    # a full loop is its own outgoing end: b feeds the new row
                    loop = node.id == entry.start == entry.end
                    A = _extend_block(A, m, m, 1.0)
                    if loop and len(B_in):
                        A[-m:, :-m] = (b @ _shifted_inv(B_in, c))[:, 0]
                    a = _extend_block(a, m, 0)
                    if loop:
                        a[-m:] = 1.0
                    b = _extend_block(b, 0, m)
                elif grow_out:
                    if len(B_in):
                        A = np.concatenate([A, (b @ _shifted_inv(B_in, c))[:, 0]])
                    else:
                        A = _extend_block(A, m, 0)
                    a = np.concatenate([a, np.ones((m, 1))])
                else:
                    if len(B_out):
                        A = np.concatenate([A, (-_shifted_inv(B_out, c) @ a)[:, :, 0].T], axis=1)
                    else:
                        A = _extend_block(A, 0, m)
                    b = np.concatenate([b, np.ones((1, m))], axis=1)
                if grow_in:
                    B_in = _extend_block(B_in, m, m, c)
                if grow_out:
                    B_out = _extend_block(B_out, m, m, c)
                triangles[node.id] = TriangleData(A=A, B_in=B_in, B_out=B_out, a=a, b=b)
        return segs


def extend_increment(sol: Solution, entry) -> Solution:
    """Exactly extend a level-zero solution along one increment entry.

    The entry is refused as ``rewrite.apply_entry`` refuses it.  The
    spectra of an x arc's end blocks are arbitrary here, so they are read
    once per call, and the units take the points of ``_spiral(amount)``
    that keep ``_SHIFT_GAP`` from them.  The result shares no array with
    ``sol``.
    """

    if not isinstance(entry, (IncrementArrows, IncrementX)):
        raise ValueError(f"cannot extend along {entry!r}")

    def shifts():
        ends = (sol.triangles[entry.start], sol.triangles[entry.end])
        spectrum = [complex(z) for t in ends for m in (t.B_in, t.B_out) for z in np.linalg.eigvals(m)]
        for shift in _spiral(entry.amount):
            if all(abs(shift - z) >= _SHIFT_GAP for z in spectrum):
                yield shift

    zero = _Zero(sol, shifts())
    zero.move(entry)
    return _copy_solution(zero.solution())


def transport_hw_solution(sol: Solution, left: int, right: int) -> Solution:
    """The exact swap transport as a standalone solution.

    The swap is refused as ``rewrite.apply_entry`` refuses it.  The
    result shares no array with ``sol`` and carries its recomputed
    residual; stability is left to ``settle``.
    """

    zero = _Zero(sol)
    zero.swap(left, right)
    out = _copy_solution(zero.solution())
    out.residual = moment_residual(out)
    return out


# ---------------------------------------------------------------------------
# staged construction


# (g, gᴴ) of _generic_basis by dimension: filled on first use, read-only,
# and shared by every zero the process builds
_BASES: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _generic_basis(sol: Solution) -> Solution:
    """The same zero written in a fixed generic unitary basis per segment.

    The exact steps produce coordinate-aligned zeros (diagonal B blocks,
    b = 0 after full loops) on which changing a single entry can land on
    another zero; in a generic basis every entry is tied to the
    relations.  The basis of an m-dimensional segment is closed-form:
    the unitary Fourier matrix between two fixed diagonal chirps,
    entry (j, l) = exp(i (sqrt2 j² + sqrt3 l² - 2 pi j l / m)) / sqrt m.
    It takes no QR and no random draw, and it depends on m alone, so the
    result depends on no seed and each basis is kept in ``_BASES``: one
    exp per distinct dimension the process meets.
    """

    d = sol.diagram
    for m in set(d.dims) - _BASES.keys():
        # j l mod m keeps each root of unity, and so g, unitary to rounding
        r = np.arange(m)
        n = max(m, 1)
        fourier = np.exp((-2j * math.pi / n) * (np.outer(r, r) % n)) / math.sqrt(n)
        g = np.exp(1j * math.sqrt(2) * r**2)[:, None] * fourier * np.exp(1j * math.sqrt(3) * r**2)
        h = g.conj().T
        g.flags.writeable = h.flags.writeable = False
        _BASES[m] = (g, h)
    sides = {node.id: (_BASES[d.dims[pos - 1]], _BASES[d.dims[pos]]) for pos, node in enumerate(d.nodes)}
    # a map with no entries reads the same in every basis: it passes through
    triangles = {}
    for nid, t in sol.triangles.items():
        (g_in, h_in), (g_out, h_out) = sides[nid]
        triangles[nid] = TriangleData(
            A=g_out @ t.A @ h_in if t.A.size else t.A,
            B_in=g_in @ t.B_in @ h_in if t.B_in.size else t.B_in,
            B_out=g_out @ t.B_out @ h_out if t.B_out.size else t.B_out,
            a=g_out @ t.a if t.a.size else t.a,
            b=t.b @ h_in if t.b.size else t.b,
        )
    arrows = {}
    for nid, ad in sol.arrows.items():
        (g_in, h_in), (g_out, h_out) = sides[nid]
        arrows[nid] = ArrowData(
            C=g_out @ ad.C @ h_in if ad.C.size else ad.C,
            D=g_in @ ad.D @ h_out if ad.D.size else ad.D,
        )
    return Solution(d, triangles, arrows, sol.lam, sol.seed, sol.residual, sol.converged, sol.stable)


def construct_solution(d: BowDiagram, seed: int = 0) -> Solution:
    """Stable level-zero moment-map solution on a supersymmetric diagram.

    Carries one zero through the synthesized brane ledger's moves: a
    one-kind diagram grows from the all-zero host, a both-kind one builds
    its certified finite layout and walks the decision pipeline back to
    ``d``.  A move that fails raises RuntimeError naming its entry;
    there is no numerical fallback.
    ``seed`` is only recorded, since nothing is drawn; the moves share
    untouched maps, and ``settle`` computes the residual and the
    stability once, on the finished zero.
    """

    from .susy import _decide_full

    cert, fin = _decide_full(d)
    sol = _construct_decided(d, cert, fin, seed)
    settle(sol)
    return sol


def _construct_decided(d: BowDiagram, cert, fin, seed: int) -> Solution:
    """:func:`construct_solution` from the certificate and the layout that
    ``susy._decide_full`` returned for ``d``, not yet settled: the caller
    runs ``settle`` once, with its own levels and threshold.

    The zero starts where the layout's ledger (``branes._finite_branes``,
    or ``branes._one_kind_branes`` when ``d`` has one node kind) is
    staged away.  That ledger is audited once, against the layout's dims,
    and is read only for its keys: its unfixed branes are peeled off as
    increments and each fixed brane is annihilated by one swap, on a
    plain ``rewrite._Host`` that carries no brane along.  The zero then
    grows back through the staging, the increments and the inverted
    pipeline to ``d``.

    Every x-arc unit takes the next point of ``_spiral(N)``: N counts
    the units of the unfixed x-to-x branes, and the units of an undone
    arc subtraction, replayed after them, go on just outside the
    annulus.  Every B spectrum stays on 0 and the shifts already placed,
    which the spiral keeps apart, so no spectrum is read.
    """

    from .branes import _audit, _brane, _finite_branes, _one_kind_branes

    if not cert.verdict:
        raise ValueError("diagram is not supersymmetric; no stable zero exists")
    # a one-kind diagram has no fixed brane, and its skeleton is all zero
    if fin is None:
        layout, branes = d, _one_kind_branes(d)
    else:
        layout, branes = fin.diagram, _finite_branes(fin.v_arr, fin.v_x, fin.arrow_ids, fin.x_ids)
    host = _Host(layout)
    cover, crowd = _audit(layout.k, host.index, branes)
    if cover != layout.dims or crowd:
        raise RuntimeError(f"layout ledger covers {cover} on the dims {layout.dims}, with {crowd} over-full fixed slots")
    kind = {node_id: node_kind for node_id, (_, node_kind) in host.index.items()}

    # unfixed branes are increments on top of the fixed skeleton, which
    # peeling them off the layout leaves: a brane whose ends coincide is
    # one full loop, any other one has no lap; keys sort as branes do
    increments, fixed_ends = [], []
    for key in sorted(branes, key=lambda key: (key[0], key[1], not key[2], key[3])):
        start, end, acw, laps = key
        if kind[start] != kind[end]:
            fixed_ends.append(end)
            continue
        if laps != (start == end):
            raise RuntimeError(f"brane {_brane(*key)} is neither an open arc nor one full loop")
        increment = IncrementArrows if kind[start] == NodeKind.ARROW else IncrementX
        increments.append(increment(start, end, Direction.ACW if acw else Direction.CW, branes[key]))
    for entry in increments:
        host.move(entry, inverse=True)

    # march every x point, x_1 first, clockwise through the arrows its
    # fixed branes (arrow to x, one each) attach to; each crossing
    # annihilates one brane, ending at nothing (a one-kind layout has none)
    staging = []
    for end in sorted(fixed_ends, key=lambda end: fin.x_ids.index(end)):
        entry = HwMove(left=host.nodes[host.index[end][0] - 1].id, right=end)
        host.swap(entry.left, end)
        staging.append(entry)
    if any(host.dims):
        raise RuntimeError("staging did not empty the layout")

    shifts = _spiral(sum(entry.amount for entry in increments if isinstance(entry, IncrementX)))
    zero = _Zero(zero_solution(host.diagram()), shifts)
    steps = [(entry, True) for entry in reversed(staging)] + [(entry, False) for entry in increments]
    for entry, inverse in steps + [(entry, True) for entry in reversed(cert.pipeline)]:
        try:
            zero.move(entry, inverse)
        except ValueError as err:
            raise RuntimeError(f"exact step {entry!r} failed: {err}") from err
    if zero.diagram() != d:
        raise RuntimeError("constructed zero does not sit on the diagram it was built for")

    sol = _generic_basis(zero.solution())
    sol.seed = seed
    return sol


# ---------------------------------------------------------------------------
# serialization


def _matrix_to_json(mat: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in mat]


def _matrix_from_json(data, shape, what: str) -> np.ndarray:
    if len(data) != shape[0] or any(len(row) != shape[1] for row in data):
        raise ValueError(f"{what} must be a {shape[0]}x{shape[1]} matrix")
    out = np.zeros(shape, dtype=complex)
    for i, row in enumerate(data):
        for j, pair in enumerate(row):
            out[i, j] = complex(pair[0], pair[1])
    if not np.isfinite(out).all():
        raise ValueError(f"{what} has an entry that is not finite")
    return out


def _maps_to_json(owner: TriangleData | ArrowData) -> dict:
    return {name: _matrix_to_json(mat) for name, mat in vars(owner).items()}


def solution_to_json(sol: Solution) -> dict:
    return {
        "diagram": diagram_to_json(sol.diagram),
        "lambda": {str(nid): [float(complex(v).real), float(complex(v).imag)] for nid, v in sol.lam.items()},
        "triangles": {str(nid): _maps_to_json(t) for nid, t in sol.triangles.items()},
        "arrows": {str(nid): _maps_to_json(ad) for nid, ad in sol.arrows.items()},
        "meta": {
            "seed": sol.seed,
            "residual": sol.residual,
            "converged": sol.converged,
            "stable": sol.stable,
        },
    }


def solution_from_json(data: dict) -> Solution:
    """The solution ``solution_to_json`` wrote.

    Every node needs its maps, each of the shape its segments give, and
    every level an arrow, keyed by the id as ``str`` writes it, so that
    ``"01"``, ``" 1"`` and ``"+1"`` cannot name node 1 a second time;
    every number must be finite (``json`` reads ``NaN`` and
    ``Infinity``).  Anything else raises ValueError.
    """

    d = diagram_from_json(data["diagram"])
    lam = {}
    for key, pair in data.get("lambda", {}).items():
        nid = int(key)
        if str(nid) != key:
            raise ValueError(f"level key {key!r} is not a node id as str writes it")
        lam[nid] = complex(pair[0], pair[1])
    if strays := sorted(nid for nid, v in lam.items() if not cmath.isfinite(v)):
        raise ValueError(f"levels must be finite; those of nodes {strays} are not")
    sol = zero_solution(d, lam)
    for group, owners in (("triangles", sol.triangles), ("arrows", sol.arrows)):
        maps = data.get(group, {})
        if set(maps) != {str(nid) for nid in owners}:
            raise ValueError(f"{group} must give the maps of nodes {sorted(owners)}, got {sorted(maps)}")
        for nid, owner in owners.items():
            for name, mat in list(vars(owner).items()):
                setattr(owner, name, _matrix_from_json(maps[str(nid)][name], mat.shape, f"{group} {nid} {name}"))
    meta = data.get("meta", {})
    sol.seed = meta.get("seed")
    sol.residual = float(meta["residual"]) if "residual" in meta else moment_residual(sol)
    sol.converged = bool(meta.get("converged", False))
    sol.stable = bool(meta.get("stable", False))
    return sol
