"""Digest of construct_solution's zeros on the k <= 4, dims 0..3 sweep.

    PYTHONPATH=src python tests/sweep_zeros.py

Constructs the zero of every supersymmetric affine diagram
``( d0 n0 ... d_{k-1} n_{k-1} )`` with k = 1..4, one node kind or both
and every dim in 0..3, in sweep order, then the two k = 10 regressions
of ``tests/test_momentmap.py``.  For each zero it hashes every map's
shape and bytes in node-id order, the residual's ``float.hex`` and every
stability entry (``cond_a`` as hex, s1, s2, ``chain_dim``,
``krylov_rank``).  Prints the count, the sha256 and the CPU time.

No digest is pinned: the float bytes depend on the BLAS build, so two
digests compare only when one host made both.  Run it on a change to
construction before and after, on one host, to show that the change
kept every zero byte for byte.  pytest does not collect it.
"""

from __future__ import annotations

import hashlib
import itertools
import sys
import time

from bowforge.diagram import parse_diagram
from bowforge.momentmap import construct_solution, stability_report
from bowforge.susy import decide_supersymmetry

K10_REGRESSIONS = (
    "( 0 o 1 o 4 x 4 x 3 x 0 x 4 x 2 o 4 o 2 x )",
    "( 0 x 4 o 4 x 0 x 0 o 4 x 3 x 3 o 0 o 2 o )",
)


def sweep_texts() -> list[str]:
    texts = [
        "( " + " ".join(f"{v} {c}" for v, c in zip(dims, kinds)) + " )"
        for k in range(1, 5)
        for kinds in itertools.product("xo", repeat=k)
        for dims in itertools.product(range(4), repeat=k)
    ]
    return texts + list(K10_REGRESSIONS)


def zero_digest() -> tuple[int, str]:
    digest = hashlib.sha256()
    count = 0
    for text in sweep_texts():
        d = parse_diagram(text)
        if not decide_supersymmetry(d).verdict:
            continue
        sol = construct_solution(d)
        for _, owner in sorted((sol.triangles | sol.arrows).items()):
            for mat in vars(owner).values():
                digest.update(repr(mat.shape).encode() + mat.tobytes())
        digest.update(sol.residual.hex().encode())
        for nid, e in stability_report(sol).entries.items():
            digest.update(repr((nid, e.cond_a.hex(), e.s1, e.s2, e.chain_dim, e.krylov_rank)).encode())
        count += 1
    return count, digest.hexdigest()


def main() -> int:
    start = time.process_time()
    count, sha = zero_digest()
    cpu = time.process_time() - start
    print(f"count {count}")
    print(f"sha256 {sha}")
    print(f"cpu_s {cpu:.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
