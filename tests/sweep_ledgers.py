"""Digest of synthesize's ledgers on the whole k <= 5, dims 0..4 affine sweep.

    PYTHONPATH=src python tests/sweep_ledgers.py

Synthesizes the ledger of every supersymmetric affine diagram
``( d0 n0 ... d_{k-1} n_{k-1} )`` with k = 2..5, both node kinds and
every dim in 0..4 (79,520 of the 103,300 diagrams), in sweep order, and
hashes one canonical JSON line per ledger, as ``test_synthesize_ledger_guard``
does on its smaller sweep.  Prints the count, the sha256 and the CPU
time, and exits 1 when the digest is not the pinned one.  It takes about
half a minute, so pytest does not collect it; run it on any change to
synthesis or to the decision procedure's moves.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import sys
import time

from bowforge.branes import ledger_to_json, synthesize
from bowforge.diagram import parse_diagram
from bowforge.susy import decide_supersymmetry

SWEEP_COUNT = 79520
SWEEP_SHA256 = "9467cc734be5c3a0b8585b7099ee3bd8e4a77525a8daab78d842c6e30857c55e"


def sweep_digest() -> tuple[int, str]:
    digest = hashlib.sha256()
    count = 0
    for k in range(2, 6):
        for kinds in itertools.product("ox", repeat=k):
            if "o" not in kinds or "x" not in kinds:
                continue
            for dims in itertools.product(range(5), repeat=k):
                d = parse_diagram("( " + " ".join(f"{v} {c}" for v, c in zip(dims, kinds)) + " )")
                if not decide_supersymmetry(d).verdict:
                    continue
                line = json.dumps(ledger_to_json(synthesize(d)), sort_keys=True, separators=(",", ":"))
                digest.update(line.encode() + b"\n")
                count += 1
    return count, digest.hexdigest()


def main() -> int:
    start = time.process_time()
    count, sha = sweep_digest()
    cpu = time.process_time() - start
    print(f"count {count}")
    print(f"sha256 {sha}")
    print(f"cpu_s {cpu:.1f}")
    if (count, sha) != (SWEEP_COUNT, SWEEP_SHA256):
        print(f"expected count {SWEEP_COUNT} and sha256 {SWEEP_SHA256}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
