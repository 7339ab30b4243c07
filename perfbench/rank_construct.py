"""Write construct_rank.txt: the construct-sweep population ranked by cost.

The population is every supersymmetric diagram of the exhaustive affine
sweep with at most four nodes and segment dimensions 0..3 (3,384
diagrams).  Each line holds the median of three ``construct_solution``
times in milliseconds and the diagram text, cheapest first.  Times are
CPU times scaled to reference speed by the gauge in speed.py, as the
benchmark takes them, so that the host's drift over the minutes the
ranking takes does not reorder it.  The benchmark uses
the ranking only to stratify its seeded draw: a pool takes one diagram
from each run of consecutive ranks, so every seed gets the same mix of
cheap exact-transport builds and expensive solver re-solves.  Rerun
this script when a change to the library moves construct costs; a
stale ranking only makes the strata less even.

    python3 perfbench/rank_construct.py      # about two minutes
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

import run  # noqa: F401  pins the BLAS thread counts and puts src/ on the path

import bowforge as bf  # noqa: E402
import speed  # noqa: E402
from workloads import SOLVER_SEED, affine_texts  # noqa: E402

HERE = Path(__file__).resolve().parent
REPEATS = 3  # builds per diagram; the median counts


def main() -> int:
    rows = []
    for text in affine_texts(4, 4):
        d = bf.parse_diagram(text)
        if not bf.decide_supersymmetry(d).verdict:
            continue
        times = []
        gauge = [speed.time_work(speed.chunk, time.thread_time)]
        for _ in range(REPEATS):
            t0 = time.thread_time()
            bf.construct_solution(d, seed=SOLVER_SEED)
            times.append(time.thread_time() - t0)
            gauge.append(speed.time_work(speed.chunk, time.thread_time))
        rows.append((statistics.median(times) * speed.chunk_factor(gauge), text))
    rows.sort()
    lines = [f"{cost * 1e3:.3f}\t{text}" for cost, text in rows]
    (HERE / "construct_rank.txt").write_text("\n".join(lines) + "\n")
    print(f"ranked {len(rows)} diagrams, {sum(c for c, _ in rows):.1f} s in total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
