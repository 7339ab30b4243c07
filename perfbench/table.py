"""Run every workload once and print the end-to-end metrics, one row per workload.

    python3 perfbench/table.py [--seed 1]

Columns are the end-to-end metrics of BENCHMARK.json, each headed by its
name and unit; each run lasts the ``run_seconds`` given there.  Exits 1
if any run fails, cannot check its outputs, or reports a wrong output.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: float) -> dict | None:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"{workload}: run exited with code {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    metrics = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
    header = ["workload", "ops", "failed"] + [f"{name} [{unit}]" for name, unit in metrics]
    widths = [max(16, len(h)) for h in header]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)), flush=True)
    ok = True
    for wl in bench["workloads"]:
        result = run_once(wl["name"], args.seed, bench["run_seconds"])
        if result is None:
            ok = False
            continue
        ok = ok and result["correct"]
        row = [wl["name"], str(result["attempted"]), str(result["failed"])]
        row += [f"{result['metrics'][name]['value']:.6g}" for name, _ in metrics]
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
