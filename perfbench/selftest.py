"""Tests of the benchmark itself (not of bowforge).

    python3 perfbench/selftest.py          # or: python3 -m pytest perfbench/selftest.py

The file name keeps these tests out of the library's own test run.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (pins BLAS threads and puts src/ on the path first)

import bowforge as bf  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from tracer import COUNTED, SPANNED, Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _inputs(wl) -> list:
    if wl.name == "cli-oneshot":
        return [(verb, [a.replace(str(wl.tmp), "TMP") for a in args], want) for verb, args, want in wl.pool]
    return wl.pool


def test_same_seed_same_inputs():
    for cls in workloads.WORKLOADS.values():
        a, b, c = cls(7), cls(7), cls(8)
        try:
            assert _inputs(a) == _inputs(b), cls.name
            assert _inputs(a) != _inputs(c), cls.name
        finally:
            for wl in (a, b, c):
                wl.close()


def test_certify_inputs_are_supersymmetric():
    for d in workloads.CertifyLedger(3).pool:
        assert bf.decide_supersymmetry(d).verdict, bf.render_diagram(d)


def test_decide_digest_repeats():
    assert workloads.DecideSweep(5).pool_digest() == workloads.DecideSweep(5).pool_digest()


def _snapshot() -> dict:
    """Identity of every attribute of every bowforge module and of BowDiagram."""

    owners = [m for name, m in sys.modules.items() if name == "bowforge" or name.startswith("bowforge.")]
    owners.append(bf.BowDiagram)
    return {(id(o), attr): id(value) for o in owners for attr, value in vars(o).items()}


def test_tracer_self_within_total_and_restores():
    before = _snapshot()
    wl = workloads.CertifyLedger(1)
    orig = bf.decide_supersymmetry
    tracer = Tracer()
    tracer.install()
    try:
        assert bf.decide_supersymmetry is not orig and bf.susy.decide_supersymmetry is not orig
        for d in wl.pool[:5]:
            wl.op(d)
        bf.construct_solution(bf.parse_diagram("( 1 x 2 o 2 x 1 o )"), seed=workloads.SOLVER_SEED)
    finally:
        tracer.uninstall()
    assert _snapshot() == before
    summary = tracer.summary()
    assert summary["susy.decide_supersymmetry"]["calls"] == 5
    assert summary["momentmap.construct_solution"]["calls"] == 1
    for name, stats in summary.items():
        if "total_s" in stats:
            assert -1e-9 <= stats["self_s"] <= stats["total_s"] + 1e-9, name
    assert tracer.patched >= len(SPANNED) + len(COUNTED)


def test_gauge_scales_each_op_by_nearby_readings():
    gauge = speed.Gauge(clock=None)
    ref = gauge.ref_seconds
    # readings after 0, 2, 4 and 6 ops; the host runs at half speed from op 4 on
    gauge.times = [ref, ref, 2 * ref, 2 * ref]
    gauge.marks = [0, 2, 4, 6]
    scaled = gauge.scale([1.0, 1.0, 1.0, 1.0, 2.0, 2.0])
    want = [1.0, 1.0, 1 / 1.5, 1 / 1.5, 1.0, 1.0]  # medians of readings 0..2, 0..3, 1..3
    assert all(math.isclose(a, b) for a, b in zip(scaled, want, strict=True)), scaled
    assert speed.chunk() == speed.chunk()


def test_metric_names():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = {"end_to_end": {m["name"] for m in bench["end_to_end"]}, "per_layer": {m["name"] for m in bench["per_layer"]}}
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "decide-sweep", "--seed", "1", "--seconds", "0.1", "--trace", str(trace)],
            capture_output=True, text=True, check=True, timeout=170,
        )
        result = json.loads(proc.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == declared[kind]
    for names in declared.values():
        for name in names:
            assert NAME.fullmatch(name) and len(name) <= 64, name


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok  {name}")
    print(f"{len(tests)} passed")
