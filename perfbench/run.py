"""bowforge benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload decide-sweep --seed 1 --seconds 20 --trace 0

One caller drives the library: the next op starts only after the
previous one returned.  The measured phase walks the workload's pool in
whole rounds, at least three, until ops have run for ``--seconds`` of
wall time.  An op's latency is the CPU time it used (its own thread,
plus any child process it ran), scaled to a reference host speed by
the gauge in speed.py.  Each op's output is checked between ops with
the clock stopped.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run (see README.md).  The last line of
standard output is the result object; the line before it is a record
of the run: environment, sample counts and the decide-sweep certificate
digest.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# BLAS threads only add scheduler noise on matrices under about 20 wide;
# pin them before numpy is imported here or in any child process
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import speed  # noqa: E402

SETUP_RUNS = 5  # set-ups per run; setup_s is their median
MIN_ROUNDS = 3  # rounds of the pool at least
IMPORT_RUNS = 5  # interpreter starts per side for cli.import_s
CLI_VERBS = ("check", "synth", "solve", "verify")

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "p50_ms": "ms",
    "p99_ms": "ms",
    "ok_share": "share",
    "peak_rss_mb": "MB",
}


def cpu_clock(children: bool):
    """CPU seconds of the calling thread, plus those of reaped child processes if ``children``.

    Other tenants of a shared host take the cores away for stretches of
    a fraction of a second to minutes.  CPU time leaves that out (the
    kernel books it as steal), where wall time counts it against the op.
    """

    if not children:
        return time.thread_time

    def clock() -> float:
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        return time.thread_time() + usage.ru_utime + usage.ru_stime

    return clock


def pin_to_one_core() -> int:
    """Keep this process and the processes it starts on one core, so that
    the speed gauge times the core the ops run on."""

    core = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {core})
    return core


def setup(name: str, seed: int):
    """Import bowforge, build the workload's inputs and warm up.

    Returns the workload and the set-up's CPU seconds at reference speed,
    gauged by SETUP_CHUNKS chunks before and after it.
    """

    clock = cpu_clock(children=True)  # cli-oneshot warms up in a child process
    gauge = [speed.time_work(speed.chunk, clock) for _ in range(speed.SETUP_CHUNKS)]
    t0 = clock()
    import workloads

    if not Path(workloads.bf.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"bowforge came from {workloads.bf.__file__}, not from this checkout")
    if name not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {name!r}, choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[name](seed)
    wl.warm_up()
    cpu = clock() - t0
    gauge += [speed.time_work(speed.chunk, clock) for _ in range(speed.SETUP_CHUNKS)]
    return wl, cpu * speed.chunk_factor(gauge)


def measure(wl, seconds: float, tracer=None, rounds: int | None = None, check: bool = True) -> dict:
    """Closed-loop run over whole pool rounds: exactly ``rounds`` of them, or
    at least MIN_ROUNDS and at least ``seconds`` of op wall time."""

    pool = wl.pool
    clock = cpu_clock(wl.children)
    wall = time.perf_counter
    lat: list[float] = []
    failed = 0
    first_bad = None
    busy = 0.0
    gauge = speed.Gauge(clock, wl.reference)
    gauge.read(0)
    since_gauge = 0.0
    i = 0
    while True:
        x = pool[i % len(pool)]
        if tracer is not None:
            tracer.on = True
        w0, t0 = wall(), clock()
        try:
            out, err = wl.op(x), None
        except Exception as exc:  # an op that raises is a failed op, not a crash
            out, err = None, exc
        t1, w1 = clock(), wall()
        if tracer is not None:
            tracer.on = False
        lat.append(t1 - t0)
        busy += w1 - w0
        if check:
            reason = f"op raised {err!r}" if err is not None else wl.check(x, out)
            if reason is not None:
                failed += 1
                if first_bad is None:
                    first_bad = f"{wl.describe(x)}: {reason}"
                    print(f"first failed op: {first_bad}", file=sys.stderr)
        i += 1
        since_gauge += lat[-1]
        if since_gauge >= speed.GAUGE_EVERY:
            gauge.read(i)
            since_gauge = 0.0
        if i % len(pool) == 0:
            done = i // len(pool)
            if done == rounds or (rounds is None and done >= MIN_ROUNDS and busy >= seconds):
                break
    if gauge.marks[-1] != i:
        gauge.read(i)
    return {
        "lat": gauge.scale(lat), "cpu_s": sum(lat), "gauge_s": gauge.median(), "rounds": i // len(pool),
        "failed": failed, "first_bad": first_bad, "busy": busy,
    }


def per_input(lat: list[float], size: int) -> list[float]:
    """Each pool input's latency: the median of its timings over the rounds.

    Percentiles are taken over these rather than over single ops.  Where
    a workload's costs have a gap, as construct-sweep's do between exact
    transport and solver re-solves, a percentile over single ops jumps
    across it with every stray timing.
    """

    return [statistics.median(lat[j::size]) for j in range(size)]


def tail_percentile(n: int) -> float:
    """99, or below 1,000 samples the highest whole percentile with ten samples above it
    (100, the maximum, when there are ten samples or fewer)."""

    if n >= 1000:
        return 99.0
    if n <= 10:
        return 100.0
    return math.floor(100.0 * (n - 10) / n)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""

    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # show_config and its layout differ between numpy releases
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repository."""

    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def child_setup_seconds(name: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    return float(proc.stdout.split()[-1])


def interpreter_seconds(code: str) -> float:
    """Median CPU time of ``python -c code`` over IMPORT_RUNS starts."""

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    clock = cpu_clock(children=True)
    times = []
    for _ in range(IMPORT_RUNS):
        t0 = clock()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True, timeout=60)
        times.append(clock() - t0)
    return statistics.median(times)


def end_to_end(wl, args, setup_main: float, record: dict) -> dict:
    run = measure(wl, args.seconds)
    lat, attempted = run["lat"], len(run["lat"])
    per = per_input(lat, len(wl.pool))
    who = resource.RUSAGE_CHILDREN if wl.name == "cli-oneshot" else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(who).ru_maxrss / 1024.0
    if wl.name == "decide-sweep":
        record["certificate_sha256"] = wl.pool_digest()
    setups = [setup_main] + [child_setup_seconds(args.workload, args.seed) for _ in range(SETUP_RUNS - 1)]
    q = tail_percentile(len(per))
    record.update(
        inputs=len(wl.pool), rounds=run["rounds"], tail_percentile=q,
        failed_share=run["failed"] / attempted, first_failed_op=run["first_bad"], setup_runs=setups,
        op_wall_s=run["busy"], op_cpu_s=run["cpu_s"], gauge=wl.reference, gauge_median_s=run["gauge_s"],
        wall_throughput_per_s=attempted / run["busy"], cpu_throughput_per_s=attempted / run["cpu_s"],
    )
    values = {
        "setup_s": statistics.median(setups),
        "throughput_per_s": attempted / sum(lat),
        "p50_ms": 1e3 * statistics.median(per),
        "p99_ms": 1e3 * percentile(per, q),
        "ok_share": 1.0 - run["failed"] / attempted,
        "peak_rss_mb": peak_mb,
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    return {"attempted": attempted, "failed": run["failed"], "metrics": metrics}


def traced(wl, args, record: dict) -> dict:
    from tracer import Tracer

    # traced and untraced rounds alternate, so a slow stretch of the host
    # hits both sides of the overhead ratio alike; together they fill --seconds
    tracer = Tracer()
    lat, plain_lat, failed, first_bad, busy = [], [], 0, None, 0.0
    while len(lat) < MIN_ROUNDS * len(wl.pool) or busy < args.seconds:
        tracer.install()
        try:
            run = measure(wl, 0.0, tracer=tracer, rounds=1)
        finally:
            tracer.uninstall()
        lat += run["lat"]
        busy += run["busy"]
        failed += run["failed"]
        first_bad = first_bad or run["first_bad"]
        plain = measure(wl, 0.0, rounds=1, check=False)
        plain_lat += plain["lat"]
        busy += plain["busy"]
    n = len(lat)
    per_op = {}
    for name, stats in tracer.summary().items():
        for key, value in stats.items():
            per_op[f"{name}.{key}"] = value / n
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for name, value in per_op.items():
        put(name, value, "s/op" if name.endswith("_s") else "1/op")
    decides = tracer.decide_calls
    put("susy.pipeline_moves", tracer.decide_moves / decides if decides else 0.0, "moves")
    put("susy.early_abort_share", tracer.decide_aborts / decides if decides else 0.0, "share")
    checks = per_op["weights.stratum_check_affine.calls"]
    candidates = per_op["weights.transpose_gyd.calls"]
    put("weights.transpose_gyd.useful_share", checks / candidates if candidates else 0.0, "share")
    bare = interpreter_seconds("pass")
    put("cli.import_s", interpreter_seconds("import bowforge") - bare, "s")
    for verb in CLI_VERBS:
        verb_lat = [t for j, t in enumerate(lat) if wl.name == "cli-oneshot" and wl.pool[j % len(wl.pool)][0] == verb]
        put(f"cli.{verb}.p50_ms", 1e3 * statistics.median(verb_lat) if verb_lat else 0.0, "ms")
    traced_tp, plain_tp = n / sum(lat), len(plain_lat) / sum(plain_lat)
    put("trace.throughput_ratio", traced_tp / plain_tp, "ratio")
    record.update(
        inputs=len(wl.pool), rounds=n // len(wl.pool), wrappers=tracer.patched, spans=len(tracer.span_name),
        traced_throughput_per_s=traced_tp, untraced_throughput_per_s=plain_tp, first_failed_op=first_bad,
    )
    return {"attempted": n, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    core = pin_to_one_core()

    try:
        wl, setup_main = setup(args.workload, args.seed)
    except ImportError as exc:
        print(f"error: cannot import the library from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        wl.close()
        print(setup_main)
        return 0

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    record["environment"] = dict(environment(), core=core)
    try:
        result = traced(wl, args, record) if args.trace else end_to_end(wl, args, setup_main, record)
    finally:
        wl.close()
    result = {"correct": result["failed"] == 0, **result}
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
