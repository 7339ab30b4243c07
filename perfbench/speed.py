"""Host speed gauge: a fixed piece of reference work timed between ops.

On a shared host the speed of a core drifts by a third or more, over
stretches from a second to minutes, as other tenants load the same
physical cores and caches.  CPU time leaves out the time the core was
taken away (steal) but not this slowdown.  The gauge measures it: the
benchmark runs a workload's reference work after every GAUGE_EVERY
seconds of op CPU time and times it with the same clock as the ops.
``Gauge.scale`` turns each op's CPU time into the time it would have
taken at the speed where the reference work takes its REFERENCES time,
using the median of the GAUGE_WINDOW readings nearest to it.

There are two kinds of reference work, one for each kind of op:

- ``chunk``: dict, list, sort, attribute and method work in this
  process, for ops that run the library in-process;
- ``start_interpreter``: a bare ``python -c pass`` process, for ops
  that start a process.  Process start-up (exec, page faults, imports)
  drifts unlike in-process work, and after a child process has run the
  parent's caches are cold, so a chunk timed there scatters widely.

Neither touches bowforge, so a change to bowforge cannot move them: a
slower library still reads slower, and only the host's drift is taken
out.
"""

from __future__ import annotations

import random
import statistics
import subprocess
import sys

GAUGE_EVERY = 0.02  # op CPU seconds between readings
GAUGE_WINDOW = 4  # readings whose median scales an op, half on either side of it
SETUP_CHUNKS = 5  # chunks timed before and after each set-up

_rng = random.Random(20250426)
_ROWS = [(_rng.randrange(1000), str(_rng.random())) for _ in range(2000)]


class _Item:
    __slots__ = ("key", "text")

    def __init__(self, key: int, text: str):
        self.key = key
        self.text = text

    def weight(self) -> int:
        return self.key + len(self.text)


def chunk() -> int:
    """In-process reference work: group, sort and sum 2,000 small objects."""

    groups: dict[int, list[_Item]] = {}
    for key, text in _ROWS:
        groups.setdefault(key, []).append(_Item(key, text))
    total = 0
    for key in sorted(groups):
        total += sum(item.weight() for item in groups[key])
    return total


def start_interpreter() -> None:
    """Process reference work: start a bare interpreter and wait for it."""

    subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)


# reference work by name, with the CPU seconds that define reference
# speed.  These only set the scale of the reported times: round figures
# near what the work takes on the host the benchmark was built on
# (Intel Xeon, 2 vCPUs, Python 3.11).
REFERENCES = {
    "chunk": (chunk, 1.6e-3),
    "start_interpreter": (start_interpreter, 45e-3),
}


def time_work(work, clock) -> float:
    t0 = clock()
    work()
    return clock() - t0


def chunk_factor(readings: list[float]) -> float:
    """Factor that scales a CPU time to reference speed, from chunk ``readings`` taken around it."""

    return REFERENCES["chunk"][1] / statistics.median(readings)


class Gauge:
    """Timings of one kind of reference work taken between ops, and the op count at each."""

    def __init__(self, clock, reference: str = "chunk"):
        self.clock = clock
        self.work, self.ref_seconds = REFERENCES[reference]
        self.times: list[float] = []
        self.marks: list[int] = []

    def read(self, ops_done: int) -> None:
        self.times.append(time_work(self.work, self.clock))
        self.marks.append(ops_done)

    def scale(self, lat: list[float]) -> list[float]:
        """Each op's latency at reference speed.  The ops between two
        readings take the median of the GAUGE_WINDOW readings around them."""

        out = []
        half = GAUGE_WINDOW // 2
        for k in range(len(self.marks) - 1):
            window = self.times[max(0, k + 1 - half) : k + 1 + half]
            factor = self.ref_seconds / statistics.median(window)
            out += [t * factor for t in lat[self.marks[k] : self.marks[k + 1]]]
        return out

    def median(self) -> float:
        return statistics.median(self.times)
