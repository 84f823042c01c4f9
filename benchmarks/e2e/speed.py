"""Reference-speed time: a probe that measures how fast a CPU runs.

On the shared 2-vCPU host this benchmark was built on, each vCPU
switches between speed levels about 1.5-1.7x apart, for seconds at a
time, and the two vCPUs switch independently (a fixed loop pinned to
each, sampled together for two minutes, gave a correlation of 0.02).
Raw times of the same code therefore spread 15-35% from run to run,
whether wall or CPU time.

So the measured process runs on one CPU, ``MEASURED_CPU``, and beside
it on the same CPU runs a low-priority probe process that repeats a
fixed pure-Python loop and records the CPU time each repetition takes.
The probe runs at the CPU's speed of the moment, so its mean cost over
an interval says how fast the CPU ran during it, and a measured time is
reported at reference speed::

    reference time = measured time * REFERENCE_COST / mean probe cost

Nine relearns of the same input, each beside its own probe, spread 16%
in CPU time and 2% at reference speed.  A probe on the other CPU, or one
sampled between runs, does not follow the measured CPU and does not
help; nor did adding reads scattered over a large heap to the loop
(7% on the same nine relearns).

``python3 speed.py`` is the probe itself: it prints ``ready``, samples
until its stdin closes, then prints its samples as JSON.
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
import time
from contextlib import contextmanager
from typing import Iterator, List, Optional, Tuple

_CPUS = sorted(os.sched_getaffinity(0))
#: The CPU the measured process (a pipeline child or the server) and its
#: probe run on.
MEASURED_CPU = _CPUS[-1]
#: The CPU for everything else: the benchmark process and its load
#: generator.  The same CPU when only one is available.
OTHER_CPU = _CPUS[-2] if len(_CPUS) > 1 else _CPUS[-1]

#: Probe CPU seconds per repetition at reference speed: a round number
#: near a repetition's cost on the build host at its faster level.
REFERENCE_COST = 80e-6
#: Iterations of the probe loop per repetition.
LOOP = 600
#: The probe's niceness: weight 70 against a normal process's 1024, so
#: it takes ~6% of a busy CPU and all of an idle one.
NICE = 12
#: Samples are summed into buckets of this many seconds.
BUCKET = 0.01
#: Fewer samples than this inside an interval: use the whole probe run.
MIN_SAMPLES = 20


@contextmanager
def on_cpu(cpu: int) -> Iterator[None]:
    """Pin the calling thread to ``cpu`` (children started meanwhile
    inherit it), then restore its CPUs."""
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        yield
    finally:
        os.sched_setaffinity(0, before)


def _loop() -> None:
    table: dict = {}
    for i in range(LOOP):
        table[i & 1023] = table.get(i & 1023, 0) + i


def _probe() -> None:
    os.nice(NICE)
    buckets: dict = {}
    print("ready", flush=True)
    while not select.select([sys.stdin], [], [], 0)[0]:
        for _ in range(20):
            start = time.monotonic()
            cost = time.thread_time()
            _loop()
            cost = time.thread_time() - cost
            slot = buckets.setdefault(int(start / BUCKET), [0, 0.0])
            slot[0] += 1
            slot[1] += cost
    print(json.dumps(sorted(buckets.items())))


class SpeedProbe:
    """A probe on ``cpu`` for the duration of a ``with`` block.

    Start the measured process inside the block, pinned to the same CPU;
    after the block, :meth:`reference` converts a time measured inside
    it to reference speed.
    """

    def __init__(self, cpu: int = MEASURED_CPU) -> None:
        self.cpu = cpu
        self.proc: Optional[subprocess.Popen] = None
        #: (bucket start, samples, summed cost), in time order.
        self.buckets: List[Tuple[float, int, float]] = []

    def __enter__(self) -> "SpeedProbe":
        with on_cpu(self.cpu):
            self.proc = subprocess.Popen(
                [sys.executable, os.path.abspath(__file__)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        if self.proc.stdout.readline().strip() != "ready":
            self._stop()
            raise RuntimeError("speed probe failed to start")
        return self

    def __exit__(self, *exc_info) -> None:
        out = self._stop()
        if exc_info[0] is None:
            self.buckets = [(slot * BUCKET, count, total)
                            for slot, (count, total) in json.loads(out)]
            if not self.buckets:
                raise RuntimeError("speed probe took no samples")

    def _stop(self) -> str:
        """Close the probe's stdin and wait; kill it if it hangs."""
        try:
            out, _ = self.proc.communicate(timeout=30)
        except BaseException:
            self.proc.kill()
            self.proc.communicate()
            raise
        return out

    def slowdown(self, start: float, end: float) -> float:
        """Mean probe cost over ``[start, end]`` (``time.monotonic()``
        values) as a multiple of ``REFERENCE_COST``; over the whole
        probe run when the interval holds too few samples."""
        inside = [(count, total) for at, count, total in self.buckets
                  if start - BUCKET < at <= end]
        if sum(count for count, _ in inside) < MIN_SAMPLES:
            inside = [(count, total) for _, count, total in self.buckets]
        count = sum(count for count, _ in inside)
        return sum(total for _, total in inside) / count / REFERENCE_COST

    def reference(self, seconds: float, start: float, end: float) -> float:
        """``seconds`` measured during ``[start, end]``, at reference
        speed."""
        return seconds / self.slowdown(start, end)


if __name__ == "__main__":
    _probe()
