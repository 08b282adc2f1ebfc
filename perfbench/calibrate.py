"""How fast the shared host runs, measured next to each timed child.

The benchmark's host is shared: its speed drifts by tens of percent within
minutes, in both directions, so raw wall times of the same code differ
more between two sets of runs than any useful regression bound. Each time
is therefore scaled to a reference host speed by fixed work of the same
kind, timed at the same moment. Both probes are the benchmark's own code
or third-party imports, so no change to the program can move them.

- Eval throughput: while a child runs, the parent (otherwise idle, on the
  other core) wakes every TICK_INTERVAL_S and times a fixed pure-Python
  loop, a "tick" of about 2 ms, at ~4% of that core. The mean tick over
  the child's life, over TICK_REFERENCE_S, is how much slower than the
  reference the host ran meanwhile.
- Cold start: a fresh interpreter importing the program's third-party
  dependencies, timed like the program's own cold start, before and after
  each cold-start sample.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

TICK_ITERATIONS = 20_000
TICK_INTERVAL_S = 0.05
# mean tick on this 2-core host across the first recorded runs; the
# metrics read as if the host always ran at that speed
TICK_REFERENCE_S = 0.0018
IMPORT_PROBE_REFERENCE_S = 0.9


def tick() -> float:
    """Seconds for a fixed pure-Python loop."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(TICK_ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - t0


def run_sampled(cmd: list[str], *, timeout: float, **popen_kwargs) -> float:
    """Run cmd to completion while sampling ticks; return the host's
    slowness factor over that time (mean tick / reference).

    Raises subprocess.TimeoutExpired (after killing and reaping the child)
    or subprocess.CalledProcessError like subprocess.run(check=True).
    """
    ticks = []
    deadline = time.monotonic() + timeout
    with subprocess.Popen(cmd, **popen_kwargs) as proc:
        while proc.poll() is None:
            if time.monotonic() > deadline:
                proc.kill()
                proc.wait()
                raise subprocess.TimeoutExpired(cmd, timeout)
            ticks.append(tick())
            time.sleep(TICK_INTERVAL_S)
    if proc.returncode:
        raise subprocess.CalledProcessError(proc.returncode, cmd)
    if not ticks:
        ticks.append(tick())
    return statistics.fmean(ticks) / TICK_REFERENCE_S


def import_probe(env: dict) -> float:
    """Host slowness for cold starts: seconds from spawning an interpreter
    until it has imported numpy, scipy.stats and requests, over the
    reference."""
    spawned = time.monotonic()
    out = subprocess.run(
        [sys.executable, "-c",
         "import numpy, scipy.stats, requests, time; print(time.monotonic())"],
        env=env, check=True, timeout=120, capture_output=True, text=True).stdout
    return (float(out) - spawned) / IMPORT_PROBE_REFERENCE_S
