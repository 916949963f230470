"""Host-speed calibration for timings taken on a shared machine.

On a few vCPUs of a shared host the speed of the same instructions
drifts by tens of percent over minutes, as other tenants come and go.
Medians over a run absorb bursts of a few seconds, not such level shifts.
So the timed loop runs a fixed kernel between its `run_benchmark` calls:
interpreter work (tokenizing, dict counting, sorting) and an SQLite
aggregate, the kinds of work the pipeline does on the replay workloads.
`Calibration.measure` gives the kernel time divided by REFERENCE_S, a
fixed kernel time. On those workloads each call's timings are divided
by the mean of the measures just before and just after it (rates are
multiplied), so they read as on a host where the kernel takes
REFERENCE_S. The kernel is the benchmark's own code: a slower pipeline
still reads slower.
"""

from __future__ import annotations

import random
import re
import sqlite3
import statistics
import time

# About the median kernel time on a 2-vCPU KVM guest of an Intel Xeon
# (family 6, model 207) under a typical shared-host load.
REFERENCE_S = 0.015
REPS = 5

_TOKEN = re.compile(r"\s*(?:(\w+)|('[^']*')|(.))")


class Calibration:
    """Fixed inputs for the kernel."""

    def __init__(self):
        rng = random.Random(0)
        self.conn = sqlite3.connect(":memory:")
        self.conn.execute("CREATE TABLE t (k INTEGER, g TEXT, v REAL)")
        self.conn.executemany(
            "INSERT INTO t VALUES (?, ?, ?)",
            [(rng.randrange(10**7, 10**8), f"g{rng.randrange(50)}",
              rng.random()) for _ in range(20_000)])
        self.text = " ".join(
            f"SELECT c{rng.randrange(90)} FROM t{rng.randrange(9)} WHERE "
            f"k > {rng.randrange(10**7, 10**8)} AND g = 'g{i}'"
            for i in range(150))

    def _kernel(self) -> int:
        counts: dict[str, int] = {}
        for match in _TOKEN.finditer(self.text):
            token = match.group(1) or match.group(2) or match.group(3)
            counts[token] = counts.get(token, 0) + 1
        ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        rows = self.conn.execute(
            "SELECT g, COUNT(*), SUM(v), MAX(k) FROM t GROUP BY g "
            "ORDER BY 2 DESC").fetchall()
        return len(ordered) + len(rows)

    def measure(self) -> float:
        """How many times slower than the reference the host runs now:
        the median of REPS kernel times over REFERENCE_S."""
        times = []
        for _ in range(REPS):
            start = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - start)
        return statistics.median(times) / REFERENCE_S
