#!/usr/bin/env python3
"""Hermetic benchmark of the skelsearch pipeline (no model, no network).

    python3 perfbench/run.py --workload replay-search --seed 1 \
        --seconds 10 --trace 0

Set-up builds seeded SQLite databases and a dataset (gen.py), builds the
model double's answer table (model.py), and records a cassette plus the
reference records with one `run_benchmark` pass in record mode. The
timed phase then calls `skelsearch.bench.run_benchmark` again and again
until `--seconds` have passed; each call's records are checked against
the reference and re-scored (check.py).

`--trace 0` reports the end-to-end metrics; the only wrapper installed
is a timer on `skelsearch.bench.run_item`. On the replay workloads
their timings are scaled to a reference host speed measured around
each call (calib.py). `--trace 1` alternates
untraced calls with traced ones (spans.py) and reports per-layer
metrics, plus the tracing overhead on the human-readable lines.
`--smoke` shrinks every workload to a few items and one call per phase,
for the benchmark's own tests.

The last line of stdout is one JSON object: correct, attempted, failed
and metrics. Scratch files live under .perfbench_work/ in the checkout
and are removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".perfbench_work"
SRC = ROOT / "src"
if not (SRC / "skelsearch" / "__init__.py").is_file():
    raise SystemExit(f"perfbench: no skelsearch sources under {SRC}")
sys.path.insert(0, str(SRC))  # the code under test, from this checkout

import calib  # noqa: E402
import check  # noqa: E402
import gen  # noqa: E402
import model  # noqa: E402
import skelsearch.bench  # noqa: E402
import spans  # noqa: E402
from skelsearch.agents import LlmEvaluationBackend, \
    LlmFormulationBackend  # noqa: E402
from skelsearch.bench import RunSettings, run_benchmark  # noqa: E402
from skelsearch.gateway import Cassette, GatewayConfig, \
    LlmGateway  # noqa: E402
from skelsearch.selector import LlmArbitratorBackend  # noqa: E402
from skelsearch.sqlgen import LlmGenerationBackend  # noqa: E402

MIN_CALLS = 3
MIN_ITEMS = 200  # so that at least 10 items lie above the p95


@dataclass(frozen=True)
class Workload:
    mode: str  # replay, or record through the model double with latency
    n_dbs: int
    large: bool
    items: int
    concurrency: int
    # Time is CPU time on one thread, which host speed (calib.py) sets.
    cpu_bound: bool


NPROC = len(os.sched_getaffinity(0))

# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "replay-search": Workload("replay", n_dbs=6, large=False, items=150,
                              concurrency=1, cpu_bound=True),
    "replay-exec": Workload("replay", n_dbs=2, large=True, items=30,
                            concurrency=1, cpu_bound=True),
    "record-latency": Workload("record", n_dbs=4, large=False, items=60,
                               concurrency=NPROC, cpu_bound=False),
}

END_TO_END_UNITS = {
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_p95_ms": "ms",
    "cpu_ms_per_item": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="a few items, one call per phase, no minimums")
    return parser.parse_args(argv)


class ItemTimer:
    """The thin wrapper on run_item used by untraced calls."""

    def __init__(self, fn):
        self.fn = fn
        self.durations: list[float] = []
        self.first: float | None = None
        self.first_cpu = 0.0
        self._lock = threading.Lock()

    def __call__(self, *args, **kwargs):
        start = time.perf_counter()
        if self.first is None:
            with self._lock:
                if self.first is None:
                    self.first_cpu = time.process_time()
                    self.first = start
        try:
            return self.fn(*args, **kwargs)
        finally:
            self.durations.append(time.perf_counter() - start)


@dataclass
class CallStats:
    wall: float
    setup: float
    items: int
    cpu_items: float
    durations: list[float]
    host: float = 1.0  # host-speed factor around the call (calib.py)


class Bench:
    """One workload's inputs, reference and run_benchmark calls."""

    def __init__(self, name: str, spec: Workload, seed: int, workdir: Path):
        self.spec = spec
        self.workdir = workdir
        self.calls = 0
        rng = random.Random(f"{name}/{seed}")
        sizes = gen.LARGE if spec.large else gen.SMALL
        self.inputs = gen.build_inputs(workdir / "inputs", rng, spec.n_dbs,
                                       sizes, spec.items)
        self.int_share = gen.int_cell_share(self.inputs.databases)
        self.table = model.ModelTable(self.inputs.variants)
        self.config = GatewayConfig(model="double", retries=2,
                                    backoff_base=0.001)
        self.cassette = workdir / "tape.jsonl"
        reference = self._run(self._record_backends(
            self.cassette, model.ModelDouble(self.table)), "record",
            self.cassette, 1, workdir / "reference")
        self.checker = check.Checker(
            reference["records"],
            {db.db_id: str(db.path) for db in self.inputs.databases})
        self.question_items = {item["question"]: item["question_id"]
                               for item in self.inputs.items}

    def _record_backends(self, cassette: Path, transport):
        gw = LlmGateway(self.config, mode="record",
                        cassette=Cassette(cassette), transport=transport)
        return (LlmFormulationBackend(gw), LlmEvaluationBackend(gw),
                LlmGenerationBackend(gw), LlmArbitratorBackend(gw), gw)

    def _run(self, backends, mode: str, cassette: Path, concurrency: int,
             out: Path) -> dict:
        settings = RunSettings(mode=mode, cassette=str(cassette),
                               gateway=self.config,
                               items_concurrency=concurrency,
                               arbitration="llm")
        return run_benchmark(self.inputs.dataset, self.inputs.db_root,
                             out_dir=out, settings=settings,
                             backends=backends)

    def call(self, tracer=None):
        """One timed run_benchmark call: (report, CallStats, (t0, t1))."""
        bench = skelsearch.bench
        self.calls += 1
        out = self.workdir / f"out{self.calls}"
        cassette, backends = self.cassette, None
        if self.spec.mode == "record":
            cassette = self.workdir / f"tape{self.calls}.jsonl"
            transport = model.ModelDouble(self.table, latency=True)
            if tracer is not None:
                transport = tracer.transport(transport)
            backends = self._record_backends(cassette, transport)
        timer = None
        if tracer is not None:
            tracer.install()
        else:
            timer = ItemTimer(bench.run_item)
            bench.run_item = timer
        t0 = time.perf_counter()
        try:
            report = self._run(backends, self.spec.mode, cassette,
                               self.spec.concurrency, out)
        finally:
            t1 = time.perf_counter()
            cpu1 = time.process_time()
            if tracer is not None:
                tracer.uninstall()
            else:
                bench.run_item = timer.fn
            shutil.rmtree(out, ignore_errors=True)
            if cassette != self.cassette:
                cassette.unlink(missing_ok=True)
        stats = None
        if timer is not None:
            first = timer.first if timer.first is not None else t1
            stats = CallStats(t1 - t0, first - t0, len(report["records"]),
                              cpu1 - timer.first_cpu, timer.durations)
        return report, stats, (t0, t1)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def end_to_end(calls: list[CallStats], scaled: bool) -> dict:
    """End-to-end metrics; when scaled, every timing of a call is
    divided by the call's host-speed factor."""
    host = (lambda c: c.host) if scaled else (lambda c: 1.0)
    durations = [d / host(c) for c in calls for d in c.durations]
    return {
        "items_per_s": statistics.median(
            c.items / c.wall * host(c) for c in calls),
        "item_p50_ms": percentile(durations, 50) * 1e3,
        "item_p95_ms": percentile(durations, 95) * 1e3,
        "cpu_ms_per_item": statistics.median(
            c.cpu_items / c.items * 1e3 / host(c) for c in calls),
        "setup_s": statistics.median(c.setup / host(c) for c in calls),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def run(args, workdir: Path) -> dict:
    spec = WORKLOADS[args.workload]
    if args.smoke:
        spec = replace(spec, n_dbs=min(spec.n_dbs, 2), large=False,
                       items=6)
    bench = Bench(args.workload, spec, args.seed, workdir)
    tracer = spans.Tracer(bench.question_items) if args.trace else None
    host = calib.Calibration()
    untraced: list[CallStats] = []
    windows: list[tuple[float, float]] = []
    traced_rates: list[float] = []

    deadline = time.perf_counter() + args.seconds
    speed = host.measure()
    while True:
        report, stats, _ = bench.call()
        bench.checker.check(report["records"])
        untraced.append(stats)
        after = host.measure()
        stats.host, speed = (speed + after) / 2, after
        if tracer is not None:
            report, _, window = bench.call(tracer)
            bench.checker.check(report["records"])
            windows.append(window)
            traced_rates.append(len(report["records"])
                                / (window[1] - window[0]))
            speed = host.measure()
        enough = tracer is not None or (
            len(untraced) >= MIN_CALLS
            and sum(c.items for c in untraced) >= MIN_ITEMS)
        if args.smoke or (time.perf_counter() >= deadline and enough):
            break

    checker = bench.checker
    attempted, failed = len(checker.reference), len(checker.failed_items)
    e2e = end_to_end(untraced, scaled=spec.cpu_bound)
    raw = end_to_end(untraced, scaled=False)
    print(f"workload {args.workload} seed {args.seed}: "
          f"{len(untraced)} untraced calls of {spec.items} items, "
          f"{len(windows)} traced")
    print(f"  item_fail_rate = {failed / attempted:.6g} "
          f"({failed} of {attempted} items, each checked in every call)")
    for problem in sorted(checker.problems)[:10]:
        print(f"  failed: {problem}")
    if tracer is None:
        metrics = {name: (value, END_TO_END_UNITS[name])
                   for name, value in e2e.items()}
        factor = statistics.median(c.host for c in untraced)
        print(f"  host speed: median factor {factor:.4g} "
              f"(calibration kernel {factor * calib.REFERENCE_S * 1e3:.4g}"
              f" ms, reference {calib.REFERENCE_S * 1e3:.4g} ms), "
              f"{'applied' if spec.cpu_bound else 'not applied'}; "
              "unscaled: " + ", ".join(
                  f"{name} {value:.4g}" for name, value in raw.items()
                  if name != "peak_rss_mb"))
    else:
        layers = spans.layer_metrics(tracer, windows)
        layers["data.int_cells_ge_1e7_share"] = bench.int_share
        metrics = {name: (value, spans.unit_of(name))
                   for name, value in layers.items()}
        untraced_rate = raw["items_per_s"]
        traced_rate = statistics.median(traced_rates)
        print(f"  tracing overhead: {untraced_rate:.4g} items/s untraced, "
              f"{traced_rate:.4g} traced "
              f"({(1 - traced_rate / untraced_rate) * 100:.1f}% slower)")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    return {
        "correct": not checker.broken_items,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                    dir=WORK_ROOT))
    os.environ["SQLITE_TMPDIR"] = str(workdir)
    try:
        result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
