"""The benchmark trajectory: every `BENCH_<nn>_<workload>.json` at the
root of the repository records the perfbench runs behind one change.

Each file lists every run made for that change on one workload, on the
parent commit and on the change, so that a later reader can redo the
comparison. Only the files' shape is checked here, never their timings.
"""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {metric["name"] for metric in BENCHMARK["end_to_end"]}
WORKLOADS = {workload["name"] for workload in BENCHMARK["workloads"]}
FILES = sorted(ROOT.glob("BENCH_*.json"))
SHA = re.compile(r"[0-9a-f]{40}")
# field -> the types its value may have, for each run a file lists
RUN_FIELDS = {
    "side": str,
    "commit": str,
    "seed": int,
    "seconds": (int, float),
    "nproc": int,
    "python": str,
    "sqlite": str,
    "host_factor": (int, float),
    "unscaled": dict,
    "result": dict,
}


def test_the_trajectory_has_files():
    assert FILES, "no BENCH_*.json at the root of the repository"


@pytest.mark.parametrize("path", FILES, ids=lambda path: path.name)
def test_bench_file_records_its_runs(path):
    match = re.fullmatch(r"BENCH_(\d+)_(.+)\.json", path.name)
    assert match, "expected BENCH_<nn>_<workload>.json"
    record = json.loads(path.read_text(encoding="utf-8"))
    assert record["workload"] == match[2]
    assert record["workload"] in WORKLOADS
    commits = {"parent": record["parent"], "change": record["change"]}
    # earlier versions of the change that some runs measured, each with
    # the reason it was replaced
    superseded = record.get("superseded", {})
    assert all(SHA.fullmatch(commit)
               for commit in [*commits.values(), *superseded])
    assert all(isinstance(reason, str) and reason
               for reason in superseded.values())
    assert record["runs"]
    for run in record["runs"]:
        for name, types in RUN_FIELDS.items():
            assert isinstance(run[name], types), name
        assert run["commit"] == commits[run["side"]] or (
            run["side"] == "change" and run["commit"] in superseded)
        result = run["result"]
        assert isinstance(result["correct"], bool)
        assert isinstance(result["attempted"], int)
        assert isinstance(result["failed"], int)
        assert set(result["metrics"]) <= END_TO_END
        assert set(run["unscaled"]) <= END_TO_END
    assert {run["side"] for run in record["runs"]} == {"parent", "change"}
    assert record["change"] in {run["commit"] for run in record["runs"]}
    assert set(record["summary"]) <= END_TO_END
    assert record["claim"] is None or record["claim"] in END_TO_END
