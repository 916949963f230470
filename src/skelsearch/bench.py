"""End-to-end benchmark harness: search, generate, execute, select, score.

Datasets are the benchmarks' published per-item JSON records; databases
live under {db_root}/{db_id}/{db_id}.sqlite. Each item runs the full
pipeline, each distinct SQL text of an item (gold included) executes
once, and each database is profiled once, when the first item that runs
needs it. The journal {out}/items.jsonl, keyed by item index, keeps each
item's record so that interrupted runs resume; it is the only file that
holds the records. The run summary {out}/report.json is a pure function
of them, so it can be recomputed offline and is byte-identical across
item-level concurrency settings under replay backends.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import NamedTuple

from .agents import GoldOracle, LlmEvaluationBackend, LlmFormulationBackend
from .engine import EmptySearch, SearchConfig, run_search
from .gateway import Cassette, GatewayConfig, LlmGateway, endpoint_url
from .journal import Journal
from .schema import DatabaseProfile, profile_from_sqlite, read_only_uri
from .selector import (
    ExecutionLimits,
    LlmArbitratorBackend,
    OutcomeStatus,
    ReadOnlyConnections,
    execute_all,
    execute_candidate,
    same_result,
    select_final,
)
from .skeleton import GranularityLevel
from .sqlast import SqlSyntaxError
from .sqlgen import LlmGenerationBackend, SqlCandidate, generate_all

REPORT_FORMAT = "bench-report"
REPORT_VERSION = 1
MODES = ("gold", "live", "record", "replay")
# read for every item; as in `sqlast`, no enum metaclass lookup
_ERROR = OutcomeStatus.ERROR
_LEVEL_LABELS = tuple(level.label for level in GranularityLevel)


class BenchConfigError(ValueError):
    """Bad run configuration; the only error that exits nonzero."""


@dataclass
class BenchmarkItem:
    question_id: str
    question: str
    db_id: str
    gold_sql: str
    difficulty: str = "unknown"


@dataclass
class RunSettings:
    mode: str = "gold"
    cassette: str = ""
    gateway: GatewayConfig | None = None
    search: SearchConfig = field(default_factory=SearchConfig)
    limits: ExecutionLimits = field(default_factory=ExecutionLimits)
    items_concurrency: int = 1
    arbitration: str = "none"  # none | llm

    def __post_init__(self):
        if self.mode not in MODES:
            raise BenchConfigError(f"unknown mode {self.mode!r}; "
                                   f"expected one of {MODES}")
        if (type(self.items_concurrency) is not int
                or self.items_concurrency < 1):
            raise BenchConfigError("items_concurrency must be an integer "
                                   "of at least 1")
        if self.arbitration not in ("none", "llm"):
            raise BenchConfigError("arbitration must be 'none' or 'llm'")
        if not isinstance(self.cassette, str):
            raise BenchConfigError("cassette must be a path string")
        if self.mode in ("record", "replay") and not self.cassette:
            raise BenchConfigError(f"mode {self.mode!r} needs a cassette "
                                   f"path")
        if self.mode != "gold" and self.gateway is None:
            self.gateway = GatewayConfig()


def load_settings(path) -> RunSettings:
    """Parse the YAML run config; every key is optional."""
    import yaml  # only runs that read a config file pay for the import

    try:
        with open(path, encoding="utf-8") as handle:
            raw = yaml.safe_load(handle) or {}
    except OSError as exc:
        raise BenchConfigError(f"cannot read config: {exc}") from exc
    except yaml.YAMLError as exc:
        raise BenchConfigError(f"bad YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise BenchConfigError("config must be a mapping")
    names = [f.name for f in fields(RunSettings)]
    sections = {"gateway": GatewayConfig, "search": SearchConfig,
                "limits": ExecutionLimits}
    for key, value in raw.items():
        if key not in names:
            raise BenchConfigError(f"unknown config key {key!r}; "
                                   f"expected one of {names}")
        if key in sections and not isinstance(value, dict):
            raise BenchConfigError(f"config section {key!r} must be a "
                                   f"mapping")
    try:
        return RunSettings(**{key: sections[key](**value)
                              if key in sections else value
                              for key, value in raw.items()})
    except TypeError as exc:
        raise BenchConfigError(f"bad config field: {exc}") from exc
    except ValueError as exc:
        raise BenchConfigError(str(exc)) from exc


def load_items(path) -> list[BenchmarkItem]:
    """Read a benchmark release file (JSON array or JSONL) of at least
    one item."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise BenchConfigError(f"cannot read dataset: {exc}") from exc
    text = text.strip()
    if not text:
        raise BenchConfigError("dataset file is empty")
    try:
        if text.startswith("["):
            rows = json.loads(text)
        else:
            rows = [json.loads(line) for line in text.splitlines() if line]
    except json.JSONDecodeError as exc:
        raise BenchConfigError(f"bad dataset JSON: {exc}") from exc
    items = []
    for index, row in enumerate(rows):
        if not isinstance(row, dict):
            raise BenchConfigError(f"item {index} is not an object")
        gold = row.get("SQL") or row.get("query") or row.get("gold_sql")
        question = row.get("question")
        db_id = row.get("db_id")
        for name, value in (("question", question), ("db_id", db_id),
                            ("SQL", gold)):
            if not (isinstance(value, str) and value):
                raise BenchConfigError(f"item {index} field {name} must be "
                                       f"a non-empty string")
        items.append(BenchmarkItem(
            question_id=str(row.get("question_id", index)),
            question=question,
            db_id=db_id,
            gold_sql=gold,
            difficulty=str(row.get("difficulty", "unknown")),
        ))
    if not items:
        raise BenchConfigError("dataset holds no items")
    return items


def resolve_database(db_root, db_id: str) -> str:
    path = Path(db_root) / db_id / f"{db_id}.sqlite"
    if not path.is_file():
        raise BenchConfigError(f"no database for {db_id!r} at {path}")
    return str(path)


def open_profile(path) -> DatabaseProfile:
    """The profile of the database file at `path`; a file that SQLite
    cannot open or read is a BenchConfigError that names it."""
    try:
        return profile_from_sqlite(path)
    except (OSError, sqlite3.Error) as exc:
        raise BenchConfigError(f"cannot open database {path}: {exc}") \
            from exc


def open_database(path) -> DatabaseProfile:
    """A profile of the database file at `path` that holds its path and
    no tables: enough to run SQL on the file, without sampling it. The
    file is opened read-only and its schema read first, so that a file
    SQLite cannot open or read is the BenchConfigError `open_profile`
    raises."""
    try:
        with closing(sqlite3.connect(read_only_uri(path), uri=True)) as conn:
            conn.execute("SELECT count(*) FROM sqlite_master").fetchone()
    except (OSError, sqlite3.Error) as exc:
        raise BenchConfigError(f"cannot open database {path}: {exc}") \
            from exc
    return DatabaseProfile(Path(path).stem, path=str(path))


class DatabaseProfiles:
    """The profile of each database the items name, by db_id.

    Every database is resolved when the mapping is built, so a missing
    one fails before any scan. Each is profiled the first time it is
    asked for, under a lock of its own, so that items running side by
    side profile a database once; a failed profile is not kept, and the
    next ask tries again.
    """

    def __init__(self, items, db_root):
        self._paths = {db_id: resolve_database(db_root, db_id)
                       for db_id in dict.fromkeys(item.db_id
                                                  for item in items)}
        self._locks = {db_id: threading.Lock() for db_id in self._paths}
        self._profiles: dict[str, DatabaseProfile] = {}

    def __getitem__(self, db_id: str) -> DatabaseProfile:
        with self._locks[db_id]:
            if db_id not in self._profiles:
                self._profiles[db_id] = open_profile(self._paths[db_id])
            return self._profiles[db_id]


class Backends(NamedTuple):
    """The model-facing parts of a run; gold mode has no gateway."""

    formulator: object
    evaluator: object
    generator: object
    arbitrator: object = None
    gateway: LlmGateway | None = None

    @property
    def map_calls(self):
        """How a level's model calls run: through the gateway's `map`, or
        inline with the builtin `map` when there is no gateway."""
        return self.gateway.map if self.gateway is not None else map

    def close(self) -> None:
        """Close the gateway (its call pool, then its cassette handle), if
        there is one."""
        if self.gateway is not None:
            self.gateway.close()


def build_backends(settings: RunSettings,
                   items: list[BenchmarkItem]) -> Backends:
    """The backends that settings.mode calls for; replay needs its
    cassette file to exist, and live and record an http(s) endpoint."""
    if settings.mode == "gold":
        golds: dict[tuple[str, str], str] = {}
        for item in items:
            key = (item.db_id, item.question)
            if golds.setdefault(key, item.gold_sql) != item.gold_sql:
                raise BenchConfigError(
                    f"two gold SQL texts for question {item.question!r} "
                    f"on {item.db_id!r}")
        oracle = GoldOracle(golds)
        return Backends(oracle, oracle, oracle)
    if settings.mode == "replay" and not Path(settings.cassette).is_file():
        # every call would miss, and each item would fail on its own
        raise BenchConfigError(f"no cassette at {settings.cassette}")
    if settings.mode in ("live", "record"):
        try:
            endpoint_url(settings.gateway.endpoint)
        except ValueError as exc:
            raise BenchConfigError(f"gateway.endpoint: {exc}") from None
    cassette = Cassette(settings.cassette) if settings.cassette else None
    api_key = os.environ.get(settings.gateway.api_key_env, "")
    gateway = LlmGateway(settings.gateway, mode=settings.mode,
                         cassette=cassette, api_key=api_key)
    arbitrator = LlmArbitratorBackend(gateway) \
        if settings.arbitration == "llm" else None
    return Backends(LlmFormulationBackend(gateway),
                    LlmEvaluationBackend(gateway),
                    LlmGenerationBackend(gateway), arbitrator, gateway)


def run_item(item: BenchmarkItem, profile: DatabaseProfile,
             backends: Backends, settings: RunSettings,
             connections: ReadOnlyConnections) -> dict:
    """One item through search -> generate -> execute -> select.

    With a gateway, the model calls of each search level and the
    generations run through `LlmGateway.map`; without one (gold mode),
    inline. SQL runs on `connections`, which the caller owns.
    """
    record = {
        **vars(item),
        "empty_search": False,
        "error": "",
        "final_sql": "",
        "correct": False,
        "pass_hit": False,
        "k": 0,
        "leaf_levels": [],
        "trace": None,
        "cost": None,
    }
    gold_outcome = execute_candidate(
        profile, SqlCandidate(item.gold_sql, None), settings.limits,
        connections)
    record["gold_status"] = gold_outcome.status.value
    leaves = []
    try:
        leaves, tree, cost = run_search(profile, item.question,
                                        backends.formulator,
                                        backends.evaluator, settings.search,
                                        backends.map_calls)
        record["cost"] = dict(vars(cost))
    except EmptySearch:
        record["empty_search"] = True
    except SqlSyntaxError as exc:  # only the gold oracle parses gold SQL
        record["error"] = f"unparsable gold SQL: {exc}"
        return record
    except Exception as exc:
        record["error"] = f"search failed: {exc}"
        return record
    record["leaf_levels"] = [s.level.label for s in leaves]
    if not leaves:
        return record
    try:
        candidates = generate_all(profile, item.question, leaves,
                                  backends.generator, backends.map_calls)
        outcomes = execute_all(profile, candidates, settings.limits,
                               connections, {item.gold_sql: gold_outcome})
        record["k"] = sum(o.status is not _ERROR for o in outcomes)
        record["pass_hit"] = any(same_result(o, gold_outcome)
                                 for o in outcomes)
        winner, trace = select_final(candidates, outcomes,
                                     backends.arbitrator, item.question)
        record["final_sql"] = winner.sql
        record["trace"] = trace.to_dict()
        record["correct"] = same_result(
            outcomes[candidates.index(winner)], gold_outcome)
    except Exception as exc:
        record["error"] = f"pipeline failed: {exc}"
    return record


def aggregate(records: list[dict], usage: dict | None = None) -> dict:
    """The run summary that report.json holds, from item records alone
    (recomputable offline)."""
    total = len(records)
    correct = sum(bool(r["correct"]) for r in records)
    hits = sum(bool(r["pass_hit"]) for r in records)
    per_difficulty = {}
    for record in records:
        bucket = per_difficulty.setdefault(
            record["difficulty"],
            {"count": 0, "correct": 0, "pass_hits": 0,
             "levels": dict.fromkeys(_LEVEL_LABELS, 0)})
        bucket["count"] += 1
        bucket["correct"] += bool(record["correct"])
        bucket["pass_hits"] += bool(record["pass_hit"])
        for label in record["leaf_levels"]:
            bucket["levels"][label] += 1
    stats = {}
    for difficulty in sorted(per_difficulty):
        bucket = per_difficulty[difficulty]
        leaves = sum(bucket["levels"].values())
        stats[difficulty] = {
            "count": bucket["count"],
            "ex": bucket["correct"] / bucket["count"],
            "pass_at_k": bucket["pass_hits"] / bucket["count"],
            "mean_candidates": leaves / bucket["count"],
            "granularity": {
                label: count / leaves if leaves else 0.0
                for label, count in bucket["levels"].items()},
        }
    return {
        "format": REPORT_FORMAT,
        "version": REPORT_VERSION,
        "items": total,
        "ex": correct / total if total else 0.0,
        "pass_at_k": hits / total if total else 0.0,
        "flagged": sorted(r["question_id"] for r in records
                          if r["empty_search"] or r["error"]),
        "per_difficulty": stats,
        "usage": usage or {},
    }


def _settings_digest(settings: RunSettings) -> str:
    """sha256 of the settings that shape a record: every RunSettings
    field but items_concurrency, as sorted-key JSON, with the cassette
    as its resolved path, so that two spellings of one file agree."""
    fields = asdict(settings)
    del fields["items_concurrency"]
    if settings.cassette:
        fields["cassette"] = str(Path(settings.cassette).resolve())
    return hashlib.sha256(
        json.dumps(fields, sort_keys=True).encode()).hexdigest()


def _item_journal(out: Path) -> Journal:
    """The item records of the run directory `out`, keyed by item index."""
    if (out / "items").is_dir() and not (out / "items.jsonl").exists():
        raise BenchConfigError(f"{out / 'items'} holds checkpoints of an "
                               f"older layout; use a new output directory")
    return Journal(out / "items.jsonl", "bench-items", 1)


def run_benchmark(dataset_path, db_root, out_dir="runs",
                  settings: RunSettings | None = None,
                  backends=None) -> dict:
    """Full run; returns the report dict, which is the run summary plus
    the item records under "records".

    The records go to the journal {out_dir}/items.jsonl and the summary
    alone to {out_dir}/report.json, so the journal is the one file that
    holds the records.

    backends, when given, is a Backends or a plain tuple in its field
    order; otherwise build_backends makes them from settings. Either way
    they exist before any database is resolved, so a replay without its
    cassette file, or gold mode with two golds for one question, fails
    before a missing database does. A database is profiled when the
    first item not reused from the journal needs it (`DatabaseProfiles`),
    so resuming a finished run profiles nothing. Each journal entry holds
    the digest of the settings that made its record, and resume reuses
    an entry only when that digest and all five item fields match; any
    other item runs again. Every item runs its SQL on one connection
    set, which keeps each worker thread's connection to each database
    open until the item pool has drained. The cassette and the item
    journal are closed once the items are done, also when an item raises.
    """
    settings = settings or RunSettings()
    items = load_items(dataset_path)
    out = Path(out_dir)
    journal = _item_journal(out)
    built = Backends(*backends) if backends is not None \
        else build_backends(settings, items)
    connections = ReadOnlyConnections()
    digest = _settings_digest(settings)

    def compute(index_item):
        index, item = index_item
        entry = journal.get(index)
        if (entry is not None and entry.get("settings") == digest
                and all(entry["record"].get(name) == value
                        for name, value in vars(item).items())):
            return entry["record"]
        record = run_item(item, profiles[item.db_id], built, settings,
                          connections)
        journal.put({"key": index, "settings": digest, "record": record})
        return record

    workload = list(enumerate(items))
    # Closing the backends and the journal closes their append handles
    # whether the pool drains or an item raises; a rewrite needs none.
    with connections, closing(built), journal:
        profiles = DatabaseProfiles(items, db_root)
        out.mkdir(parents=True, exist_ok=True)
        # report.json exists only when the directory's last run finished
        (out / "report.json").unlink(missing_ok=True)
        if settings.items_concurrency > 1 and len(workload) > 1:
            with ThreadPoolExecutor(
                    max_workers=settings.items_concurrency) as pool:
                records = list(pool.map(compute, workload))
        else:
            records = [compute(pair) for pair in workload]
    journal.rewrite(range(len(items)))
    usage = {}
    if built.gateway is not None:
        usage = built.gateway.ledger.by_stage()
        if built.gateway.cassette is not None:
            built.gateway.cassette.rewrite_sorted()
    summary = aggregate(records, usage)
    # written whole or not at all, so that its presence means a finished run
    tmp = out / "report.json.tmp"
    tmp.write_text(
        json.dumps(summary, sort_keys=True, ensure_ascii=False, indent=2)
        + "\n", encoding="utf-8")
    os.replace(tmp, out / "report.json")
    return summary | {"records": records}


def run_complete(out_dir) -> bool:
    """Whether the last run in `out_dir` finished: `run_benchmark` removes
    the report before its first item and writes it after its last."""
    return (Path(out_dir) / "report.json").is_file()


def recompute_report(out_dir) -> dict:
    """Rebuild the report dict that `run_benchmark` returned from the
    run's item journal; only `usage` comes from report.json, when the run
    finished."""
    records = [entry["record"]
               for entry in _item_journal(Path(out_dir)).values()]
    if not records:
        raise BenchConfigError(f"no item records under {out_dir}")
    previous = {}
    report_path = Path(out_dir) / "report.json"
    if report_path.is_file():
        previous = json.loads(report_path.read_text(encoding="utf-8"))
    return aggregate(records, previous.get("usage") or {}) \
        | {"records": records}
