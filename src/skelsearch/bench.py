"""End-to-end benchmark harness: search, generate, execute, select, score.

Datasets are the benchmarks' published per-item JSON records; databases
live under {db_root}/{db_id}/{db_id}.sqlite. Each item runs the full
pipeline, each distinct SQL text of an item (gold included) executes
once, and a JSON checkpoint per item makes interrupted runs resumable.
The report is a pure function of the persisted item records, so it can
be recomputed offline and is byte-identical across item-level
concurrency settings under replay backends.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import yaml

from .agents import (
    GoldFormulationBackend,
    GoldOracleEvaluationBackend,
    LlmEvaluationBackend,
    LlmFormulationBackend,
)
from .engine import EmptySearch, SearchConfig, run_search
from .gateway import Cassette, GatewayConfig, LlmGateway
from .schema import DatabaseProfile, profile_from_sqlite
from .selector import (
    ExecutionLimits,
    ExecutionOutcome,
    LlmArbitratorBackend,
    OutcomeStatus,
    execute_all,
    execute_candidate,
    select_final,
)
from .sqlast import SqlSyntaxError
from .sqlgen import GoldEchoGenerationBackend, LlmGenerationBackend, \
    SqlCandidate, generate_all

REPORT_FORMAT = "bench-report"
REPORT_VERSION = 1
MODES = ("gold", "live", "record", "replay")


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
        if self.items_concurrency < 1:
            raise BenchConfigError("items_concurrency must be at least 1")
        if self.arbitration not in ("none", "llm"):
            raise BenchConfigError("arbitration must be 'none' or 'llm'")
        if self.mode in ("record", "replay") and not self.cassette:
            raise BenchConfigError(f"mode {self.mode!r} needs a cassette "
                                   f"path")
        if self.mode != "gold" and self.gateway is None:
            self.gateway = GatewayConfig()


def load_settings(path) -> RunSettings:
    """Parse the YAML run config; every key is optional."""
    try:
        with open(path, encoding="utf-8") as handle:
            raw = yaml.safe_load(handle) or {}
    except OSError as exc:
        raise BenchConfigError(f"cannot read config: {exc}") from exc
    except yaml.YAMLError as exc:
        raise BenchConfigError(f"bad YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise BenchConfigError("config must be a mapping")
    try:
        gateway = GatewayConfig(**raw.get("gateway", {})) \
            if "gateway" in raw else None
        search = SearchConfig(**raw.get("search", {}))
        limits = ExecutionLimits(**raw.get("limits", {}))
        return RunSettings(
            mode=raw.get("mode", "gold"),
            cassette=raw.get("cassette", ""),
            gateway=gateway,
            search=search,
            limits=limits,
            items_concurrency=raw.get("items_concurrency", 1),
            arbitration=raw.get("arbitration", "none"),
        )
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
        if not (gold and question and db_id):
            raise BenchConfigError(
                f"item {index} lacks question/db_id/SQL fields")
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


def _result_token(outcome: ExecutionOutcome) -> str | None:
    """Comparable result identity; None means not comparable (error)."""
    if outcome.status is OutcomeStatus.ROWS:
        return outcome.fingerprint
    if outcome.status is OutcomeStatus.EMPTY:
        return "empty"
    return None


class Backends(NamedTuple):
    """The model-facing parts of a run; gold mode has no gateway."""

    formulator: object
    evaluator: object
    generator: object
    arbitrator: object = None
    gateway: LlmGateway | None = None


def build_backends(settings: RunSettings,
                   items: list[BenchmarkItem]) -> Backends:
    """The backends that settings.mode calls for."""
    if settings.mode == "gold":
        golds = {item.question: item.gold_sql for item in items}
        return Backends(GoldFormulationBackend(golds),
                        GoldOracleEvaluationBackend(golds),
                        GoldEchoGenerationBackend(golds))
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
             backends, settings: RunSettings) -> dict:
    """One item through search -> generate -> execute -> select.

    backends is a Backends or a plain tuple in its field order.
    """
    backends = Backends(*backends)
    record = {
        "question_id": item.question_id,
        "db_id": item.db_id,
        "difficulty": item.difficulty,
        "question": item.question,
        "gold_sql": item.gold_sql,
        "empty_search": False,
        "error": "",
        "final_sql": "",
        "correct": False,
        "pass_hit": False,
        "k": 0,
        "candidate_count": 0,
        "leaf_levels": [],
        "trace": None,
        "cost": None,
    }
    gold_outcome = execute_candidate(
        profile, SqlCandidate(item.gold_sql, None), settings.limits)
    gold_token = _result_token(gold_outcome)
    record["gold_status"] = gold_outcome.status.value
    leaves = []
    try:
        leaves, tree, cost = run_search(profile, item.question,
                                        backends.formulator,
                                        backends.evaluator, settings.search)
        record["cost"] = {"n_d": cost.n_d, "rho": cost.rho,
                          "depth": cost.depth, "gen_calls": cost.gen_calls,
                          "eval_calls": cost.eval_calls}
    except EmptySearch:
        record["empty_search"] = True
    except SqlSyntaxError as exc:  # only the gold backends parse gold SQL
        record["error"] = f"unparsable gold SQL: {exc}"
        return record
    except Exception as exc:
        record["error"] = f"search failed: {exc}"
        return record
    record["leaf_levels"] = [s.level.label for s in leaves]
    record["candidate_count"] = len(leaves)
    if not leaves:
        return record
    try:
        candidates = generate_all(profile, item.question, leaves,
                                  backends.generator)
        outcomes = execute_all(profile, candidates, settings.limits,
                               known={item.gold_sql: gold_outcome})
        tokens = [_result_token(o) for o in outcomes]
        record["k"] = sum(token is not None for token in tokens)
        if gold_token is not None:
            record["pass_hit"] = any(token == gold_token
                                     for token in tokens)
        winner, trace = select_final(candidates, outcomes,
                                     backends.arbitrator, item.question)
        record["final_sql"] = winner.sql
        record["trace"] = trace.to_dict()
        winner_token = tokens[candidates.index(winner)]
        record["correct"] = (gold_token is not None
                             and winner_token == gold_token)
    except Exception as exc:
        record["error"] = f"pipeline failed: {exc}"
    return record


def aggregate(records: list[dict], usage: dict | None = None) -> dict:
    """Report content from item records alone (recomputable offline)."""
    total = len(records)
    correct = sum(bool(r["correct"]) for r in records)
    hits = sum(bool(r["pass_hit"]) for r in records)
    per_difficulty = {}
    for record in records:
        bucket = per_difficulty.setdefault(
            record["difficulty"],
            {"count": 0, "correct": 0, "pass_hits": 0, "candidates": 0,
             "levels": {"base": 0, "expanded": 0, "detailed": 0}})
        bucket["count"] += 1
        bucket["correct"] += bool(record["correct"])
        bucket["pass_hits"] += bool(record["pass_hit"])
        bucket["candidates"] += record["candidate_count"]
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
            "mean_candidates": bucket["candidates"] / bucket["count"],
            "granularity": {
                label: (bucket["levels"][label] / leaves if leaves else 0.0)
                for label in ("base", "expanded", "detailed")},
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
        "records": records,
    }


def _checkpoint_path(out_dir: Path, index: int) -> Path:
    return out_dir / "items" / f"{index:05d}.json"


def _load_checkpoint(path: Path, item: BenchmarkItem) -> dict | None:
    if not path.is_file():
        return None
    try:
        record = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return None
    if record.get("question_id") != item.question_id:
        return None
    return record


def run_benchmark(dataset_path, db_root, config_path=None, out_dir="runs",
                  settings: RunSettings | None = None,
                  backends=None) -> dict:
    """Full run; returns the report dict and persists it under out_dir.

    backends, when given, is a Backends or a plain tuple in its field
    order; otherwise build_backends makes them from settings.
    """
    if settings is None:
        settings = load_settings(config_path) if config_path \
            else RunSettings()
    items = load_items(dataset_path)
    profiles: dict[str, DatabaseProfile] = {}
    for item in items:
        if item.db_id not in profiles:
            profiles[item.db_id] = profile_from_sqlite(
                resolve_database(db_root, item.db_id), db_id=item.db_id)
    built = Backends(*backends) if backends is not None \
        else build_backends(settings, items)
    out = Path(out_dir)
    (out / "items").mkdir(parents=True, exist_ok=True)

    def compute(index_item):
        index, item = index_item
        path = _checkpoint_path(out, index)
        record = _load_checkpoint(path, item)
        if record is None:
            record = run_item(item, profiles[item.db_id], built, settings)
            path.write_text(
                json.dumps(record, sort_keys=True, ensure_ascii=False)
                + "\n", encoding="utf-8")
        return record

    workload = list(enumerate(items))
    if settings.items_concurrency > 1 and len(workload) > 1:
        with ThreadPoolExecutor(
                max_workers=settings.items_concurrency) as pool:
            records = list(pool.map(compute, workload))
    else:
        records = [compute(pair) for pair in workload]
    usage = {}
    if built.gateway is not None:
        ledger = built.gateway.ledger
        usage = {stage: ledger.totals(stage) for stage in ledger.stages()}
        if built.gateway.cassette is not None:
            built.gateway.cassette.rewrite_sorted()
    report = aggregate(records, usage)
    (out / "report.json").write_text(
        json.dumps(report, sort_keys=True, ensure_ascii=False, indent=2)
        + "\n", encoding="utf-8")
    return report


def recompute_report(out_dir) -> dict:
    """Rebuild the report from persisted item checkpoints only."""
    items_dir = Path(out_dir) / "items"
    if not items_dir.is_dir():
        raise BenchConfigError(f"no item checkpoints under {out_dir}")
    records = []
    for path in sorted(items_dir.glob("*.json")):
        records.append(json.loads(path.read_text(encoding="utf-8")))
    if not records:
        raise BenchConfigError(f"no item checkpoints under {out_dir}")
    previous = {}
    report_path = Path(out_dir) / "report.json"
    if report_path.is_file():
        previous = json.loads(report_path.read_text(encoding="utf-8"))
    return aggregate(records, previous.get("usage") or {})
