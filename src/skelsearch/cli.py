"""Command-line front end.

Exit codes: 0 on success (including runs with failed items, which are
recorded in the item journal and flagged in the report), 2 on
configuration errors such as bad paths, unreadable databases, bad config
files, unparsable SQL arguments, or invalid flag values.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import closing
from pathlib import Path

from .bench import (
    BenchConfigError,
    BenchmarkItem,
    DatabaseProfiles,
    RunSettings,
    build_backends,
    load_items,
    load_settings,
    open_database,
    open_profile,
    recompute_report,
    run_benchmark,
    run_complete,
)
from .engine import EmptySearch, run_search
from .schema import render_mschema
from .selector import (
    ExecutionLimits,
    ReadOnlyConnections,
    execute_all,
    select_final,
)
from .sftdata import DatasetBuildError, build_dataset
from .skeleton import GranularityLevel, extract_skeleton, parse_query
from .sqlast import SqlSyntaxError
from .sqlgen import SqlCandidate


def _emit(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False))


def cmd_run(args) -> int:
    settings = load_settings(args.config) if args.config else RunSettings()
    report = run_benchmark(args.dataset, args.db_root, out_dir=args.out,
                           settings=settings)
    print(f"items={report['items']} ex={report['ex']:.4f} "
          f"pass@k={report['pass_at_k']:.4f} "
          f"flagged={len(report['flagged'])}")
    print(f"report written to {args.out}/report.json")
    return 0


def cmd_search(args) -> int:
    settings = load_settings(args.config) if args.config else RunSettings()
    if args.gold:
        # the db_id that open_profile gives the file: its stem
        item = BenchmarkItem("", args.question, Path(args.db).stem,
                             args.gold)
        backends = build_backends(RunSettings(), [item])
    elif settings.mode == "gold":
        raise BenchConfigError("gold mode needs --gold SQL")
    else:
        backends = build_backends(settings, [])
    try:
        with closing(backends):
            profile = open_profile(args.db)
            leaves, tree, cost = run_search(
                profile, args.question, backends.formulator,
                backends.evaluator, settings.search, backends.map_calls)
    except EmptySearch as exc:
        print("empty search: every Base skeleton was pruned",
              file=sys.stderr)
        print(exc.tree.dump())
        return 0
    print(tree.dump())
    _emit({"leaves": [{"level": s.level.label, "text": s.text}
                      for s in leaves],
           "cost": vars(cost)})
    return 0


def cmd_extract_skeleton(args) -> int:
    try:
        tree = parse_query(args.sql)
    except SqlSyntaxError as exc:
        raise BenchConfigError(f"cannot parse SQL: {exc}") from exc
    levels = list(GranularityLevel) if args.level == "all" \
        else [GranularityLevel.from_name(args.level)]
    for level in levels:
        print(f"{level.label}: {extract_skeleton(tree, level).text}")
    return 0


def _load_candidates(path) -> list[SqlCandidate]:
    try:
        with open(path, encoding="utf-8") as handle:
            rows = json.load(handle)
    except OSError as exc:
        raise BenchConfigError(f"cannot read candidates: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise BenchConfigError(f"bad candidates JSON: {exc}") from exc
    if not isinstance(rows, list) or not rows:
        raise BenchConfigError("candidates must be a non-empty JSON list")
    candidates = []
    for row in rows:
        entry = {"sql": row} if isinstance(row, str) else row
        sql = entry.get("sql") if isinstance(entry, dict) else None
        if not isinstance(sql, str) or not sql.strip():
            raise BenchConfigError(
                f"bad candidate entry {row!r}: needs non-blank SQL")
        try:
            level = GranularityLevel.from_name(entry.get("level", "detailed"))
        except ValueError as exc:
            raise BenchConfigError(
                f"bad candidate entry {row!r}: {exc}") from None
        candidates.append(SqlCandidate(sql, level))
    return candidates


def cmd_select(args) -> int:
    candidates = _load_candidates(args.candidates)
    limits = ExecutionLimits(timeout=args.timeout, row_cap=args.row_cap)
    profile = open_database(args.db)  # running SQL reads only its path
    with ReadOnlyConnections() as connections:
        outcomes = execute_all(profile, candidates, limits, connections)
    winner, trace = select_final(candidates, outcomes,
                                 question=args.question or "")
    _emit({"final_sql": winner.sql, "trace": trace.to_dict(),
           "outcomes": [{"status": o.status.value,
                         "fingerprint": o.fingerprint, "error": o.error,
                         "rows": o.row_count} for o in outcomes]})
    return 0


def cmd_build_sft_data(args) -> int:
    if args.pairs_per_level < 1:  # before any database is profiled
        raise BenchConfigError("--pairs-per-level must be at least 1")
    items = load_items(args.corpus)
    profiles = DatabaseProfiles(items, args.db_root)
    corpus = [(item.question, item.gold_sql, profiles[item.db_id])
              for item in items]
    try:
        summary = build_dataset(corpus, args.out,
                                pairs_per_level=args.pairs_per_level,
                                seed=args.seed)
    except (SqlSyntaxError, ValueError) as exc:
        raise BenchConfigError(f"corpus rejected: {exc}") from exc
    except DatasetBuildError as exc:
        raise BenchConfigError(str(exc)) from exc
    _emit({"path": summary.path, "examples": summary.examples,
           "per_level": summary.per_level,
           "skipped": len(summary.skipped)})
    return 0


def cmd_stats(args) -> int:
    report = recompute_report(args.run_dir)
    _emit({"items": report["items"],
           "complete": run_complete(args.run_dir)}
          | {key: report[key] for key in
             ("ex", "pass_at_k", "flagged", "per_difficulty")})
    return 0


def cmd_schema(args) -> int:
    print(render_mschema(open_profile(args.db)), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skelsearch",
        description="Coarse-to-fine skeleton search for text-to-SQL.",
        epilog="Exit codes: 0 success; 2 configuration errors.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="full benchmark run")
    p.add_argument("--dataset", required=True)
    p.add_argument("--db-root", required=True)
    p.add_argument("--config", default="")
    p.add_argument("--out", default="runs")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("search", help="skeleton search for one question")
    p.add_argument("--db", required=True)
    p.add_argument("--question", required=True)
    p.add_argument("--gold", default="")
    p.add_argument("--config", default="")
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("extract-skeleton",
                       help="skeleton of a SQL statement")
    p.add_argument("--sql", required=True)
    p.add_argument("--level", default="all", choices=["all"] + [
        level.label for level in GranularityLevel])
    p.set_defaults(fn=cmd_extract_skeleton)

    p = sub.add_parser("select", help="execute and vote over candidates")
    p.add_argument("--db", required=True)
    p.add_argument("--candidates", required=True,
                   help="JSON list of SQL strings or {sql, level} objects")
    p.add_argument("--question", default="")
    p.add_argument("--timeout", type=float, default=ExecutionLimits.timeout)
    p.add_argument("--row-cap", type=int, default=ExecutionLimits.row_cap)
    p.set_defaults(fn=cmd_select)

    p = sub.add_parser("build-sft-data",
                       help="synthesize the evaluation training set")
    p.add_argument("--corpus", required=True)
    p.add_argument("--db-root", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--pairs-per-level", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_build_sft_data)

    p = sub.add_parser("stats",
                       help="a run's scores and flagged items, recomputed "
                            "from its item journal")
    p.add_argument("--run-dir", required=True)
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser("schema", help="render a database as M-Schema")
    p.add_argument("--db", required=True)
    p.set_defaults(fn=cmd_schema)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:  # BenchConfigError and bad flag values
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
