"""Correctness check of run_benchmark records, independent of the pipeline.

Every timed record must equal the reference record the same commit
produced at set-up. On top of that the benchmark re-scores `final_sql`
against the gold SQL with its own sqlite3 run and its own result
comparison: integers exactly, floats within a relative 1e-6, and row
order only when both queries have an outer ORDER BY (otherwise as
multisets). It shares no code with the pipeline's fingerprints, so a
result that the pipeline merges or splits wrongly shows up as a
disagreement with the record's `correct` flag.
"""

from __future__ import annotations

import math
import re
import sqlite3
from dataclasses import dataclass, field

_QUOTED = re.compile(r"'(?:[^']|'')*'|\"(?:[^\"]|\"\")*\"")
_ORDER_BY = re.compile(r"\bORDER\s+BY\b", re.IGNORECASE)


def outer_ordered(sql: str) -> bool:
    """True when ORDER BY appears outside every parenthesis."""
    text = _QUOTED.sub("''", sql)
    depth, outer = 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0:
            outer.append(ch)
    return bool(_ORDER_BY.search("".join(outer)))


def _cell_key(value):
    if value is None:
        return (0, 0)
    if isinstance(value, (int, float)):
        return (1, value)
    if isinstance(value, str):
        return (2, value)
    return (3, bytes(value))


def cells_equal(a, b) -> bool:
    if isinstance(a, int) and isinstance(b, int):
        return a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return math.isclose(a, b, rel_tol=1e-6, abs_tol=0.0)
    return type(a) is type(b) and a == b


def rows_equal(gold: list[tuple], pred: list[tuple], ordered: bool) -> bool:
    if len(gold) != len(pred):
        return False
    if not ordered:
        gold = sorted(gold, key=lambda r: tuple(map(_cell_key, r)))
        pred = sorted(pred, key=lambda r: tuple(map(_cell_key, r)))
    return all(len(g) == len(p) and all(map(cells_equal, g, p))
               for g, p in zip(gold, pred))


def fetch(db_path: str, sql: str) -> list[tuple] | None:
    """All rows of a read-only query, or None when it fails."""
    if not sql.strip():
        return None
    conn = sqlite3.connect(f"file:{db_path}?mode=ro", uri=True)
    try:
        return conn.execute(sql).fetchall()
    except sqlite3.Error:
        return None
    finally:
        conn.close()


def rescore(db_path: str, gold_sql: str, final_sql: str) -> bool:
    """Whether final_sql returns the gold result, by the rules above."""
    gold = fetch(db_path, gold_sql)
    pred = fetch(db_path, final_sql)
    if gold is None or pred is None:
        return False
    ordered = outer_ordered(gold_sql)
    if ordered != outer_ordered(final_sql):
        return False
    return rows_equal(gold, pred, ordered)


@dataclass
class Checker:
    """Compares each call's records with the set-up reference."""

    reference: list[dict]
    db_paths: dict[str, str]
    _scores: dict[tuple, bool] = field(default_factory=dict)
    problems: set[str] = field(default_factory=set)
    failed_items: set[str] = field(default_factory=set)
    broken_items: set[str] = field(default_factory=set)

    def score(self, record: dict) -> bool:
        key = (record["db_id"], record["gold_sql"], record["final_sql"])
        if key not in self._scores:
            self._scores[key] = rescore(self.db_paths[record["db_id"]],
                                        record["gold_sql"],
                                        record["final_sql"])
        return self._scores[key]

    def check(self, records: list[dict]) -> tuple[int, int, int]:
        """(items, failed items, items whose run went wrong).

        An item fails on a record error, a reference mismatch or a
        re-score that disagrees with the record's `correct`. The last
        count leaves re-score disagreements out: those are scoring
        defects of the pipeline, reproduced identically by every run.
        The question ids of both kinds also collect in `failed_items`
        and `broken_items`, so a run can count distinct failing items.
        """
        if len(records) != len(self.reference):
            self.problems.add(
                f"{len(records)} records, expected {len(self.reference)}")
            qids = {r.get("question_id") for r in self.reference}
            self.failed_items |= qids
            self.broken_items |= qids
            return len(self.reference), len(self.reference), \
                len(self.reference)
        failed = broken = 0
        for record, expected in zip(records, self.reference):
            qid = record.get("question_id")
            why = []
            if record.get("error"):
                why.append(f"error {record['error']!r}")
            if record != expected:
                why.append("differs from the set-up reference")
            bad_run = bool(why)
            if self.score(record) != bool(record.get("correct")):
                why.append(f"re-score disagrees with correct="
                           f"{record.get('correct')}")
            if why:
                failed += 1
                broken += bad_run
                self.failed_items.add(qid)
                if bad_run:
                    self.broken_items.add(qid)
                self.problems.add(f"{qid}: {'; '.join(why)}")
        return len(records), failed, broken
