"""Candidate execution and execution-result majority voting.

Every SQL candidate runs against the target database file itself, opened
read-only (`mode=ro`), under a row cap and a wall-clock deadline that an
SQLite progress handler checks every PROGRESS_STEPS virtual-machine
instructions. An authorizer allows only reads, SELECTs, function calls
and recursive CTEs, so a candidate cannot ATTACH a file, run a PRAGMA
or write. Results are reduced to a fingerprint: a hash over
canonicalized cells, order-insensitive unless the query has ORDER BY
outside every parenthesis. That rule is a lexical scan, not a parse, so
it also holds for CTEs, which the parser rejects. Candidates whose
fingerprints agree form a vote group; the largest group wins, ties go
to an arbitrator backend with a deterministic fallback, and when
nothing executed to a row set the selector falls back to the most
detailed surviving candidate.
Selection is a pure function of (candidates, outcomes), so shuffling
candidate order never changes the winning fingerprint.
"""

from __future__ import annotations

import hashlib
import re
import sqlite3
import time
from dataclasses import dataclass, field
from enum import Enum

from .agents import BackendError, load_template
from .gateway import LlmGateway, TransportError
from .schema import DatabaseProfile
# Unused here, but the perfbench tracer patches `selector.parse_query`, so
# the name must stay importable from this module.
from .skeleton import parse_query  # noqa: F401
from .sqlgen import SqlCandidate

FETCH_CHUNK = 2048
PROGRESS_STEPS = 1000
EXACT_INT_MIN = 10_000_000
PREVIEW_ROWS = 5
CHOICE_MARKER = re.compile(r"^\s*CHOICE:\s*(\d+)\s*$",
                           re.MULTILINE | re.IGNORECASE)
# Quoted strings and identifiers, comments, parentheses and words: enough
# of SQLite's lexical grammar to find ORDER BY outside every parenthesis.
_ORDER_SCAN = re.compile(
    r"'(?:[^']|'')*'|\"(?:[^\"]|\"\")*\"|`(?:[^`]|``)*`|\[[^\]]*\]"
    r"|--[^\n]*|/\*.*?(?:\*/|\Z)|[()]|\w+", re.DOTALL)
_AUTHORIZED = frozenset({sqlite3.SQLITE_SELECT, sqlite3.SQLITE_READ,
                         sqlite3.SQLITE_FUNCTION, sqlite3.SQLITE_RECURSIVE})


class ArbitrationError(RuntimeError):
    """The arbitrator backend failed or answered out of protocol."""


class OutcomeStatus(Enum):
    ROWS = "rows"
    EMPTY = "empty"
    ERROR = "error"


@dataclass
class ExecutionLimits:
    timeout: float = 30.0
    row_cap: int = 100_000

    def __post_init__(self):
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")
        if self.row_cap < 1:
            raise ValueError("row_cap must be at least 1")


@dataclass
class ExecutionOutcome:
    """What one candidate did when executed.

    fingerprint is present exactly when status is ROWS.
    """

    status: OutcomeStatus
    fingerprint: str | None = None
    error: str = ""
    row_count: int = 0
    wall_time: float = 0.0
    preview: list[str] = field(default_factory=list)


def canonical_cell(value) -> str:
    """Stable token for one result cell.

    A float with an integral value counts as that integer, so 1 == 1.0
    and -0.0 == 0. Integers of magnitude 1e7 and above render exactly;
    smaller ones and all other floats render with seven significant
    digits, which is exact for those integers and buckets float noise
    at 1e-6. Distinct integers therefore never share a token.
    """
    if value is None:
        return "NULL"
    if isinstance(value, bytes):
        return "b:" + value.hex()
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, int) and not -EXACT_INT_MIN < value < EXACT_INT_MIN:
        return f"n:{value:d}"
    if isinstance(value, (int, float)):
        return "n:" + format(value, ".6e")
    return "s:" + str(value)


def canonical_row(row) -> str:
    return "\x1f".join(canonical_cell(cell) for cell in row)


def fingerprint_rows(rows, ordered: bool) -> str:
    """Hash of the result set; sequence-sensitive only when ordered."""
    canon = [canonical_row(row) for row in rows]
    if not ordered:
        canon.sort()
    prefix = "seq" if ordered else "bag"
    digest = hashlib.sha256(
        "\x1e".join([prefix] + canon).encode("utf-8")).hexdigest()
    return f"{prefix}:{digest}"


def _is_ordered(sql: str) -> bool:
    """True when ORDER BY appears outside every parenthesis.

    ORDER BY inside OVER ( ... ), a subquery, a CTE body or an aggregate's
    argument list does not order the result; literals, quoted names and
    comments are skipped whole.
    """
    depth, previous = 0, ""
    for match in _ORDER_SCAN.finditer(sql):
        token = match.group()
        if token == "(":
            depth += 1
        elif token == ")":
            depth -= 1
        elif depth == 0 and not token.startswith(("--", "/*")):
            token = token.upper()
            if token == "BY" and previous == "ORDER":
                return True
            previous = token
    return False


def _authorize(action, *_) -> int:
    return sqlite3.SQLITE_OK if action in _AUTHORIZED else sqlite3.SQLITE_DENY


def execute_candidate(profile: DatabaseProfile, candidate: SqlCandidate,
                      limits: ExecutionLimits | None = None
                      ) -> ExecutionOutcome:
    """Run one candidate read-only under the configured limits."""
    limits = limits or ExecutionLimits()
    if candidate.failed:
        return ExecutionOutcome(OutcomeStatus.ERROR,
                                error=candidate.error or "generation failed")
    if not profile.path:
        return ExecutionOutcome(OutcomeStatus.ERROR,
                                error="profile has no database file")
    started = time.monotonic()
    try:
        conn = sqlite3.connect(f"file:{profile.path}?mode=ro", uri=True)
    except sqlite3.Error as exc:
        return ExecutionOutcome(OutcomeStatus.ERROR, error=str(exc),
                                wall_time=time.monotonic() - started)
    conn.set_authorizer(_authorize)
    deadline = started + limits.timeout
    conn.set_progress_handler(lambda: time.monotonic() > deadline,
                              PROGRESS_STEPS)
    rows: list[tuple] = []
    capped = False
    try:
        cursor = conn.execute(candidate.sql)
        while True:
            chunk = cursor.fetchmany(FETCH_CHUNK)
            if not chunk:
                break
            rows.extend(chunk)
            if len(rows) > limits.row_cap:
                capped = True
                break
    except sqlite3.Error as exc:
        return ExecutionOutcome(OutcomeStatus.ERROR, error=str(exc),
                                wall_time=time.monotonic() - started)
    finally:
        conn.close()
    wall = time.monotonic() - started
    if capped:
        return ExecutionOutcome(
            OutcomeStatus.ERROR,
            error=f"row cap exceeded ({limits.row_cap} rows)",
            wall_time=wall)
    if not rows:
        return ExecutionOutcome(OutcomeStatus.EMPTY, wall_time=wall)
    fingerprint = fingerprint_rows(rows, _is_ordered(candidate.sql))
    preview = [canonical_row(row) for row in rows[:PREVIEW_ROWS]]
    return ExecutionOutcome(OutcomeStatus.ROWS, fingerprint=fingerprint,
                            row_count=len(rows), wall_time=wall,
                            preview=preview)


def execute_all(profile: DatabaseProfile, candidates: list[SqlCandidate],
                limits: ExecutionLimits | None = None
                ) -> list[ExecutionOutcome]:
    """Outcomes aligned with the candidate list."""
    return [execute_candidate(profile, c, limits) for c in candidates]


@dataclass
class VoteGroup:
    fingerprint: str
    members: list[SqlCandidate]
    size: int
    row_count: int = 0
    preview: list[str] = field(default_factory=list)


@dataclass
class DecisionTrace:
    winner_sql: str
    chosen_fingerprint: str | None
    rule: str  # majority | arbitrated | arbitration-fallback | no-valid-results
    groups: list[VoteGroup]
    notes: str = ""

    def to_dict(self) -> dict:
        return {
            "winner_sql": self.winner_sql,
            "chosen_fingerprint": self.chosen_fingerprint,
            "rule": self.rule,
            "notes": self.notes,
            "groups": [{"fingerprint": g.fingerprint, "size": g.size,
                        "row_count": g.row_count,
                        "sqls": [c.sql for c in g.members]}
                       for g in self.groups],
        }


def group_candidates(candidates: list[SqlCandidate],
                     outcomes: list[ExecutionOutcome]) -> list[VoteGroup]:
    """Vote groups over ROWS outcomes, ordered by first appearance."""
    if len(candidates) != len(outcomes):
        raise ValueError("candidates and outcomes differ in length")
    groups: dict[str, VoteGroup] = {}
    for candidate, outcome in zip(candidates, outcomes):
        if outcome.status is not OutcomeStatus.ROWS:
            continue
        group = groups.get(outcome.fingerprint)
        if group is None:
            groups[outcome.fingerprint] = VoteGroup(
                outcome.fingerprint, [candidate], 1,
                row_count=outcome.row_count,
                preview=list(outcome.preview))
        else:
            group.members.append(candidate)
            group.size += 1
    return list(groups.values())


def _representative(members: list[SqlCandidate]) -> SqlCandidate:
    """Highest skeleton granularity, then lexicographically smallest SQL."""
    return min(members, key=lambda c: (-int(c.skeleton.level), c.sql))


def select_final(candidates: list[SqlCandidate],
                 outcomes: list[ExecutionOutcome],
                 arbitrator=None,
                 question: str = "") -> tuple[SqlCandidate, DecisionTrace]:
    """Pick the final SQL by execution-result majority."""
    if not candidates:
        raise ValueError("no candidates to select from")
    groups = group_candidates(candidates, outcomes)
    if not groups:
        pool = [c for c, o in zip(candidates, outcomes)
                if o.status is not OutcomeStatus.ERROR]
        notes = "no valid results"
        if not pool:
            pool = list(candidates)
            notes = "no valid results; every candidate errored"
        winner = _representative(pool)
        return winner, DecisionTrace(winner.sql, None, "no-valid-results",
                                     groups, notes)
    top = max(group.size for group in groups)
    tied = [group for group in groups if group.size == top]
    if len(tied) == 1:
        group = tied[0]
        winner = _representative(group.members)
        return winner, DecisionTrace(winner.sql, group.fingerprint,
                                     "majority", groups)
    if arbitrator is not None:
        try:
            index = arbitrator.choose(question, tied)
            if not isinstance(index, int) or not 0 <= index < len(tied):
                raise ArbitrationError(f"choice {index!r} out of range")
            group = tied[index]
            winner = _representative(group.members)
            notes = f"arbitrator chose group {index + 1} of {len(tied)}"
            return winner, DecisionTrace(winner.sql, group.fingerprint,
                                         "arbitrated", groups, notes)
        except ArbitrationError as exc:
            notes = f"arbitration failed: {exc}"
    else:
        notes = "tie with no arbitrator configured"
    reps = [(_representative(group.members), group) for group in tied]
    winner, group = min(reps,
                        key=lambda p: (-int(p[0].skeleton.level), p[0].sql))
    return winner, DecisionTrace(winner.sql, group.fingerprint,
                                 "arbitration-fallback", groups, notes)


def build_arbitration_prompt(question: str, tied: list[VoteGroup]) -> str:
    blocks = []
    for number, group in enumerate(tied, start=1):
        lines = [f"Group {number} ({group.size} candidates, "
                 f"{group.row_count} rows):",
                 f"SQL: {_representative(group.members).sql}"]
        for row in group.preview:
            lines.append("  row: " + row.replace("\x1f", " | "))
        blocks.append("\n".join(lines))
    return load_template("arbitrate").format(question=question,
                                             groups="\n\n".join(blocks))


class LlmArbitratorBackend:
    """Tie arbitration over a gateway; answers CHOICE: <n>."""

    def __init__(self, gateway: LlmGateway):
        self.gateway = gateway

    def choose(self, question: str, tied: list[VoteGroup]) -> int:
        prompt = build_arbitration_prompt(question, tied)
        try:
            response = self.gateway.complete(prompt, stage="arbitrate")
        except (BackendError, TransportError) as exc:
            raise ArbitrationError(f"backend error: {exc}") from exc
        matches = CHOICE_MARKER.findall(response)
        if not matches:
            raise ArbitrationError("no choice marker in response")
        return int(matches[-1]) - 1


class ScriptedArbitratorBackend:
    """Test double returning a fixed 0-based group index."""

    def __init__(self, choice):
        self.choice = choice
        self.calls: list[tuple] = []

    def choose(self, question: str, tied: list[VoteGroup]) -> int:
        self.calls.append((question, [g.fingerprint for g in tied]))
        if isinstance(self.choice, Exception):
            raise self.choice
        return self.choice
