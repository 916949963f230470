"""Candidate execution and execution-result majority voting.

Every SQL candidate runs against the target database file itself, opened
read-only (`mode=ro`), under a row cap and a wall-clock deadline that an
SQLite progress handler checks every PROGRESS_STEPS virtual-machine
instructions. An authorizer allows only reads, SELECTs, function calls
and recursive CTEs, so a candidate cannot ATTACH a file, run a PRAGMA
or write. Connections come from a ReadOnlyConnections set, which keeps
each thread's connection to each database open for reuse. Rows are
fetched FETCH_CHUNK at a time, and each chunk becomes canonical row
strings as it arrives, a column at a time, before the next fetch; the
row tuples are not kept. Results are reduced to a fingerprint: a hash
over those canonical rows, order-insensitive unless the query has
ORDER BY outside every parenthesis. That rule is a lexical scan, not a
parse, so it also holds for CTEs, which the parser rejects. Identical
candidates (the same SQL text) share one execution and its outcome.
`same_result` is the one rule for whether two outcomes are the same
answer: both EMPTY, or both ROWS with one fingerprint; an ERROR is the
same as nothing. The vote and the benchmark's scoring both use it. In
candidate order, each ROWS outcome joins the first vote group whose
first outcome is the same result; the largest group wins, ties go to an
arbitrator backend with a deterministic fallback, and when nothing
executed to a row set the selector falls back to the most detailed
surviving candidate. Selection is a pure function of (candidates,
outcomes), so shuffling candidate order never changes the winning
fingerprint.
"""

from __future__ import annotations

import hashlib
import math
import re
import sqlite3
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from enum import Enum

from .agents import BackendError, load_template
from .gateway import LlmGateway, TransportError
from .schema import DatabaseProfile, read_only_uri
# Unused here, but the perfbench tracer patches `selector.parse_query`, so
# the name must stay importable from this module.
from .skeleton import parse_query  # noqa: F401
from .sqlast import QUOTED_OR_COMMENT
from .sqlgen import SqlCandidate

FETCH_CHUNK = 2048
PROGRESS_STEPS = 1000
CONNECTIONS_PER_THREAD = 8
EXACT_INT_MIN = 10_000_000
PREVIEW_ROWS = 5
CHOICE_MARKER = re.compile(r"^\s*CHOICE:\s*(\d+)\s*$",
                           re.MULTILINE | re.IGNORECASE)
# Quoted strings and names, and comments, blanked out so that the
# parentheses and words left are SQL, before looking for ORDER BY outside
# every parenthesis.
_ORDER_NOISE = re.compile(QUOTED_OR_COMMENT, re.DOTALL)
_PARENS = re.compile(r"([()])")
_ORDER_BY = re.compile(r"(?<!\w)ORDER(?!\w)\W*BY(?!\w)", re.IGNORECASE)
_AUTHORIZED = frozenset({sqlite3.SQLITE_SELECT, sqlite3.SQLITE_READ,
                         sqlite3.SQLITE_FUNCTION, sqlite3.SQLITE_RECURSIVE})


class ArbitrationError(RuntimeError):
    """The arbitrator backend failed or answered out of protocol."""


class OutcomeStatus(Enum):
    ROWS = "rows"
    EMPTY = "empty"
    ERROR = "error"


# Hot enum members as module constants, as in `sqlast`.
_ROWS = OutcomeStatus.ROWS
_EMPTY = OutcomeStatus.EMPTY
_ERROR = OutcomeStatus.ERROR


@dataclass
class ExecutionLimits:
    timeout: float = 30.0
    row_cap: int = 100_000

    def __post_init__(self):
        # NaN fails every comparison, so it would switch the deadline off;
        # True would pass as a 1-second deadline
        if type(self.timeout) not in (int, float) or \
                not 0 < self.timeout < math.inf:
            raise ValueError("timeout must be a positive finite number")
        if type(self.row_cap) is not int or self.row_cap < 1:
            raise ValueError("row_cap must be an integer of at least 1")


@dataclass
class ExecutionOutcome:
    """What one candidate did when executed.

    fingerprint is present exactly when status is ROWS.
    """

    status: OutcomeStatus
    fingerprint: str | None = None
    error: str = ""
    row_count: int = 0
    preview: list[str] = field(default_factory=list)


def _int_token(value: int) -> str:
    if -EXACT_INT_MIN < value < EXACT_INT_MIN:
        return "n:" + format(value, ".6e")
    return f"n:{value}"


def _float_token(value: float) -> str:
    if value.is_integer():
        return _int_token(int(value))
    return "n:" + format(value, ".6e")


# The token of each exact type SQLite returns, looked up by type().
_CELL_TOKENS = {
    str: "s:".__add__,
    int: _int_token,
    float: _float_token,
    type(None): lambda _: "NULL",
    bytes: lambda value: "b:" + value.hex(),
}


def canonical_cell(value) -> str:
    """Stable token for one result cell.

    A float with an integral value counts as that integer, so 1 == 1.0
    and -0.0 == 0. Integers of magnitude 1e7 and above render exactly;
    smaller ones and all other floats render with seven significant
    digits, which is exact for those integers and buckets float noise
    at 1e-6. Distinct integers therefore never share a token. A
    subclass (bool) counts as its base type; anything else as text.
    """
    token = _CELL_TOKENS.get(type(value))
    if token is not None:
        return token(value)
    for kind in (bytes, float, int):
        if isinstance(value, kind):
            return _CELL_TOKENS[kind](kind(value))
    return "s:" + str(value)


def canonical_row(row) -> str:
    return "\x1f".join([canonical_cell(cell) for cell in row])


def _canonical_chunk(chunk: list[tuple]) -> list[str]:
    """canonical_row of each row of one fetched chunk, a column at a time.

    A column whose cells all have one exact type of _CELL_TOKENS maps
    through that type's token; any other column (mixed types, a type
    plus NULL, bool) goes through canonical_cell cell by cell. Rows have
    at least one cell, as every SELECT returns.
    """
    columns = []
    for column in zip(*chunk):
        kinds = set(map(type, column))
        token = _CELL_TOKENS.get(kinds.pop()) if len(kinds) == 1 else None
        columns.append(map(token or canonical_cell, column))
    return list(map("\x1f".join, zip(*columns)))


def fingerprint_rows(canon: list[str], ordered: bool) -> str:
    """Hash of the result set, given as the canonical_row string of each
    row; sequence-sensitive only when ordered."""
    if not ordered:
        canon = sorted(canon)
    prefix = "seq" if ordered else "bag"
    digest = hashlib.sha256(
        "\x1e".join([prefix] + canon).encode("utf-8")).hexdigest()
    return f"{prefix}:{digest}"


def _blank(match: re.Match) -> str:
    # A literal or quoted name stays a word of its own; a comment is space.
    return " " if match.group()[0] in "-/" else " 0 "


def _is_ordered(sql: str) -> bool:
    """True when ORDER BY appears outside every parenthesis.

    ORDER BY inside OVER ( ... ), a subquery, a CTE body or an aggregate's
    argument list does not order the result; literals, quoted names and
    comments are skipped whole. Between ORDER and BY, punctuation,
    comments and parenthesised groups are skipped; a literal or any other
    word is not.
    """
    if "order" not in sql.lower():  # no ORDER in any case, so no ORDER BY
        return False
    parts = _PARENS.split(_ORDER_NOISE.sub(_blank, sql))
    depth, outer = 0, [parts[0]]
    for paren, text in zip(parts[1::2], parts[2::2]):
        depth += 1 if paren == "(" else -1
        if depth == 0:
            outer.append(text)
    return _ORDER_BY.search(" ".join(outer)) is not None


def _authorize(action, *_) -> int:
    return sqlite3.SQLITE_OK if action in _AUTHORIZED else sqlite3.SQLITE_DENY


class ReadOnlyConnections:
    """Read-only database connections kept open for reuse, per thread.

    Each thread that asks for a database gets its own connection, opened
    once as `file:{path}?mode=ro` with the authorizer installed, and gets
    that same connection back on every later call. Only the thread that
    opened a connection runs queries on it. A thread keeps at most
    CONNECTIONS_PER_THREAD connections: past that, its least recently
    used one is closed. Each open connection holds one file descriptor
    and a page cache of at most SQLite's default 2 MiB, so a set used by
    W threads holds at most W * 8 descriptors (against the usual soft
    limit of 1024) and W * 16 MiB of page cache. Connections keep no
    statement cache: an item runs each distinct SQL text once, and
    different questions seldom share a text, so cached statements would
    pay off only on inputs that repeat whole queries across items.

    close() closes every connection the set holds. Call it (or leave a
    `with` block) once no thread uses the set any more, for instance
    after a thread pool has drained; the set may be used again after.
    Connections are opened with check_same_thread=False only so that
    the closing thread may close them.
    """

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._caches: list[OrderedDict] = []

    def get(self, path: str) -> sqlite3.Connection:
        """This thread's connection to `path`, opened on first use.

        Raises:
            sqlite3.Error: the database cannot be opened.
        """
        cache = getattr(self._local, "cache", None)
        if cache is None:
            cache = self._local.cache = OrderedDict()
            with self._lock:
                self._caches.append(cache)
        conn = cache.get(path)
        if conn is not None:
            cache.move_to_end(path)
            return conn
        conn = sqlite3.connect(read_only_uri(path), uri=True,
                               check_same_thread=False, cached_statements=0)
        conn.set_authorizer(_authorize)
        cache[path] = conn
        if len(cache) > CONNECTIONS_PER_THREAD:
            cache.popitem(last=False)[1].close()
        return conn

    def close(self) -> None:
        with self._lock:
            for cache in self._caches:
                while cache:
                    cache.popitem()[1].close()

    def __enter__(self) -> "ReadOnlyConnections":
        return self

    def __exit__(self, *_) -> None:
        self.close()


def execute_candidate(profile: DatabaseProfile, candidate: SqlCandidate,
                      limits: ExecutionLimits,
                      connections: ReadOnlyConnections) -> ExecutionOutcome:
    """Run one candidate read-only under `limits`, on this thread's
    connection from `connections`."""
    if candidate.failed:
        return ExecutionOutcome(
            _ERROR, error=candidate.error or "generation failed")
    if not profile.path:
        return ExecutionOutcome(_ERROR, error="profile has no database file")
    sql = candidate.sql
    deadline = time.monotonic() + limits.timeout
    try:
        conn = connections.get(profile.path)
    except sqlite3.Error as exc:
        return ExecutionOutcome(_ERROR, error=str(exc))
    conn.set_progress_handler(lambda: time.monotonic() > deadline,
                              PROGRESS_STEPS)
    canon: list[str] = []
    capped = False
    # Closing the cursor resets its statement, so no read lock outlives
    # the query, on the row-cap and error paths too.
    cursor = conn.cursor()
    try:
        cursor.execute(sql)
        while chunk := cursor.fetchmany(FETCH_CHUNK):
            if len(canon) + len(chunk) > limits.row_cap:
                capped = True
                break
            canon += _canonical_chunk(chunk)
            del chunk  # the row tuples go before the next fetch
    except sqlite3.Error as exc:
        return ExecutionOutcome(_ERROR, error=str(exc))
    finally:
        cursor.close()
    if capped:
        return ExecutionOutcome(
            _ERROR, error=f"row cap exceeded ({limits.row_cap} rows)")
    if not canon:
        return ExecutionOutcome(_EMPTY)
    fingerprint = fingerprint_rows(canon, _is_ordered(sql))
    return ExecutionOutcome(_ROWS, fingerprint=fingerprint,
                            row_count=len(canon),
                            preview=canon[:PREVIEW_ROWS])


def execute_all(profile: DatabaseProfile, candidates: list[SqlCandidate],
                limits: ExecutionLimits, connections: ReadOnlyConnections,
                known: dict[str, ExecutionOutcome] | None = None
                ) -> list[ExecutionOutcome]:
    """Outcomes aligned with the candidate list.

    Each distinct SQL text runs once: candidates with the same text share
    one outcome object. `known` maps SQL text to the outcome of an earlier
    run against the same profile under the same limits; it is read first
    and filled with every new run. A failed candidate never runs SQL and
    keeps its own error outcome.
    """
    known = {} if known is None else known
    outcomes = []
    for candidate in candidates:
        if candidate.failed:
            outcome = execute_candidate(profile, candidate, limits,
                                        connections)
        else:
            outcome = known.get(candidate.sql)
            if outcome is None:
                outcome = execute_candidate(profile, candidate, limits,
                                            connections)
                known[candidate.sql] = outcome
        outcomes.append(outcome)
    return outcomes


def same_result(a: ExecutionOutcome, b: ExecutionOutcome) -> bool:
    """Whether two outcomes are the same answer: both EMPTY, or both ROWS
    with one fingerprint. An ERROR is the same as nothing, not even an
    ERROR. The vote groups and the benchmark scores by this rule alone."""
    return (a.status is b.status and a.status is not _ERROR
            and a.fingerprint == b.fingerprint)


@dataclass
class VoteGroup:
    outcome: ExecutionOutcome  # its first member's
    members: list[SqlCandidate]

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass
class DecisionTrace:
    chosen_fingerprint: str | None
    rule: str  # majority | arbitrated | arbitration-fallback | no-valid-results
    groups: list[VoteGroup]
    notes: str = ""

    def to_dict(self) -> dict:
        return {
            "chosen_fingerprint": self.chosen_fingerprint,
            "rule": self.rule,
            "notes": self.notes,
            "groups": [{"fingerprint": g.outcome.fingerprint,
                        "row_count": g.outcome.row_count,
                        "sqls": [c.sql for c in g.members]}
                       for g in self.groups],
        }


def group_candidates(candidates: list[SqlCandidate],
                     outcomes: list[ExecutionOutcome]) -> list[VoteGroup]:
    """Vote groups over ROWS outcomes, in candidate order: each joins the
    first group whose first outcome is `same_result` with its own."""
    if len(candidates) != len(outcomes):
        raise ValueError("candidates and outcomes differ in length")
    groups: list[VoteGroup] = []
    for candidate, outcome in zip(candidates, outcomes):
        if outcome.status is not _ROWS:
            continue
        for group in groups:
            if same_result(group.outcome, outcome):
                group.members.append(candidate)
                break
        else:
            groups.append(VoteGroup(outcome, [candidate]))
    return groups


def _representative(members: list[SqlCandidate]) -> SqlCandidate:
    """Highest skeleton granularity, then lexicographically smallest SQL."""
    return min(members, key=lambda c: (-int(c.level), c.sql))


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
                if o.status is not _ERROR]
        notes = "no valid results"
        if not pool:
            pool = list(candidates)
            notes = "no valid results; every candidate errored"
        winner = _representative(pool)
        return winner, DecisionTrace(None, "no-valid-results", groups,
                                     notes)
    top = max(group.size for group in groups)
    tied = [group for group in groups if group.size == top]
    rule, notes = "arbitration-fallback", "tie with no arbitrator configured"
    if len(tied) == 1:
        rule, notes = "majority", ""
    elif arbitrator is not None:
        try:
            index = arbitrator.choose(question, tied)
            if not isinstance(index, int) or not 0 <= index < len(tied):
                raise ArbitrationError(f"choice {index!r} out of range")
            notes = f"arbitrator chose group {index + 1} of {len(tied)}"
            rule, tied = "arbitrated", [tied[index]]
        except ArbitrationError as exc:
            notes = f"arbitration failed: {exc}"
    # from every member of the groups still in the running
    winner = _representative([c for group in tied for c in group.members])
    group = next(group for group in tied if winner in group.members)
    return winner, DecisionTrace(group.outcome.fingerprint, rule, groups,
                                 notes)


def build_arbitration_prompt(question: str, tied: list[VoteGroup]) -> str:
    blocks = []
    for number, group in enumerate(tied, start=1):
        lines = [f"Group {number} ({group.size} candidates, "
                 f"{group.outcome.row_count} rows):",
                 f"SQL: {_representative(group.members).sql}"]
        for row in group.outcome.preview:
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
