"""Execution outcomes, fingerprints, and majority selection."""

import json
import random
import re
import sqlite3
import threading
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from skelsearch import selector
from skelsearch.gateway import TransportError
from skelsearch.schema import (
    DatabaseProfile,
    profile_from_sqlite,
    read_only_uri,
)
from skelsearch.selector import (
    EXACT_INT_MIN,
    ArbitrationError,
    DecisionTrace,
    ExecutionLimits,
    ExecutionOutcome,
    LlmArbitratorBackend,
    OutcomeStatus,
    ReadOnlyConnections,
    _is_ordered,
    build_arbitration_prompt,
    canonical_cell,
    canonical_row,
    execute_all,
    execute_candidate,
    fingerprint_rows,
    group_candidates,
    same_result,
    select_final,
)
from skelsearch.skeleton import GranularityLevel, parse_query
from skelsearch.sqlgen import SqlCandidate

from conftest import build_school_db, is_closed
from fixtures.corpus import CORPUS
from fixtures.doubles import ScriptedArbitratorBackend

B = GranularityLevel.BASE
E = GranularityLevel.EXPANDED
D = GranularityLevel.DETAILED


def cand(sql, level=D):
    return SqlCandidate(sql, level)


def rows_outcome(tag, count=2):
    return ExecutionOutcome(OutcomeStatus.ROWS, fingerprint=f"bag:{tag}",
                            row_count=count, preview=["n:1.000000e+00"])


EMPTY = ExecutionOutcome(OutcomeStatus.EMPTY)
ERROR = ExecutionOutcome(OutcomeStatus.ERROR, error="boom")


LIMITS = ExecutionLimits()


@pytest.fixture
def run(connections):
    """Runs one SQL text as a candidate on the test's connection set."""
    def run(profile, sql, limits=LIMITS):
        return execute_candidate(profile, cand(sql), limits, connections)
    return run


def fingerprint_of(rows, ordered):
    """fingerprint_rows of result rows, canonicalized as execution does."""
    return fingerprint_rows([canonical_row(row) for row in rows], ordered)


# Cell and fingerprint canonicalization


def test_canonical_cells():
    assert canonical_cell(None) == "NULL"
    assert canonical_cell(1) == canonical_cell(1.0)
    assert canonical_cell(-0.0) == canonical_cell(0)
    assert canonical_cell("1") != canonical_cell(1)
    assert canonical_cell(b"\x01") == "b:01"
    assert canonical_cell(0.1 + 0.2) == canonical_cell(0.3)
    assert canonical_cell(1.5) != canonical_cell(1.6)


def test_bag_fingerprint_is_order_insensitive():
    rows = [(1, "a"), (2, "b"), (None, "c"), (2, "b")]
    baseline = fingerprint_of(rows, ordered=False)
    rnd = random.Random(7)
    for _ in range(50):
        shuffled = list(rows)
        rnd.shuffle(shuffled)
        assert fingerprint_of(shuffled, ordered=False) == baseline


def test_sequence_fingerprint_is_order_sensitive():
    rows = [(1,), (2,)]
    assert (fingerprint_of(rows, ordered=True)
            != fingerprint_of(list(reversed(rows)), ordered=True))
    assert fingerprint_of(rows, ordered=True).startswith("seq:")
    assert fingerprint_of(rows, ordered=False).startswith("bag:")


def test_multiset_keeps_duplicates():
    assert (fingerprint_of([(1,), (1,)], ordered=False)
            != fingerprint_of([(1,)], ordered=False))


CELLS = st.one_of(st.none(), st.booleans(), st.integers(),
                  st.floats(allow_nan=False), st.text(max_size=5),
                  st.binary(max_size=3))
ROWS = st.lists(st.tuples(CELLS, CELLS), max_size=8)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_bag_fingerprint_ignores_row_permutations(data):
    rows = data.draw(ROWS)
    shuffled = data.draw(st.permutations(rows))
    assert (fingerprint_of(shuffled, ordered=False)
            == fingerprint_of(rows, ordered=False))


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=-2 ** 53, max_value=2 ** 53))
def test_integral_float_matches_its_integer(value):
    assert canonical_cell(float(value)) == canonical_cell(value)


@settings(max_examples=200, deadline=None)
@given(ROWS)
def test_negative_zero_does_not_change_fingerprints(rows):
    flipped = [tuple(-0.0 if isinstance(cell, (int, float)) and cell == 0
                     else cell for cell in row) for row in rows]
    assert (fingerprint_of(flipped, ordered=True)
            == fingerprint_of(rows, ordered=True))


@settings(max_examples=500, deadline=None)
@given(st.integers(), st.integers(min_value=-1000, max_value=1000))
def test_distinct_integers_get_distinct_fingerprints(a, offset):
    assume(offset != 0)
    b = a + offset
    assert canonical_cell(a) != canonical_cell(b)
    assert (fingerprint_of([(a,)], ordered=False)
            != fingerprint_of([(b,)], ordered=False))


def reference_cell(value) -> str:
    """canonical_cell's rules as one isinstance chain."""
    if value is None:
        return "NULL"
    if isinstance(value, bytes):
        return "b:" + value.hex()
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, int) and not -10 ** 7 < value < 10 ** 7:
        return f"n:{value:d}"
    if isinstance(value, (int, float)):
        return "n:" + format(value, ".6e")
    return "s:" + str(value)


MIXED_CELLS = st.one_of(
    st.none(), st.booleans(), st.text(max_size=5), st.binary(max_size=3),
    st.integers(min_value=-10 ** 7 - 3, max_value=-10 ** 7 + 3),
    st.integers(min_value=10 ** 7 - 3, max_value=10 ** 7 + 3),
    st.integers(min_value=2 ** 63 - 2, max_value=2 ** 65),
    st.integers(min_value=-2 ** 65, max_value=-2 ** 63 + 2),
    st.integers(), st.floats(),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 0.0,
                     1e7 - 0.5, 1e7 + 0.5, -1e7 - 0.5, -1e7 + 0.5, 1e7,
                     -1e7, 2.0 ** 63, 123456789.0, 4.0, 2.5, 9_999_999,
                     12_345_678, -2 ** 62]))


@settings(max_examples=500, deadline=None)
@given(st.lists(MIXED_CELLS, max_size=8))
def test_canonical_row_joins_canonical_cells(row):
    assert [canonical_cell(c) for c in row] == [reference_cell(c)
                                                for c in row]
    assert canonical_row(row) == "\x1f".join(map(reference_cell, row))


# One column's cells of each kind; a column draws from one kind
# (homogeneous) or from several (mixed, or NULL-bearing with "none").
CHUNK_CELLS = {
    "str": st.text(st.sampled_from("a\x1f\x1e\u00e9\u6f22 "), max_size=4)
    | st.text(max_size=4),
    "int": st.integers(min_value=-EXACT_INT_MIN - 3,
                       max_value=-EXACT_INT_MIN + 3)
    | st.integers(min_value=EXACT_INT_MIN - 3, max_value=EXACT_INT_MIN + 3)
    | st.integers(),
    "float": st.sampled_from([-0.0, 0.0, 4.0, -1e7, 2.5, 1e300,
                              float("nan")]) | st.floats(),
    "bytes": st.binary(max_size=3),
    "none": st.none(),
    "bool": st.booleans(),
}


@st.composite
def chunks(draw):
    kinds = st.lists(st.sampled_from(sorted(CHUNK_CELLS)), min_size=1,
                     max_size=3, unique=True)
    columns = [st.one_of([CHUNK_CELLS[kind] for kind in draw(kinds)])
               for _ in range(draw(st.integers(1, 4)))]
    return draw(st.lists(st.tuples(*columns), min_size=1, max_size=12))


@settings(max_examples=500, deadline=None)
@given(chunks())
def test_chunk_canonicalization_matches_canonical_row(chunk):
    assert selector._canonical_chunk(chunk) == [canonical_row(row)
                                                for row in chunk]


def counted_rows(count: int, tail: str = "") -> str:
    """`count` rows of int, float, text, NULL-bearing and blob cells."""
    return ("WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL SELECT x + 1 "
            f"FROM c LIMIT {count}) SELECT x * 10000019, x * 0.25, "
            "'r' || x || char(31), CASE x % 3 WHEN 0 THEN NULL ELSE x END, "
            f"x'00ff' FROM c{tail}")


@pytest.mark.parametrize("sql, row_cap", [
    (counted_rows(7), 100),
    (counted_rows(7, " ORDER BY x DESC"), 100),
    (counted_rows(6), 6),  # exactly row_cap
    (counted_rows(4), 3),  # the extra row starts a new chunk of 1 and 3
    (counted_rows(0), 100),
    # fails on its fifth row, after whole chunks of 1 and 3 went through
    ("WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL SELECT x + 1 FROM c "
     "LIMIT 9) SELECT CASE x WHEN 5 THEN abs(-9223372036854775807 - 1) "
     "ELSE x END FROM c", 100),
])
def test_fetch_chunk_size_does_not_change_the_outcome(
        school_profile, run, monkeypatch, sql, row_cap):
    limits = ExecutionLimits(row_cap=row_cap)
    outcomes = []
    for size in (2048, 1, 3):
        monkeypatch.setattr(selector, "FETCH_CHUNK", size)
        outcome = run(school_profile, sql, limits)
        outcomes.append((outcome.status, outcome.fingerprint,
                         outcome.row_count, outcome.preview, outcome.error))
    assert outcomes[1:] == outcomes[:1] * 2
    conn = sqlite3.connect(read_only_uri(school_profile.path), uri=True)
    try:
        rows = conn.execute(sql).fetchall()
    except sqlite3.Error as exc:
        assert outcomes[0][::4] == (OutcomeStatus.ERROR, str(exc))
        return
    finally:
        conn.close()
    if len(rows) > row_cap:
        assert outcomes[0][::4] == (
            OutcomeStatus.ERROR, f"row cap exceeded ({row_cap} rows)")
    elif rows:
        canon = [canonical_row(row) for row in rows]
        assert outcomes[0][:4] == (
            OutcomeStatus.ROWS, fingerprint_rows(canon, "ORDER" in sql),
            len(rows), canon[:5])
    else:
        assert outcomes[0][0] is OutcomeStatus.EMPTY


# Execution against sqlite


def test_execute_rows(school_profile, run):
    outcome = run(school_profile, "SELECT name FROM students")
    assert outcome.status is OutcomeStatus.ROWS
    assert outcome.row_count == 4
    assert outcome.fingerprint.startswith("bag:")
    assert 0 < len(outcome.preview) <= 5


@pytest.mark.parametrize("sql", [
    "SELECT student_id, course, score FROM grades",
    "SELECT student_id, course, score FROM grades ORDER BY score",
])
def test_preview_and_fingerprint_come_from_result_rows(school_profile, sql,
                                                       run):
    conn = sqlite3.connect(school_profile.path)
    try:
        rows = conn.execute(sql).fetchall()
    finally:
        conn.close()
    outcome = run(school_profile, sql)
    assert len(rows) > 5
    assert outcome.preview == [canonical_row(row) for row in rows[:5]]
    assert outcome.fingerprint == fingerprint_of(rows, _is_ordered(sql))


def test_equivalent_queries_share_fingerprint(school_profile, run):
    a = run(school_profile, "SELECT name FROM students")
    b = run(school_profile, "SELECT name FROM students WHERE year < 9999")
    assert a.fingerprint == b.fingerprint


def test_order_by_switches_to_sequence(school_profile, run):
    plain = run(school_profile, "SELECT name FROM students")
    asc = run(school_profile, "SELECT name FROM students ORDER BY name")
    desc = run(school_profile,
               "SELECT name FROM students ORDER BY name DESC")
    assert asc.fingerprint.startswith("seq:")
    assert asc.fingerprint != desc.fingerprint
    assert asc.fingerprint != plain.fingerprint


def test_numeric_bucketing_in_execution(school_profile, run):
    a = run(school_profile, "SELECT 0.1 + 0.2 FROM students LIMIT 1")
    b = run(school_profile, "SELECT 0.3 FROM students LIMIT 1")
    c = run(school_profile, "SELECT 1 FROM students LIMIT 1")
    d = run(school_profile, "SELECT 1.0 FROM students LIMIT 1")
    assert a.fingerprint == b.fingerprint
    assert c.fingerprint == d.fingerprint


def test_null_zero_empty_string_distinct(school_profile, run):
    tokens = [run(school_profile, sql).fingerprint for sql in (
        "SELECT NULL FROM students LIMIT 1",
        "SELECT 0 FROM students LIMIT 1",
        "SELECT '' FROM students LIMIT 1",
    )]
    assert len(set(tokens)) == 3


def test_execute_empty(school_profile, run):
    outcome = run(school_profile, "SELECT name FROM students WHERE year > 9000")
    assert outcome.status is OutcomeStatus.EMPTY
    assert outcome.fingerprint is None
    assert outcome.row_count == 0


def test_execute_error(school_profile, run):
    outcome = run(school_profile, "SELECT nope FROM students")
    assert outcome.status is OutcomeStatus.ERROR
    assert "nope" in outcome.error
    assert outcome.fingerprint is None
    assert run(school_profile, "SELEC").status is OutcomeStatus.ERROR


def test_failed_candidate_short_circuits(school_profile, connections):
    failed = SqlCandidate("", D, failed=True,
                          error="generation failed: boom")
    outcome = execute_candidate(school_profile, failed, LIMITS, connections)
    assert outcome.status is OutcomeStatus.ERROR
    assert outcome.error == "generation failed: boom"


def test_pathless_profile_errors(run):
    profile = DatabaseProfile("toy", tables=[], foreign_keys=[])
    outcome = run(profile, "SELECT 1 FROM t")
    assert outcome.status is OutcomeStatus.ERROR
    assert "no database file" in outcome.error


def test_missing_database_file_errors(tmp_path, run):
    profile = DatabaseProfile("gone", tables=[], foreign_keys=[],
                              path=str(tmp_path / "gone.sqlite"))
    outcome = run(profile, "SELECT 1")
    assert outcome.status is OutcomeStatus.ERROR


@pytest.mark.parametrize("name", ["a#b", "p?q", "c%41d", "a b"])
def test_database_paths_with_uri_characters(tmp_path, name, run):
    """A `#`, `?`, `%XX` or space in a database's path names the file: it
    profiles with its tables, candidates run on it to rows, the read-only
    open stays read-only, and no file appears beside its directory."""
    directory = tmp_path / name
    directory.mkdir()
    path = build_school_db(directory / "school.sqlite")
    profile = profile_from_sqlite(path)
    assert [table.name for table in profile.tables] == ["grades", "students"]
    outcome = run(profile, "SELECT name FROM students")
    assert (outcome.status, outcome.row_count) == (OutcomeStatus.ROWS, 4)
    conn = sqlite3.connect(read_only_uri(path), uri=True)
    try:
        with pytest.raises(sqlite3.OperationalError, match="readonly"):
            conn.execute("CREATE TABLE extra (a)")
    finally:
        conn.close()
    assert [entry.name for entry in tmp_path.iterdir()] == [name]
    assert [entry.name for entry in directory.iterdir()] == ["school.sqlite"]


def test_row_cap(school_profile, run):
    limits = ExecutionLimits(timeout=30.0, row_cap=3)
    outcome = run(school_profile, "SELECT * FROM grades", limits)
    assert outcome.status is OutcomeStatus.ERROR
    assert "row cap exceeded" in outcome.error


def test_timeout_interrupts(school_profile, run):
    sql = ("WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL "
           "SELECT x + 1 FROM c LIMIT 30000000) SELECT count(*) FROM c")
    started = time.monotonic()
    outcome = run(school_profile, sql, ExecutionLimits(timeout=0.1))
    assert time.monotonic() - started < 10.0
    assert outcome.status is OutcomeStatus.ERROR
    assert "interrupt" in outcome.error.lower()


def test_limits_validation():
    with pytest.raises(ValueError):
        ExecutionLimits(timeout=0.0)
    with pytest.raises(ValueError):
        ExecutionLimits(row_cap=0)


def test_execute_all_alignment(school_profile, connections, run):
    sqls = ["SELECT name FROM students", "SELEC",
            "SELECT name FROM students WHERE year > 9000",
            "SELECT course FROM grades"]
    candidates = [cand(s) for s in sqls]
    outcomes = execute_all(school_profile, candidates, LIMITS, connections)
    assert [o.status for o in outcomes] == [
        OutcomeStatus.ROWS, OutcomeStatus.ERROR,
        OutcomeStatus.EMPTY, OutcomeStatus.ROWS]
    assert ([o.fingerprint for o in outcomes]
            == [run(school_profile, sql).fingerprint for sql in sqls])


def counted_executions(monkeypatch):
    """SQL texts passed to selector.execute_candidate, in call order."""
    calls = []
    original = selector.execute_candidate

    def counted(profile, candidate, limits, connections):
        calls.append(candidate.sql)
        return original(profile, candidate, limits, connections)

    monkeypatch.setattr(selector, "execute_candidate", counted)
    return calls


def same_outcome(a, b):
    return ((a.status, a.fingerprint, a.error, a.row_count, a.preview)
            == (b.status, b.fingerprint, b.error, b.row_count, b.preview))


def test_execute_all_runs_each_distinct_sql_once(school_profile,
                                                  monkeypatch, connections,
                                                  run):
    sqls = ["SELECT name FROM students", "SELEC",
            "SELECT name FROM students", "SELECT course FROM grades",
            "SELEC", "SELECT name FROM students WHERE year > 9000",
            "SELECT name FROM students"]
    alone = [run(school_profile, sql) for sql in sqls]
    calls = counted_executions(monkeypatch)
    outcomes = execute_all(school_profile, [cand(s) for s in sqls], LIMITS,
                           connections)
    assert sorted(calls) == sorted(set(sqls))
    assert len(outcomes) == len(sqls)
    for outcome, expected in zip(outcomes, alone):
        assert same_outcome(outcome, expected)


def test_execute_all_reads_and_fills_known(school_profile, monkeypatch,
                                           connections, run):
    known_sql = "SELECT name FROM students WHERE year = 2021"
    known = {known_sql: run(school_profile, known_sql)}
    calls = counted_executions(monkeypatch)
    outcomes = execute_all(school_profile,
                           [cand(known_sql), cand("SELECT 1")], LIMITS,
                           connections, known=known)
    assert calls == ["SELECT 1"]
    assert outcomes[0] is known[known_sql]
    assert known["SELECT 1"] is outcomes[1]


def test_failed_candidate_keeps_its_own_error(school_profile, connections):
    sql = "SELECT name FROM students"
    failed = SqlCandidate(sql, D, failed=True,
                          error="generation failed: boom")
    known = {}
    outcomes = execute_all(school_profile, [cand(sql), failed, cand(sql)],
                           LIMITS, connections, known=known)
    assert [o.status for o in outcomes] == [
        OutcomeStatus.ROWS, OutcomeStatus.ERROR, OutcomeStatus.ROWS]
    assert outcomes[1].error == "generation failed: boom"
    assert known[sql].status is OutcomeStatus.ROWS
    outcomes = execute_all(school_profile, [failed], LIMITS, connections,
                           known=known)
    assert outcomes[0].error == "generation failed: boom"


# Connection reuse


def commit_a_write(path) -> None:
    """BEGIN IMMEDIATE ... COMMIT on a second connection that never waits;
    the COMMIT fails while any other connection holds a read lock."""
    writer = sqlite3.connect(path, timeout=0, isolation_level=None)
    try:
        writer.execute("BEGIN IMMEDIATE")
        writer.execute("INSERT INTO students VALUES (99, 'Zed', 2024)")
        writer.execute("COMMIT")
    finally:
        writer.close()


@pytest.mark.parametrize("sql, limits, error", [
    # 4**6 rows: more than one fetch chunk, so the statement stops mid-way
    ("SELECT a.name FROM students a, students b, students c, students d, "
     "students e, students f", ExecutionLimits(row_cap=10),
     "row cap exceeded"),
    ("WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL SELECT x + 1 FROM c "
     "LIMIT 30000000) SELECT count(*) FROM c, students",
     ExecutionLimits(timeout=0.1), "interrupt"),
])
def test_no_read_lock_outlives_a_query(school_profile, sql, limits, error):
    with ReadOnlyConnections() as connections:
        conn = connections.get(school_profile.path)
        outcome = execute_candidate(school_profile, cand(sql), limits,
                                    connections)
        assert outcome.status is OutcomeStatus.ERROR
        assert error in outcome.error.lower()
        assert connections.get(school_profile.path) is conn
        commit_a_write(school_profile.path)
        after = execute_candidate(
            school_profile, cand("SELECT name FROM students WHERE id = 99"),
            LIMITS, connections)
    assert after.row_count == 1


@pytest.mark.parametrize("denied", [
    "PRAGMA table_info(students)",
    "ATTACH DATABASE ':memory:' AS x",
    "SELECT * FROM pragma_table_info('students')",
])
def test_denied_statement_leaves_the_connection_usable(school_profile,
                                                       denied):
    with ReadOnlyConnections() as connections:
        conn = connections.get(school_profile.path)
        refused = execute_candidate(school_profile, cand(denied), LIMITS,
                                    connections)
        outcome = execute_candidate(school_profile,
                                    cand("SELECT name FROM students"), LIMITS,
                                    connections)
        assert connections.get(school_profile.path) is conn
    assert refused.status is OutcomeStatus.ERROR
    assert "not authorized" in refused.error
    assert outcome.status is OutcomeStatus.ROWS
    assert outcome.row_count == 4


def test_cap_closes_the_least_recently_used_connection(tmp_path,
                                                       monkeypatch):
    monkeypatch.setattr(selector, "CONNECTIONS_PER_THREAD", 2)
    paths = [str(build_school_db(tmp_path / f"db{i}.sqlite"))
             for i in range(3)]
    with ReadOnlyConnections() as connections:
        first, second = connections.get(paths[0]), connections.get(paths[1])
        assert connections.get(paths[0]) is first
        third = connections.get(paths[2])
        assert is_closed(second)
        assert not is_closed(first) and not is_closed(third)
        assert connections.get(paths[1]) is not second
        assert is_closed(first)
    assert is_closed(third)


def test_each_thread_gets_its_own_connection(school_profile):
    with ReadOnlyConnections() as connections:
        mine = connections.get(school_profile.path)
        theirs = []
        worker = threading.Thread(
            target=lambda: theirs.append(
                connections.get(school_profile.path)))
        worker.start()
        worker.join(timeout=30)
        assert not worker.is_alive()
        assert theirs and theirs[0] is not mine
    assert is_closed(mine) and is_closed(theirs[0])


def test_missing_database_is_not_kept(tmp_path):
    missing = tmp_path / "later.sqlite"
    profile = DatabaseProfile("later", tables=[], foreign_keys=[],
                              path=str(missing))
    with ReadOnlyConnections() as connections:
        first = execute_candidate(profile, cand("SELECT 1"), LIMITS,
                                  connections)
        build_school_db(missing)
        second = execute_candidate(profile,
                                   cand("SELECT name FROM students"), LIMITS,
                                   connections)
    assert first.status is OutcomeStatus.ERROR
    assert second.status is OutcomeStatus.ROWS


# Sandbox: only reads run


def test_attach_is_denied_and_creates_no_file(school_profile, tmp_path, run):
    target = tmp_path / "x.db"
    outcome = run(school_profile,
                  f"ATTACH DATABASE 'file:{target}?mode=rwc' AS x")
    assert outcome.status is OutcomeStatus.ERROR
    assert not target.exists()


@pytest.mark.parametrize("sql", [
    "PRAGMA table_info(students)",
    "SELECT * FROM pragma_table_info('students')",
])
def test_pragmas_are_denied(school_profile, sql, run):
    assert run(school_profile, sql).status is OutcomeStatus.ERROR


@pytest.mark.parametrize("sql", [
    "WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL SELECT x + 1 FROM c "
    "WHERE x < 5) SELECT x FROM c",
    "WITH s AS (SELECT name FROM students) SELECT name FROM s",
    "SELECT name, ROW_NUMBER() OVER (ORDER BY year) FROM students",
    "SELECT n FROM (SELECT COUNT(*) AS n FROM grades) g",
])
def test_reads_still_run(school_profile, sql, run):
    assert run(school_profile, sql).status is OutcomeStatus.ROWS


# Order check: ORDER BY outside every parenthesis


@pytest.mark.parametrize("sql", CORPUS)
def test_order_check_agrees_with_parser(sql):
    assert _is_ordered(sql) == (parse_query(sql).stmt.order_by is not None)


@pytest.mark.parametrize("sql", [
    "WITH x AS (SELECT a FROM t) SELECT a FROM x ORDER BY 1",
    "SELECT a FROM t order\n  by a",
    "SELECT a FROM t ORDER /* why */ BY a",
    "SELECT \"order\" FROM t ORDER BY 1",
])
def test_outer_order_by_is_ordered(sql):
    assert _is_ordered(sql)


@pytest.mark.parametrize("sql", [
    "SELECT a, ROW_NUMBER() OVER (ORDER BY b) FROM t",
    "SELECT a FROM t WHERE a IN (SELECT a FROM u ORDER BY a LIMIT 2)",
    "WITH x AS (SELECT a FROM t ORDER BY a) SELECT a FROM x",
    "SELECT 'ORDER BY a' FROM t",
    "SELECT [order by] FROM t",
    "SELECT a FROM t -- ORDER BY a",
])
def test_inner_or_quoted_order_by_is_not_ordered(sql):
    assert not _is_ordered(sql)


# The word-by-word scan that _is_ordered replaced, kept as the reference.
_REFERENCE_SCAN = re.compile(
    r"'(?:[^']|'')*'|\"(?:[^\"]|\"\")*\"|`(?:[^`]|``)*`|\[[^\]]*\]"
    r"|--[^\n]*|/\*.*?(?:\*/|\Z)|[()]|\w+", re.DOTALL)


def reference_is_ordered(sql):
    depth, previous = 0, ""
    for match in _REFERENCE_SCAN.finditer(sql):
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


ORDER_FRAGMENTS = st.sampled_from([
    "ORDER", "order", "oRdEr", "BY", "by", "By", "ORDERBY", "ORDER BY",
    "(", ")", "'", "''", "'a'", '"', '"b"', "`", "`c`", "[", "]", "[d]",
    "--", "/*", "*/", "\n", " ", "\t", ",", ".", "-", "/", "*", "x", "_",
    "0", "é", "ß", "\u0301", "SELECT a FROM t", "LIMIT 1"])


@settings(max_examples=2000, deadline=None)
@given(st.lists(ORDER_FRAGMENTS, max_size=16).map("".join))
def test_order_check_matches_reference_scan(sql):
    assert _is_ordered(sql) == reference_is_ordered(sql)


@pytest.mark.parametrize("sql", [
    "SELECT a FROM t ORDER, BY a",
    "SELECT a FROM t ORDER (x) BY a",
    "SELECT a FROM t ORDER -- note\n BY a",
    "SELECT a) FROM t ( ORDER BY a",
    "SELECT a FROM t ORDER 'x' BY a",
    "SELECT a FROM t ORDERBY a",
    "SELECT a FROM t ORDER ' BY a",
])
def test_order_check_quirks_match_reference_scan(sql):
    assert _is_ordered(sql) == reference_is_ordered(sql)


def test_ordered_cte_gets_sequence_fingerprint(school_profile, run):
    outcome = run(school_profile,
                  "WITH s AS (SELECT name FROM students) "
                  "SELECT name FROM s ORDER BY name DESC")
    assert outcome.status is OutcomeStatus.ROWS
    assert outcome.fingerprint.startswith("seq:")


# Grouping and selection


@pytest.mark.parametrize("a,b,same", [
    (EMPTY, ExecutionOutcome(OutcomeStatus.EMPTY), True),
    (rows_outcome("a"), rows_outcome("a", count=3), True),
    (rows_outcome("a"), rows_outcome("b"), False),
    (rows_outcome("a"), EMPTY, False),
    (ERROR, rows_outcome("a"), False),
    (ERROR, EMPTY, False),
    (ERROR, ERROR, False),
    (ERROR, ExecutionOutcome(OutcomeStatus.ERROR, error="boom"), False),
], ids=["empty-empty", "rows-same", "rows-differ", "rows-empty",
        "error-rows", "error-empty", "error-itself", "error-error"])
def test_same_result(a, b, same):
    """Both EMPTY, or both ROWS with one fingerprint; an ERROR is the
    same as nothing, itself included. The rule is symmetric."""
    assert same_result(a, b) is same
    assert same_result(b, a) is same


def test_group_candidates_orders_by_first_appearance():
    candidates = [cand("s1"), cand("s2"), cand("s3"), cand("s4")]
    outcomes = [rows_outcome("b"), rows_outcome("a"), EMPTY,
                rows_outcome("b")]
    groups = group_candidates(candidates, outcomes)
    assert [g.outcome.fingerprint for g in groups] == ["bag:b", "bag:a"]
    assert [g.size for g in groups] == [2, 1]
    assert groups[0].members[0].sql == "s1"


def reference_groups(outcomes):
    """Candidate indices of each vote group: ROWS outcomes keyed by
    fingerprint in a dict, so groups keep their first appearance."""
    groups = {}
    for index, outcome in enumerate(outcomes):
        if outcome.status is OutcomeStatus.ROWS:
            groups.setdefault(outcome.fingerprint, []).append(index)
    return list(groups.values())


OUTCOMES = st.one_of(st.just(EMPTY), st.just(ERROR),
                     st.sampled_from("abcd").map(rows_outcome))


@given(st.lists(OUTCOMES, max_size=12))
def test_group_candidates_partitions_as_a_dict_by_fingerprint(outcomes):
    """Joining the first group whose first outcome is the same result
    gives the partition, in the same order, that a dict keyed by
    fingerprint gives; each group holds its first member's outcome."""
    candidates = [cand(f"s{index}") for index in range(len(outcomes))]
    groups = group_candidates(candidates, outcomes)
    assert [[candidates.index(c) for c in g.members] for g in groups] == \
        reference_groups(outcomes)
    for group in groups:
        assert group.outcome is outcomes[candidates.index(group.members[0])]


def test_majority_selection():
    candidates = [cand("s1"), cand("s2"), cand("s3")]
    outcomes = [rows_outcome("a"), rows_outcome("a"), rows_outcome("b")]
    winner, trace = select_final(candidates, outcomes)
    assert winner.sql == "s1"
    assert trace.rule == "majority"
    assert trace.chosen_fingerprint == "bag:a"
    assert max(g.size for g in trace.groups) == 2


def test_representative_prefers_granularity_then_lex():
    candidates = [cand("zz", B), cand("aa", B), cand("mm", B)]
    outcomes = [rows_outcome("a")] * 3
    winner, _ = select_final(candidates, outcomes)
    assert winner.sql == "aa"
    candidates = [cand("zz", D), cand("aa", B)]
    outcomes = [rows_outcome("a")] * 2
    winner, _ = select_final(candidates, outcomes)
    assert winner.sql == "zz"


def test_tie_without_arbitrator_falls_back():
    candidates = [cand("s1", B), cand("s2", D)]
    outcomes = [rows_outcome("a"), rows_outcome("b")]
    winner, trace = select_final(candidates, outcomes)
    assert winner.sql == "s2"
    assert trace.rule == "arbitration-fallback"
    assert "no arbitrator" in trace.notes


def test_tie_with_scripted_arbitrator():
    candidates = [cand("s1"), cand("s2")]
    outcomes = [rows_outcome("a"), rows_outcome("b")]
    arbitrator = ScriptedArbitratorBackend(1)
    winner, trace = select_final(candidates, outcomes, arbitrator,
                                 question="q")
    assert winner.sql == "s2"
    assert trace.rule == "arbitrated"
    assert trace.chosen_fingerprint == "bag:b"
    assert arbitrator.calls == [("q", ["bag:a", "bag:b"])]


def test_arbitration_error_falls_back():
    candidates = [cand("s1", D), cand("s2", B)]
    outcomes = [rows_outcome("a"), rows_outcome("b")]
    arbitrator = ScriptedArbitratorBackend(ArbitrationError("down"))
    winner, trace = select_final(candidates, outcomes, arbitrator)
    assert winner.sql == "s1"
    assert trace.rule == "arbitration-fallback"
    assert "arbitration failed" in trace.notes


def test_arbitrator_out_of_range_falls_back():
    candidates = [cand("s1"), cand("s2")]
    outcomes = [rows_outcome("a"), rows_outcome("b")]
    winner, trace = select_final(candidates, outcomes,
                                 ScriptedArbitratorBackend(7))
    assert trace.rule == "arbitration-fallback"
    assert "out of range" in trace.notes


def test_no_valid_results_prefers_empty_over_error():
    candidates = [cand("s1", D), cand("s2", B), cand("s3", E)]
    outcomes = [ERROR, EMPTY, EMPTY]
    winner, trace = select_final(candidates, outcomes)
    assert winner.sql == "s3"
    assert trace.rule == "no-valid-results"
    assert trace.chosen_fingerprint is None
    assert "no valid results" in trace.notes


def test_all_errors_still_selects():
    candidates = [cand("s2", B), cand("s1", B)]
    outcomes = [ERROR, ERROR]
    winner, trace = select_final(candidates, outcomes)
    assert winner.sql == "s1"
    assert "every candidate errored" in trace.notes


def test_selection_is_permutation_invariant():
    pairs = [(cand("s1", D), rows_outcome("a")),
             (cand("s2", B), rows_outcome("a")),
             (cand("s3", E), rows_outcome("b")),
             (cand("s4", B), EMPTY),
             (cand("s5", B), ERROR)]
    baseline = select_final(*map(list, zip(*pairs)))
    rnd = random.Random(11)
    for _ in range(200):
        rnd.shuffle(pairs)
        winner, trace = select_final(*map(list, zip(*pairs)))
        assert winner.sql == baseline[0].sql
        assert trace.chosen_fingerprint == baseline[1].chosen_fingerprint


def test_input_validation():
    with pytest.raises(ValueError):
        select_final([], [])
    with pytest.raises(ValueError):
        select_final([cand("s1")], [])


def test_trace_serializes_to_json():
    candidates = [cand("s1"), cand("s2")]
    outcomes = [rows_outcome("a"), rows_outcome("a")]
    _, trace = select_final(candidates, outcomes)
    payload = json.loads(json.dumps(trace.to_dict()))
    assert payload["rule"] == "majority"
    assert payload["groups"][0]["sqls"] == ["s1", "s2"]


# Arbitrator backends


class FakeGateway:
    def __init__(self, response):
        self.response = response
        self.prompts = []

    def complete(self, prompt, stage="generate"):
        self.prompts.append((stage, prompt))
        if isinstance(self.response, Exception):
            raise self.response
        return self.response


def tied_groups():
    candidates = [cand("s1"), cand("s2")]
    outcomes = [rows_outcome("a"), rows_outcome("b")]
    return group_candidates(candidates, outcomes)


def test_arbitration_prompt_contents():
    prompt = build_arbitration_prompt("which?", tied_groups())
    assert "which?" in prompt
    assert "Group 1" in prompt and "Group 2" in prompt
    assert "SQL: s1" in prompt
    assert "CHOICE:" in prompt
    assert prompt == build_arbitration_prompt("which?", tied_groups())


def test_llm_arbitrator_parses_choice():
    backend = LlmArbitratorBackend(FakeGateway("analysis...\nCHOICE: 2"))
    assert backend.choose("q", tied_groups()) == 1
    assert backend.gateway.prompts[0][0] == "arbitrate"


def test_llm_arbitrator_missing_marker():
    backend = LlmArbitratorBackend(FakeGateway("no idea"))
    with pytest.raises(ArbitrationError):
        backend.choose("q", tied_groups())


def test_llm_arbitrator_transport_error():
    backend = LlmArbitratorBackend(FakeGateway(TransportError("down")))
    with pytest.raises(ArbitrationError):
        backend.choose("q", tied_groups())


def test_decision_trace_defaults():
    trace = DecisionTrace(None, "majority", [])
    assert trace.notes == ""
