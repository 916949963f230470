"""Execution outcomes, fingerprints, and majority selection."""

import json
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from skelsearch.gateway import TransportError
from skelsearch.schema import DatabaseProfile
from skelsearch.selector import (
    ArbitrationError,
    DecisionTrace,
    ExecutionLimits,
    ExecutionOutcome,
    LlmArbitratorBackend,
    OutcomeStatus,
    ScriptedArbitratorBackend,
    _is_ordered,
    build_arbitration_prompt,
    canonical_cell,
    execute_all,
    execute_candidate,
    fingerprint_rows,
    group_candidates,
    select_final,
)
from skelsearch.skeleton import GranularityLevel, extract_skeleton, parse_query
from skelsearch.sqlgen import SqlCandidate

from fixtures.corpus import CORPUS

B = GranularityLevel.BASE
E = GranularityLevel.EXPANDED
D = GranularityLevel.DETAILED


def cand(sql, level=D):
    skeleton = extract_skeleton(parse_query("SELECT a FROM t"), level)
    return SqlCandidate(sql, skeleton)


def rows_outcome(tag, count=2):
    return ExecutionOutcome(OutcomeStatus.ROWS, fingerprint=f"bag:{tag}",
                            row_count=count, preview=["n:1.000000e+00"])


EMPTY = ExecutionOutcome(OutcomeStatus.EMPTY)
ERROR = ExecutionOutcome(OutcomeStatus.ERROR, error="boom")


def run(profile, sql, limits=None):
    return execute_candidate(profile, cand(sql), limits)


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
    baseline = fingerprint_rows(rows, ordered=False)
    rnd = random.Random(7)
    for _ in range(50):
        shuffled = list(rows)
        rnd.shuffle(shuffled)
        assert fingerprint_rows(shuffled, ordered=False) == baseline


def test_sequence_fingerprint_is_order_sensitive():
    rows = [(1,), (2,)]
    assert (fingerprint_rows(rows, ordered=True)
            != fingerprint_rows(list(reversed(rows)), ordered=True))
    assert fingerprint_rows(rows, ordered=True).startswith("seq:")
    assert fingerprint_rows(rows, ordered=False).startswith("bag:")


def test_multiset_keeps_duplicates():
    assert (fingerprint_rows([(1,), (1,)], ordered=False)
            != fingerprint_rows([(1,)], ordered=False))


CELLS = st.one_of(st.none(), st.booleans(), st.integers(),
                  st.floats(allow_nan=False), st.text(max_size=5),
                  st.binary(max_size=3))
ROWS = st.lists(st.tuples(CELLS, CELLS), max_size=8)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_bag_fingerprint_ignores_row_permutations(data):
    rows = data.draw(ROWS)
    shuffled = data.draw(st.permutations(rows))
    assert (fingerprint_rows(shuffled, ordered=False)
            == fingerprint_rows(rows, ordered=False))


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=-2 ** 53, max_value=2 ** 53))
def test_integral_float_matches_its_integer(value):
    assert canonical_cell(float(value)) == canonical_cell(value)


@settings(max_examples=200, deadline=None)
@given(ROWS)
def test_negative_zero_does_not_change_fingerprints(rows):
    flipped = [tuple(-0.0 if isinstance(cell, (int, float)) and cell == 0
                     else cell for cell in row) for row in rows]
    assert (fingerprint_rows(flipped, ordered=True)
            == fingerprint_rows(rows, ordered=True))


@settings(max_examples=500, deadline=None)
@given(st.integers(), st.integers(min_value=-1000, max_value=1000))
def test_distinct_integers_get_distinct_fingerprints(a, offset):
    assume(offset != 0)
    b = a + offset
    assert canonical_cell(a) != canonical_cell(b)
    assert (fingerprint_rows([(a,)], ordered=False)
            != fingerprint_rows([(b,)], ordered=False))


# Execution against sqlite


def test_execute_rows(school_profile):
    outcome = run(school_profile, "SELECT name FROM students")
    assert outcome.status is OutcomeStatus.ROWS
    assert outcome.row_count == 4
    assert outcome.fingerprint.startswith("bag:")
    assert 0 < len(outcome.preview) <= 5
    assert outcome.wall_time >= 0.0


def test_equivalent_queries_share_fingerprint(school_profile):
    a = run(school_profile, "SELECT name FROM students")
    b = run(school_profile, "SELECT name FROM students WHERE year < 9999")
    assert a.fingerprint == b.fingerprint


def test_order_by_switches_to_sequence(school_profile):
    plain = run(school_profile, "SELECT name FROM students")
    asc = run(school_profile, "SELECT name FROM students ORDER BY name")
    desc = run(school_profile,
               "SELECT name FROM students ORDER BY name DESC")
    assert asc.fingerprint.startswith("seq:")
    assert asc.fingerprint != desc.fingerprint
    assert asc.fingerprint != plain.fingerprint


def test_numeric_bucketing_in_execution(school_profile):
    a = run(school_profile, "SELECT 0.1 + 0.2 FROM students LIMIT 1")
    b = run(school_profile, "SELECT 0.3 FROM students LIMIT 1")
    c = run(school_profile, "SELECT 1 FROM students LIMIT 1")
    d = run(school_profile, "SELECT 1.0 FROM students LIMIT 1")
    assert a.fingerprint == b.fingerprint
    assert c.fingerprint == d.fingerprint


def test_null_zero_empty_string_distinct(school_profile):
    tokens = [run(school_profile, sql).fingerprint for sql in (
        "SELECT NULL FROM students LIMIT 1",
        "SELECT 0 FROM students LIMIT 1",
        "SELECT '' FROM students LIMIT 1",
    )]
    assert len(set(tokens)) == 3


def test_execute_empty(school_profile):
    outcome = run(school_profile, "SELECT name FROM students WHERE year > 9000")
    assert outcome.status is OutcomeStatus.EMPTY
    assert outcome.fingerprint is None
    assert outcome.row_count == 0


def test_execute_error(school_profile):
    outcome = run(school_profile, "SELECT nope FROM students")
    assert outcome.status is OutcomeStatus.ERROR
    assert "nope" in outcome.error
    assert outcome.fingerprint is None
    assert run(school_profile, "SELEC").status is OutcomeStatus.ERROR


def test_failed_candidate_short_circuits(school_profile):
    failed = SqlCandidate("", cand("x").skeleton, failed=True,
                          error="generation failed: boom")
    outcome = execute_candidate(school_profile, failed)
    assert outcome.status is OutcomeStatus.ERROR
    assert outcome.error == "generation failed: boom"


def test_pathless_profile_errors():
    profile = DatabaseProfile("toy", tables=[], foreign_keys=[])
    outcome = execute_candidate(profile, cand("SELECT 1 FROM t"))
    assert outcome.status is OutcomeStatus.ERROR
    assert "no database file" in outcome.error


def test_missing_database_file_errors(tmp_path):
    profile = DatabaseProfile("gone", tables=[], foreign_keys=[],
                              path=str(tmp_path / "gone.sqlite"))
    outcome = execute_candidate(profile, cand("SELECT 1"))
    assert outcome.status is OutcomeStatus.ERROR


def test_row_cap(school_profile):
    limits = ExecutionLimits(timeout=30.0, row_cap=3)
    outcome = run(school_profile, "SELECT * FROM grades", limits)
    assert outcome.status is OutcomeStatus.ERROR
    assert "row cap exceeded" in outcome.error


def test_timeout_interrupts(school_profile):
    sql = ("WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL "
           "SELECT x + 1 FROM c LIMIT 30000000) SELECT count(*) FROM c")
    outcome = run(school_profile, sql, ExecutionLimits(timeout=0.1))
    assert outcome.status is OutcomeStatus.ERROR
    assert "interrupt" in outcome.error.lower()
    assert outcome.wall_time < 10.0


def test_limits_validation():
    with pytest.raises(ValueError):
        ExecutionLimits(timeout=0.0)
    with pytest.raises(ValueError):
        ExecutionLimits(row_cap=0)


def test_execute_all_alignment(school_profile):
    sqls = ["SELECT name FROM students", "SELEC",
            "SELECT name FROM students WHERE year > 9000",
            "SELECT course FROM grades"]
    candidates = [cand(s) for s in sqls]
    outcomes = execute_all(school_profile, candidates)
    assert [o.status for o in outcomes] == [
        OutcomeStatus.ROWS, OutcomeStatus.ERROR,
        OutcomeStatus.EMPTY, OutcomeStatus.ROWS]
    assert ([o.fingerprint for o in outcomes]
            == [run(school_profile, sql).fingerprint for sql in sqls])


# Sandbox: only reads run


def test_attach_is_denied_and_creates_no_file(school_profile, tmp_path):
    target = tmp_path / "x.db"
    outcome = run(school_profile,
                  f"ATTACH DATABASE 'file:{target}?mode=rwc' AS x")
    assert outcome.status is OutcomeStatus.ERROR
    assert not target.exists()


@pytest.mark.parametrize("sql", [
    "PRAGMA table_info(students)",
    "SELECT * FROM pragma_table_info('students')",
])
def test_pragmas_are_denied(school_profile, sql):
    assert run(school_profile, sql).status is OutcomeStatus.ERROR


@pytest.mark.parametrize("sql", [
    "WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL SELECT x + 1 FROM c "
    "WHERE x < 5) SELECT x FROM c",
    "WITH s AS (SELECT name FROM students) SELECT name FROM s",
    "SELECT name, ROW_NUMBER() OVER (ORDER BY year) FROM students",
    "SELECT n FROM (SELECT COUNT(*) AS n FROM grades) g",
])
def test_reads_still_run(school_profile, sql):
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


def test_ordered_cte_gets_sequence_fingerprint(school_profile):
    outcome = run(school_profile,
                  "WITH s AS (SELECT name FROM students) "
                  "SELECT name FROM s ORDER BY name DESC")
    assert outcome.status is OutcomeStatus.ROWS
    assert outcome.fingerprint.startswith("seq:")


# Grouping and selection


def test_group_candidates_orders_by_first_appearance():
    candidates = [cand("s1"), cand("s2"), cand("s3"), cand("s4")]
    outcomes = [rows_outcome("b"), rows_outcome("a"), EMPTY,
                rows_outcome("b")]
    groups = group_candidates(candidates, outcomes)
    assert [g.fingerprint for g in groups] == ["bag:b", "bag:a"]
    assert [g.size for g in groups] == [2, 1]
    assert groups[0].members[0].sql == "s1"


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
    trace = DecisionTrace("s", None, "majority", [])
    assert trace.notes == ""
