"""SQL generation: prompt build, response cleanup, candidate alignment."""

import sqlite3
import time
from contextlib import closing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures.doubles import ScriptedGenerationBackend
from skelsearch.agents import BackendError, GoldOracle
from skelsearch.gateway import Cassette, GatewayConfig, LlmGateway
from skelsearch.skeleton import GranularityLevel, extract_skeleton, parse_query
from skelsearch.sqlgen import (
    LlmGenerationBackend,
    SqlCandidate,
    build_generation_prompt,
    extract_statement,
    generate_all,
    generate_sql,
)

QUESTION = "List the names of students."
GOLD = "SELECT name FROM students"


def make_skeleton(sql=GOLD, level=GranularityLevel.DETAILED):
    return extract_skeleton(parse_query(sql), level)


def test_extract_statement_plain():
    assert extract_statement("SELECT a FROM t") == "SELECT a FROM t"


def test_extract_statement_strips_fence():
    response = "```sql\nSELECT a\nFROM t\n```"
    assert extract_statement(response) == "SELECT a FROM t"


def test_extract_statement_strips_label_and_semicolon():
    assert extract_statement("SQL: SELECT a FROM t;") == "SELECT a FROM t"


def test_extract_statement_takes_first_statement():
    response = "SELECT a FROM t; SELECT b FROM u;"
    assert extract_statement(response) == "SELECT a FROM t"


def test_extract_statement_collapses_whitespace():
    assert extract_statement("SELECT  a\n\tFROM   t") == "SELECT a FROM t"


@pytest.mark.parametrize("response, statement", [
    # a line comment ends at its newline; the WHERE stays outside it
    ("SELECT name FROM t -- pick names\nWHERE age > 30",
     "SELECT name FROM t WHERE age > 30"),
    ("SELECT a /* one; two */ FROM t; SELECT b", "SELECT a FROM t"),
    # a `;` in a literal or a quoted name does not end the statement
    ("SELECT name FROM t WHERE name = 'a;b'",
     "SELECT name FROM t WHERE name = 'a;b'"),
    ('SELECT "x;y" FROM t; SELECT 2', 'SELECT "x;y" FROM t'),
    ("SELECT `a;b`, [c;d] FROM t", "SELECT `a;b`, [c;d] FROM t"),
    # spaces inside a literal are data
    ("SELECT id FROM t WHERE city = 'New  York'",
     "SELECT id FROM t WHERE city = 'New  York'"),
    ("SELECT 'it''s  --  /*'  FROM t", "SELECT 'it''s  --  /*' FROM t"),
    ("SELECT a - b, a / b FROM t", "SELECT a - b, a / b FROM t"),
])
def test_extract_statement_keeps_quoted_text(response, statement):
    assert extract_statement(response) == statement


def test_extract_statement_keeps_the_where_clause():
    sql = extract_statement("SELECT name FROM t -- pick names\n"
                            "WHERE age > 30")
    with closing(sqlite3.connect(":memory:")) as conn:
        conn.execute("CREATE TABLE t (name TEXT, age INTEGER)")
        conn.executemany("INSERT INTO t VALUES (?, ?)",
                         [("a", 20), ("b", 40)])
        assert conn.execute(sql).fetchall() == [("b",)]


# Text that a naive cut or whitespace collapse would change.
_TRICKY = st.lists(st.sampled_from(["a", "b", ";", "--", "/*", "*/", "  ",
                                    "'", '"', "\n"]),
                   max_size=8).map("".join)
_SEPARATORS = st.sampled_from([
    " ", "  ", "\n", "\n\t ", " -- note; x /* y\n", "/* ; -- 'q */",
    " /* a\n b */ -- c\n  "])


def _literal(text: str) -> str:
    return "'" + text.replace("'", "''") + "'"


@settings(max_examples=300, deadline=None)
@given(value=_TRICKY, other=_TRICKY, seps=st.lists(_SEPARATORS, min_size=4,
                                                   max_size=4))
def test_extract_statement_keeps_the_rows(value, other, seps):
    """The first statement of a response returns the rows of the SQL the
    model wrote, whatever its literals and comments hold."""
    sql = (f'SELECT name, "odd;  --name", {_literal(other)} AS "a;b"'
           f"{seps[0]}FROM t{seps[1]}WHERE name = {_literal(value)}"
           f"{seps[2]}OR name = {_literal(other + ';')}{seps[3]}ORDER BY 2")
    with closing(sqlite3.connect(":memory:")) as conn:
        conn.execute('CREATE TABLE t (name TEXT, "odd;  --name" INTEGER)')
        conn.executemany("INSERT INTO t VALUES (?, ?)",
                         [(value, 1), (other, 2), (value + " ", 3)])
        expected = conn.execute(sql).fetchall()
        assert expected  # the WHERE clause matched the row holding `value`
        assert conn.execute(
            extract_statement(sql + "; SELECT 2")).fetchall() == expected


def test_prompt_contains_schema_question_skeleton(toy_profile):
    skeleton = make_skeleton()
    prompt = build_generation_prompt(toy_profile, QUESTION, skeleton)
    assert "【DB_ID】 toy" in prompt
    assert QUESTION in prompt
    assert skeleton.text in prompt
    assert "Output only the SQL query." in prompt
    assert prompt == build_generation_prompt(toy_profile, QUESTION, skeleton)


def test_generate_sql_success(toy_profile):
    skeleton = make_skeleton()
    backend = ScriptedGenerationBackend(
        {(QUESTION, skeleton.text): "```sql\nSELECT name FROM students;\n```"})
    candidate = generate_sql(toy_profile, QUESTION, skeleton, backend)
    assert not candidate.failed
    assert candidate.sql == "SELECT name FROM students"
    assert candidate.level is skeleton.level


def test_generate_sql_backend_error_marks_failed(toy_profile):
    skeleton = make_skeleton()
    backend = ScriptedGenerationBackend({})
    candidate = generate_sql(toy_profile, QUESTION, skeleton, backend)
    assert candidate.failed
    assert candidate.sql == ""
    assert candidate.error.startswith("generation failed:")


def test_generate_sql_empty_output_marks_failed(toy_profile):
    skeleton = make_skeleton()
    backend = ScriptedGenerationBackend({(QUESTION, skeleton.text): "``````"})
    candidate = generate_sql(toy_profile, QUESTION, skeleton, backend)
    assert candidate.failed
    assert candidate.error == "empty generation output"


def test_gold_echo_matches_gold(toy_profile):
    skeleton = make_skeleton()
    backend = GoldOracle({("toy", QUESTION): GOLD})
    candidate = generate_sql(toy_profile, QUESTION, skeleton, backend)
    assert candidate.sql == GOLD


class SlowBackend:
    """Completes later for earlier skeletons to scramble finish order."""

    def __init__(self, delays):
        self.delays = delays

    def write_sql(self, profile, question, skeleton):
        time.sleep(self.delays[skeleton.text])
        return f"SELECT '{skeleton.text}' FROM students"


def test_generate_all_keeps_input_order(toy_profile):
    skeletons = [
        make_skeleton("SELECT a FROM t", GranularityLevel.BASE),
        make_skeleton("SELECT a FROM t WHERE b = 1", GranularityLevel.BASE),
        make_skeleton("SELECT a FROM t GROUP BY a", GranularityLevel.BASE),
    ]
    delays = {skeletons[0].text: 0.05, skeletons[1].text: 0.02,
              skeletons[2].text: 0.0}
    candidates = generate_all(toy_profile, QUESTION, skeletons,
                              SlowBackend(delays))
    assert len(candidates) == len(skeletons)
    for skeleton, candidate in zip(skeletons, candidates):
        assert candidate.level is skeleton.level
        assert skeleton.text in candidate.sql


def test_generate_all_mixed_failures_stay_aligned(toy_profile):
    good = make_skeleton("SELECT a FROM t", GranularityLevel.BASE)
    bad = make_skeleton("SELECT a FROM t WHERE b = 1", GranularityLevel.BASE)
    backend = ScriptedGenerationBackend(
        {(QUESTION, good.text): "SELECT name FROM students"})
    candidates = generate_all(toy_profile, QUESTION, [bad, good], backend)
    assert candidates[0].failed
    assert not candidates[1].failed


def test_record_then_replay_identical(toy_profile, tmp_path):
    skeleton = make_skeleton()
    config = GatewayConfig(endpoint="https://example.invalid/v1",
                           model="m")
    path = tmp_path / "gen.jsonl"

    def transport(prompt, cfg, api_key):
        return "```sql\nSELECT name FROM students\n```", 5, 7

    recorder = LlmGateway(config, mode="record", cassette=Cassette(path),
                          transport=transport, api_key="k")
    recorded = generate_sql(toy_profile, QUESTION, skeleton,
                            LlmGenerationBackend(recorder))
    recorder.close()
    replayed = generate_sql(
        toy_profile, QUESTION, skeleton,
        LlmGenerationBackend(LlmGateway(config, mode="replay",
                                        cassette=Cassette(path))))
    assert not recorded.failed and not replayed.failed
    assert recorded.sql == replayed.sql == "SELECT name FROM students"


def test_candidate_defaults():
    candidate = SqlCandidate("SELECT 1 FROM t", GranularityLevel.BASE)
    assert not candidate.failed
    assert candidate.error == ""
