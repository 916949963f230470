"""SQL generation: prompt build, response cleanup, candidate alignment."""

import time

from fixtures.doubles import ScriptedGenerationBackend
from skelsearch.agents import BackendError
from skelsearch.gateway import Cassette, GatewayConfig, LlmGateway
from skelsearch.skeleton import GranularityLevel, extract_skeleton, parse_query
from skelsearch.sqlgen import (
    GoldEchoGenerationBackend,
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
    assert candidate.skeleton is skeleton


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
    backend = GoldEchoGenerationBackend({("toy", QUESTION): GOLD})
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
        assert candidate.skeleton is skeleton
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
    skeleton = make_skeleton()
    candidate = SqlCandidate("SELECT 1 FROM t", skeleton)
    assert not candidate.failed
    assert candidate.error == ""
