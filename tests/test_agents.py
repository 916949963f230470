"""Agent contracts: prompts, parsing, backends, fail-closed evaluation."""

import pytest

from skelsearch import GranularityLevel, extract_skeleton, parse_query
from skelsearch.agents import (
    BackendError,
    FormulationRequest,
    GoldFormulationBackend,
    GoldOracleEvaluationBackend,
    LlmEvaluationBackend,
    LlmFormulationBackend,
    ScriptedEvaluationBackend,
    ScriptedFormulationBackend,
    SearchPhase,
    build_evaluation_prompt,
    build_formulation_prompt,
    evaluate,
    formulate,
    parse_analysis,
    parse_candidate_lines,
    parse_verdict,
)
from skelsearch.gateway import Cassette, GatewayConfig, LlmGateway

GOLD = ("SELECT name FROM students WHERE id IN "
        "(SELECT student_id FROM grades WHERE score > 90)")


def skeleton_of(sql, level):
    return extract_skeleton(parse_query(sql), level)


def base_request(profile, m=3):
    return FormulationRequest(profile, "which students?", None,
                              SearchPhase.BASE, m)


def test_phase_target_levels():
    assert SearchPhase.BASE.target_level is GranularityLevel.BASE
    assert SearchPhase.EXPANDED.target_level is GranularityLevel.EXPANDED
    assert SearchPhase.DETAILED_STEP1.target_level is \
        GranularityLevel.DETAILED
    assert SearchPhase.DETAILED_STEP2.target_level is \
        GranularityLevel.DETAILED


def test_request_invariants(toy_profile):
    parent = skeleton_of("SELECT a FROM t", GranularityLevel.BASE)
    with pytest.raises(ValueError):
        FormulationRequest(toy_profile, "q", parent, SearchPhase.BASE, 3)
    with pytest.raises(ValueError):
        FormulationRequest(toy_profile, "q", None, SearchPhase.EXPANDED, 3)
    with pytest.raises(ValueError):
        FormulationRequest(toy_profile, "q", None, SearchPhase.BASE, 0)


def test_formulation_prompt_deterministic(toy_profile):
    req = base_request(toy_profile)
    assert build_formulation_prompt(req) == build_formulation_prompt(req)


def test_base_prompt_has_no_parent_section(toy_profile):
    prompt = build_formulation_prompt(base_request(toy_profile))
    assert "Current skeleton" not in prompt
    assert "which students?" in prompt
    assert "【DB_ID】 toy" in prompt


def test_expanded_prompt_embeds_parent(toy_profile):
    parent = skeleton_of(GOLD, GranularityLevel.BASE)
    req = FormulationRequest(toy_profile, "q", parent,
                             SearchPhase.EXPANDED, 3)
    assert parent.text in build_formulation_prompt(req)


def test_detailed_step2_prompt_mentions_joins(toy_profile):
    parent = skeleton_of(GOLD, GranularityLevel.DETAILED)
    req = FormulationRequest(toy_profile, "q", parent,
                             SearchPhase.DETAILED_STEP2, 3)
    prompt = build_formulation_prompt(req)
    assert "JOIN [tab] ON [col] = [col]" in prompt


def test_evaluation_prompt(toy_profile):
    skel = skeleton_of(GOLD, GranularityLevel.EXPANDED)
    prompt = build_evaluation_prompt(toy_profile, "who?", skel)
    assert skel.text in prompt
    assert "expanded" in prompt
    assert "VERDICT:" in prompt
    assert prompt == build_evaluation_prompt(toy_profile, "who?", skel)


def test_parse_candidate_lines():
    response = """Here are skeletons:
1. SELECT _ FROM _ WHERE _
2) SELECT _ FROM _ GROUP BY _
- SELECT _ FROM _
"""
    assert parse_candidate_lines(response) == [
        "Here are skeletons:",
        "SELECT _ FROM _ WHERE _",
        "SELECT _ FROM _ GROUP BY _",
        "SELECT _ FROM _",
    ]
    fenced = "```sql\nSELECT _ FROM _\nSELECT _ FROM _ WHERE _\n```"
    assert parse_candidate_lines(fenced) == [
        "SELECT _ FROM _", "SELECT _ FROM _ WHERE _"]


def test_parse_verdict():
    assert parse_verdict("analysis...\nVERDICT: True") == (True, "")
    assert parse_verdict("VERDICT: false\n") == (False, "")
    assert parse_verdict("verdict: TRUE") == (True, "")
    ok, reason = parse_verdict("no marker anywhere")
    assert not ok and "no verdict marker" in reason
    ok, reason = parse_verdict("VERDICT: maybe")
    assert not ok and "malformed" in reason
    assert parse_verdict("VERDICT: False\nVERDICT: True")[0] is True


def test_parse_analysis():
    response = """QUESTION ANALYSIS: asks for names.
SKELETON ANALYSIS: filter plus subquery.
ALIGNMENT ANALYSIS: matches.
VERDICT: True"""
    triple = parse_analysis(response)
    assert triple == ("asks for names.", "filter plus subquery.",
                      "matches.")
    assert parse_analysis("QUESTION ANALYSIS: only one stage") is None


def test_formulate_truncates_to_m(toy_profile):
    backend = ScriptedFormulationBackend({
        ("q", "base", None): ["A"] * 5,
    })
    req = FormulationRequest(toy_profile, "q", None, SearchPhase.BASE, 3)
    assert formulate(req, backend) == ["A", "A", "A"]


def test_formulate_fail_soft(toy_profile):
    backend = ScriptedFormulationBackend({
        ("q", "base", None): BackendError("boom"),
    })
    req = FormulationRequest(toy_profile, "q", None, SearchPhase.BASE, 3)
    assert formulate(req, backend) == []


def test_evaluate_scripted(toy_profile):
    skel = skeleton_of("SELECT a FROM t", GranularityLevel.BASE)
    backend = ScriptedEvaluationBackend({("q", skel.text): True})
    assert evaluate(toy_profile, "q", skel, backend).verdict is True
    assert evaluate(toy_profile, "other", skel, backend).verdict is False


def test_evaluate_fail_closed(toy_profile):
    skel = skeleton_of("SELECT a FROM t", GranularityLevel.BASE)
    backend = ScriptedEvaluationBackend({
        ("q", skel.text): BackendError("down")})
    verdict = evaluate(toy_profile, "q", skel, backend)
    assert verdict.verdict is False
    assert "backend error" in verdict.reason


class NoMarkerBackend:
    def judge(self, schema, question, candidate):
        return "long analysis that never concludes"


def test_evaluate_missing_marker_is_false(toy_profile):
    skel = skeleton_of("SELECT a FROM t", GranularityLevel.BASE)
    verdict = evaluate(toy_profile, "q", skel, NoMarkerBackend())
    assert verdict.verdict is False
    assert "no verdict marker" in verdict.reason


def test_gold_oracle_accepts_gold_extractions(toy_profile):
    backend = GoldOracleEvaluationBackend(GOLD)
    for level in GranularityLevel:
        gold = skeleton_of(GOLD, level)
        assert evaluate(toy_profile, "q", gold, backend).verdict is True
    wrong = skeleton_of("SELECT a FROM t GROUP BY b", GranularityLevel.BASE)
    assert evaluate(toy_profile, "q", wrong, backend).verdict is False


def test_gold_formulation_echoes_extraction(toy_profile):
    backend = GoldFormulationBackend({"q": GOLD})
    req = FormulationRequest(toy_profile, "q", None, SearchPhase.BASE, 3)
    assert formulate(req, backend) == [
        skeleton_of(GOLD, GranularityLevel.BASE).text]
    parent = skeleton_of(GOLD, GranularityLevel.BASE)
    req = FormulationRequest(toy_profile, "q", parent,
                             SearchPhase.EXPANDED, 3)
    assert formulate(req, backend) == [
        skeleton_of(GOLD, GranularityLevel.EXPANDED).text]


def test_llm_backends_replay_bit_identical(tmp_path, toy_profile):
    path = tmp_path / "agents.cassette"
    script = {
        "formulate:base": "SELECT _ FROM _ WHERE _\nSELECT _ FROM _",
        "evaluate": "QUESTION ANALYSIS: a\nSKELETON ANALYSIS: b\n"
                    "ALIGNMENT ANALYSIS: c\nVERDICT: True",
    }

    def transport(prompt, cfg, api_key=None):
        kind = "evaluate" if "VERDICT:" in prompt else "formulate:base"
        return script[kind], 7, 3

    config = GatewayConfig(endpoint="http://x.invalid", model="m",
                           backoff_base=0.0)
    recorder = LlmGateway(config, "record", path, transport=transport)
    req = base_request(toy_profile)
    skel = skeleton_of("SELECT a FROM t WHERE b > 1", GranularityLevel.BASE)
    texts = formulate(req, LlmFormulationBackend(recorder))
    verdict = evaluate(toy_profile, "which students?", skel,
                       LlmEvaluationBackend(recorder))
    assert texts == ["SELECT _ FROM _ WHERE _", "SELECT _ FROM _"]
    assert verdict.verdict is True
    assert verdict.analysis == ("a", "b", "c")

    def sentinel(prompt, cfg, api_key=None):
        raise AssertionError("replay must not touch the network")

    for _ in range(2):
        player = LlmGateway(config, "replay", Cassette(path),
                            transport=sentinel)
        replay_texts = formulate(req, LlmFormulationBackend(player))
        replay_verdict = evaluate(toy_profile, "which students?", skel,
                                  LlmEvaluationBackend(player))
        assert replay_texts == texts
        assert replay_verdict.raw == verdict.raw


def test_load_template_reads_each_file_once(monkeypatch, toy_profile):
    import types

    from skelsearch import agents

    reads = []
    files = agents.resources.files

    class CountingRoot:
        def __init__(self, root):
            self.root = root

        def joinpath(self, name):
            reads.append(name)
            return self.root.joinpath(name)

    monkeypatch.setattr(agents, "resources", types.SimpleNamespace(
        files=lambda package: CountingRoot(files(package))))
    agents.load_template.cache_clear()
    try:
        skeleton = skeleton_of(GOLD, GranularityLevel.BASE)
        for _ in range(3):
            build_formulation_prompt(base_request(toy_profile))
            build_evaluation_prompt(toy_profile, "q?", skeleton)
        assert sorted(reads) == ["prompts/evaluate.txt",
                                 "prompts/formulate_base.txt"]
    finally:
        agents.load_template.cache_clear()
