"""Normalizer behavior: outcomes, rule identifiers, oracle equivalence."""

import pytest

from skelsearch import GranularityLevel, extract_skeleton, parse_query
from skelsearch.normalize import (
    MAX_TOKENS,
    NormalizationOutcome,
    normalize,
)

from fixtures.corpus import CORPUS

LEVELS = [GranularityLevel.BASE, GranularityLevel.EXPANDED,
          GranularityLevel.DETAILED]


def test_accepts_canonical_case_folded():
    report = normalize("select _ from _ where _", GranularityLevel.BASE)
    assert report.outcome is NormalizationOutcome.ACCEPTED
    assert report.skeleton.text == "SELECT _ FROM _ WHERE _"
    assert "case-folded" in report.reasons


def test_accepts_exact_canonical_without_reasons():
    report = normalize("SELECT _ FROM _ WHERE _", GranularityLevel.BASE)
    assert report.outcome is NormalizationOutcome.ACCEPTED
    assert report.reasons == []


def test_coerces_full_sql_to_base():
    report = normalize("SELECT name FROM users WHERE age > 18",
                       GranularityLevel.BASE)
    assert report.outcome is NormalizationOutcome.COERCED
    assert report.skeleton.text == "SELECT _ FROM _ WHERE _"
    assert "tokens-abstracted" in report.reasons


def test_rejects_garbage():
    for level in LEVELS:
        report = normalize("FROM WHERE SELECT", level)
        assert report.outcome is NormalizationOutcome.REJECTED
        assert report.skeleton is None
        assert "parse-error" in report.reasons


@pytest.mark.parametrize("sql", CORPUS)
@pytest.mark.parametrize("level", LEVELS)
def test_oracle_equivalence(sql, level):
    report = normalize(sql, level)
    expected = extract_skeleton(parse_query(sql), level)
    assert report.outcome is not NormalizationOutcome.REJECTED
    assert report.skeleton.text == expected.text
    assert report.skeleton.level == level


@pytest.mark.parametrize("sql", CORPUS)
@pytest.mark.parametrize("level", LEVELS)
def test_idempotent(sql, level):
    first = normalize(sql, level)
    again = normalize(first.skeleton.text, level)
    assert again.outcome is NormalizationOutcome.ACCEPTED
    assert again.skeleton.text == first.skeleton.text
    assert again.reasons == []


@pytest.mark.parametrize("sql", CORPUS)
@pytest.mark.parametrize("level", LEVELS)
def test_report_invariants(sql, level):
    report = normalize(sql, level)
    assert (report.outcome is NormalizationOutcome.REJECTED) == \
        (report.skeleton is None)
    if report.outcome is NormalizationOutcome.COERCED:
        assert report.reasons


def test_strips_code_fence():
    report = normalize("```sql\nSELECT _ FROM _\n```",
                       GranularityLevel.BASE)
    assert report.outcome is NormalizationOutcome.COERCED
    assert report.skeleton.text == "SELECT _ FROM _"
    assert "code-fence-stripped" in report.reasons


def test_strips_backtick_wrap():
    report = normalize("`SELECT _ FROM _`", GranularityLevel.BASE)
    assert report.outcome is NormalizationOutcome.COERCED
    assert report.skeleton.text == "SELECT _ FROM _"


def test_erases_finer_detail():
    report = normalize("SELECT [col] FROM [tab] WHERE [col] = [val]",
                       GranularityLevel.EXPANDED)
    assert report.outcome is NormalizationOutcome.COERCED
    assert report.skeleton.text == "SELECT _ FROM _ WHERE _"
    assert "detail-erased" in report.reasons


def test_rejects_under_detail_for_detailed():
    report = normalize("SELECT _ FROM _ WHERE _", GranularityLevel.DETAILED)
    assert report.outcome is NormalizationOutcome.REJECTED
    assert "under-detailed" in report.reasons


def test_rejects_base_arms_for_expanded():
    report = normalize("_ UNION _", GranularityLevel.EXPANDED)
    assert report.outcome is NormalizationOutcome.REJECTED
    assert "under-detailed" in report.reasons
    accepted = normalize("_ UNION _", GranularityLevel.BASE)
    assert accepted.outcome is NormalizationOutcome.ACCEPTED


def test_flat_base_text_is_valid_expanded():
    report = normalize("SELECT _ FROM _ WHERE _", GranularityLevel.EXPANDED)
    assert report.outcome is NormalizationOutcome.ACCEPTED


def test_rejects_over_budget():
    text = "SELECT " + " , ".join(["a"] * (MAX_TOKENS // 2)) + " FROM t"
    report = normalize(text, GranularityLevel.BASE)
    assert report.outcome is NormalizationOutcome.REJECTED
    assert "token-budget-exceeded" in report.reasons


def test_budget_cuts_lexing_off_before_a_later_error():
    text = "SELECT " + " , ".join(["col"] * 300) + " FROM t WHERE a = 'open"
    report = normalize(text, GranularityLevel.DETAILED)
    assert report.outcome is NormalizationOutcome.REJECTED
    assert report.reasons == ["token-budget-exceeded"]


@pytest.mark.parametrize("tail, rejected", [("", False), (" x", True)])
def test_budget_boundary(tail, rejected):
    # SELECT, n columns, n - 1 commas, FROM and t: 2n + 2 tokens
    columns = (MAX_TOKENS - 2) // 2
    text = "SELECT " + " , ".join(["a"] * columns) + " FROM t" + tail
    report = normalize(text, GranularityLevel.BASE)
    assert (report.outcome is NormalizationOutcome.REJECTED) == rejected
    assert ("token-budget-exceeded" in report.reasons) == rejected


def test_rejects_empty():
    for text in ("", "   ", "```\n```", ";"):
        report = normalize(text, GranularityLevel.BASE)
        assert report.outcome is NormalizationOutcome.REJECTED


def test_accepts_canonical_detailed():
    text = "SELECT [col] FROM [tab] JOIN [tab] ON [col] = [col]"
    report = normalize(text, GranularityLevel.DETAILED)
    assert report.outcome is NormalizationOutcome.ACCEPTED
    assert report.skeleton.text == text


def test_structure_reason_on_connective_rewrite():
    report = normalize("SELECT _ FROM _ INNER JOIN _ ON _",
                       GranularityLevel.EXPANDED)
    assert report.outcome is NormalizationOutcome.COERCED
    assert "structure-canonicalized" in report.reasons


def test_trailing_semicolon_still_accepted():
    report = normalize("SELECT _ FROM _;", GranularityLevel.BASE)
    assert report.outcome is NormalizationOutcome.ACCEPTED
    assert report.skeleton.text == "SELECT _ FROM _"


@pytest.mark.parametrize("text,target", [
    ("select _ from _ where _", GranularityLevel.BASE),
    ("SELECT name FROM t WHERE id IN (SELECT id FROM u)",
     GranularityLevel.EXPANDED),
    ("SELECT [col] FROM [tab] WHERE [col] > [val]", GranularityLevel.BASE),
])
def test_normalize_lexes_and_parses_once(parse_counts, text, target):
    report = normalize(text, target)
    assert report.outcome is not NormalizationOutcome.REJECTED
    assert parse_counts == {"parse": 1, "lex": 1}
