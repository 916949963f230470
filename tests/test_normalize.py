"""Normalizer behavior: outcomes, rule identifiers, oracle equivalence."""

import enum

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skelsearch import GranularityLevel, extract_skeleton, parse_query
from skelsearch import normalize as N
from skelsearch import sqlast
from skelsearch.normalize import (
    MAX_TOKENS,
    NormalizationOutcome,
    normalize,
)

from fixtures.corpus import CORPUS
from test_sqlast import _random_statement

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
    ("SELECT [col] FROM [tab] WHERE [col] = NOT [col]",
     GranularityLevel.DETAILED),
])
def test_normalize_lexes_and_parses_once(parse_counts, text, target):
    report = normalize(text, target)
    assert report.outcome is not NormalizationOutcome.REJECTED
    assert parse_counts == {"parse": 1, "lex": 1}


@pytest.mark.parametrize("target", LEVELS, ids=lambda level: level.label)
def test_normalize_renders_full_sql_once(monkeypatch, target):
    """A line with names in it can equal no finer skeleton, so only the
    target level is rendered."""
    rendered = []
    extract = N.extract_skeleton

    def counted(tree, level):
        rendered.append(level)
        return extract(tree, level)

    monkeypatch.setattr(N, "extract_skeleton", counted)
    report = normalize("SELECT name FROM t WHERE id IN (SELECT id FROM u)",
                       target)
    assert report.outcome is NormalizationOutcome.COERCED
    assert rendered == [target]


def test_normalize_and_extract_read_no_enum_member_through_its_class():
    """On Python 3.10 and 3.11 reading `Enum.X` runs the enum
    metaclass's attribute hook, several times the cost of a global, so
    the per-line path reads its members from module constants."""
    meta = type(GranularityLevel)
    own = vars(meta).get("__getattribute__")
    read = meta.__getattribute__
    reads = []

    def counted(cls, name):
        value = read(cls, name)
        if isinstance(value, enum.Enum):
            reads.append(name)
        return value

    meta.__getattribute__ = counted
    try:
        for sql in CORPUS:
            tree = parse_query(sql)
            for level in LEVELS:
                skeleton = extract_skeleton(tree, level)
                for text in (sql, sql.lower(), skeleton.text,
                             skeleton.text.lower()):
                    normalize(text, level)
    finally:
        if own is None:
            del meta.__getattribute__
        else:
            meta.__getattribute__ = own
    assert reads == []


# `normalize` takes three short cuts: the lexer's split path, an early
# accept when the text is the canonical skeleton itself, and finer levels
# rendered only for a text whose every word a skeleton can hold. The
# reference is the full path without any: the master pattern lexes, every
# text that parses is folded token by token, and every finer level is
# rendered for a text that folds to another skeleton than the target's.


def reference_normalize(agent_text, target):
    reasons = []
    text, fenced = N._strip_wrapping(agent_text)
    if fenced:
        reasons.append(N.RULE_CODE_FENCE)
    text = text.rstrip("; \t\r\n")
    if not text:
        return N.NormalizationReport(
            NormalizationOutcome.REJECTED, None, reasons + [N.RULE_PARSE])
    try:
        lexed = sqlast.Lexer(text, MAX_TOKENS).match_tokens([], 0)
    except sqlast.SqlSyntaxError:
        return N.NormalizationReport(
            NormalizationOutcome.REJECTED, None, reasons + [N.RULE_PARSE])
    tokens = lexed[:-1]
    if len(tokens) > MAX_TOKENS:
        return N.NormalizationReport(
            NormalizationOutcome.REJECTED, None, reasons + [N.RULE_BUDGET])
    try:
        tree = parse_query(text, lexed)
    except sqlast.SqlSyntaxError:
        return N.NormalizationReport(
            NormalizationOutcome.REJECTED, None, reasons + [N.RULE_PARSE])
    if target >= GranularityLevel.EXPANDED and tree.has_placeholder_query:
        return N.NormalizationReport(
            NormalizationOutcome.REJECTED, None,
            reasons + [N.RULE_UNDER_DETAIL])
    skeleton = extract_skeleton(tree, target)
    if target is GranularityLevel.DETAILED and \
            "_" in skeleton.text.split(" "):
        return N.NormalizationReport(
            NormalizationOutcome.REJECTED, None,
            reasons + [N.RULE_UNDER_DETAIL])
    canonical = skeleton.text.split(" ")
    folded = [t.value if t.type is sqlast.TokenType.PLACEHOLDER
              else t.value.upper() for t in tokens]
    if folded == canonical:
        written = [text[t.offset:t.offset + len(t.value)] for t in tokens]
        if written != canonical:
            reasons.append(N.RULE_CASE)
        if " ".join(written) != text:
            reasons.append(N.RULE_WHITESPACE)
        if set(reasons) <= N.TRIVIAL_RULES:
            return N.NormalizationReport(
                NormalizationOutcome.ACCEPTED, skeleton, reasons)
        return N.NormalizationReport(
            NormalizationOutcome.COERCED, skeleton, reasons)
    if any(t.type in (sqlast.TokenType.IDENTIFIER, sqlast.TokenType.STRING,
                      sqlast.TokenType.NUMBER) for t in tokens):
        reasons.append(N.RULE_TOKENS)
    for finer in GranularityLevel:
        if finer > target and \
                folded == extract_skeleton(tree, finer).text.split(" "):
            reasons.append(N.RULE_DETAIL)
            break
    if not (set(reasons) - N.TRIVIAL_RULES - {N.RULE_CODE_FENCE}):
        reasons.append(N.RULE_STRUCTURE)
    return N.NormalizationReport(NormalizationOutcome.COERCED, skeleton,
                                 reasons)


def _report_fields(report):
    skeleton = report.skeleton
    return (report.outcome, report.reasons,
            skeleton and (skeleton.level, skeleton.text,
                          skeleton.nesting_depth))


SKELETON_TEXTS = sorted({extract_skeleton(parse_query(sql), level).text
                         for sql in CORPUS for level in LEVELS})


VARIANTS = [lambda text: text, str.lower,
            lambda text: text.replace(" ", "  "),
            lambda text: f"```sql\n{text}\n```"]


@pytest.mark.parametrize("skeleton", SKELETON_TEXTS)
def test_reports_match_full_path_on_skeleton_variants(skeleton):
    for text in [variant(skeleton) for variant in VARIANTS]:
        for level in LEVELS:
            assert _report_fields(normalize(text, level)) == \
                _report_fields(reference_normalize(text, level)), \
                (text, level)


@st.composite
def agent_lines(draw):
    """A generated statement, or its skeleton at a level, as written, in
    lower case, re-spaced or fenced."""
    sql = _random_statement(draw(st.integers(0, 2**32 - 1)))
    texts = [sql]
    try:
        tree = parse_query(sql)
    except sqlast.SqlSyntaxError:
        pass
    else:
        texts += [extract_skeleton(tree, level).text for level in LEVELS]
    return draw(st.sampled_from(VARIANTS))(draw(st.sampled_from(texts)))


@settings(max_examples=400, deadline=None)
@given(agent_lines(), st.sampled_from(LEVELS))
# quoted names fold to skeleton words, so a finer level is tried
@example('SELECT "_" FROM "_" WHERE "_" IN (SELECT "_" FROM "_")',
         GranularityLevel.BASE)
def test_reports_match_full_path_on_generated_lines(text, target):
    assert _report_fields(normalize(text, target)) == \
        _report_fields(reference_normalize(text, target))
