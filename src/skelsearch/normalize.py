"""Rule-based normalization of free-form agent output into skeletons.

Agents return text that is usually close to a skeleton but not canonical:
lowercase keywords, markdown fences, full SQL with live identifiers, or a
finer granularity than the phase asked for. The normalizer coerces what it
can and rejects what it cannot, reporting which rules fired.

Outcomes:

* Accepted: the text already names the canonical skeleton; only case or
  whitespace differed.
* Coerced: recoverable token-level changes were applied (identifiers
  abstracted to placeholders, finer detail erased, structure rewritten
  into canonical connectives).
* Rejected: the text does not parse, exceeds the token budget, or is
  coarser than the target level (missing detail is never invented).

For parsable full SQL the result always equals direct extraction:
normalize(s, L).skeleton == extract_skeleton(parse_query(s), L).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum

from . import sqlast as A
from .skeleton import (
    GranularityLevel,
    Skeleton,
    extract_skeleton,
    parse_query,
)

MAX_TOKENS = 512

RULE_CODE_FENCE = "code-fence-stripped"
RULE_CASE = "case-folded"
RULE_WHITESPACE = "whitespace-collapsed"
RULE_TOKENS = "tokens-abstracted"
RULE_DETAIL = "detail-erased"
RULE_STRUCTURE = "structure-canonicalized"
RULE_PARSE = "parse-error"
RULE_BUDGET = "token-budget-exceeded"
RULE_UNDER_DETAIL = "under-detailed"

TRIVIAL_RULES = frozenset({RULE_CASE, RULE_WHITESPACE})

_FENCE = re.compile(r"```[a-zA-Z]*\s*(.*?)```", re.DOTALL)


class NormalizationOutcome(Enum):
    ACCEPTED = "accepted"
    COERCED = "coerced"
    REJECTED = "rejected"


@dataclass
class NormalizationReport:
    outcome: NormalizationOutcome
    skeleton: Skeleton | None
    reasons: list[str] = field(default_factory=list)


def _strip_wrapping(text: str) -> tuple[str, bool]:
    """Remove markdown fences or a whole-text backtick wrap."""
    fenced = _FENCE.search(text)
    if fenced:
        return fenced.group(1).strip(), True
    stripped = text.strip()
    if len(stripped) >= 2 and stripped[0] == "`" and stripped[-1] == "`":
        return stripped[1:-1].strip(), True
    return stripped, False


def normalize(agent_text: str,
              target: GranularityLevel) -> NormalizationReport:
    """Coerce agent output into a canonical skeleton at `target`.

    Never raises; malformed input yields a Rejected report whose reasons
    name the failing rule.
    """
    reasons: list[str] = []
    text, fenced = _strip_wrapping(agent_text)
    if fenced:
        reasons.append(RULE_CODE_FENCE)
    text = text.rstrip("; \t\r\n")
    if not text:
        return NormalizationReport(
            NormalizationOutcome.REJECTED, None, reasons + [RULE_PARSE])

    try:
        lexed = A.Lexer(text, MAX_TOKENS).tokens()
    except A.SqlSyntaxError:
        return NormalizationReport(
            NormalizationOutcome.REJECTED, None, reasons + [RULE_PARSE])
    tokens = lexed[:-1]  # without the trailing EOF
    if len(tokens) > MAX_TOKENS:
        return NormalizationReport(
            NormalizationOutcome.REJECTED, None, reasons + [RULE_BUDGET])

    try:
        tree = parse_query(text, lexed)
    except A.SqlSyntaxError:
        return NormalizationReport(
            NormalizationOutcome.REJECTED, None, reasons + [RULE_PARSE])

    if target >= GranularityLevel.EXPANDED and tree.has_placeholder_query:
        return NormalizationReport(
            NormalizationOutcome.REJECTED, None,
            reasons + [RULE_UNDER_DETAIL])
    skeleton = extract_skeleton(tree, target)
    if target is GranularityLevel.DETAILED and \
            "_" in skeleton.text.split(" "):
        return NormalizationReport(
            NormalizationOutcome.REJECTED, None,
            reasons + [RULE_UNDER_DETAIL])

    # Every token of a canonical skeleton folds to itself and is written
    # as itself, so the comparison below would add no reason.
    if text == skeleton.text:
        return NormalizationReport(
            NormalizationOutcome.COERCED if reasons
            else NormalizationOutcome.ACCEPTED, skeleton, reasons)

    canonical = skeleton.text.split(" ")
    folded = [t.value if t.type is A.TokenType.PLACEHOLDER
              else t.value.upper() for t in tokens]
    if folded == canonical:
        written = [text[t.offset:t.offset + len(t.value)] for t in tokens]
        if written != canonical:
            reasons.append(RULE_CASE)
        if " ".join(written) != text:
            reasons.append(RULE_WHITESPACE)
        if set(reasons) <= TRIVIAL_RULES:
            return NormalizationReport(
                NormalizationOutcome.ACCEPTED, skeleton, reasons)
        return NormalizationReport(
            NormalizationOutcome.COERCED, skeleton, reasons)

    if any(t.type in (A.TokenType.IDENTIFIER, A.TokenType.STRING,
                      A.TokenType.NUMBER) for t in tokens):
        reasons.append(RULE_TOKENS)
    for finer in GranularityLevel:
        if finer > target and \
                folded == extract_skeleton(tree, finer).text.split(" "):
            reasons.append(RULE_DETAIL)
            break
    if not (set(reasons) - TRIVIAL_RULES - {RULE_CODE_FENCE}):
        reasons.append(RULE_STRUCTURE)
    return NormalizationReport(NormalizationOutcome.COERCED, skeleton,
                               reasons)
