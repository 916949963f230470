"""Formulation and evaluation agent contracts.

Two agent roles drive the search. The formulation agent proposes child
skeletons for a node (bounded by m); the evaluation agent judges one
skeleton against the question with a True/False verdict. Both are modeled
as swappable backends behind small protocols:

* live LLM backends (prompt templates + gateway),
* a gold oracle (string equality against the gold SQL's extraction),
  which also writes gold mode's SQL.

Replay is not a separate backend: an LLM backend over a gateway in replay
mode is hermetic by construction.

Evaluation is fail-closed: transport failures and unparsable output map to
verdict False, never to an exception past this boundary. Formulation is
fail-soft: a failed call yields zero children for that node.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from enum import Enum
from importlib import resources

from .gateway import LlmGateway, TransportError
from .normalize import _strip_wrapping
from .schema import DatabaseProfile, render_mschema
from .skeleton import (
    ClauseTree,
    GranularityLevel,
    Skeleton,
    extract_skeleton,
    parse_query,
)

VERDICT_MARKER = re.compile(r"^\s*VERDICT:\s*(\w+)\s*$",
                            re.IGNORECASE | re.MULTILINE)
_LINE_MARKER = re.compile(r"^\s*(?:\d+[.)]\s*|[-*]\s+)")


class BackendError(RuntimeError):
    """An agent backend failed to produce a usable response."""


class SearchPhase(Enum):
    BASE = "base"
    EXPANDED = "expanded"
    DETAILED_STEP1 = "detailed-step1"
    DETAILED_STEP2 = "detailed-step2"

    @property
    def target_level(self) -> GranularityLevel:
        if self is SearchPhase.BASE:
            return GranularityLevel.BASE
        if self is SearchPhase.EXPANDED:
            return GranularityLevel.EXPANDED
        return GranularityLevel.DETAILED


@dataclass
class FormulationRequest:
    schema: DatabaseProfile
    question: str
    parent: Skeleton | None
    phase: SearchPhase
    max_children: int

    def __post_init__(self):
        if (self.parent is None) != (self.phase is SearchPhase.BASE):
            raise ValueError(
                "parent skeleton must be absent exactly in the Base phase")
        if self.max_children < 1:
            raise ValueError("max_children must be >= 1")


@dataclass
class EvaluationVerdict:
    verdict: bool
    reason: str = ""


@functools.cache
def load_template(name: str) -> str:
    """Prompt template text, read from the package once per name."""
    return resources.files("skelsearch").joinpath(
        f"prompts/{name}.txt").read_text(encoding="utf-8")


_PHASE_TEMPLATES = {
    SearchPhase.BASE: "formulate_base",
    SearchPhase.EXPANDED: "formulate_expanded",
    SearchPhase.DETAILED_STEP1: "formulate_detailed_step1",
    SearchPhase.DETAILED_STEP2: "formulate_detailed_step2",
}


def build_formulation_prompt(req: FormulationRequest) -> str:
    template = load_template(_PHASE_TEMPLATES[req.phase])
    return template.format(
        schema=render_mschema(req.schema).rstrip("\n"),
        question=req.question,
        parent=req.parent.text if req.parent else "",
        m=req.max_children,
    )


def build_evaluation_prompt(schema: DatabaseProfile, question: str,
                            skeleton: Skeleton) -> str:
    return load_template("evaluate").format(
        schema=render_mschema(schema).rstrip("\n"),
        question=question,
        skeleton=skeleton.text,
        level=skeleton.level.label,
    )


def parse_candidate_lines(response: str) -> list[str]:
    """One skeleton per nonempty line; fences and list markers stripped."""
    body, _ = _strip_wrapping(response)
    lines = []
    for line in body.splitlines():
        line = _LINE_MARKER.sub("", line).strip().strip("`")
        if line:
            lines.append(line)
    return lines


def parse_verdict(response: str) -> tuple[bool, str]:
    matches = VERDICT_MARKER.findall(response)
    if not matches:
        return False, "no verdict marker in response"
    word = matches[-1].lower()
    if word == "true":
        return True, ""
    if word == "false":
        return False, ""
    return False, f"malformed verdict {matches[-1]!r}"


def formulate(req: FormulationRequest, backend) -> list[str]:
    """Ask a backend for child skeleton texts, bounded by max_children."""
    try:
        texts = backend.propose(req)
    except (BackendError, TransportError):
        return []
    return list(texts)[:req.max_children]


def evaluate(schema: DatabaseProfile, question: str, candidate: Skeleton,
             backend) -> EvaluationVerdict:
    """Judge one skeleton; failures map to verdict False (fail-closed)."""
    try:
        response = backend.judge(schema, question, candidate)
    except (BackendError, TransportError) as exc:
        return EvaluationVerdict(False, reason=f"backend error: {exc}")
    verdict, reason = parse_verdict(response)
    return EvaluationVerdict(verdict, reason)


class LlmFormulationBackend:
    """Formulation over a gateway; one candidate skeleton per line."""

    def __init__(self, gateway: LlmGateway):
        self.gateway = gateway

    def propose(self, req: FormulationRequest) -> list[str]:
        prompt = build_formulation_prompt(req)
        response = self.gateway.complete(
            prompt, stage=f"formulate:{req.phase.value}")
        return parse_candidate_lines(response)


class LlmEvaluationBackend:
    """Evaluation over a gateway; response carries the verdict marker."""

    def __init__(self, gateway: LlmGateway):
        self.gateway = gateway

    def judge(self, schema: DatabaseProfile, question: str,
              candidate: Skeleton) -> str:
        prompt = build_evaluation_prompt(schema, question, candidate)
        return self.gateway.complete(prompt, stage="evaluate")


class GoldOracle:
    """The gold backend of every role, from a (db_id, question) -> gold
    SQL dict: it proposes the gold SQL's own skeleton at the phase's
    target level, judges a skeleton true iff it equals the gold
    extraction at its level, and writes the gold SQL whatever the
    skeleton (the oracle upper bound).

    It keeps the tree of the last gold text it parsed. A search asks
    about one question throughout, so each item's gold is parsed once,
    and a whole dataset run holds one tree. The (text, tree) pair is
    replaced in one assignment, so an item thread never reads a tree
    that belongs to another text.
    """

    _last: tuple[str, ClauseTree] | None = None

    def __init__(self, golds: dict[tuple[str, str], str]):
        self.golds = golds

    def _gold_tree(self, schema: DatabaseProfile,
                   question: str) -> ClauseTree:
        gold = self.golds[(schema.db_id, question)]
        last = self._last
        if last is None or last[0] != gold:
            last = self._last = (gold, parse_query(gold))
        return last[1]

    def propose(self, req: FormulationRequest) -> list[str]:
        tree = self._gold_tree(req.schema, req.question)
        return [extract_skeleton(tree, req.phase.target_level).text]

    def judge(self, schema: DatabaseProfile, question: str,
              candidate: Skeleton) -> str:
        gold = extract_skeleton(self._gold_tree(schema, question),
                                candidate.level)
        return f"VERDICT: {candidate.text == gold.text}"

    def write_sql(self, profile: DatabaseProfile, question: str,
                  skeleton: Skeleton) -> str:
        return self.golds[(profile.db_id, question)]
