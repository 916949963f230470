"""Formulation and evaluation agent contracts.

Two agent roles drive the search. The formulation agent proposes child
skeletons for a node (bounded by m); the evaluation agent judges one
skeleton against the question with a True/False verdict. Both are modeled
as swappable backends behind small protocols:

* live LLM backends (prompt templates + gateway),
* scripted tables (hand-written traces for engine tests),
* gold oracles (string equality against the gold SQL's extraction).

Replay is not a separate backend: an LLM backend over a gateway in replay
mode is hermetic by construction.

Evaluation is fail-closed: transport failures and unparsable output map to
verdict False, never to an exception past this boundary. Formulation is
fail-soft: a failed call yields zero children for that node.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field
from enum import Enum
from importlib import resources

from .gateway import LlmGateway, TransportError
from .normalize import _strip_wrapping
from .schema import DatabaseProfile, render_mschema
from .skeleton import (
    GranularityLevel,
    Skeleton,
    extract_skeleton,
    parse_query,
)

VERDICT_MARKER = re.compile(r"^\s*VERDICT:\s*(\w+)\s*$",
                            re.IGNORECASE | re.MULTILINE)
ANALYSIS_HEADERS = ("QUESTION ANALYSIS:", "SKELETON ANALYSIS:",
                    "ALIGNMENT ANALYSIS:")
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
    analysis: tuple[str, str, str] | None = None
    reason: str = ""
    raw: str = ""


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


def parse_analysis(response: str) -> tuple[str, str, str] | None:
    """Extract the three-stage analysis; None when any stage is absent."""
    positions = []
    for header in ANALYSIS_HEADERS:
        at = response.find(header)
        if at < 0:
            return None
        positions.append((at, header))
    positions.sort()
    stop = len(response)
    verdict = VERDICT_MARKER.search(response)
    if verdict:
        stop = verdict.start()
    chunks = {}
    for i, (at, header) in enumerate(positions):
        end = positions[i + 1][0] if i + 1 < len(positions) else stop
        chunks[header] = response[at + len(header):end].strip()
    return tuple(chunks[h] for h in ANALYSIS_HEADERS)


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
    return EvaluationVerdict(verdict, parse_analysis(response), reason,
                             response)


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


class ScriptedFormulationBackend:
    """Table-driven double: (question, phase, parent text) -> texts.

    A stored exception instance is raised instead, which lets traces
    script backend failures at exact nodes.
    """

    def __init__(self, table: dict):
        self.table = dict(table)
        self.calls: list[tuple] = []

    def propose(self, req: FormulationRequest) -> list[str]:
        key = (req.question, req.phase.value,
               req.parent.text if req.parent else None)
        self.calls.append(key)
        value = self.table.get(key, [])
        if isinstance(value, Exception):
            raise value
        return list(value)


class ScriptedEvaluationBackend:
    """Table-driven double: (question, skeleton text) -> bool."""

    def __init__(self, table: dict, default: bool = False):
        self.table = dict(table)
        self.default = default
        self.calls: list[tuple] = []

    def judge(self, schema: DatabaseProfile, question: str,
              candidate: Skeleton) -> str:
        key = (question, candidate.text)
        self.calls.append(key)
        value = self.table.get(key, self.default)
        if isinstance(value, Exception):
            raise value
        return f"VERDICT: {bool(value)}"


class GoldFormulationBackend:
    """Echoes the gold SQL's own skeleton at the phase's target level."""

    def __init__(self, gold_sql: str | dict):
        self.gold_sql = gold_sql

    def _gold(self, question: str) -> str:
        if isinstance(self.gold_sql, dict):
            return self.gold_sql[question]
        return self.gold_sql

    def propose(self, req: FormulationRequest) -> list[str]:
        tree = parse_query(self._gold(req.question))
        return [extract_skeleton(tree, req.phase.target_level).text]


class GoldOracleEvaluationBackend:
    """True iff the candidate equals the gold extraction at its level."""

    def __init__(self, gold_sql: str | dict):
        self.gold_sql = gold_sql

    def _gold(self, question: str) -> str:
        if isinstance(self.gold_sql, dict):
            return self.gold_sql[question]
        return self.gold_sql

    def judge(self, schema: DatabaseProfile, question: str,
              candidate: Skeleton) -> str:
        tree = parse_query(self._gold(question))
        gold = extract_skeleton(tree, candidate.level)
        return f"VERDICT: {candidate.text == gold.text}"
