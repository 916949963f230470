"""A model double for the gateway transport, answering from a set-up table.

The table is built once per run, before any timing, from each item's
query variants (gold, equivalent rewrite, wrong-but-valid; see gen.py)
and the skeletons the code under test extracts from them. At call time
the double only matches the prompt kind and looks its answer up, so its
own CPU cost stays small and out of the gateway's self time.

Behaviour per prompt kind:

* formulation: up to m skeletons that refine the parent, gold first,
  then distinct wrong-but-grammatical ones. Some lines come lowercased
  or as full SQL (the normalizer coerces them) and some responses open
  with a chatter line (the normalizer rejects it).
* evaluation: True for the skeletons of the gold query and its rewrite,
  and a hash-chosen false positive for about half of the others, so
  trees branch, get pruned and keep several leaves.
* generation: the gold SQL, the rewrite or the wrong variant whose
  skeleton the leaf carries; a hash-chosen share of wrong leaves gets a
  query that fails to execute. The rewrite is known for a hash-chosen
  share of questions only; without it, ties and arbitration occur.
* arbitration: CHOICE of the first tied group whose SQL is correct.

Choices hash the item's place in the template cycle and skeleton text,
never the seed: tree shapes repeat across seeds and the seed varies only
the data, which keeps the work per run steady.

With latency on, each call sleeps a deterministic, token-proportional
time, and the first attempt at a hash-chosen share of prompts fails.
"""

from __future__ import annotations

import hashlib
import re
import threading
import time

from skelsearch.normalize import NormalizationOutcome, normalize
from skelsearch.skeleton import GranularityLevel, extract_skeleton, \
    parse_query

M = 3
REWRITE_SHARE = 0.6
FALSE_POSITIVE_SHARE = 0.5
LOWERCASE_SHARE = 0.2
FULL_SQL_SHARE = 0.2
CHATTER_SHARE = 0.15
BROKEN_SQL_SHARE = 0.3

LATENCY_BASE_S = 0.004
LATENCY_PER_PROMPT_TOKEN_S = 0.000005
LATENCY_PER_COMPLETION_TOKEN_S = 0.0001
TRANSIENT_FAILURE_SHARE = 0.1

BASE, EXPANDED, DETAILED = (GranularityLevel.BASE,
                            GranularityLevel.EXPANDED,
                            GranularityLevel.DETAILED)

_KINDS = [
    ("You design SQL query skeletons", "base"),
    ("You refine SQL query skeletons by exposing", "expanded"),
    ("You refine SQL query skeletons into Detailed", "detailed-step1"),
    ("You finish SQL query skeletons", "detailed-step2"),
    ("You judge whether a SQL skeleton", "evaluate"),
    ("You are a sqlite SQL expert", "generate"),
    ("Several SQL candidates", "arbitrate"),
]
_QUESTION = re.compile(r"^Question:\n(.+)$", re.MULTILINE)
_PARENT = re.compile(r"^Current skeleton:\n(.+)$", re.MULTILINE)
_JUDGED = re.compile(r"^Skeleton \((\w+) granularity\):\n(.+)$",
                     re.MULTILINE)
_LEAF = re.compile(r"^Skeleton:\n(.+)$", re.MULTILINE)
_GROUP_SQL = re.compile(r"^SQL: (.+)$", re.MULTILINE)


def unit(*parts) -> float:
    """Deterministic value in [0, 1) from the parts."""
    digest = hashlib.sha256("\x1f".join(map(str, parts)).encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2 ** 64


class _Question:
    """Precomputed answers for one dataset question."""

    def __init__(self, variants):
        self.key = variants.key
        sqls = [variants.gold] + list(variants.wrong)
        if unit(self.key, "rewrite") < REWRITE_SHARE:
            sqls.insert(1, variants.rewrite)
        self.variants: list[tuple[str, dict]] = []
        seen_detailed = set()
        for sql in sqls:
            tree = parse_query(sql)
            skel = {level: extract_skeleton(tree, level).text
                    for level in GranularityLevel}
            if skel[DETAILED] in seen_detailed:
                continue
            seen_detailed.add(skel[DETAILED])
            self.variants.append((sql, skel))
        correct = [v for v in self.variants[:2]
                   if v[0] in (variants.gold, variants.rewrite)]
        self.correct_sqls = {sql for sql, _ in correct}
        self.correct_texts = {(level, skel[level]) for _, skel in correct
                              for level in GranularityLevel}
        self.formulations: dict[tuple[str, str | None], str] = {}
        self.verdicts: dict[tuple[str, str], str] = {}
        self.generations: dict[str, str] = {}
        self._build()

    def _consistent(self, parent: str, levels) -> list[tuple[str, dict]]:
        return [(sql, skel) for sql, skel in self.variants
                if any(skel[level] == parent for level in levels)]

    def _render(self, phase: str, target: GranularityLevel,
                matches: list[tuple[str, dict]]) -> str:
        texts: list[tuple[str, str]] = []
        for sql, skel in matches:
            if skel[target] not in (t for t, _ in texts):
                texts.append((skel[target], sql))
        lines = []
        if texts and unit(self.key, phase, "chatter") < CHATTER_SHARE:
            lines.append("Here are the skeletons:")
        for text, sql in texts[:M]:
            u = unit(self.key, phase, text)
            line = text
            if u < LOWERCASE_SHARE:
                line = text.lower()
            elif u < LOWERCASE_SHARE + FULL_SQL_SHARE:
                line = sql
            report = normalize(line, target)
            if report.outcome is NormalizationOutcome.REJECTED or \
                    report.skeleton.text != text:
                line = text
            lines.append(line)
        return "\n".join(lines)

    def _build(self) -> None:
        self.formulations[("base", None)] = self._render(
            "base", BASE, self.variants)
        coarse = {skel[level] for _, skel in self.variants
                  for level in (BASE, EXPANDED)}
        for parent in sorted(coarse):
            matches = self._consistent(parent, (BASE, EXPANDED))
            self.formulations[("expanded", parent)] = self._render(
                "expanded", EXPANDED, matches)
            self.formulations[("detailed-step1", parent)] = self._render(
                "detailed-step1", DETAILED, matches)
        for _, skel in self.variants:
            self.formulations[("detailed-step2", skel[DETAILED])] = \
                skel[DETAILED]
        for _, skel in self.variants:
            for level in GranularityLevel:
                text = skel[level]
                verdict = ((level, text) in self.correct_texts
                           or unit(self.key, level.label, text)
                           < FALSE_POSITIVE_SHARE)
                self.verdicts[(level.label, text)] = (
                    "QUESTION ANALYSIS: what the question asks for.\n"
                    "SKELETON ANALYSIS: the structure of the skeleton.\n"
                    "ALIGNMENT ANALYSIS: whether the two fit.\n"
                    f"VERDICT: {verdict}")
        for level in (DETAILED, EXPANDED, BASE):
            for sql, skel in self.variants:
                text = skel[level]
                if text in self.generations:
                    continue
                if sql not in self.correct_sqls and \
                        unit(self.key, "broken", text) < BROKEN_SQL_SHARE:
                    sql = sql.replace("SELECT ", "SELECT x_", 1)
                self.generations[text] = sql

    def choose(self, prompt: str) -> str:
        sqls = _GROUP_SQL.findall(prompt)
        for number, sql in enumerate(sqls, start=1):
            if sql in self.correct_sqls:
                return f"CHOICE: {number}"
        return "CHOICE: 1"


class ModelTable:
    """Answers for every question of a dataset, built before timing."""

    def __init__(self, variants: dict):
        self.questions = {q: _Question(v) for q, v in variants.items()}

    def answer(self, prompt: str) -> str:
        kind = next((kind for prefix, kind in _KINDS
                     if prompt.startswith(prefix)), None)
        if kind is None:
            raise ValueError(f"unrecognized prompt: {prompt[:60]!r}")
        entry = self.questions[_QUESTION.search(prompt).group(1)]
        if kind == "evaluate":
            level, text = _JUDGED.search(prompt).groups()
            return entry.verdicts[(level, text)]
        if kind == "generate":
            return entry.generations[_LEAF.search(prompt).group(1)]
        if kind == "arbitrate":
            return entry.choose(prompt)
        parent = None if kind == "base" else _PARENT.search(prompt).group(1)
        return entry.formulations[(kind, parent)]


class ModelDouble:
    """Gateway transport over a ModelTable, with optional latency."""

    def __init__(self, table: ModelTable, latency: bool = False):
        self.table = table
        self.latency = latency
        self._lock = threading.Lock()
        self._failed_once: set[str] = set()

    def __call__(self, prompt: str, config, api_key):
        response = self.table.answer(prompt)
        p_tokens, c_tokens = len(prompt.split()), len(response.split())
        if self.latency:
            if unit("transient", prompt) < TRANSIENT_FAILURE_SHARE:
                with self._lock:
                    first = prompt not in self._failed_once
                    self._failed_once.add(prompt)
                if first:
                    time.sleep(LATENCY_BASE_S)
                    raise ConnectionError("transient: connection reset")
            time.sleep(LATENCY_BASE_S
                       + LATENCY_PER_PROMPT_TOKEN_S * p_tokens
                       + LATENCY_PER_COMPLETION_TOKEN_S * c_tokens)
        return response, p_tokens, c_tokens
