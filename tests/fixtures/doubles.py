"""Table-driven backend doubles for engine, selector and bench tests.

Each double answers from a table set up by the test and records the key
of every call in `calls`. A stored exception instance is raised instead
of answering, which lets a test script a backend failure at an exact
node, candidate or tie.
"""

from __future__ import annotations

from skelsearch.agents import BackendError, FormulationRequest
from skelsearch.schema import DatabaseProfile
from skelsearch.selector import VoteGroup
from skelsearch.skeleton import Skeleton


class ScriptedFormulationBackend:
    """(question, phase, parent text) -> skeleton texts."""

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
    """(question, skeleton text) -> bool, `default` for unknown keys."""

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


class ScriptedGenerationBackend:
    """(question, skeleton text) -> SQL text; unknown keys fail."""

    def __init__(self, table: dict):
        self.table = dict(table)
        self.calls: list[tuple] = []

    def write_sql(self, profile: DatabaseProfile, question: str,
                  skeleton: Skeleton) -> str:
        key = (question, skeleton.text)
        self.calls.append(key)
        value = self.table.get(key)
        if value is None:
            raise BackendError(f"no scripted SQL for {key!r}")
        if isinstance(value, Exception):
            raise value
        return value


class ScriptedArbitratorBackend:
    """A fixed 0-based group index for every tie."""

    def __init__(self, choice):
        self.choice = choice
        self.calls: list[tuple] = []

    def choose(self, question: str, tied: list[VoteGroup]) -> int:
        self.calls.append((question, [g.fingerprint for g in tied]))
        if isinstance(self.choice, Exception):
            raise self.choice
        return self.choice
