"""SQL candidate generation from finished skeletons.

Each skeleton in the search output S yields at most one SQL candidate via
a zero-shot prompt: M-Schema rendering, question, skeleton, instruction.
Responses are post-processed (fences stripped, first statement taken) but
never validated here; execution screens them later. A failed generation
produces a candidate marked failed so downstream counts stay aligned
with S.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .agents import BackendError, load_template
from .gateway import LlmGateway, TransportError
from .normalize import _strip_wrapping
from .schema import DatabaseProfile, render_mschema
from .skeleton import GranularityLevel, Skeleton
from .sqlast import QUOTED_OR_COMMENT

# A quoted string or name, a comment, or the `;` that ends a statement.
_QUOTED_COMMENT_OR_END = re.compile(f"{QUOTED_OR_COMMENT}|;", re.DOTALL)


@dataclass
class SqlCandidate:
    """A SQL text and the level of the skeleton it was written from
    (`None` for gold), which breaks ties toward the finest level."""
    sql: str
    level: GranularityLevel | None
    failed: bool = False
    error: str = ""


def build_generation_prompt(profile: DatabaseProfile, question: str,
                            skeleton: Skeleton) -> str:
    return load_template("generate_sql").format(
        schema=render_mschema(profile).rstrip("\n"),
        question=question,
        skeleton=skeleton.text,
    )


def extract_statement(response: str) -> str:
    """First complete statement of a response, fences and labels removed.

    Quoted strings and names stay as written; each run of whitespace and
    comments outside them becomes one space, and the statement ends at
    the first `;` outside them.
    """
    body, _ = _strip_wrapping(response)
    if body.upper().startswith("SQL:"):
        body = body[4:]
    pieces, plain, start = [], "", 0
    for match in _QUOTED_COMMENT_OR_END.finditer(body):
        plain += body[start:match.start()]
        start = match.end()
        text = match.group()
        if text == ";":
            break
        if text[0] in "-/":  # a comment
            plain += " "
        else:
            pieces += (_squeeze(plain), text)
            plain = ""
    else:
        plain += body[start:]
    pieces.append(_squeeze(plain))
    return "".join(pieces).strip()


def _squeeze(text: str) -> str:
    """`text` with each run of whitespace as one space."""
    return " ".join([""] * text[:1].isspace() + text.split()
                    + [""] * text[-1:].isspace())


def generate_sql(profile: DatabaseProfile, question: str,
                 skeleton: Skeleton, backend) -> SqlCandidate:
    """Produce one candidate; backend failures mark it failed."""
    try:
        response = backend.write_sql(profile, question, skeleton)
    except (BackendError, TransportError) as exc:
        return SqlCandidate("", skeleton.level, failed=True,
                            error=f"generation failed: {exc}")
    sql = extract_statement(response)
    if not sql:
        return SqlCandidate("", skeleton.level, failed=True,
                            error="empty generation output")
    return SqlCandidate(sql, skeleton.level)


def generate_all(profile: DatabaseProfile, question: str,
                 skeletons: list[Skeleton], backend,
                 map_calls=map) -> list[SqlCandidate]:
    """One candidate per skeleton, ordered like the input; `map_calls`
    runs the generations, inline by default (see `engine.run_search`)."""
    return list(map_calls(
        lambda s: generate_sql(profile, question, s, backend), skeletons))


class LlmGenerationBackend:
    """Generation over a gateway with the zero-shot prompt."""

    def __init__(self, gateway: LlmGateway):
        self.gateway = gateway

    def write_sql(self, profile: DatabaseProfile, question: str,
                  skeleton: Skeleton) -> str:
        prompt = build_generation_prompt(profile, question, skeleton)
        return self.gateway.complete(prompt, stage="generate")
