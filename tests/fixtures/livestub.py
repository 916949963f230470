"""A transport double that answers gateway prompts like a perfect model.

It recognizes the prompt kind by the template's first line, pulls the
question (and skeleton, for judgments) out of the prompt body, and
answers from a question -> gold SQL table: gold skeletons for
formulation, gold-oracle verdicts for evaluation, the gold SQL for
generation. Each gold is parsed once, when the oracle is built. Pointing
a record-mode gateway at it yields a cassette that replays hermetically.
"""

import re
import threading

from skelsearch.gateway import estimate_tokens
from skelsearch.skeleton import GranularityLevel, extract_skeleton, parse_query

_QUESTION = re.compile(r"^Question:\n(.+)$", re.MULTILINE)
_SKELETON = re.compile(r"^Skeleton \((\w+) granularity\):\n(.+)$",
                       re.MULTILINE)

_STAGES = [
    ("You design SQL query skeletons", "base"),
    ("You refine SQL query skeletons by exposing", "expanded"),
    ("You refine SQL query skeletons into Detailed", "detailed"),
    ("You finish SQL query skeletons", "detailed"),
    ("You judge whether a SQL skeleton", "evaluate"),
    ("You are a sqlite SQL expert", "generate"),
]


class TransportOracle:
    def __init__(self, golds: dict):
        self.golds = dict(golds)
        self.trees = {sql: parse_query(sql) for sql in self.golds.values()}
        self.calls = 0  # under a lock: a gateway calls from pool threads
        self._lock = threading.Lock()

    def _gold(self, prompt: str) -> str:
        match = _QUESTION.search(prompt)
        if not match or match.group(1) not in self.golds:
            raise AssertionError("prompt carries no known question")
        return self.golds[match.group(1)]

    def __call__(self, prompt: str, config, api_key: str):
        with self._lock:
            self.calls += 1
        kind = next((kind for prefix, kind in _STAGES
                     if prompt.startswith(prefix)), None)
        if kind is None:
            raise AssertionError(f"unrecognized prompt: {prompt[:60]!r}")
        gold = self._gold(prompt)
        tree = self.trees[gold]
        if kind == "generate":
            response = gold
        elif kind == "evaluate":
            match = _SKELETON.search(prompt)
            level = GranularityLevel.from_name(match.group(1))
            verdict = match.group(2) == extract_skeleton(tree, level).text
            response = ("QUESTION ANALYSIS: restates the question.\n"
                        "SKELETON ANALYSIS: describes the structure.\n"
                        "ALIGNMENT ANALYSIS: checks the fit.\n"
                        f"VERDICT: {verdict}")
        else:
            level = GranularityLevel.from_name(kind)
            response = extract_skeleton(tree, level).text
        return response, estimate_tokens(prompt), estimate_tokens(response)


class BranchingOracle(TransportOracle):
    """A TransportOracle that adds two wrong Base proposals, so that each
    search's Base evaluations come as one batch of three, and that keeps
    the threads it was called on."""

    EXTRA_BASE = "\nSELECT _ FROM _ ORDER BY _\nSELECT _ FROM _ LIMIT _"

    def __init__(self, golds: dict):
        super().__init__(golds)
        self.threads: set[threading.Thread] = set()

    def __call__(self, prompt: str, config, api_key: str):
        with self._lock:
            self.threads.add(threading.current_thread())
        text, p_tokens, c_tokens = super().__call__(prompt, config, api_key)
        if prompt.startswith(_STAGES[0][0]):
            text += self.EXTRA_BASE
            c_tokens = estimate_tokens(text)
        return text, p_tokens, c_tokens
