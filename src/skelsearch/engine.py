"""Three-phase skeleton tree search: generate, evaluate, prune.

The search grows a tree rooted at the (schema, question) pair. Phase 1
formulates Base skeletons and prunes them by evaluation. Phase 2 loops
over the surviving frontier: children that do not increase nesting depth
over their parent are discarded unevaluated, and a parent whose candidates
all stall is routed to the Detailed phase; deepening children are
evaluated and, when true, join the frontier. Phase 3 refines each routed
node in two steps (placeholder detailing, then join specification), with
evaluation after each step.

The candidate set S is every Valid skeleton-bearing node without a Valid
child: DetailedStep2 survivors plus any node whose children were all
pruned or never materialized.

Each (skeleton text, level) pair is judged once per search; a later
child with the same pair, such as a step-2 child that kept its step-1
parent's text, takes the stored verdict without a model call. Those are
the only parts of an evaluation prompt that vary within a search, so
under greedy decoding the verdict is the one a second call would give.
In live mode at temperature > 0 the search no longer draws a second
judgement. CostReport.eval_calls still counts every judged child, as the
paper's cost model charges each.

Determinism: the backend calls of one round do not depend on each
other, so the search hands each batch (one formulation per parent, then
one evaluation per pair the round judges anew) to a map-like callable:
the builtin `map` runs them inline, `LlmGateway.map` side by side.
Either way results are consumed in (parent id, candidate index) order,
lazily while the round adds its nodes, so node ids, the verdict log
and the call counts are a pure function of the backends' answers, and
the first exception in that order propagates with the same partial
tree. Each model call is bounded by the gateway's own timeout and
retries; the search adds no timeout of its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .agents import (
    EvaluationVerdict,
    FormulationRequest,
    SearchPhase,
    evaluate,
    formulate,
)
from .normalize import NormalizationOutcome, NormalizationReport, normalize
from .schema import DatabaseProfile
from .skeleton import GranularityLevel, Skeleton


class EmptySearch(RuntimeError):
    """Phase 1 produced no Valid Base skeleton; like every exception
    `run_search` raises, it carries the search tree as `.tree`."""


class NodeStatus(Enum):
    VALID = "valid"
    PRUNED = "pruned"
    LEAF = "leaf"


# Hot enum members as module constants, as in `sqlast`.
_VALID = NodeStatus.VALID
_PRUNED = NodeStatus.PRUNED
_LEAF = NodeStatus.LEAF
_REJECTED = NormalizationOutcome.REJECTED
_BASE_PHASE = SearchPhase.BASE
_EXPANDED_PHASE = SearchPhase.EXPANDED
_STEP1_PHASE = SearchPhase.DETAILED_STEP1
_STEP2_PHASE = SearchPhase.DETAILED_STEP2


@dataclass
class SearchNode:
    id: int
    parent_id: int | None
    phase: SearchPhase | None
    step: int
    sibling: int
    depth: int
    skeleton: Skeleton | None
    status: NodeStatus


@dataclass
class VerdictRecord:
    node_id: int
    verdict: bool
    reason: str = ""


@dataclass
class SearchConfig:
    m: int = 3
    expanded_cap: int = 5

    def __post_init__(self):
        if type(self.m) is not int or self.m < 1:
            raise ValueError("branching bound m must be an integer >= 1")
        if type(self.expanded_cap) is not int or self.expanded_cap < 1:
            raise ValueError("expanded_cap must be an integer >= 1")


@dataclass
class SearchTree:
    m: int
    nodes: list[SearchNode] = field(default_factory=list)
    children: dict[int, list[int]] = field(default_factory=dict)
    verdict_log: list[VerdictRecord] = field(default_factory=list)

    def add_root(self) -> SearchNode:
        root = SearchNode(0, None, None, 0, 0, 0, None, _VALID)
        self.nodes.append(root)
        self.children[0] = []
        return root

    def add_child(self, parent: SearchNode, phase: SearchPhase, step: int,
                  skeleton: Skeleton, status: NodeStatus) -> SearchNode:
        sibling = len(self.children[parent.id]) + 1
        node = SearchNode(len(self.nodes), parent.id, phase, step, sibling,
                          parent.depth + 1, skeleton, status)
        self.nodes.append(node)
        self.children[node.id] = []
        self.children[parent.id].append(node.id)
        return node

    def valid_children(self, node_id: int) -> list[SearchNode]:
        return [self.nodes[c] for c in self.children[node_id]
                if self.nodes[c].status is not _PRUNED]

    def depth(self) -> int:
        return max(n.depth for n in self.nodes)

    def dump(self) -> str:
        """One node per line: id, parent, phase, step, sibling, level,
        status, skeleton text."""
        lines = ["id\tparent\tphase\tstep\tsibling\tlevel\tstatus\tskeleton"]
        for n in self.nodes:
            lines.append("\t".join([
                str(n.id),
                "-" if n.parent_id is None else str(n.parent_id),
                n.phase.value if n.phase else "root",
                str(n.step),
                str(n.sibling),
                n.skeleton.level.label if n.skeleton else "-",
                n.status.value,
                n.skeleton.text if n.skeleton else "-",
            ]))
        return "\n".join(lines) + "\n"


@dataclass
class CostReport:
    n_d: list[int]
    rho: list[float]
    gen_calls: int
    eval_calls: int


def _surviving_counts(tree: SearchTree) -> list[int]:
    counts = [0] * (tree.depth() + 1)
    for n in tree.nodes:
        if n.status is not _PRUNED:
            counts[n.depth] += 1
    return counts


def _cost_report(tree: SearchTree, gen_calls: int,
                 eval_calls: int) -> CostReport:
    n_d = _surviving_counts(tree)
    rho = [0.0]
    for d in range(1, len(n_d)):
        attempted = n_d[d - 1] * tree.m
        rho.append(1.0 - n_d[d] / attempted if attempted else 0.0)
    return CostReport(n_d, rho, gen_calls, eval_calls)


def compute_cost(tree: SearchTree, unit_gen: float,
                 unit_eval: float) -> float:
    """Total search time under the uniform cost model:
    sum over depths d=1..H of N_{d-1} * (unit_gen + m * unit_eval)."""
    n_d = _surviving_counts(tree)
    return sum(n_d[d - 1] * (unit_gen + tree.m * unit_eval)
               for d in range(1, tree.depth() + 1))


class _Engine:
    def __init__(self, schema: DatabaseProfile, question: str, formulator,
                 evaluator, config: SearchConfig, map_calls):
        self.schema = schema
        self.question = question
        self.formulator = formulator
        self.evaluator = evaluator
        self.config = config
        self.map_calls = map_calls
        self.tree = SearchTree(config.m)
        self.gen_calls = 0
        self.eval_calls = 0
        # Reports by (agent line, level): a line that a second parent
        # proposes again at the same level is normalized once per search.
        self.normalized: dict[tuple[str, GranularityLevel],
                              NormalizationReport] = {}
        # Verdicts by (skeleton text, level), the parts of an evaluation
        # prompt that vary within a search: each is judged once.
        self.verdicts: dict[tuple[str, GranularityLevel],
                            EvaluationVerdict] = {}

    def _formulate_batch(self, parents: list[SearchNode],
                         phase: SearchPhase) -> dict[int, list[Skeleton]]:
        """Formulate children for each parent; normalized, deduplicated."""
        out: dict[int, list[Skeleton]] = {}
        level = phase.target_level
        asks = [FormulationRequest(self.schema, self.question,
                                   parent.skeleton, phase, self.config.m)
                for parent in parents]
        answers = self.map_calls(
            lambda req: formulate(req, self.formulator), asks)
        for parent, texts in zip(parents, answers):
            self.gen_calls += 1
            seen: set[str] = set()
            skeletons = []
            for text in texts:
                report = self.normalized.get((text, level))
                if report is None:
                    report = normalize(text, level)
                    self.normalized[text, level] = report
                if report.outcome is _REJECTED:
                    continue
                if report.skeleton.text in seen:
                    continue
                seen.add(report.skeleton.text)
                skeletons.append(report.skeleton)
            out[parent.id] = skeletons
        return out

    def _expand(self, parents: list[SearchNode], phase: SearchPhase,
                step: int, deepening_only: bool = False,
                ) -> tuple[dict[int, list[SearchNode]], list[SearchNode]]:
        """One generate-evaluate-prune round over `parents`.

        Returns (children created per parent, parents whose candidate set
        came back empty after filtering).
        """
        proposals = self._formulate_batch(parents, phase)
        if deepening_only:
            for parent in parents:
                floor = parent.skeleton.nesting_depth
                proposals[parent.id] = [
                    s for s in proposals[parent.id]
                    if s.nesting_depth > floor]
        created: dict[int, list[SearchNode]] = {}
        stalled: list[SearchNode] = []
        for parent in parents:
            created[parent.id] = []
            if not proposals[parent.id]:
                stalled.append(parent)
        judged = [(parent, skeleton) for parent in parents
                  for skeleton in proposals[parent.id]]
        asks: dict[tuple[str, GranularityLevel], Skeleton] = {}
        for _, skeleton in judged:
            key = (skeleton.text, skeleton.level)
            if key not in self.verdicts:
                asks.setdefault(key, skeleton)
        answers = zip(asks, self.map_calls(
            lambda skeleton: evaluate(self.schema, self.question, skeleton,
                                      self.evaluator), asks.values()))
        for parent, skeleton in judged:
            self.eval_calls += 1
            verdict = self.verdicts.get((skeleton.text, skeleton.level))
            if verdict is None:  # the first of this round's new keys
                key, verdict = next(answers)
                self.verdicts[key] = verdict
            status = _VALID if verdict.verdict else _PRUNED
            node = self.tree.add_child(parent, phase, step, skeleton, status)
            self.tree.verdict_log.append(VerdictRecord(
                node.id, verdict.verdict, verdict.reason))
            if verdict.verdict:
                created[parent.id].append(node)
        return created, stalled

    def run(self) -> tuple[list[Skeleton], SearchTree, CostReport]:
        root = self.tree.add_root()

        created, _ = self._expand([root], _BASE_PHASE, 1)
        frontier = created[root.id]
        if not frontier:
            raise EmptySearch(
                f"no Base skeleton survived evaluation for question "
                f"{self.question!r}")

        ready: list[SearchNode] = []
        for wave in range(1, self.config.expanded_cap + 1):
            if not frontier:
                break
            created, stalled = self._expand(frontier, _EXPANDED_PHASE,
                                            wave, deepening_only=True)
            ready.extend(stalled)
            frontier = [child for parent in frontier
                        for child in created[parent.id]]
        else:
            ready.extend(frontier)

        ready.sort(key=lambda n: n.id)
        created, _ = self._expand(ready, _STEP1_PHASE, 1)
        step1 = [child for parent in ready for child in created[parent.id]]
        if step1:
            self._expand(step1, _STEP2_PHASE, 2)

        for node in self.tree.nodes:
            if node.skeleton is not None and \
                    node.status is _VALID and \
                    not self.tree.valid_children(node.id):
                node.status = _LEAF
        leaves = [n.skeleton for n in self.tree.nodes
                  if n.status is _LEAF]
        return leaves, self.tree, _cost_report(self.tree, self.gen_calls,
                                               self.eval_calls)


def run_search(schema: DatabaseProfile, question: str, formulator, evaluator,
               config: SearchConfig | None = None, map_calls=map,
               ) -> tuple[list[Skeleton], SearchTree, CostReport]:
    """Run the full three-phase search.

    `map_calls(fn, items)` runs the backend calls of one level and
    yields their results in the order of `items`, as the builtin `map`
    (the default, inline) and `LlmGateway.map` (side by side) do.

    Every exception it raises carries the search tree as it stood, as
    `.tree`.

    Raises:
        ValueError: the question is empty (the tree has no node).
        EmptySearch: Phase 1 pruned every Base skeleton.
        Exception: unrecoverable backend failures (for example a cassette
            miss) propagate as raised.
    """
    engine = _Engine(schema, question, formulator, evaluator,
                     config or SearchConfig(), map_calls)
    try:
        if not question or not question.strip():
            raise ValueError("question is empty")
        return engine.run()
    except Exception as exc:
        exc.tree = engine.tree
        raise
