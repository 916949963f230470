"""Engine behavior against the hand-written Algorithm traces."""

import random
import threading
import time

import pytest

from skelsearch import GranularityLevel, engine, refinement_check
from skelsearch.engine import (
    EmptySearch,
    NodeStatus,
    SearchConfig,
    compute_cost,
    run_search,
)
from skelsearch.gateway import GatewayConfig, LlmGateway
from skelsearch.selector import (
    ExecutionLimits,
    OutcomeStatus,
    execute_candidate,
)
from skelsearch.sqlgen import SqlCandidate, generate_all

from conftest import make_profile
from fixtures import traces
from fixtures.doubles import (
    ScriptedEvaluationBackend,
    ScriptedFormulationBackend,
    ScriptedGenerationBackend,
)
from fixtures.traces import SCENARIOS, Scenario


def run_scenario(scenario: Scenario, **config_kw):
    profile = make_profile()
    formulator = ScriptedFormulationBackend(scenario.formulation)
    evaluator = ScriptedEvaluationBackend(scenario.evaluation,
                                       default=scenario.eval_default)
    config = SearchConfig(**{**scenario.config, **config_kw})
    result = run_search(profile, traces.Q, formulator, evaluator, config)
    return result, formulator, evaluator


def expected_dump(scenario: Scenario) -> str:
    lines = ["id\tparent\tphase\tstep\tsibling\tlevel\tstatus\tskeleton"]
    lines.extend("\t".join(row) for row in scenario.rows)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("make", SCENARIOS, ids=lambda f: f.__name__)
def test_trace_matches_hand_derivation(make):
    scenario = make()
    if scenario.raises == "empty":
        with pytest.raises(EmptySearch) as info:
            run_scenario(scenario)
        tree = info.value.tree
        assert tree.dump() == expected_dump(scenario)
        return
    (leaves, tree, report), formulator, evaluator = run_scenario(scenario)
    assert tree.dump() == expected_dump(scenario)
    assert [s.text for s in leaves] == scenario.s_texts
    assert report.n_d == scenario.n_d
    assert len(report.n_d) - 1 == scenario.h
    if scenario.gen_calls is not None:
        assert report.gen_calls == scenario.gen_calls
    if scenario.eval_calls is not None:
        assert report.eval_calls == scenario.eval_calls


@pytest.mark.parametrize("make", SCENARIOS, ids=lambda f: f.__name__)
def test_structural_invariants(make):
    scenario = make()
    if scenario.raises:
        return
    (leaves, tree, report), _, _ = run_scenario(scenario)
    m = tree.m
    last_verdict = {}
    for record in tree.verdict_log:
        last_verdict[record.node_id] = record.verdict
    for node in tree.nodes:
        kids = [tree.nodes[c] for c in tree.children[node.id]]
        assert len(kids) <= m
        assert [k.sibling for k in kids] == list(range(1, len(kids) + 1))
        if node.status is NodeStatus.PRUNED:
            assert not kids
            assert last_verdict[node.id] is False
        if node.status is NodeStatus.LEAF:
            assert not tree.valid_children(node.id)
        if node.skeleton is not None and \
                node.status is not NodeStatus.PRUNED:
            assert last_verdict[node.id] is True
        if node.parent_id is not None:
            parent = tree.nodes[node.parent_id]
            assert node.depth == parent.depth + 1
            if parent.skeleton is not None:
                assert node.skeleton.level >= parent.skeleton.level
    assert sum(report.n_d) == sum(
        1 for n in tree.nodes if n.status is not NodeStatus.PRUNED)


@pytest.mark.parametrize("name", ["spec_example", "no_deepening",
                                  "tri_branching"])
def test_monotone_refinement_on_level_increase(name):
    scenario = next(f for f in SCENARIOS if f.__name__ == name)()
    (_, tree, _), _, _ = run_scenario(scenario)
    for node in tree.nodes:
        if node.parent_id is None or node.skeleton is None:
            continue
        parent = tree.nodes[node.parent_id]
        if parent.skeleton is None:
            continue
        if node.skeleton.level > parent.skeleton.level:
            assert refinement_check(parent.skeleton, node.skeleton)


def test_rejection_rates_satisfy_survivor_recurrence():
    for make in SCENARIOS:
        scenario = make()
        if scenario.raises:
            continue
        (_, tree, report), _, _ = run_scenario(scenario)
        for d in range(1, len(report.n_d)):
            assert 0.0 <= report.rho[d] <= 1.0
            assert report.n_d[d] == pytest.approx(
                report.n_d[d - 1] * tree.m * (1 - report.rho[d]))


def test_non_deepening_children_not_evaluated():
    scenario = traces.no_deepening()
    _, _, evaluator = run_scenario(scenario)
    judged = {text for _, text in evaluator.calls}
    assert traces.B3 not in judged


def test_duplicates_evaluated_once():
    scenario = traces.duplicate_child()
    _, _, evaluator = run_scenario(scenario)
    assert evaluator.calls == [(traces.Q, traces.B1), (traces.Q, traces.B2)]


def test_same_line_from_two_parents_is_normalized_once(monkeypatch):
    calls = []
    original = engine.normalize

    def counted(text, level):
        calls.append((text, level))
        return original(text, level)

    monkeypatch.setattr(engine, "normalize", counted)

    def search(second_line):
        formulator = ScriptedFormulationBackend({
            traces.fkey("base"): [traces.B1, traces.B3],
            traces.fkey("expanded", traces.B1): [traces.E11],
            traces.fkey("expanded", traces.B3): [second_line]})
        evaluator = ScriptedEvaluationBackend(
            {(traces.Q, t): True for t in (traces.B1, traces.B3,
                                           traces.E11)})
        calls.clear()
        _, tree, _ = run_search(make_profile(), traces.Q, formulator,
                                evaluator, SearchConfig())
        return tree.dump()

    expanded = GranularityLevel.EXPANDED
    respelled = traces.E11.lower()
    apart = search(respelled)
    assert calls.count((traces.E11, expanded)) == 1
    assert calls.count((respelled, expanded)) == 1
    shared = search(traces.E11)
    assert calls.count((traces.E11, expanded)) == 1
    assert shared == apart
    assert shared.count(traces.E11) == 2


def test_expanded_cap_stops_deepening():
    scenario = traces.expanded_cap()
    _, formulator, _ = run_scenario(scenario)
    assert (traces.Q, "expanded", traces.E2X) not in formulator.calls
    assert (traces.Q, "detailed-step1", traces.E2X) in formulator.calls


def test_backend_error_recorded_fail_closed():
    scenario = traces.backend_error_evaluate()
    (_, tree, _), _, _ = run_scenario(scenario)
    pruned = [r for r in tree.verdict_log if r.node_id == 2]
    assert pruned and pruned[0].verdict is False
    assert "backend error" in pruned[0].reason


def test_empty_search_carries_tree():
    scenario = traces.empty_search()
    with pytest.raises(EmptySearch) as info:
        run_scenario(scenario)
    assert len(info.value.tree.nodes) == 3
    assert "no Base skeleton survived" in str(info.value)


class RepeatsDisagree(ScriptedEvaluationBackend):
    """Answers False to a text it has judged before, as a model sampling
    at temperature > 0 may."""

    def judge(self, schema, question, candidate):
        repeat = (question, candidate.text) in self.calls
        response = super().judge(schema, question, candidate)
        return "VERDICT: False" if repeat else response


@pytest.mark.parametrize("pooled", [False, True])
def test_a_skeleton_judged_once_per_search(pooled, pooled_map):
    # D3A's step-2 child keeps its step-1 parent's text, so it takes the
    # parent's verdict; the paper's cost model still charges it
    scenario = traces.spec_example()
    evaluator = RepeatsDisagree(scenario.evaluation)
    _, tree, report = run_search(
        make_profile(), traces.Q,
        ScriptedFormulationBackend(scenario.formulation), evaluator,
        SearchConfig(), pooled_map if pooled else map)
    assert tree.dump() == expected_dump(scenario)
    assert report.eval_calls == scenario.eval_calls == 7
    assert sorted(evaluator.calls) == sorted((traces.Q, t) for t in (
        traces.B1, traces.B2, traces.E21, traces.DB1, traces.D3A,
        traces.DB2))


@pytest.mark.parametrize("pooled", [False, True])
@pytest.mark.parametrize("verdict,raised,nodes", [
    (False, EmptySearch, 2),  # the root and the pruned B1
    (KeyError("cassette miss stand-in"), KeyError, 1),  # the root
], ids=["empty", "raising"])
def test_a_failed_search_carries_its_tree(verdict, raised, nodes, pooled,
                                          pooled_map):
    formulator = ScriptedFormulationBackend(
        {traces.fkey("base"): [traces.B1]})
    evaluator = ScriptedEvaluationBackend({(traces.Q, traces.B1): verdict})
    with pytest.raises(raised) as info:
        run_search(make_profile(), traces.Q, formulator, evaluator,
                   SearchConfig(), pooled_map if pooled else map)
    assert len(info.value.tree.nodes) == nodes
    assert not hasattr(info.value, "partial_tree")


def test_no_backend_call_after_search_raises():
    class CountingExploder:
        def __init__(self):
            self.calls = 0

        def judge(self, schema, question, candidate):
            self.calls += 1
            raise KeyError("cassette miss stand-in")

    formulator = ScriptedFormulationBackend(
        {traces.fkey("base"): [traces.B1, traces.B2, traces.B3]})
    evaluator = CountingExploder()
    with pytest.raises(KeyError):
        run_search(make_profile(), traces.Q, formulator, evaluator,
                   SearchConfig())
    time.sleep(0.1)
    assert evaluator.calls == 1


def test_search_and_execution_start_no_thread(monkeypatch, school_profile,
                                              connections):
    def refuse(thread):
        raise AssertionError(f"thread started: {thread!r}")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    (leaves, _, _), _, _ = run_scenario(traces.spec_example())
    assert leaves
    outcome = execute_candidate(
        school_profile, SqlCandidate("SELECT name FROM students", None),
        ExecutionLimits(), connections)
    assert outcome.status is OutcomeStatus.ROWS


def test_leaf_levels_mix():
    scenario = traces.backend_error_formulate()
    (leaves, _, _), _, _ = run_scenario(scenario)
    assert [s.level for s in leaves] == [GranularityLevel.BASE,
                                         GranularityLevel.EXPANDED]


def test_compute_cost_single_expansion():
    scenario = traces.empty_search()
    with pytest.raises(EmptySearch) as info:
        run_scenario(scenario)
    assert compute_cost(info.value.tree, 2.0, 1.0) == 1 * (2.0 + 3 * 1.0)


def test_compute_cost_chain_depth_two():
    scenario = traces.depth_jump()
    (_, tree, _), _, _ = run_scenario(scenario)
    assert compute_cost(tree, 2.0, 1.0) == 2 * (2.0 + 3 * 1.0)


def test_compute_cost_tri_branching():
    scenario = traces.tri_branching()
    (_, tree, _), _, _ = run_scenario(scenario)
    assert compute_cost(tree, 2.0, 1.0) == (1 + 3) * (2.0 + 3 * 1.0)


def test_config_validation():
    for bad in (dict(m=0), dict(expanded_cap=0)):
        with pytest.raises(ValueError):
            SearchConfig(**bad)
    with pytest.raises(ValueError) as info:
        run_search(make_profile(), "  ", None, None, SearchConfig())
    assert info.value.tree.nodes == []


@pytest.fixture
def pooled_map():
    """`LlmGateway.map` of a live gateway: the side-by-side path that live
    and record runs take. The gateway's pool is stopped afterwards."""
    gateway = LlmGateway(GatewayConfig(), mode="live")
    yield gateway.map
    gateway.close()


def jittered(map_calls, seed):
    """`map_calls` with each call delayed by a random 0-2 ms, so that the
    calls of one batch finish out of order."""
    rng = random.Random(seed)

    def run(fn, items):
        def delayed(item):
            time.sleep(rng.random() * 0.002)
            return fn(item)
        return map_calls(delayed, items)
    return run


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("make", SCENARIOS, ids=lambda f: f.__name__)
def test_side_by_side_calls_give_the_inline_result(make, seed, pooled_map):
    scenario = make()

    def search_and_generate(map_calls):
        formulator = ScriptedFormulationBackend(scenario.formulation)
        evaluator = ScriptedEvaluationBackend(scenario.evaluation,
                                              default=scenario.eval_default)
        try:
            leaves, tree, cost = run_search(
                make_profile(), traces.Q, formulator, evaluator,
                SearchConfig(**scenario.config), map_calls)
        except EmptySearch as exc:
            return exc.tree.dump(), exc.tree.verdict_log
        # every other leaf has SQL; the rest come back failed
        generator = ScriptedGenerationBackend(
            {(traces.Q, s.text): f"SELECT {n} FROM t"
             for n, s in enumerate(leaves) if n % 2 == 0})
        candidates = generate_all(make_profile(), traces.Q, leaves,
                                  generator, map_calls)
        return (tree.dump(), tree.verdict_log, [s.text for s in leaves],
                cost, candidates)

    inline = search_and_generate(map)
    assert search_and_generate(jittered(pooled_map, seed)) == inline


def test_raising_evaluator_leaves_the_inline_tree(pooled_map):
    scenario = traces.tri_branching()

    def search(map_calls):
        # E22 is the fifth of the nine evaluations of the Expanded round
        evaluator = ScriptedEvaluationBackend(
            {(traces.Q, traces.E22): KeyError("cassette miss stand-in")},
            default=True)
        with pytest.raises(KeyError) as info:
            run_search(make_profile(), traces.Q,
                       ScriptedFormulationBackend(scenario.formulation),
                       evaluator, SearchConfig(), map_calls)
        calls = len(evaluator.calls)
        time.sleep(0.05)
        assert len(evaluator.calls) == calls, "a call outlived the search"
        assert not hasattr(info.value, "partial_tree")
        tree = info.value.tree
        return tree.dump(), tree.verdict_log

    inline = search(map)
    assert [row.split("\t")[-1] for row in inline[0].splitlines()[-2:]] \
        == [traces.E13, traces.E21]
    for seed in range(3):
        assert search(jittered(pooled_map, seed)) == inline
