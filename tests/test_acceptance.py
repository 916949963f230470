"""Release acceptance checks, one test per criterion.

Each test owns exactly one numbered criterion and ends with a printed
verdict line, so `pytest tests/test_acceptance.py -v` reads as a
checklist. Tolerances are stated inline; everything else is exact.

Criterion 10 needs a configured provider and is skipped unless the
LIVE_SMOKE_CONFIG, LIVE_SMOKE_DATASET, and LIVE_SMOKE_DB_ROOT
environment variables are all set.
"""

import json
import os
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import build_school_db, make_profile
from fixtures import traces
from fixtures.corpus import CORPUS
from fixtures.doubles import (
    ScriptedArbitratorBackend,
    ScriptedEvaluationBackend,
    ScriptedFormulationBackend,
)
from fixtures.livestub import TransportOracle
from fixtures.sftcorpus import build_corpus
from fixtures.traces import SCENARIOS
from oracle_skeleton import oracle_depth, oracle_extract
from skelsearch.agents import GoldOracle
from skelsearch.bench import Backends, RunSettings, run_benchmark
from skelsearch.engine import (
    NodeStatus,
    SearchConfig,
    compute_cost,
    run_search,
    EmptySearch,
)
from skelsearch.gateway import Cassette, GatewayConfig, LlmGateway
from skelsearch.normalize import NormalizationOutcome, normalize
from skelsearch.selector import (
    ArbitrationError,
    ExecutionOutcome,
    OutcomeStatus,
    canonical_row,
    fingerprint_rows,
    select_final,
)
from skelsearch.sftdata import build_dataset, load_dataset
from skelsearch.skeleton import (
    GranularityLevel,
    extract_skeleton,
    parse_query,
    refinement_check,
)
from skelsearch.sqlgen import SqlCandidate

LEVELS = tuple(GranularityLevel)


# Criterion 1: skeleton extraction matches the independent oracle.


def test_criterion_01_skeleton_extraction_matches_oracle():
    """Every corpus query, every level, byte for byte; refinement chains
    hold for 100% of queries; whole sweep under 5 seconds."""
    start = time.perf_counter()
    assert len(CORPUS) >= 100
    mismatches = []
    broken_chains = []
    for sql in CORPUS:
        tree = parse_query(sql)
        skeletons = {}
        for level in LEVELS:
            mine = extract_skeleton(tree, level)
            want = oracle_extract(sql, level.label)
            if mine.text != want:
                mismatches.append((sql, level.label, mine.text, want))
            skeletons[level] = mine
        base, expanded, detailed = (skeletons[level] for level in LEVELS)
        if not (refinement_check(base, expanded)
                and refinement_check(expanded, detailed)
                and refinement_check(base, detailed)):
            broken_chains.append(sql)
    elapsed = time.perf_counter() - start
    assert mismatches == [], mismatches[:5]
    assert broken_chains == [], broken_chains[:5]
    assert elapsed < 5.0, f"sweep took {elapsed:.2f}s"
    print(f"PASS 1: {len(CORPUS)} queries x 3 levels equal the oracle, "
          f"all refinement chains hold, {elapsed:.2f}s")


# Criterion 2: depth law.


def test_criterion_02_depth_law():
    """Base depth is 0 and Expanded depth equals the query's own nesting
    depth on the full corpus, zero exceptions."""
    for sql in CORPUS:
        tree = parse_query(sql)
        full = oracle_depth(sql)
        assert extract_skeleton(tree, GranularityLevel.BASE
                                ).nesting_depth == 0, sql
        assert extract_skeleton(tree, GranularityLevel.EXPANDED
                                ).nesting_depth == full, sql
    print(f"PASS 2: depth law holds on all {len(CORPUS)} queries")


# Criteria 3 and 4 share the scripted scenarios.


def _run_scenario(scenario):
    formulator = ScriptedFormulationBackend(scenario.formulation)
    evaluator = ScriptedEvaluationBackend(scenario.evaluation,
                                       default=scenario.eval_default)
    config = SearchConfig(**scenario.config)
    return run_search(make_profile(), traces.Q, formulator, evaluator, config)


def _expected_dump(scenario):
    lines = ["id\tparent\tphase\tstep\tsibling\tlevel\tstatus\tskeleton"]
    lines.extend("\t".join(row) for row in scenario.rows)
    return "\n".join(lines) + "\n"


def _has_fully_pruned_offspring(tree):
    for node in tree.nodes:
        kids = tree.children[node.id]
        if node.id == 0 or not kids:
            continue
        if (node.status is not NodeStatus.PRUNED
                and all(tree.nodes[k].status is NodeStatus.PRUNED
                        for k in kids)):
            return True
    return False


def test_criterion_03_search_trace_fidelity():
    """At least 10 scripted scenarios reproduce tree and leaf set exactly;
    the all-children-pruned termination rule fires in at least 2."""
    assert len(SCENARIOS) >= 10
    rule_two = 0
    for make in SCENARIOS:
        scenario = make()
        if scenario.raises == "empty":
            with pytest.raises(EmptySearch) as info:
                _run_scenario(scenario)
            assert info.value.tree.dump() == _expected_dump(scenario), \
                scenario.name
            continue
        leaves, tree, _ = _run_scenario(scenario)
        assert tree.dump() == _expected_dump(scenario), scenario.name
        assert [s.text for s in leaves] == scenario.s_texts, scenario.name
        if _has_fully_pruned_offspring(tree):
            rule_two += 1
    assert rule_two >= 2
    print(f"PASS 3: {len(SCENARIOS)} scenarios match node for node, "
          f"all-children-pruned termination in {rule_two}")


def test_criterion_04_cost_model_consistency():
    """Survivor counts recomputed from the raw tree satisfy
    N_d = N_(d-1) * m * (1 - rho_d) with rho measured from the same tree
    (report rho within 1e-12 of the exact ratio); compute_cost equals the
    closed-form sum exactly for dyadic unit costs; the all-true
    tri-branching scenario yields N = (1, 3, 9)."""
    unit_costs = [(1.0, 1.0), (2.0, 0.5), (0.25, 4.0)]
    checked = 0
    for make in SCENARIOS:
        scenario = make()
        if scenario.raises:
            continue
        _, tree, report = _run_scenario(scenario)
        counts = [0] * (tree.depth() + 1)
        for node in tree.nodes:
            if node.status is not NodeStatus.PRUNED:
                counts[node.depth] += 1
        assert report.n_d == counts, scenario.name
        for d in range(1, len(counts)):
            attempted = counts[d - 1] * tree.m
            rho = 1 - Fraction(counts[d], attempted) if attempted else \
                Fraction(0)
            assert counts[d] == attempted * (1 - rho)
            assert abs(report.rho[d] - float(rho)) <= 1e-12, scenario.name
        for unit_gen, unit_eval in unit_costs:
            exact = sum(
                Fraction(counts[d - 1])
                * (Fraction(unit_gen) + tree.m * Fraction(unit_eval))
                for d in range(1, tree.depth() + 1))
            assert compute_cost(tree, unit_gen, unit_eval) == float(exact)
        checked += 1
    _, _, report = _run_scenario(traces.tri_branching())
    assert report.n_d == [1, 3, 9]
    print(f"PASS 4: survivor-count identity and closed-form cost exact on "
          f"{checked} scenarios; tri-branching N = (1, 3, 9)")


# Criterion 5: voting over all group-size partitions, n <= 6.


def _partitions(n, cap=None):
    if n == 0:
        yield []
        return
    cap = cap or n
    for first in range(min(n, cap), 0, -1):
        for rest in _partitions(n - first, first):
            yield [first] + rest


def _partition_case(sizes):
    candidates, outcomes, labels = [], [], []
    for group_index, size in enumerate(sizes):
        for member in range(size):
            sql = f"SELECT {group_index} AS g, {member} AS c FROM t"
            candidates.append(SqlCandidate(sql, GranularityLevel.BASE))
            outcomes.append(ExecutionOutcome(
                OutcomeStatus.ROWS, f"bag:group-{group_index}",
                row_count=1))
            labels.append(group_index)
    return candidates, outcomes, labels


def test_criterion_05_voting_correctness():
    """All 29 group-size partitions of n <= 6: majority winner comes from
    a maximum-size group whenever the maximum is unique; ties reach the
    arbitrator; a failing arbitrator triggers the deterministic fallback.
    Fingerprints survive 1000 row shuffles with zero mismatches."""
    partitions = [sizes for n in range(1, 7) for sizes in _partitions(n)]
    assert len(partitions) == 29
    ties = 0
    for sizes in partitions:
        candidates, outcomes, labels = _partition_case(sizes)
        top = max(sizes)
        winners_allowed = {i for i, s in enumerate(sizes) if s == top}
        if len(winners_allowed) == 1:
            winner, trace = select_final(candidates, outcomes)
            assert trace.rule == "majority", sizes
            assert labels[candidates.index(winner)] in winners_allowed
            continue
        ties += 1
        arbiter = ScriptedArbitratorBackend(len(winners_allowed) - 1)
        winner, trace = select_final(candidates, outcomes,
                                     arbitrator=arbiter, question="q")
        assert trace.rule == "arbitrated", sizes
        assert labels[candidates.index(winner)] in winners_allowed
        assert len(arbiter.calls) == 1
        assert len(arbiter.calls[0][1]) == len(winners_allowed)
        repeats = set()
        for _ in range(2):
            broken = ScriptedArbitratorBackend(ArbitrationError("down"))
            winner, trace = select_final(candidates, outcomes,
                                         arbitrator=broken, question="q")
            assert trace.rule == "arbitration-fallback", sizes
            assert labels[candidates.index(winner)] in winners_allowed
            repeats.add(winner.sql)
        assert len(repeats) == 1
    assert ties >= 1

    rows = [canonical_row((i, f"name{i % 7}", i * 0.5,
                           None if i % 11 == 0 else i % 3, bytes([i % 251])))
            for i in range(40)]
    reference = fingerprint_rows(rows, ordered=False)
    rnd = random.Random(5)
    mismatches = 0
    for _ in range(1000):
        shuffled = list(rows)
        rnd.shuffle(shuffled)
        if fingerprint_rows(shuffled, ordered=False) != reference:
            mismatches += 1
    assert mismatches == 0
    print(f"PASS 5: {len(partitions)} partitions verified ({ties} tie "
          f"cases), 1000 shuffles with 0 fingerprint mismatches")


# Criterion 6: normalizer agrees with direct extraction.


def test_criterion_06_normalizer_oracle():
    """normalize(sql, level) equals extract_skeleton(parse_query(sql),
    level) for every corpus query and level, and normalizing an accepted
    output returns it unchanged."""
    for sql in CORPUS:
        tree = parse_query(sql)
        for level in LEVELS:
            report = normalize(sql, level)
            expected = extract_skeleton(tree, level)
            assert report.outcome is not NormalizationOutcome.REJECTED, \
                (sql, level.label)
            assert report.skeleton.text == expected.text, (sql, level.label)
            again = normalize(report.skeleton.text, level)
            assert again.outcome is NormalizationOutcome.ACCEPTED
            assert again.skeleton.text == report.skeleton.text
    print(f"PASS 6: normalizer matches extraction and is idempotent on "
          f"{len(CORPUS)} queries x 3 levels")


# Criteria 7 and 9 share a 3-item benchmark fixture.

BENCH_GOLDS = {
    "Which students enrolled in 2021?":
        "SELECT name FROM students WHERE year = 2021",
    "How many grades does each course have?":
        "SELECT course, COUNT(*) FROM grades GROUP BY course",
    "Who scored above 90?":
        ("SELECT name FROM students WHERE id IN "
         "(SELECT student_id FROM grades WHERE score > 90)"),
}
BENCH_DIFFICULTY = ("simple", "moderate", "challenging")


def _bench_fixture(tmp_path):
    db_root = tmp_path / "databases"
    (db_root / "school").mkdir(parents=True)
    build_school_db(db_root / "school" / "school.sqlite")
    rows = [{"question_id": index, "question": question, "db_id": "school",
             "SQL": gold, "difficulty": BENCH_DIFFICULTY[index]}
            for index, (question, gold) in enumerate(BENCH_GOLDS.items())]
    dataset = tmp_path / "dev.json"
    dataset.write_text(json.dumps(rows), encoding="utf-8")
    return dataset, db_root


def test_criterion_07_replay_determinism(tmp_path):
    """Two replay runs of the 3-item fixture, at item concurrency 1 and 8,
    write byte-identical reports and byte-identical per-item decision
    traces."""
    dataset, db_root = _bench_fixture(tmp_path)
    cassette_path = tmp_path / "tape.jsonl"
    config = GatewayConfig(endpoint="https://example.invalid/v1",
                           model="stub")
    gateway = LlmGateway(config, mode="record",
                         cassette=Cassette(cassette_path),
                         transport=TransportOracle(BENCH_GOLDS),
                         api_key="k")
    run_benchmark(dataset, db_root, out_dir=tmp_path / "record",
                  settings=RunSettings(mode="record",
                                       cassette=str(cassette_path),
                                       gateway=config),
                  backends=_llm_backends(gateway))
    snapshots = []
    for name, cap in (("one", 1), ("eight", 8)):
        out = tmp_path / name
        settings = RunSettings(mode="replay", cassette=str(cassette_path),
                               gateway=config, items_concurrency=cap)
        report = run_benchmark(dataset, db_root, out_dir=out,
                               settings=settings)
        assert report["ex"] == 1.0
        assert report["pass_at_k"] >= report["ex"]
        journal = (out / "items.jsonl").read_bytes()
        _header, *lines = journal.splitlines(keepends=True)
        items = {json.loads(line)["key"]: line for line in lines}
        assert list(items) == [0, 1, 2]
        snapshots.append(((out / "report.json").read_bytes(), journal,
                          items))
    assert snapshots[0][0] == snapshots[1][0]
    assert snapshots[0][1] == snapshots[1][1]
    assert snapshots[0][2] == snapshots[1][2]
    print("PASS 7: replay runs at concurrency 1 and 8 are byte-identical "
          "(report plus 3 item traces)")


def _llm_backends(gateway):
    from skelsearch.agents import LlmEvaluationBackend, LlmFormulationBackend
    from skelsearch.sqlgen import LlmGenerationBackend

    return (LlmFormulationBackend(gateway), LlmEvaluationBackend(gateway),
            LlmGenerationBackend(gateway), None, gateway)


def test_criterion_08_sft_dataset_properties(tmp_path):
    """A seeded build over the 60-query corpus is balanced per level, every
    skeleton re-parses, every negative differs from its gold skeleton, and
    rebuilding with the same seed is bit-identical."""
    corpus = build_corpus()
    assert len(corpus) == 60
    golds = {}
    for question, gold_sql, _ in corpus:
        tree = parse_query(gold_sql)
        golds[question] = {level.label: extract_skeleton(tree, level).text
                           for level in LEVELS}
    first = tmp_path / "one.jsonl"
    summary = build_dataset(corpus, first, pairs_per_level=30, seed=7)
    assert summary.examples == 180
    records = load_dataset(first)
    counts = {}
    for record in records:
        key = (record["level"], record["label"])
        counts[key] = counts.get(key, 0) + 1
        parse_query(record["skeleton"])
        gold = golds[record["question"]][record["level"]]
        if record["label"]:
            assert record["skeleton"] == gold, record["question"]
        else:
            assert record["skeleton"] != gold, record["question"]
            assert record["recipe"], record["question"]
    for level in LEVELS:
        assert counts[(level.label, True)] == 30
        assert counts[(level.label, False)] == 30
    second = tmp_path / "two.jsonl"
    build_dataset(corpus, second, pairs_per_level=30, seed=7)
    assert first.read_bytes() == second.read_bytes()
    print("PASS 8: 180-example build balanced per level, all skeletons "
          "re-parse, all negatives differ, rebuild bit-identical")


def test_criterion_09_greedy_metric_sanity(tmp_path):
    """With branching factor 1, mean candidate count is exactly 1.0 in
    every difficulty bucket, and Pass@k >= EX."""
    dataset, db_root = _bench_fixture(tmp_path)
    golds = {("school", q): sql for q, sql in BENCH_GOLDS.items()}
    oracle = GoldOracle(golds)
    backends = Backends(oracle, oracle, oracle)
    report = run_benchmark(dataset, db_root, out_dir=tmp_path / "run",
                           settings=RunSettings(search=SearchConfig(m=1)),
                           backends=backends)
    assert set(report["per_difficulty"]) == set(BENCH_DIFFICULTY)
    for name, bucket in report["per_difficulty"].items():
        assert bucket["mean_candidates"] == 1.0, name
    assert report["pass_at_k"] >= report["ex"]
    print("PASS 9: greedy run has mean candidate count exactly 1.0 per "
          "difficulty and Pass@k >= EX")


def test_criterion_10_live_smoke_optional(tmp_path):
    """Manual: a small live slice completes with at least one correct
    final query. Skipped unless LIVE_SMOKE_CONFIG, LIVE_SMOKE_DATASET, and
    LIVE_SMOKE_DB_ROOT are set."""
    from skelsearch.bench import load_settings

    config = os.environ.get("LIVE_SMOKE_CONFIG")
    dataset = os.environ.get("LIVE_SMOKE_DATASET")
    db_root = os.environ.get("LIVE_SMOKE_DB_ROOT")
    if not (config and dataset and db_root):
        pytest.skip("live smoke test needs LIVE_SMOKE_CONFIG, "
                    "LIVE_SMOKE_DATASET, and LIVE_SMOKE_DB_ROOT")
    settings = load_settings(config)
    report = run_benchmark(Path(dataset), Path(db_root),
                           out_dir=tmp_path / "live", settings=settings)
    correct = sum(1 for record in report["records"] if record["correct"])
    assert correct >= 1
    print(f"PASS 10: live smoke run finished with {correct} correct of "
          f"{report['items']}")
