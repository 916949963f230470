"""Benchmark harness: loading, per-item pipeline, reports, resume."""

import json
import time

import pytest

from conftest import build_school_db
from fixtures.livestub import TransportOracle
from skelsearch import bench, selector
from skelsearch.agents import (
    GoldFormulationBackend,
    GoldOracleEvaluationBackend,
    LlmEvaluationBackend,
    LlmFormulationBackend,
    ScriptedEvaluationBackend,
    ScriptedFormulationBackend,
)
from skelsearch.bench import (
    BenchConfigError,
    BenchmarkItem,
    RunSettings,
    aggregate,
    load_items,
    load_settings,
    recompute_report,
    resolve_database,
    run_benchmark,
    run_item,
)
from skelsearch.engine import SearchConfig
from skelsearch.gateway import Cassette, GatewayConfig, LlmGateway
from skelsearch.schema import profile_from_sqlite
from skelsearch.sqlgen import (
    GoldEchoGenerationBackend,
    LlmGenerationBackend,
    ScriptedGenerationBackend,
)

Q1 = "Which students enrolled in 2021?"
Q2 = "How many grades does each course have?"
Q3 = "Who scored above 90?"
GOLDS = {
    Q1: "SELECT name FROM students WHERE year = 2021",
    Q2: "SELECT course, COUNT(*) FROM grades GROUP BY course",
    Q3: ("SELECT name FROM students WHERE id IN "
         "(SELECT student_id FROM grades WHERE score > 90)"),
}
DIFFICULTY = {Q1: "simple", Q2: "moderate", Q3: "challenging"}


@pytest.fixture
def bench_env(tmp_path):
    db_root = tmp_path / "databases"
    (db_root / "school").mkdir(parents=True)
    build_school_db(db_root / "school" / "school.sqlite")
    rows = []
    for index, (question, gold) in enumerate(GOLDS.items()):
        row = {"question_id": index, "question": question,
               "db_id": "school", "difficulty": DIFFICULTY[question]}
        if index == 1:
            row["query"] = gold  # Spider-style field name
        else:
            row["SQL"] = gold  # BIRD-style field name
        rows.append(row)
    dataset = tmp_path / "dev.json"
    dataset.write_text(json.dumps(rows), encoding="utf-8")
    return dataset, db_root


def gold_backends():
    return (GoldFormulationBackend(GOLDS),
            GoldOracleEvaluationBackend(GOLDS),
            GoldEchoGenerationBackend(GOLDS),
            None)


# Loading


def test_load_items_field_variants(bench_env):
    dataset, _ = bench_env
    items = load_items(dataset)
    assert len(items) == 3
    assert items[0].question_id == "0"
    assert items[1].gold_sql == GOLDS[Q2]
    assert items[2].difficulty == "challenging"


def test_load_items_jsonl(tmp_path):
    path = tmp_path / "dev.jsonl"
    path.write_text(
        '{"question": "q", "db_id": "d", "SQL": "SELECT 1"}\n',
        encoding="utf-8")
    items = load_items(path)
    assert items[0].difficulty == "unknown"


def test_load_items_errors(tmp_path):
    with pytest.raises(BenchConfigError):
        load_items(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text('[{"question": "q"}]', encoding="utf-8")
    with pytest.raises(BenchConfigError):
        load_items(bad)
    empty = tmp_path / "empty.json"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(BenchConfigError):
        load_items(empty)


def test_load_items_rejects_empty_dataset(tmp_path):
    for name, text in (("empty.json", "[]"), ("empty.jsonl", "\n\n")):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        with pytest.raises(BenchConfigError):
            load_items(path)


def test_load_items_rejects_malformed_json(tmp_path):
    for name, text in (("bad.json", "[1,"), ("bad.jsonl", "{}\n{")):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        with pytest.raises(BenchConfigError, match="bad dataset JSON"):
            load_items(path)


def test_empty_dataset_writes_no_report(tmp_path):
    dataset = tmp_path / "dev.json"
    dataset.write_text("[]", encoding="utf-8")
    with pytest.raises(BenchConfigError, match="no items"):
        run_benchmark(dataset, tmp_path, out_dir=tmp_path / "run",
                      backends=gold_backends())
    assert not (tmp_path / "run").exists()


def test_resolve_database(bench_env, tmp_path):
    _, db_root = bench_env
    assert resolve_database(db_root, "school").endswith("school.sqlite")
    with pytest.raises(BenchConfigError):
        resolve_database(db_root, "ghost")


def test_load_settings(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text("", encoding="utf-8")
    settings = load_settings(path)
    assert settings.mode == "gold"
    assert settings.search.m == 3
    path.write_text(
        "mode: replay\ncassette: tape.jsonl\n"
        "search: {m: 2, expanded_cap: 3}\nlimits: {timeout: 5.0}\n"
        "items_concurrency: 4\n", encoding="utf-8")
    settings = load_settings(path)
    assert settings.mode == "replay"
    assert settings.search.m == 2
    assert settings.limits.timeout == 5.0
    assert settings.items_concurrency == 4


def test_load_settings_errors(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text("mode: banana\n", encoding="utf-8")
    with pytest.raises(BenchConfigError):
        load_settings(path)
    path.write_text("search: {m: 0}\n", encoding="utf-8")
    with pytest.raises(BenchConfigError):
        load_settings(path)
    path.write_text("search: {bogus: 1}\n", encoding="utf-8")
    with pytest.raises(BenchConfigError):
        load_settings(path)
    path.write_text("mode: replay\n", encoding="utf-8")
    with pytest.raises(BenchConfigError):
        load_settings(path)
    with pytest.raises(BenchConfigError):
        load_settings(tmp_path / "missing.yaml")


# Gold-oracle pipeline


def test_gold_run_is_perfect(bench_env, tmp_path):
    dataset, db_root = bench_env
    out = tmp_path / "run"
    report = run_benchmark(dataset, db_root, out_dir=out,
                           backends=gold_backends())
    assert report["items"] == 3
    assert report["ex"] == 1.0
    assert report["pass_at_k"] == 1.0
    assert report["flagged"] == []
    assert len(list((out / "items").glob("*.json"))) == 3
    assert (out / "report.json").is_file()
    for difficulty in ("simple", "moderate", "challenging"):
        bucket = report["per_difficulty"][difficulty]
        assert bucket["ex"] == 1.0
        assert bucket["count"] == 1
        assert abs(sum(bucket["granularity"].values()) - 1.0) < 1e-9
        assert bucket["mean_candidates"] >= 1.0


def test_always_false_evaluator_flags_all_items(bench_env, tmp_path):
    dataset, db_root = bench_env
    backends = (GoldFormulationBackend(GOLDS),
                ScriptedEvaluationBackend({}, default=False),
                GoldEchoGenerationBackend(GOLDS),
                None)
    report = run_benchmark(dataset, db_root, out_dir=tmp_path / "run",
                           backends=backends)
    assert report["ex"] == 0.0
    assert report["pass_at_k"] == 0.0
    assert len(report["flagged"]) == 3
    for record in report["records"]:
        assert record["empty_search"]
        assert record["candidate_count"] == 0


def test_pass_at_k_counts_candidate_voting_missed(bench_env):
    _, db_root = bench_env
    profile = profile_from_sqlite(resolve_database(db_root, "school"),
                                  db_id="school")
    item = BenchmarkItem("0", Q1, "school", GOLDS[Q1], "simple")
    bases = ["SELECT _ FROM _ WHERE _", "SELECT _ FROM _",
             "SELECT _ FROM _ ORDER BY _"]
    formulator = ScriptedFormulationBackend({(Q1, "base", None): bases})
    evaluator = ScriptedEvaluationBackend(
        {(Q1, text): True for text in bases})
    genb = ScriptedGenerationBackend({
        (Q1, bases[0]): GOLDS[Q1],
        (Q1, bases[1]): "SELECT name FROM students WHERE year = 2022",
        (Q1, bases[2]): "SELECT name FROM students WHERE id = 2",
    })
    record = run_item(item, profile, (formulator, evaluator, genb, None),
                      RunSettings())
    assert record["candidate_count"] == 3
    assert record["k"] == 3
    assert record["pass_hit"] is True
    assert record["correct"] is False
    assert record["trace"]["rule"] == "majority"


def test_gold_text_executes_once_per_item(bench_env, monkeypatch):
    _, db_root = bench_env
    profile = profile_from_sqlite(resolve_database(db_root, "school"),
                                  db_id="school")
    item = BenchmarkItem("0", Q1, "school", GOLDS[Q1], "simple")
    bases = ["SELECT _ FROM _ WHERE _", "SELECT _ FROM _",
             "SELECT _ FROM _ ORDER BY _"]
    other = "SELECT name FROM students WHERE year = 2022"
    backends = (
        ScriptedFormulationBackend({(Q1, "base", None): bases}),
        ScriptedEvaluationBackend({(Q1, text): True for text in bases}),
        ScriptedGenerationBackend({(Q1, bases[0]): GOLDS[Q1],
                                   (Q1, bases[1]): other,
                                   (Q1, bases[2]): GOLDS[Q1]}),
        None)

    def execute_each(profile, candidates, limits=None, known=None):
        return [selector.execute_candidate(profile, c, limits)
                for c in candidates]

    with monkeypatch.context() as patch:
        patch.setattr(bench, "execute_all", execute_each)
        unshared = run_item(item, profile, backends, RunSettings())
    executed = []
    for module in (bench, selector):
        def counted(profile, candidate, limits=None,
                    original=module.execute_candidate):
            executed.append(candidate.sql)
            return original(profile, candidate, limits)
        monkeypatch.setattr(module, "execute_candidate", counted)
    record = run_item(item, profile, backends, RunSettings())
    assert sorted(executed) == sorted([GOLDS[Q1], other])
    assert record == unshared
    assert record["k"] == 3
    assert record["correct"] is True


def test_gold_execution_error_is_not_correct(bench_env):
    _, db_root = bench_env
    profile = profile_from_sqlite(resolve_database(db_root, "school"),
                                  db_id="school")
    question = "broken gold"
    gold = "SELECT ghost FROM students"
    item = BenchmarkItem("0", question, "school", gold)
    golds = {question: gold}
    record = run_item(item, profile,
                      (GoldFormulationBackend(golds),
                       GoldOracleEvaluationBackend(golds),
                       GoldEchoGenerationBackend(golds), None),
                      RunSettings())
    assert record["gold_status"] == "error"
    assert record["correct"] is False
    assert record["pass_hit"] is False


@pytest.mark.parametrize("gold", [
    "WITH s AS (SELECT name FROM students) SELECT name FROM s",
    "SELECT name FROM students WHERE year = ?",
    "SELECT name FROM students WHERE year ISNULL",
], ids=["cte", "parameter", "isnull"])
def test_unparsable_gold_sql_is_classified(bench_env, gold):
    _, db_root = bench_env
    profile = profile_from_sqlite(resolve_database(db_root, "school"),
                                  db_id="school")
    question = "gold the parser rejects"
    golds = {question: gold}
    record = run_item(BenchmarkItem("0", question, "school", gold), profile,
                      (GoldFormulationBackend(golds),
                       GoldOracleEvaluationBackend(golds),
                       GoldEchoGenerationBackend(golds), None),
                      RunSettings())
    assert record["error"].startswith("unparsable gold SQL: ")
    assert "offset" in record["error"]
    assert record["correct"] is False
    assert record["candidate_count"] == 0


# Checkpoints and resume


def test_resume_reuses_checkpoints(bench_env, tmp_path):
    dataset, db_root = bench_env
    out = tmp_path / "run"
    run_benchmark(dataset, db_root, out_dir=out, backends=gold_backends())
    checkpoint = out / "items" / "00000.json"
    record = json.loads(checkpoint.read_text(encoding="utf-8"))
    record["final_sql"] = "TAMPERED"
    checkpoint.write_text(json.dumps(record, sort_keys=True),
                          encoding="utf-8")
    report = run_benchmark(dataset, db_root, out_dir=out,
                           backends=gold_backends())
    assert report["records"][0]["final_sql"] == "TAMPERED"


def test_resume_after_partial_run_matches_full_run(bench_env, tmp_path):
    dataset, db_root = bench_env
    full = tmp_path / "full"
    partial = tmp_path / "partial"
    run_benchmark(dataset, db_root, out_dir=full,
                  backends=gold_backends())
    run_benchmark(dataset, db_root, out_dir=partial,
                  backends=gold_backends())
    (partial / "items" / "00001.json").unlink()
    run_benchmark(dataset, db_root, out_dir=partial,
                  backends=gold_backends())
    assert ((full / "report.json").read_bytes()
            == (partial / "report.json").read_bytes())


def test_checkpoint_for_changed_item_is_recomputed(bench_env, tmp_path):
    dataset, db_root = bench_env
    out = tmp_path / "run"
    run_benchmark(dataset, db_root, out_dir=out, backends=gold_backends())
    checkpoint = out / "items" / "00000.json"
    record = json.loads(checkpoint.read_text(encoding="utf-8"))
    record["question_id"] = "other"
    record["final_sql"] = "STALE"
    checkpoint.write_text(json.dumps(record), encoding="utf-8")
    report = run_benchmark(dataset, db_root, out_dir=out,
                           backends=gold_backends())
    assert report["records"][0]["final_sql"] != "STALE"


def test_item_concurrency_keeps_report_bytes(bench_env, tmp_path):
    dataset, db_root = bench_env
    serial = tmp_path / "serial"
    threaded = tmp_path / "threaded"
    run_benchmark(dataset, db_root, out_dir=serial,
                  settings=RunSettings(items_concurrency=1),
                  backends=gold_backends())
    run_benchmark(dataset, db_root, out_dir=threaded,
                  settings=RunSettings(items_concurrency=8),
                  backends=gold_backends())
    assert ((serial / "report.json").read_bytes()
            == (threaded / "report.json").read_bytes())


# Record/replay over the gateway


def llm_backends(gateway):
    return (LlmFormulationBackend(gateway), LlmEvaluationBackend(gateway),
            LlmGenerationBackend(gateway), None, gateway)


def record_cassette(dataset, db_root, tmp_path):
    cassette_path = tmp_path / "tape.jsonl"
    config = GatewayConfig(endpoint="https://example.invalid/v1",
                           model="stub")
    gateway = LlmGateway(config, mode="record",
                         cassette=Cassette(cassette_path),
                         transport=TransportOracle(GOLDS), api_key="k")
    run_benchmark(dataset, db_root, out_dir=tmp_path / "record",
                  settings=RunSettings(mode="record",
                                       cassette=str(cassette_path),
                                       gateway=config),
                  backends=llm_backends(gateway))
    return cassette_path, config


def test_record_then_replay_reports_identical(bench_env, tmp_path):
    dataset, db_root = bench_env
    cassette_path, config = record_cassette(dataset, db_root, tmp_path)
    reports = []
    for name, caps in (("one", 1), ("eight", 8)):
        out = tmp_path / name
        settings = RunSettings(mode="replay", cassette=str(cassette_path),
                               gateway=config, items_concurrency=caps)
        report = run_benchmark(dataset, db_root, out_dir=out,
                               settings=settings)
        reports.append((out / "report.json").read_bytes())
        assert report["ex"] == 1.0
        assert report["pass_at_k"] == 1.0
    assert reports[0] == reports[1]


def test_record_runs_write_identical_cassettes(bench_env, tmp_path):
    dataset, db_root = bench_env
    config = GatewayConfig(endpoint="https://example.invalid/v1",
                           model="stub")
    questions = list(GOLDS)
    tapes, reports = [], []
    for run, order in enumerate((questions, questions[::-1])):
        oracle = TransportOracle(GOLDS)

        def transport(prompt, config, api_key, order=order):
            # the two runs answer the questions' calls in opposite orders
            rank = next(i for i, q in enumerate(order) if q in prompt)
            time.sleep(0.004 * rank)
            return oracle(prompt, config, api_key)

        path = tmp_path / f"tape{run}.jsonl"
        gateway = LlmGateway(config, mode="record", cassette=Cassette(path),
                             transport=transport, api_key="k")
        reports.append(run_benchmark(
            dataset, db_root, out_dir=tmp_path / f"record{run}",
            settings=RunSettings(mode="record", cassette=str(path),
                                 gateway=config, items_concurrency=4),
            backends=llm_backends(gateway)))
        tapes.append(path.read_bytes())
    assert tapes[0] == tapes[1]
    lines = tapes[0].decode("utf-8").splitlines()
    keys = [json.loads(line)["key"] for line in lines[1:]]
    assert json.loads(lines[0])["format"] == "cassette"
    assert keys == sorted(keys)
    replay = run_benchmark(
        dataset, db_root, out_dir=tmp_path / "replay",
        settings=RunSettings(mode="replay", cassette=str(path),
                             gateway=config))
    assert replay["records"] == reports[0]["records"] == reports[1]["records"]


def test_replay_usage_has_zero_latency(bench_env, tmp_path):
    dataset, db_root = bench_env
    cassette_path, config = record_cassette(dataset, db_root, tmp_path)
    settings = RunSettings(mode="replay", cassette=str(cassette_path),
                           gateway=config)
    report = run_benchmark(dataset, db_root, out_dir=tmp_path / "replay",
                           settings=settings)
    assert report["usage"]
    for stage, totals in report["usage"].items():
        assert totals["latency"] == 0.0
        assert totals["calls"] >= 1


# Report recomputation


def test_recompute_report_matches_run(bench_env, tmp_path):
    dataset, db_root = bench_env
    out = tmp_path / "run"
    report = run_benchmark(dataset, db_root, out_dir=out,
                           backends=gold_backends())
    assert recompute_report(out) == report
    with pytest.raises(BenchConfigError):
        recompute_report(tmp_path / "nowhere")


def test_aggregate_is_pure_function_of_records(bench_env, tmp_path):
    dataset, db_root = bench_env
    report = run_benchmark(dataset, db_root, out_dir=tmp_path / "run",
                           backends=gold_backends())
    assert aggregate(report["records"], report["usage"]) == report


def test_aggregate_empty():
    report = aggregate([])
    assert report["ex"] == 0.0
    assert report["per_difficulty"] == {}


# Metric sanity


def test_greedy_mean_candidate_count_is_one(bench_env, tmp_path):
    dataset, db_root = bench_env
    settings = RunSettings(search=SearchConfig(m=1))
    report = run_benchmark(dataset, db_root, out_dir=tmp_path / "run",
                           settings=settings, backends=gold_backends())
    for bucket in report["per_difficulty"].values():
        assert bucket["mean_candidates"] == 1.0
    assert report["pass_at_k"] >= report["ex"]


def test_settings_validation():
    with pytest.raises(BenchConfigError):
        RunSettings(mode="banana")
    with pytest.raises(BenchConfigError):
        RunSettings(items_concurrency=0)
    with pytest.raises(BenchConfigError):
        RunSettings(arbitration="coin-flip")
    with pytest.raises(BenchConfigError):
        RunSettings(mode="replay")
