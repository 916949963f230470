"""Benchmark harness: loading, per-item pipeline, reports, resume."""

import json
import sqlite3
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from conftest import build_school_db, gateway_pool_threads, is_closed
from fixtures.doubles import (
    ScriptedEvaluationBackend,
    ScriptedFormulationBackend,
    ScriptedGenerationBackend,
)
from fixtures.livestub import BranchingOracle, TransportOracle
from skelsearch import agents, bench, selector
from skelsearch.agents import (
    GoldOracle,
    LlmEvaluationBackend,
    LlmFormulationBackend,
)
from skelsearch.bench import (
    Backends,
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
from skelsearch.schema import profile_from_sqlite, render_mschema
from skelsearch.sqlgen import LlmGenerationBackend

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


def gold_backends(golds=None):
    if golds is None:
        golds = {("school", q): sql for q, sql in GOLDS.items()}
    oracle = GoldOracle(golds)
    return Backends(oracle, oracle, oracle)


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


# Profiling


def _build_database(db_root, db_id):
    """A school database with a table of its own, so that no two
    profiles are alike."""
    (db_root / db_id).mkdir(parents=True, exist_ok=True)
    path = db_root / db_id / f"{db_id}.sqlite"
    path.unlink(missing_ok=True)
    conn = sqlite3.connect(build_school_db(path))
    try:
        conn.execute(f"CREATE TABLE only_{db_id} (x INTEGER)")
        conn.commit()
    finally:
        conn.close()
    return str(path)


def _profile_run(tmp_path, db_ids):
    """A dataset of one item per entry of `db_ids`, each asking for the
    names on that database, and the root of its databases."""
    db_root = tmp_path / "databases"
    for db_id in dict.fromkeys(db_ids):
        _build_database(db_root, db_id)
    dataset = tmp_path / "dev.json"
    dataset.write_text(json.dumps([
        {"question_id": index, "question": f"q{index}", "db_id": db_id,
         "SQL": "SELECT name FROM students"}
        for index, db_id in enumerate(db_ids)]), encoding="utf-8")
    return dataset, db_root


def _spoil(db_root, db_id):
    """Overwrite a database file with bytes SQLite cannot read."""
    path = resolve_database(db_root, db_id)
    Path(path).write_bytes(b"not a database" * 100)
    return path


@pytest.fixture
def profiled(monkeypatch):
    """`calls`: the db_id of each `bench.profile_from_sqlite` call, in
    call order; `made`: the last profile made of each. Each profile takes
    at least `delay[db_id]` seconds (default none)."""
    log = SimpleNamespace(calls=[], made={}, delay={})
    profile = bench.profile_from_sqlite

    def recorded(path):
        db_id = Path(path).stem
        log.calls.append(db_id)
        time.sleep(log.delay.get(db_id, 0))
        log.made[db_id] = profile(path)
        return log.made[db_id]

    monkeypatch.setattr(bench, "profile_from_sqlite", recorded)
    return log


@pytest.fixture
def ran_items(monkeypatch):
    """The question ids of the items `bench.run_item` runs, in order."""
    ran = []
    run_item = bench.run_item

    def counted(item, *args):
        ran.append(item.question_id)
        return run_item(item, *args)

    monkeypatch.setattr(bench, "run_item", counted)
    return ran


def test_resuming_a_finished_run_profiles_nothing(tmp_path, profiled):
    dataset, db_root = _profile_run(tmp_path, ["a", "b", "a"])
    out = tmp_path / "run"
    first = run_benchmark(dataset, db_root, out_dir=out)
    assert profiled.calls == ["a", "b"]
    profiled.calls.clear()
    report = (out / "report.json").read_bytes()
    assert run_benchmark(dataset, db_root, out_dir=out) == first
    assert profiled.calls == []
    assert (out / "report.json").read_bytes() == report


def test_resume_profiles_only_the_databases_of_the_items_left(
        tmp_path, profiled):
    dataset, db_root = _profile_run(tmp_path, ["a", "b", "c", "b", "a"])
    fresh, partial = tmp_path / "fresh", tmp_path / "partial"
    run_benchmark(dataset, db_root, out_dir=fresh)
    run_benchmark(dataset, db_root, out_dir=partial)
    lines = journal_lines(partial)
    write_journal(partial, lines[:3] + lines[4:5])  # drop items 2 and 4
    profiled.calls.clear()
    run_benchmark(dataset, db_root, out_dir=partial)
    assert profiled.calls == ["c", "a"]
    for name in ("report.json", "items.jsonl"):
        assert ((fresh / name).read_bytes()
                == (partial / name).read_bytes())


def test_item_pool_profiles_each_database_once(tmp_path, profiled):
    """Four items at a time, switching threads as often as they can:
    every database is profiled exactly once, and its M-Schema is that of
    a profile made alone."""
    db_ids = [f"db{n}" for n in range(6)]
    dataset, db_root = _profile_run(tmp_path, [db_id for db_id in db_ids
                                               for _ in range(4)])
    for db_id in db_ids:
        profiled.delay[db_id] = 0.01
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        report = run_benchmark(
            dataset, db_root, out_dir=tmp_path / "run",
            settings=RunSettings(items_concurrency=4))
    finally:
        sys.setswitchinterval(interval)
    assert report["ex"] == 1.0
    assert sorted(profiled.calls) == db_ids
    for db_id, profile in profiled.made.items():
        alone = profile_from_sqlite(resolve_database(db_root, db_id))
        assert render_mschema(profile) == render_mschema(alone)


@pytest.mark.parametrize("concurrency", [1, 4])
def test_unreadable_database_error_names_the_first_in_item_order(
        tmp_path, profiled, ran_items, concurrency):
    """Of two unreadable databases, the error names the first in item
    order, also when the second fails sooner; the records of the items
    before it are reused on resume."""
    dataset, db_root = _profile_run(tmp_path, ["good", "bad1", "bad2"])
    first = _spoil(db_root, "bad1")
    _spoil(db_root, "bad2")
    profiled.delay["bad1"] = 0.2
    out = tmp_path / "run"
    settings = RunSettings(items_concurrency=concurrency)
    with pytest.raises(BenchConfigError) as caught:
        run_benchmark(dataset, db_root, out_dir=out, settings=settings)
    assert str(caught.value).startswith(f"cannot open database {first}:")
    assert not (out / "report.json").exists()
    for db_id in ("bad1", "bad2"):
        _build_database(db_root, db_id)
    ran_items.clear()
    run_benchmark(dataset, db_root, out_dir=out, settings=settings)
    assert sorted(ran_items) == ["1", "2"]


@pytest.mark.parametrize("concurrency", [1, 4])
def test_missing_database_fails_before_any_profile(tmp_path, profiled,
                                                   concurrency):
    dataset, db_root = _profile_run(tmp_path, ["a", "b", "ghost"])
    (db_root / "ghost" / "ghost.sqlite").unlink()
    with pytest.raises(BenchConfigError, match="no database for 'ghost'"):
        run_benchmark(dataset, db_root, out_dir=tmp_path / "run",
                      settings=RunSettings(items_concurrency=concurrency))
    assert profiled.calls == []
    assert not (tmp_path / "run").exists()


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


def test_readme_run_config_example_loads(tmp_path):
    """The YAML example under README "Run configuration" names only
    settings that exist, with the values its comments describe."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(
        encoding="utf-8")
    section = readme.split("### Run configuration", 1)[1]
    example = section.split("```yaml\n", 1)[1].split("```\n", 1)[0]
    path = tmp_path / "config.yaml"
    path.write_text(example, encoding="utf-8")
    settings = load_settings(path)
    assert (settings.mode, settings.cassette) == ("replay", "tape.jsonl")
    assert settings.search.m == 3
    assert settings.limits == selector.ExecutionLimits(30.0, 100000)
    assert settings.items_concurrency == 8
    assert settings.arbitration == "llm"


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
    header, *lines = journal_lines(out)
    assert header == {"format": "bench-items", "version": 1}
    assert [line["key"] for line in lines] == [0, 1, 2]
    assert [line["record"] for line in lines] == report["records"]
    assert not (out / "items").exists()
    assert (out / "report.json").is_file()
    for difficulty in ("simple", "moderate", "challenging"):
        bucket = report["per_difficulty"][difficulty]
        assert bucket["ex"] == 1.0
        assert bucket["count"] == 1
        assert abs(sum(bucket["granularity"].values()) - 1.0) < 1e-9
        assert bucket["mean_candidates"] >= 1.0


def _same_question_dataset(tmp_path, db_ids,
                           other_gold="SELECT name FROM students"):
    """Two items that ask "Which names?" with different gold SQL."""
    db_root = tmp_path / "databases"
    golds = ["SELECT name FROM students WHERE year = 2021", other_gold]
    rows = []
    for index, (db_id, gold) in enumerate(zip(db_ids, golds)):
        (db_root / db_id).mkdir(parents=True, exist_ok=True)
        if not (db_root / db_id / f"{db_id}.sqlite").exists():
            build_school_db(db_root / db_id / f"{db_id}.sqlite")
        rows.append({"question_id": index, "question": "Which names?",
                     "db_id": db_id, "SQL": gold})
    dataset = tmp_path / "dev.json"
    dataset.write_text(json.dumps(rows), encoding="utf-8")
    return dataset, db_root


@pytest.mark.parametrize("other_gold", [
    "SELECT name FROM students",
    # a prefix NOT as a comparison's operand: `id = NOT (year IS NULL)`
    "SELECT name FROM students WHERE id = NOT year IS NULL",
])
def test_gold_mode_scores_each_item_against_its_own_gold(tmp_path,
                                                         other_gold):
    dataset, db_root = _same_question_dataset(
        tmp_path, ["school", "school2"], other_gold)
    report = run_benchmark(dataset, db_root, out_dir=tmp_path / "run")
    assert report["ex"] == 1.0
    assert [r["final_sql"] for r in report["records"]] == \
        [r["gold_sql"] for r in report["records"]]


def test_gold_mode_rejects_two_golds_for_one_question(tmp_path):
    dataset, db_root = _same_question_dataset(tmp_path,
                                              ["school", "school"])
    with pytest.raises(BenchConfigError, match="two gold SQL texts"):
        run_benchmark(dataset, db_root, out_dir=tmp_path / "run")
    rows = json.loads(dataset.read_text(encoding="utf-8"))
    rows[1]["SQL"] = rows[0]["SQL"]
    dataset.write_text(json.dumps(rows), encoding="utf-8")
    report = run_benchmark(dataset, db_root, out_dir=tmp_path / "run")
    assert report["ex"] == 1.0


@pytest.mark.parametrize("mode, message", [
    ("replay", "no cassette at"), ("gold", "two gold SQL texts")])
def test_backend_errors_come_before_profiling(tmp_path, monkeypatch, mode,
                                              message):
    """A replay without its cassette file, and gold mode with two golds
    for one question, fail before any database is profiled."""
    dataset, db_root = _same_question_dataset(tmp_path,
                                              ["school", "school"])

    def unreachable(*args, **kwargs):
        raise AssertionError("a database was profiled")

    monkeypatch.setattr(bench, "profile_from_sqlite", unreachable)
    settings = RunSettings(mode=mode, cassette=str(tmp_path / "nope.jsonl")
                           if mode == "replay" else "")
    with pytest.raises(BenchConfigError, match=message):
        run_benchmark(dataset, db_root, out_dir=tmp_path / "run",
                      settings=settings)
    assert not (tmp_path / "run").exists()


def test_run_closes_its_backends_when_profiling_fails(bench_env, tmp_path):
    dataset, db_root = bench_env
    Path(resolve_database(db_root, "school")).write_bytes(
        b"not a database" * 100)
    closed = []
    gateway = SimpleNamespace(close=lambda: closed.append(True))
    oracle = GoldOracle({})
    with pytest.raises(BenchConfigError, match="cannot open database"):
        run_benchmark(dataset, db_root, out_dir=tmp_path / "run",
                      backends=Backends(oracle, oracle, oracle, None,
                                        gateway))
    assert closed == [True]
    assert not (tmp_path / "run" / "report.json").exists()


def test_run_closes_its_backends_when_a_database_is_missing(bench_env,
                                                           tmp_path):
    dataset, db_root = bench_env
    Path(resolve_database(db_root, "school")).unlink()
    closed = []
    gateway = SimpleNamespace(close=lambda: closed.append(True))
    oracle = GoldOracle({})
    with pytest.raises(BenchConfigError, match="no database for 'school'"):
        run_benchmark(dataset, db_root, out_dir=tmp_path / "run",
                      backends=Backends(oracle, oracle, oracle, None,
                                        gateway))
    assert closed == [True]
    assert not (tmp_path / "run").exists()


def test_always_false_evaluator_flags_all_items(bench_env, tmp_path):
    dataset, db_root = bench_env
    golds = {("school", q): sql for q, sql in GOLDS.items()}
    oracle = GoldOracle(golds)
    backends = Backends(oracle, ScriptedEvaluationBackend({}, default=False),
                        oracle)
    report = run_benchmark(dataset, db_root, out_dir=tmp_path / "run",
                           backends=backends)
    assert report["ex"] == 0.0
    assert report["pass_at_k"] == 0.0
    assert len(report["flagged"]) == 3
    for record in report["records"]:
        assert record["empty_search"]
        assert record["leaf_levels"] == []


def test_pass_at_k_counts_candidate_voting_missed(bench_env, connections):
    _, db_root = bench_env
    profile = profile_from_sqlite(resolve_database(db_root, "school"))
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
    record = run_item(item, profile, Backends(formulator, evaluator, genb),
                      RunSettings(), connections)
    assert len(record["leaf_levels"]) == 3
    assert record["k"] == 3
    assert record["pass_hit"] is True
    assert record["correct"] is False
    assert record["trace"]["rule"] == "majority"


def test_gold_text_executes_once_per_item(bench_env, monkeypatch,
                                          connections):
    _, db_root = bench_env
    profile = profile_from_sqlite(resolve_database(db_root, "school"))
    item = BenchmarkItem("0", Q1, "school", GOLDS[Q1], "simple")
    bases = ["SELECT _ FROM _ WHERE _", "SELECT _ FROM _",
             "SELECT _ FROM _ ORDER BY _"]
    other = "SELECT name FROM students WHERE year = 2022"
    backends = Backends(
        ScriptedFormulationBackend({(Q1, "base", None): bases}),
        ScriptedEvaluationBackend({(Q1, text): True for text in bases}),
        ScriptedGenerationBackend({(Q1, bases[0]): GOLDS[Q1],
                                   (Q1, bases[1]): other,
                                   (Q1, bases[2]): GOLDS[Q1]}))

    def execute_each(profile, candidates, limits, connections, known=None):
        return [selector.execute_candidate(profile, c, limits, connections)
                for c in candidates]

    with monkeypatch.context() as patch:
        patch.setattr(bench, "execute_all", execute_each)
        unshared = run_item(item, profile, backends, RunSettings(),
                            connections)
    executed = []
    for module in (bench, selector):
        def counted(profile, candidate, limits, connections,
                    original=module.execute_candidate):
            executed.append(candidate.sql)
            return original(profile, candidate, limits, connections)
        monkeypatch.setattr(module, "execute_candidate", counted)
    record = run_item(item, profile, backends, RunSettings(), connections)
    assert sorted(executed) == sorted([GOLDS[Q1], other])
    assert record == unshared
    assert record["k"] == 3
    assert record["correct"] is True


def test_gold_mode_parses_each_gold_text_once_per_item(bench_env, tmp_path,
                                                       monkeypatch):
    """One gold oracle answers for formulation, evaluation and generation,
    so an item's gold SQL is parsed once for all three."""
    dataset, db_root = bench_env
    parsed = []
    parse_query = agents.parse_query

    def counted(text):
        parsed.append(text)
        return parse_query(text)

    monkeypatch.setattr(agents, "parse_query", counted)
    report = run_benchmark(dataset, db_root, out_dir=tmp_path / "run")
    assert report["ex"] == 1.0
    assert sorted(parsed) == sorted(GOLDS.values())


def test_gold_execution_error_is_not_correct(bench_env, connections):
    _, db_root = bench_env
    profile = profile_from_sqlite(resolve_database(db_root, "school"))
    question = "broken gold"
    gold = "SELECT ghost FROM students"
    item = BenchmarkItem("0", question, "school", gold)
    record = run_item(item, profile,
                      gold_backends({("school", question): gold}),
                      RunSettings(), connections)
    assert record["gold_status"] == "error"
    assert record["correct"] is False
    assert record["pass_hit"] is False


@pytest.mark.parametrize("gold", [
    "WITH s AS (SELECT name FROM students) SELECT name FROM s",
    "SELECT name FROM students WHERE year = ?",
    "SELECT name FROM students WHERE year ISNULL",
], ids=["cte", "parameter", "isnull"])
def test_unparsable_gold_sql_is_classified(bench_env, gold, connections):
    _, db_root = bench_env
    profile = profile_from_sqlite(resolve_database(db_root, "school"))
    question = "gold the parser rejects"
    record = run_item(BenchmarkItem("0", question, "school", gold), profile,
                      gold_backends({("school", question): gold}),
                      RunSettings(), connections)
    assert record["error"].startswith("unparsable gold SQL: ")
    assert "offset" in record["error"]
    assert record["correct"] is False
    assert record["leaf_levels"] == []


# Item journal and resume


def journal_lines(out):
    """The parsed lines of a run's item journal, header first."""
    text = (out / "items.jsonl").read_text(encoding="utf-8")
    return [json.loads(line) for line in text.splitlines()]


def write_journal(out, lines):
    (out / "items.jsonl").write_text(
        "".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")


def test_resume_reuses_checkpoints(bench_env, tmp_path):
    dataset, db_root = bench_env
    out = tmp_path / "run"
    run_benchmark(dataset, db_root, out_dir=out, backends=gold_backends())
    lines = journal_lines(out)
    lines[1]["record"]["final_sql"] = "TAMPERED"
    write_journal(out, lines)
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
    lines = journal_lines(partial)
    write_journal(partial, lines[:2] + lines[3:])  # drop item 1
    run_benchmark(dataset, db_root, out_dir=partial,
                  backends=gold_backends())
    assert ((full / "report.json").read_bytes()
            == (partial / "report.json").read_bytes())
    assert ((full / "items.jsonl").read_bytes()
            == (partial / "items.jsonl").read_bytes())


def test_checkpoint_for_changed_item_is_recomputed(bench_env, tmp_path):
    dataset, db_root = bench_env
    out = tmp_path / "run"
    run_benchmark(dataset, db_root, out_dir=out, backends=gold_backends())
    lines = journal_lines(out)
    lines[1]["record"]["question_id"] = "other"
    lines[1]["record"]["final_sql"] = "STALE"
    write_journal(out, lines)
    report = run_benchmark(dataset, db_root, out_dir=out,
                           backends=gold_backends())
    assert report["records"][0]["final_sql"] != "STALE"


def test_resume_checks_every_item_field(bench_env, tmp_path):
    # without question_id fields, ids default to the item's index, so an
    # edited item keeps its id
    dataset, db_root = bench_env
    rows = json.loads(dataset.read_text(encoding="utf-8"))
    for row in rows:
        del row["question_id"]
    dataset.write_text(json.dumps(rows), encoding="utf-8")
    out = tmp_path / "run"
    run_benchmark(dataset, db_root, out_dir=out, backends=gold_backends())
    rows[0]["question"], rows[0]["SQL"] = Q3, GOLDS[Q3]
    dataset.write_text(json.dumps(rows), encoding="utf-8")
    report = run_benchmark(dataset, db_root, out_dir=out,
                           backends=gold_backends())
    record = report["records"][0]
    assert (record["question_id"], record["question"]) == ("0", Q3)
    assert record["gold_sql"] == GOLDS[Q3]
    assert record["correct"] is True
    assert journal_lines(out)[1]["record"] == record


def test_resume_reruns_records_made_under_other_settings(bench_env,
                                                        tmp_path):
    dataset, db_root = bench_env
    out, fresh = tmp_path / "run", tmp_path / "fresh"
    wide = run_benchmark(dataset, db_root, out_dir=out,
                         settings=RunSettings(search=SearchConfig(m=3)))
    greedy = RunSettings(search=SearchConfig(m=1))
    resumed = run_benchmark(dataset, db_root, out_dir=out, settings=greedy)
    expected = run_benchmark(dataset, db_root, out_dir=fresh,
                             settings=greedy)
    assert wide["records"] != expected["records"]
    assert resumed == expected
    assert ((out / "items.jsonl").read_bytes()
            == (fresh / "items.jsonl").read_bytes())


def test_resume_under_other_item_concurrency_runs_no_item(bench_env,
                                                          tmp_path,
                                                          ran_items):
    dataset, db_root = bench_env
    out = tmp_path / "run"
    first = run_benchmark(dataset, db_root, out_dir=out,
                          settings=RunSettings(items_concurrency=1))
    ran_items.clear()
    again = run_benchmark(dataset, db_root, out_dir=out,
                          settings=RunSettings(items_concurrency=2))
    assert ran_items == []
    assert again == first


def test_shorter_rerun_drops_stale_records(bench_env, tmp_path):
    dataset, db_root = bench_env
    out = tmp_path / "run"
    run_benchmark(dataset, db_root, out_dir=out, backends=gold_backends())
    rows = json.loads(dataset.read_text(encoding="utf-8"))
    shorter = tmp_path / "first_two.json"
    shorter.write_text(json.dumps(rows[:2]), encoding="utf-8")
    report = run_benchmark(shorter, db_root, out_dir=out,
                           backends=gold_backends())
    assert report["items"] == 2
    assert recompute_report(out)["items"] == 2
    assert [line["key"] for line in journal_lines(out)[1:]] == [0, 1]


@pytest.mark.parametrize("cut", [1, 25, -40])
def test_resume_after_torn_journal_matches_full_run(bench_env, tmp_path,
                                                    cut):
    """A run killed mid-write leaves a torn last journal line; resuming
    drops it and gives the records of an uninterrupted run."""
    dataset, db_root = bench_env
    full = tmp_path / "full"
    torn = tmp_path / "torn"
    run_benchmark(dataset, db_root, out_dir=full, backends=gold_backends())
    run_benchmark(dataset, db_root, out_dir=torn, backends=gold_backends())
    data = (torn / "items.jsonl").read_bytes()
    start = data.rindex(b"\n", 0, len(data) - 1) + 1  # item 2's line
    (torn / "items.jsonl").write_bytes(
        data[:start + cut % (len(data) - start)])
    kept = bench._item_journal(torn).values()
    assert kept == journal_lines(full)[1:3]
    report = run_benchmark(dataset, db_root, out_dir=torn,
                           backends=gold_backends())
    assert report == (json.loads((full / "report.json").read_text())
                      | {"records": [line["record"]
                                     for line in journal_lines(full)[1:]]})
    assert ((full / "items.jsonl").read_bytes()
            == (torn / "items.jsonl").read_bytes())


def test_old_checkpoint_layout_is_a_config_error(bench_env, tmp_path):
    dataset, db_root = bench_env
    out = tmp_path / "run"
    (out / "items").mkdir(parents=True)
    (out / "items" / "00000.json").write_text("{}", encoding="utf-8")
    with pytest.raises(BenchConfigError, match="older layout"):
        run_benchmark(dataset, db_root, out_dir=out,
                      backends=gold_backends())
    with pytest.raises(BenchConfigError, match="older layout"):
        recompute_report(out)
    assert sorted(path.name for path in out.iterdir()) == ["items"]


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
    for name in ("report.json", "items.jsonl"):
        assert ((serial / name).read_bytes()
                == (threaded / name).read_bytes()), name


def opened_connections(monkeypatch) -> list:
    """(thread id, path, connection) of every ReadOnlyConnections.get."""
    opened = []
    original = selector.ReadOnlyConnections.get

    def recording(self, path):
        conn = original(self, path)
        opened.append((threading.get_ident(), path, conn))
        return conn

    monkeypatch.setattr(selector.ReadOnlyConnections, "get", recording)
    return opened


def three_database_dataset(tmp_path, repeats=3):
    db_root = tmp_path / "databases"
    rows = []
    for db_id in ("school", "school2", "school3"):
        (db_root / db_id).mkdir(parents=True)
        build_school_db(db_root / db_id / f"{db_id}.sqlite")
        for _ in range(repeats):
            for question, gold in GOLDS.items():
                rows.append({"question_id": len(rows), "question": question,
                             "db_id": db_id, "SQL": gold,
                             "difficulty": DIFFICULTY[question]})
    dataset = tmp_path / "dev.json"
    dataset.write_text(json.dumps(rows), encoding="utf-8")
    return dataset, db_root


def test_shared_connections_under_item_concurrency(tmp_path, monkeypatch):
    dataset, db_root = three_database_dataset(tmp_path)
    serial = run_benchmark(dataset, db_root, out_dir=tmp_path / "serial",
                           settings=RunSettings(items_concurrency=1))
    opened = opened_connections(monkeypatch)
    reports = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        worker = threading.Thread(target=lambda: reports.append(
            run_benchmark(dataset, db_root, out_dir=tmp_path / "threaded",
                          settings=RunSettings(items_concurrency=8))))
        worker.start()
        worker.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not worker.is_alive()
    assert reports and reports[0]["records"] == serial["records"]
    assert serial["ex"] == 1.0
    connections = {}
    for thread, path, conn in opened:
        assert connections.setdefault((thread, path), conn) is conn
    assert len({path for _, path in connections}) == 3
    assert all(is_closed(conn) for conn in connections.values())


@pytest.mark.parametrize("concurrency", [1, 3])
def test_connections_close_when_an_item_raises(bench_env, tmp_path,
                                               monkeypatch, concurrency):
    dataset, db_root = bench_env
    opened = opened_connections(monkeypatch)
    original = bench.run_item

    def failing(item, *args):
        record = original(item, *args)
        if item.question_id == "1":
            raise RuntimeError("item failed")
        return record

    monkeypatch.setattr(bench, "run_item", failing)
    with pytest.raises(RuntimeError, match="item failed"):
        run_benchmark(dataset, db_root, out_dir=tmp_path / "run",
                      settings=RunSettings(items_concurrency=concurrency),
                      backends=gold_backends())
    assert opened
    assert all(is_closed(conn) for _, _, conn in opened)


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
        reports.append(((out / "report.json").read_bytes(),
                        (out / "items.jsonl").read_bytes()))
        assert report["ex"] == 1.0
        assert report["pass_at_k"] == 1.0
    assert reports[0] == reports[1]


def test_resume_reuses_records_under_any_spelling_of_the_cassette(
        bench_env, tmp_path, monkeypatch, ran_items):
    """Resume keys on the cassette file, not on how its path is written."""
    dataset, db_root = bench_env
    cassette_path, config = record_cassette(dataset, db_root, tmp_path)
    ran_items.clear()
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "run"
    spellings = ["tape.jsonl", "./tape.jsonl", str(cassette_path),
                 f"../{tmp_path.name}/tape.jsonl"]
    reports = []
    for cassette in spellings:
        settings = RunSettings(mode="replay", cassette=cassette,
                               gateway=config)
        reports.append(run_benchmark(dataset, db_root, out_dir=out,
                                     settings=settings)["records"])
    assert ran_items == ["0", "1", "2"]
    assert all(records == reports[0] for records in reports)


def test_settings_digest_without_cassette_ignores_the_working_directory(
        tmp_path, monkeypatch):
    digests = []
    for where in (tmp_path, tmp_path.parent):
        monkeypatch.chdir(where)
        digests.append(bench._settings_digest(RunSettings()))
    assert digests[0] == digests[1]


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


@pytest.mark.parametrize("concurrency", [1, 3])
def test_record_run_closes_cassette_when_an_item_raises(
        bench_env, tmp_path, monkeypatch, concurrency):
    dataset, db_root = bench_env
    path = tmp_path / "tape.jsonl"
    config = GatewayConfig(endpoint="https://example.invalid/v1",
                           model="stub")
    gateway = LlmGateway(config, mode="record", cassette=Cassette(path),
                         transport=TransportOracle(GOLDS), api_key="k")
    real_run_item = bench.run_item

    def failing_run_item(*args):
        real_run_item(*args)
        raise RuntimeError("item failed after recording")

    monkeypatch.setattr(bench, "run_item", failing_run_item)
    with pytest.raises(RuntimeError, match="item failed"):
        run_benchmark(dataset, db_root, out_dir=tmp_path / "record",
                      settings=RunSettings(mode="record", cassette=str(path),
                                           gateway=config,
                                           items_concurrency=concurrency),
                      backends=llm_backends(gateway))
    assert gateway.cassette._handle is None
    assert len(Cassette(path)) == len(gateway.cassette) > 0


@pytest.mark.parametrize("item_raises", [False, True])
def test_record_run_stops_its_call_pool(bench_env, tmp_path, monkeypatch,
                                        item_raises):
    dataset, db_root = bench_env
    path = tmp_path / "tape.jsonl"
    config = GatewayConfig(endpoint="https://example.invalid/v1",
                           model="stub")
    oracle = BranchingOracle(GOLDS)
    gateway = LlmGateway(config, mode="record", cassette=Cassette(path),
                         transport=oracle, api_key="k")
    if item_raises:
        real_run_item = bench.run_item

        def failing_run_item(*args):
            real_run_item(*args)
            raise RuntimeError("item failed after recording")

        monkeypatch.setattr(bench, "run_item", failing_run_item)
    before = gateway_pool_threads()
    settings = RunSettings(mode="record", cassette=str(path),
                           gateway=config, items_concurrency=2)
    if item_raises:
        with pytest.raises(RuntimeError, match="item failed"):
            run_benchmark(dataset, db_root, out_dir=tmp_path / "record",
                          settings=settings, backends=llm_backends(gateway))
    else:
        report = run_benchmark(dataset, db_root, out_dir=tmp_path / "record",
                               settings=settings,
                               backends=llm_backends(gateway))
        assert report["ex"] == 1.0
    pooled = gateway_pool_threads(oracle.threads)
    assert pooled, "no call ran on the gateway's pool"
    assert not any(thread.is_alive() for thread in pooled)
    assert gateway_pool_threads() - before == set()
    assert gateway.cassette._handle is None


def test_record_runs_write_identical_reports(bench_env, tmp_path):
    """A record run's report is a function of its records: two runs whose
    transport answers with different delays write the same report and
    item journal bytes."""
    dataset, db_root = bench_env
    config = GatewayConfig(endpoint="https://example.invalid/v1",
                           model="stub")
    reports = []
    for run, delay in enumerate((0.0, 0.003)):
        oracle = TransportOracle(GOLDS)

        def transport(prompt, config, api_key, delay=delay):
            time.sleep(delay)
            return oracle(prompt, config, api_key)

        # one cassette path, so that both runs have the same settings
        path = tmp_path / "tape.jsonl"
        path.unlink(missing_ok=True)
        gateway = LlmGateway(config, mode="record", cassette=Cassette(path),
                             transport=transport, api_key="k")
        out = tmp_path / f"record{run}"
        run_benchmark(dataset, db_root, out_dir=out,
                      settings=RunSettings(mode="record", cassette=str(path),
                                           gateway=config,
                                           items_concurrency=2),
                      backends=llm_backends(gateway))
        reports.append(((out / "report.json").read_bytes(),
                        (out / "items.jsonl").read_bytes()))
    assert reports[0] == reports[1]


def test_replay_usage_matches_record_usage(bench_env, tmp_path):
    dataset, db_root = bench_env
    cassette_path, config = record_cassette(dataset, db_root, tmp_path)
    recorded = json.loads(
        (tmp_path / "record" / "report.json").read_text(encoding="utf-8"))
    settings = RunSettings(mode="replay", cassette=str(cassette_path),
                           gateway=config)
    report = run_benchmark(dataset, db_root, out_dir=tmp_path / "replay",
                           settings=settings)
    assert report["usage"] == recorded["usage"]
    assert report["usage"]
    for totals in report["usage"].values():
        assert set(totals) == {"calls", "prompt_tokens", "completion_tokens"}
        assert totals["calls"] >= 1
        assert totals["prompt_tokens"] >= totals["calls"]


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
    out = tmp_path / "run"
    report = run_benchmark(dataset, db_root, out_dir=out,
                           backends=gold_backends())
    summary = aggregate(report["records"], report["usage"])
    assert summary == json.loads((out / "report.json").read_text())
    assert summary | {"records": report["records"]} == report


SUMMARY_KEYS = {"format", "version", "items", "ex", "pass_at_k", "flagged",
                "per_difficulty", "usage"}


def test_report_file_holds_the_summary_only(bench_env, tmp_path):
    """report.json holds the run summary and no records: the item journal
    is the only file that holds them. The returned dict adds them."""
    dataset, db_root = bench_env
    cassette_path, config = record_cassette(dataset, db_root, tmp_path)
    out = tmp_path / "replay"
    report = run_benchmark(dataset, db_root, out_dir=out,
                           settings=RunSettings(mode="replay",
                                                cassette=str(cassette_path),
                                                gateway=config))
    text = (out / "report.json").read_text(encoding="utf-8")
    on_disk = json.loads(text)
    assert set(on_disk) == SUMMARY_KEYS
    assert on_disk["usage"]
    assert set(report) == SUMMARY_KEYS | {"records"}
    assert {key: report[key] for key in SUMMARY_KEYS} == on_disk
    assert text == json.dumps(on_disk, sort_keys=True, ensure_ascii=False,
                              indent=2) + "\n"
    assert report["records"] == [line["record"]
                                 for line in journal_lines(out)[1:]]
    assert recompute_report(out) == report


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
