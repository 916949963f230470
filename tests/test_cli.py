"""Command-line behavior: outputs, exit codes, file side effects."""

import argparse
import json
import re
from pathlib import Path
from types import SimpleNamespace

import pytest

from conftest import build_school_db, gateway_pool_threads
from fixtures.livestub import BranchingOracle
from skelsearch import bench, cli, gateway
from skelsearch.bench import run_benchmark
from skelsearch.cli import main
from skelsearch.gateway import Cassette
from skelsearch.skeleton import GranularityLevel, extract_skeleton, parse_query

GOLD = "SELECT name FROM students WHERE year = 2021"
QUESTION = "Which students enrolled in 2021?"


@pytest.fixture
def env(tmp_path):
    db_root = tmp_path / "databases"
    (db_root / "school").mkdir(parents=True)
    db = build_school_db(db_root / "school" / "school.sqlite")
    dataset = tmp_path / "dev.json"
    dataset.write_text(json.dumps([
        {"question_id": 0, "question": QUESTION, "db_id": "school",
         "SQL": GOLD, "difficulty": "simple"},
        {"question_id": 1, "question": "How many students are there?",
         "db_id": "school", "SQL": "SELECT COUNT(*) FROM students",
         "difficulty": "simple"},
    ]), encoding="utf-8")
    return {"db": str(db), "db_root": str(db_root),
            "dataset": str(dataset), "tmp": tmp_path}


@pytest.fixture
def profile_calls(monkeypatch):
    """The paths `bench.profile_from_sqlite` is asked to profile."""
    calls, profile = [], bench.profile_from_sqlite

    def counted(path, *args, **kwargs):
        calls.append(path)
        return profile(path, *args, **kwargs)

    monkeypatch.setattr(bench, "profile_from_sqlite", counted)
    return calls


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_extract_skeleton_all_levels(capsys):
    code, out, _ = run_cli(capsys, "extract-skeleton", "--sql", GOLD)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    tree = parse_query(GOLD)
    for line, level in zip(lines, GranularityLevel):
        name, _, text = line.partition(": ")
        assert name == level.label
        assert text == extract_skeleton(tree, level).text


def test_extract_skeleton_single_level(capsys):
    code, out, _ = run_cli(capsys, "extract-skeleton", "--sql", GOLD,
                           "--level", "base")
    assert code == 0
    assert out.strip() == "base: SELECT _ FROM _ WHERE _"


def test_extract_skeleton_bad_sql_exits_2(capsys):
    code, _, err = run_cli(capsys, "extract-skeleton", "--sql", "SELEC")
    assert code == 2
    assert "error:" in err


def test_schema_subcommand(capsys, env):
    code, out, _ = run_cli(capsys, "schema", "--db", env["db"])
    assert code == 0
    assert out.startswith("【DB_ID】 school")
    assert "# Table: students" in out


def test_schema_missing_db_exits_2(capsys, env):
    code, _, err = run_cli(capsys, "schema", "--db",
                           str(env["tmp"] / "none.sqlite"))
    assert code == 2


def test_run_and_stats(capsys, env):
    out_dir = str(env["tmp"] / "run")
    code, out, _ = run_cli(capsys, "run", "--dataset", env["dataset"],
                           "--db-root", env["db_root"], "--out", out_dir)
    assert code == 0
    assert "items=2 ex=1.0000 pass@k=1.0000" in out
    code, out, _ = run_cli(capsys, "stats", "--run-dir", out_dir)
    assert code == 0
    payload = json.loads(out)
    assert payload["ex"] == 1.0
    assert payload["per_difficulty"]["simple"]["count"] == 2
    assert payload["pass_at_k"] == 1.0
    assert payload["flagged"] == []


def test_stats_prints_the_numbers_of_the_records(capsys, env):
    """`stats` prints the aggregate of the journal's records (pinned from
    a run whose report.json also held the records); the report file, now
    the summary alone, adds no number to them."""
    rows = json.loads(Path(env["dataset"]).read_text(encoding="utf-8"))
    rows.append({"question_id": 2, "question": "Which value?",
                 "db_id": "school", "difficulty": "hard",
                 "SQL": "WITH x AS (SELECT 1) SELECT * FROM x"})
    dataset = env["tmp"] / "three.json"
    dataset.write_text(json.dumps(rows), encoding="utf-8")
    out_dir = str(env["tmp"] / "run")
    assert run_cli(capsys, "run", "--dataset", str(dataset), "--db-root",
                   env["db_root"], "--out", out_dir)[0] == 0
    per_difficulty = {
        "hard": {"count": 1, "ex": 0.0, "pass_at_k": 0.0,
                 "mean_candidates": 0.0,
                 "granularity": {"base": 0.0, "expanded": 0.0,
                                 "detailed": 0.0}},
        "simple": {"count": 2, "ex": 1.0, "pass_at_k": 1.0,
                   "mean_candidates": 1.0,
                   "granularity": {"base": 0.0, "expanded": 0.0,
                                   "detailed": 1.0}},
    }
    stats = {"items": 3, "complete": True, "ex": 2 / 3, "pass_at_k": 2 / 3,
             "flagged": ["2"], "per_difficulty": per_difficulty}
    code, out, _ = run_cli(capsys, "stats", "--run-dir", out_dir)
    assert code == 0
    assert out == json.dumps(stats, indent=2, sort_keys=True,
                             ensure_ascii=False) + "\n"


def test_stats_says_when_a_run_is_incomplete(capsys, env, monkeypatch):
    """A run stopped after its first item leaves a journal cut short and
    no report, also where an earlier run had finished: `stats` prints
    the partial aggregate and `complete` false."""
    out_dir = env["tmp"] / "run"
    assert run_cli(capsys, "run", "--dataset", env["dataset"], "--db-root",
                   env["db_root"], "--out", str(out_dir))[0] == 0
    payload = json.loads(run_cli(capsys, "stats", "--run-dir",
                                 str(out_dir))[1])
    assert (payload["items"], payload["complete"]) == (2, True)
    journal = out_dir / "items.jsonl"
    journal.write_bytes(b"".join(journal.read_bytes()
                                 .splitlines(keepends=True)[:2]))

    def stopped(*_):
        raise KeyboardInterrupt

    monkeypatch.setattr(bench, "run_item", stopped)
    with pytest.raises(KeyboardInterrupt):
        run_benchmark(env["dataset"], env["db_root"], out_dir=out_dir)
    assert not (out_dir / "report.json").exists()
    code, out, _ = run_cli(capsys, "stats", "--run-dir", str(out_dir))
    payload = json.loads(out)
    assert code == 0
    assert (payload["items"], payload["complete"]) == (1, False)
    assert payload["ex"] == 1.0


def test_run_bad_dataset_exits_2(capsys, env):
    code, _, err = run_cli(capsys, "run", "--dataset",
                           str(env["tmp"] / "nope.json"),
                           "--db-root", env["db_root"])
    assert code == 2
    assert "error:" in err


def test_run_empty_dataset_exits_2(capsys, env):
    dataset = env["tmp"] / "empty.json"
    dataset.write_text("[]", encoding="utf-8")
    out_dir = env["tmp"] / "run"
    code, out, err = run_cli(capsys, "run", "--dataset", str(dataset),
                             "--db-root", env["db_root"],
                             "--out", str(out_dir))
    assert code == 2
    assert "no items" in err
    assert out == ""
    assert not (out_dir / "report.json").exists()


def test_run_unreadable_database_exits_2(capsys, env):
    """A database file that SQLite cannot read is a configuration error
    that names the database, raised when the first item that needs it
    starts, so no record and no report is written."""
    database = env["tmp"] / "databases" / "school" / "school.sqlite"
    database.write_bytes(b"not a database" * 100)
    out_dir = env["tmp"] / "run"
    code, out, err = run_cli(capsys, "run", "--dataset", env["dataset"],
                             "--db-root", env["db_root"],
                             "--out", str(out_dir))
    assert code == 2
    assert f"cannot open database {database}" in err
    assert out == ""
    assert not (out_dir / "items.jsonl").exists()
    assert not (out_dir / "report.json").exists()


@pytest.mark.parametrize("field,value", [
    ("db_id", 5), ("SQL", 5), ("question", 7)])
def test_run_dataset_field_of_wrong_type_exits_2(capsys, env, field, value):
    """A dataset field that is not a string is a configuration error that
    names the item and the field, raised before the run writes anything."""
    rows = json.loads(Path(env["dataset"]).read_text(encoding="utf-8"))
    rows[1][field] = value
    Path(env["dataset"]).write_text(json.dumps(rows), encoding="utf-8")
    out_dir = env["tmp"] / "run"
    code, out, err = run_cli(capsys, "run", "--dataset", env["dataset"],
                             "--db-root", env["db_root"],
                             "--out", str(out_dir))
    assert code == 2
    assert f"item 1 field {field} must be a non-empty string" in err
    assert out == ""
    assert not out_dir.exists()


def test_run_bad_config_exits_2(capsys, env):
    config = env["tmp"] / "config.yaml"
    config.write_text("mode: banana\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "run", "--dataset", env["dataset"],
                           "--db-root", env["db_root"],
                           "--config", str(config))
    assert code == 2


def test_run_gateway_concurrency_key_exits_2(capsys, env):
    # items_concurrency is the only concurrency setting; the gateway's
    # own cap is gone, so naming it is a bad config field.
    config = env["tmp"] / "config.yaml"
    config.write_text("mode: replay\ncassette: tape.jsonl\n"
                      "gateway: {concurrency: 4}\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "run", "--dataset", env["dataset"],
                             "--db-root", env["db_root"],
                             "--config", str(config))
    assert code == 2
    assert "bad config field" in err
    assert out == ""


@pytest.mark.parametrize("snippet", [
    "limits: {timeout: .nan}",
    "limits: {timeout: .inf}",
    "limits: {row_cap: 2.5}",
    "search: {m: 2.5}",
    "search: {m: true}",
    "search: {expanded_cap: 1.5}",
    "items_concurrency: 1.5",
    "items_concurrency: true",
    "gateway: {temperature: .nan}",
    "gateway: {timeout: .nan}",
    "gateway: {timeout: .inf}",
    "gateway: {max_tokens: 0}",
    "gateway: {max_tokens: 1.5}",
    "gateway: {retries: -1}",
    "gateway: {retries: true}",
    "limits: {timeout: true}",
    "gateway: {timeout: true}",
    "gateway: {temperature: true}",
    "gateway: {temperature: false}",
    "gateway: {backoff_base: abc}",
    "gateway: {backoff_base: -1}",
    "gateway: {backoff_base: .nan}",
    "gateway: {backoff_base: .inf}",
    "gateway: {backoff_base: true}",
    "mode: record\ncassette: new.jsonl\ngateway: {backoff_base: abc}",
    "mode: replay\ncassette: tape.jsonl\ngateway: {api_key_env: 5}",
    "gateway: {endpoint: 5}",
    "gateway: {model: [m]}",
    "cassette: 5",
    "cassette: [a.jsonl]",
    "mode: replay\ncassette: 5",
    "mode: record\ncassette: [a.jsonl, b.jsonl]",
    "mdoe: replay",
    "item_concurrency: 4",
    "gateway:",
    "limits: 5",
    "gateway: {temperature: abc}",
    "gateway: {timeout: abc}",
    "limits: {timeout: abc}",
])
def test_run_config_value_out_of_range_exits_2(capsys, env, monkeypatch,
                                              snippet):
    """A value that would switch a limit off or fail every item is a
    configuration error, raised before the run writes anything."""
    # relative cassette paths resolve in tmp, where tape.jsonl is a valid
    # empty cassette, so a replay gets past its cassette check
    monkeypatch.chdir(env["tmp"])
    (env["tmp"] / "tape.jsonl").touch()
    config = env["tmp"] / "config.yaml"
    config.write_text(snippet + "\n", encoding="utf-8")
    out_dir = env["tmp"] / "run"
    code, out, err = run_cli(capsys, "run", "--dataset", env["dataset"],
                             "--db-root", env["db_root"],
                             "--out", str(out_dir), "--config", str(config))
    assert code == 2
    assert err.startswith("error: ")
    # the message names the innermost key of the snippet's last line, as
    # a word of its own (not within a dotted name such as a module path)
    key = re.findall(r"(\w+):", snippet.splitlines()[-1])[-1]
    assert re.search(rf"(?<![\w.]){key}(?![\w.])", err)
    assert out == ""
    assert not out_dir.exists()
    assert not (env["tmp"] / "new.jsonl").exists()


@pytest.mark.parametrize("command", ["run", "search"])
def test_replay_without_cassette_exits_2(capsys, env, profile_calls,
                                         command):
    """A replay whose cassette file does not exist is a configuration
    error, raised before the run writes anything or profiles a
    database."""
    config = env["tmp"] / "config.yaml"
    config.write_text("mode: replay\ncassette: nope.jsonl\n",
                      encoding="utf-8")
    out_dir = env["tmp"] / "run"
    argv = (["run", "--dataset", env["dataset"], "--db-root",
             env["db_root"], "--out", str(out_dir)] if command == "run"
            else ["search", "--db", env["db"], "--question", QUESTION])
    code, out, err = run_cli(capsys, *argv, "--config", str(config))
    assert code == 2
    assert "no cassette at nope.jsonl" in err
    assert out == ""
    assert profile_calls == []
    assert not out_dir.exists()
    assert not Path("nope.jsonl").exists()


@pytest.mark.parametrize("command", ["run", "search"])
@pytest.mark.parametrize("mode,endpoint", [
    ("record", ""),
    ("live", ""),
    ("record", "api.example.com/v1"),
    ("live", "ftp://example.com/v1"),
    ("record", "http:///v1"),
    ("record", "http://example.com:port/v1"),
    ("record", "http://[::1/v1"),
])
def test_live_or_record_without_usable_endpoint_exits_2(
        capsys, env, profile_calls, monkeypatch, command, mode, endpoint):
    """A live or record run whose endpoint is no absolute http(s) URL with
    a host is a configuration error that names `gateway.endpoint`, raised
    before the run profiles a database or writes anything; not a run
    whose items all fail at the transport and read as empty searches."""
    monkeypatch.chdir(env["tmp"])
    config = env["tmp"] / "config.yaml"
    config.write_text(f"mode: {mode}\ncassette: tape.jsonl\n"
                      f"gateway: {{endpoint: {json.dumps(endpoint)}}}\n",
                      encoding="utf-8")
    out_dir = env["tmp"] / "run"
    argv = (["run", "--dataset", env["dataset"], "--db-root",
             env["db_root"], "--out", str(out_dir)] if command == "run"
            else ["search", "--db", env["db"], "--question", QUESTION])
    code, out, err = run_cli(capsys, *argv, "--config", str(config))
    assert code == 2
    assert err.startswith("error: gateway.endpoint: ")
    assert out == ""
    assert profile_calls == []
    assert not out_dir.exists()
    assert not (env["tmp"] / "tape.jsonl").exists()


def test_journal_with_the_dropped_keys_resumes(capsys, env, monkeypatch):
    """A journal written while records still held `candidate_count`,
    `trace.winner_sql`, each trace group's `size` and `cost.depth` is
    reused whole, and gives the report and stats of a fresh run."""
    fresh, old = env["tmp"] / "fresh", env["tmp"] / "old"
    run = ["run", "--dataset", env["dataset"], "--db-root", env["db_root"]]
    assert run_cli(capsys, *run, "--out", str(fresh))[0] == 0
    lines = (fresh / "items.jsonl").read_text(encoding="utf-8").splitlines()
    entries = [json.loads(line) for line in lines[1:]]
    for entry in entries:
        record = entry["record"]
        record["candidate_count"] = len(record["leaf_levels"])
        record["trace"]["winner_sql"] = record["final_sql"]
        for group in record["trace"]["groups"]:
            group["size"] = len(group["sqls"])
        record["cost"]["depth"] = len(record["cost"]["n_d"]) - 1
    old.mkdir()
    (old / "items.jsonl").write_text("\n".join(
        lines[:1] + [json.dumps(entry) for entry in entries]) + "\n",
        encoding="utf-8")
    monkeypatch.setattr(bench, "run_item", None)  # no item may run again
    assert run_cli(capsys, *run, "--out", str(old))[0] == 0
    assert ((old / "report.json").read_bytes()
            == (fresh / "report.json").read_bytes())
    assert (run_cli(capsys, "stats", "--run-dir", str(old))
            == run_cli(capsys, "stats", "--run-dir", str(fresh)))


def test_stats_missing_run_dir_exits_2(capsys, env):
    code, _, _ = run_cli(capsys, "stats", "--run-dir",
                         str(env["tmp"] / "nowhere"))
    assert code == 2


def test_search_with_gold(capsys, env):
    code, out, _ = run_cli(capsys, "search", "--db", env["db"],
                           "--question", QUESTION, "--gold", GOLD)
    assert code == 0
    assert out.startswith("id\tparent\tphase")
    payload = json.loads(out[out.index("{"):])
    assert payload["leaves"]
    assert payload["leaves"][-1]["level"] == "detailed"
    assert payload["cost"]["n_d"][0] == 1


def test_search_with_record_config_closes_cassette(capsys, env,
                                                   monkeypatch):
    tape = env["tmp"] / "tape.jsonl"
    config = env["tmp"] / "record.yaml"
    config.write_text(f"mode: record\ncassette: {tape}\n"
                      f"gateway:\n  endpoint: https://example.invalid/v1\n",
                      encoding="utf-8")
    oracle = BranchingOracle({QUESTION: GOLD})
    monkeypatch.setattr(gateway, "http_transport", oracle)
    built, build_backends = [], cli.build_backends

    def recording_build_backends(*args):
        built.append(build_backends(*args))
        return built[-1]

    monkeypatch.setattr(cli, "build_backends", recording_build_backends)
    code, out, _ = run_cli(capsys, "search", "--db", env["db"],
                           "--question", QUESTION, "--config", str(config))
    assert code == 0
    assert json.loads(out[out.index("{"):])["leaves"]
    cassette = built[0].gateway.cassette
    assert cassette._handle is None
    assert len(Cassette(tape)) == len(cassette) > 0
    pooled = gateway_pool_threads(oracle.threads)
    assert pooled, "no call ran on the gateway's pool"
    assert not any(thread.is_alive() for thread in pooled)


def test_search_closes_its_backends_when_profiling_fails(capsys, env,
                                                         monkeypatch):
    Path(env["db"]).write_bytes(b"not a database" * 100)
    closed = []
    gateway = SimpleNamespace(close=lambda: closed.append(True))
    monkeypatch.setattr(cli, "build_backends", lambda *_: bench.Backends(
        None, None, None, None, gateway))
    code, out, err = run_cli(capsys, "search", "--db", env["db"],
                             "--question", QUESTION, "--gold", GOLD)
    assert code == 2
    assert "cannot open database" in err
    assert out == ""
    assert closed == [True]


def test_search_without_gold_exits_2(capsys, env):
    code, _, err = run_cli(capsys, "search", "--db", env["db"],
                           "--question", QUESTION)
    assert code == 2


def test_select_majority(capsys, env):
    candidates = env["tmp"] / "candidates.json"
    candidates.write_text(json.dumps([
        GOLD,
        "SELECT name FROM students WHERE year = 2021",
        "SELECT name FROM students WHERE year = 2022",
    ]), encoding="utf-8")
    code, out, _ = run_cli(capsys, "select", "--db", env["db"],
                           "--candidates", str(candidates),
                           "--question", QUESTION)
    assert code == 0
    payload = json.loads(out)
    assert payload["final_sql"] == GOLD
    assert payload["trace"]["rule"] == "majority"
    assert len(payload["outcomes"]) == 3


def test_select_accepts_level_records(capsys, env):
    candidates = env["tmp"] / "candidates.json"
    candidates.write_text(json.dumps([
        {"sql": GOLD, "level": "detailed"},
        {"sql": "SELECT name FROM students WHERE year = 2022",
         "level": "base"},
    ]), encoding="utf-8")
    code, out, _ = run_cli(capsys, "select", "--db", env["db"],
                           "--candidates", str(candidates))
    assert code == 0
    assert json.loads(out)["final_sql"] == GOLD


def test_select_bad_candidates_exits_2(capsys, env):
    candidates = env["tmp"] / "candidates.json"
    candidates.write_text("[]", encoding="utf-8")
    code, _, _ = run_cli(capsys, "select", "--db", env["db"],
                         "--candidates", str(candidates))
    assert code == 2


@pytest.mark.parametrize("entry", [
    {"nope": 1},
    {"sql": 5},
    {"sql": "SELECT name FROM students", "level": 5},
    {"sql": "SELECT name FROM students", "level": None},
    "",
])
def test_select_entry_it_cannot_run_exits_2(capsys, env, entry):
    """An entry without a non-blank SQL string, or whose level is not the
    name of a level, is a configuration error that names the entry."""
    candidates = env["tmp"] / "candidates.json"
    candidates.write_text(json.dumps([GOLD, entry]), encoding="utf-8")
    code, out, err = run_cli(capsys, "select", "--db", env["db"],
                             "--candidates", str(candidates))
    assert code == 2
    assert out == ""
    assert f"bad candidate entry {entry!r}" in err


def test_select_parses_no_sql(capsys, env, parse_counts):
    """The vote reads each candidate's level from its entry, so `select`
    parses none of the candidates, unparsable ones included."""
    candidates = env["tmp"] / "candidates.json"
    candidates.write_text(json.dumps([
        {"sql": GOLD, "level": "base"}, "SELEC name", GOLD,
    ]), encoding="utf-8")
    code, out, _ = run_cli(capsys, "select", "--db", env["db"],
                           "--candidates", str(candidates))
    assert code == 0
    assert parse_counts["parse"] == 0
    payload = json.loads(out)
    assert payload["final_sql"] == GOLD
    assert [o["status"] for o in payload["outcomes"]] == [
        "rows", "error", "rows"]


def test_select_samples_no_database(capsys, env, profile_calls,
                                    monkeypatch):
    """Running the candidates reads only the database's path, so
    `select` profiles nothing and prints what it printed when it
    profiled the file first."""
    candidates = env["tmp"] / "candidates.json"
    candidates.write_text(json.dumps([
        GOLD, "SELECT name FROM students WHERE year = 2022", "SELEC name",
        "SELECT COUNT(*) FROM grades",
    ]), encoding="utf-8")
    argv = ["select", "--db", env["db"], "--candidates", str(candidates),
            "--question", QUESTION]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert profile_calls == []
    monkeypatch.setattr(cli, "open_database", bench.open_profile)
    assert run_cli(capsys, *argv) == (0, out, "")
    assert profile_calls == [env["db"]]


@pytest.mark.parametrize("database", ["missing", "not a database"])
def test_select_unreadable_database_exits_2(capsys, env, database):
    db = env["tmp"] / "other.sqlite"
    if database != "missing":
        db.write_bytes(b"not a database" * 100)
    candidates = env["tmp"] / "candidates.json"
    candidates.write_text(json.dumps([GOLD]), encoding="utf-8")
    code, out, err = run_cli(capsys, "select", "--db", str(db),
                             "--candidates", str(candidates))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot open database {db}: ")
    assert db.exists() == (database != "missing")


def test_select_bad_limits_exit_2(capsys, env):
    candidates = env["tmp"] / "candidates.json"
    candidates.write_text(json.dumps([GOLD]), encoding="utf-8")
    code, _, _ = run_cli(capsys, "select", "--db", env["db"],
                         "--candidates", str(candidates),
                         "--timeout", "0")
    assert code == 2


@pytest.mark.parametrize("case", ["bad JSON", "no SQL", "timeout 0",
                                  "pairs per level 0"])
def test_bad_input_exits_2_before_profiling(capsys, env, profile_calls,
                                            case):
    """`select` reads its candidates and limits, and `build-sft-data` its
    pair count, before it scans any database."""
    candidates = env["tmp"] / "candidates.json"
    candidates.write_text({"bad JSON": "[1", "no SQL": '[{"nope": 1}]'}
                          .get(case, json.dumps([GOLD])), encoding="utf-8")
    argv = ["select", "--db", env["db"], "--candidates", str(candidates)]
    if case == "timeout 0":
        argv += ["--timeout", "0"]
    elif case == "pairs per level 0":
        argv = ["build-sft-data", "--corpus", env["dataset"], "--db-root",
                env["db_root"], "--out", str(env["tmp"] / "x.jsonl"),
                "--pairs-per-level", "0"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ")
    assert out == ""
    assert profile_calls == []
    assert not (env["tmp"] / "x.jsonl").exists()


def test_build_sft_data(capsys, env):
    corpus = env["tmp"] / "corpus.json"
    corpus.write_text(json.dumps([
        {"question": QUESTION, "db_id": "school", "SQL": GOLD},
        {"question": "Average score per course?", "db_id": "school",
         "SQL": "SELECT course, AVG(score) FROM grades GROUP BY course"},
        {"question": "Names of graded students?", "db_id": "school",
         "SQL": ("SELECT name FROM students WHERE id IN "
                 "(SELECT student_id FROM grades)")},
    ]), encoding="utf-8")
    out_path = env["tmp"] / "sft.jsonl"
    code, out, _ = run_cli(capsys, "build-sft-data", "--corpus",
                           str(corpus), "--db-root", env["db_root"],
                           "--out", str(out_path),
                           "--pairs-per-level", "4", "--seed", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["examples"] == 24
    lines = out_path.read_text(encoding="utf-8").splitlines()
    assert json.loads(lines[0])["format"] == "sft-dataset"
    assert len(lines) == 25


def test_build_sft_data_reads_jsonl(capsys, env):
    corpus = env["tmp"] / "corpus.jsonl"
    corpus.write_text(json.dumps(
        {"question": QUESTION, "db_id": "school", "SQL": GOLD}) + "\n",
        encoding="utf-8")
    out_path = env["tmp"] / "sft.jsonl"
    code, out, _ = run_cli(capsys, "build-sft-data", "--corpus",
                           str(corpus), "--db-root", env["db_root"],
                           "--out", str(out_path),
                           "--pairs-per-level", "2", "--seed", "1")
    assert code == 0
    assert json.loads(out)["examples"] > 0


def test_build_sft_data_unknown_column_exits_2(capsys, env):
    corpus = env["tmp"] / "corpus.json"
    corpus.write_text(json.dumps([
        {"question": "q", "db_id": "school",
         "SQL": "SELECT ghost FROM students"},
    ]), encoding="utf-8")
    code, _, err = run_cli(capsys, "build-sft-data", "--corpus",
                           str(corpus), "--db-root", env["db_root"],
                           "--out", str(env["tmp"] / "x.jsonl"))
    assert code == 2
    assert "error:" in err


def test_build_sft_data_bad_corpus_exits_2(capsys, env):
    corpus = env["tmp"] / "corpus.json"
    corpus.write_text("[]", encoding="utf-8")
    code, _, _ = run_cli(capsys, "build-sft-data", "--corpus", str(corpus),
                         "--db-root", env["db_root"],
                         "--out", str(env["tmp"] / "x.jsonl"))
    assert code == 2


def test_readme_shows_each_subcommand():
    """Every `skelsearch <command>` in README's shell blocks names a
    subcommand, and every subcommand has an example there."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    blocks = "".join(re.findall(r"^```sh\n(.*?)^```", readme, re.M | re.S))
    shown = set(re.findall(r"^\s*skelsearch\s+(\S+)", blocks, re.M))
    commands = next(action.choices for action in cli.build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    assert shown == set(commands)
