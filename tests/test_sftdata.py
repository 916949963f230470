"""Dataset synthesis: corruption operators, schema pruning, builds."""

import hashlib
import json
import random

import pytest

from fixtures.sftcorpus import build_corpus, school_profile
from skelsearch import sftdata, sqlast
from skelsearch.sftdata import (
    OPERATORS,
    BuildSummary,
    CorruptionError,
    DatasetBuildError,
    UnresolvedReference,
    _op_clause_deletion,
    _op_clause_insertion,
    _op_join_toggle,
    _op_keyword_substitution,
    _op_nesting_flattening,
    _op_nesting_injection,
    _op_placeholder_retyping,
    build_dataset,
    corrupt_skeleton,
    load_dataset,
    prune_demonstration_schema,
    template_analysis,
)
from skelsearch.skeleton import GranularityLevel, extract_skeleton, parse_query

B = GranularityLevel.BASE
E = GranularityLevel.EXPANDED
D = GranularityLevel.DETAILED

CORPUS = build_corpus()
PROFILE = school_profile()


def sk(sql, level):
    return extract_skeleton(parse_query(sql), level)


def reparses(text):
    parse_query(text)
    return True


# Individual operators


def test_keyword_substitution_reaches_spec_example():
    tokens = "SELECT _ FROM _ WHERE _".split(" ")
    outputs = set()
    for seed in range(60):
        result = _op_keyword_substitution(tokens, B, random.Random(seed))
        outputs.add(" ".join(result[0]))
    assert "SELECT _ FROM _ GROUP BY _" in outputs


def test_clause_deletion_removes_where():
    tokens = "SELECT _ FROM _ WHERE _".split(" ")
    out, detail = _op_clause_deletion(tokens, B, random.Random(0))
    assert " ".join(out) == "SELECT _ FROM _"
    assert detail == "deleted WHERE"


def test_clause_deletion_takes_offset_with_limit():
    tokens = "SELECT _ FROM _ LIMIT _ OFFSET _".split(" ")
    for seed in range(20):
        out, detail = _op_clause_deletion(tokens, B, random.Random(seed))
        text = " ".join(out)
        assert "OFFSET" not in text or "LIMIT" in text
        assert reparses(text)


def test_clause_insertion_parses():
    tokens = "SELECT _ FROM _".split(" ")
    seen = set()
    for seed in range(20):
        out, detail = _op_clause_insertion(tokens, B, random.Random(seed))
        text = " ".join(out)
        assert reparses(text)
        seen.add(detail)
    assert "inserted WHERE" in seen
    assert "inserted LIMIT" in seen


def test_nesting_flattening_reduces_depth():
    gold = sk("SELECT a FROM t WHERE b IN (SELECT c FROM u)", E)
    assert gold.nesting_depth == 1
    out, _ = _op_nesting_flattening(gold.text.split(" "), E,
                                    random.Random(0))
    text = " ".join(out)
    flattened = extract_skeleton(parse_query(text), E)
    assert flattened.nesting_depth == gold.nesting_depth - 1
    assert text == "SELECT _ FROM _ WHERE _"


def test_nesting_flattening_detailed_scalar():
    gold = sk("SELECT a FROM t WHERE b = (SELECT MAX(c) FROM u)", D)
    out, _ = _op_nesting_flattening(gold.text.split(" "), D,
                                    random.Random(0))
    text = " ".join(out)
    assert "( SELECT" not in text
    assert reparses(text)


def test_nesting_flattening_inapplicable_on_flat():
    assert _op_nesting_flattening("SELECT _ FROM _".split(" "), B,
                                  random.Random(0)) is None


def test_nesting_injection_on_base_where():
    tokens = "SELECT _ FROM _ WHERE _".split(" ")
    out, _ = _op_nesting_injection(tokens, B, random.Random(0))
    text = " ".join(out)
    assert "( SELECT" in text
    assert reparses(text)


def test_placeholder_retyping_changes_one_slot():
    gold = sk("SELECT a FROM t WHERE b = 1", D)
    tokens = gold.text.split(" ")
    out, detail = _op_placeholder_retyping(tokens, D, random.Random(3))
    assert sum(a != b for a, b in zip(tokens, out)) == 1
    assert "->" in detail
    assert reparses(" ".join(out))


def test_placeholder_retyping_inapplicable_without_typed_slots():
    assert _op_placeholder_retyping("SELECT _ FROM _".split(" "), B,
                                    random.Random(0)) is None


def test_join_toggle_variants():
    detailed = sk("SELECT a FROM t JOIN u ON t.id = u.t_id", D)
    out, detail = _op_join_toggle(detailed.text.split(" "), D,
                                  random.Random(0))
    assert detail == "JOIN -> LEFT JOIN"
    assert "LEFT JOIN" in " ".join(out)
    back, detail = _op_join_toggle(out, D, random.Random(0))
    assert detail == "LEFT JOIN -> JOIN"
    flat = sk("SELECT a FROM t", D)
    out, detail = _op_join_toggle(flat.text.split(" "), D, random.Random(0))
    assert detail == "inserted JOIN"
    assert reparses(" ".join(out))
    assert _op_join_toggle("SELECT _ FROM _".split(" "), B,
                           random.Random(0)) is None


# corrupt_skeleton


def test_corrupt_skeleton_contract():
    gold = sk("SELECT a FROM t WHERE b = 1", D)
    text, recipe = corrupt_skeleton(gold, random.Random(5))
    again, _ = corrupt_skeleton(gold, random.Random(5))
    assert text == again
    assert text != gold.text
    assert reparses(text)
    assert 1 <= len(recipe) <= 2
    assert all(step["operator"] in OPERATORS for step in recipe)


def test_corrupt_skeleton_sweep_over_corpus():
    for i, (question, gold_sql, _) in enumerate(CORPUS):
        tree = parse_query(gold_sql)
        for level in (B, E, D):
            gold = extract_skeleton(tree, level)
            text, recipe = corrupt_skeleton(gold, random.Random(i))
            assert text != gold.text
            assert reparses(text)
            assert recipe


# Schema pruning


def prune(sql):
    return prune_demonstration_schema(PROFILE, parse_query(sql))


def test_prune_single_table():
    pruned = prune("SELECT name FROM students WHERE year > 2021")
    assert [t.name for t in pruned.tables] == ["students"]
    assert pruned.tables[0].column_names() == ["id", "name", "year"]
    assert pruned.foreign_keys == []


def test_prune_drops_unreferenced_columns():
    pruned = prune("SELECT course FROM grades")
    assert [t.name for t in pruned.tables] == ["grades"]
    assert pruned.tables[0].column_names() == ["course"]


def test_prune_join_keeps_fk_columns():
    pruned = prune("SELECT students.name, grades.score FROM students JOIN "
                   "grades ON students.id = grades.student_id")
    names = {t.name: t.column_names() for t in pruned.tables}
    assert set(names) == {"students", "grades"}
    assert "id" in names["students"]
    assert "student_id" in names["grades"]
    assert len(pruned.foreign_keys) == 1


def test_prune_fk_columns_kept_even_when_unreferenced():
    pruned = prune("SELECT students.name, grades.score FROM students "
                   "JOIN grades ON students.id = grades.student_id "
                   "WHERE score > 1")
    names = {t.name: t.column_names() for t in pruned.tables}
    assert "student_id" in names["grades"]


def test_prune_star_keeps_all_columns():
    pruned = prune("SELECT * FROM grades")
    assert pruned.tables[0].column_names() == ["student_id", "course",
                                               "score"]


def test_prune_alias_resolution():
    pruned = prune("SELECT s.name FROM students AS s")
    assert pruned.tables[0].column_names() == ["id", "name"]


def test_prune_derived_alias_is_not_an_error():
    pruned = prune("SELECT t.course FROM (SELECT course FROM grades) t")
    assert [t.name for t in pruned.tables] == ["grades"]


def test_prune_unknown_column_raises():
    with pytest.raises(UnresolvedReference):
        prune("SELECT ghost FROM students")
    with pytest.raises(UnresolvedReference):
        prune("SELECT students.ghost FROM students")


def test_prune_unknown_table_raises():
    with pytest.raises(UnresolvedReference):
        prune("SELECT a FROM ghost")


# Dataset builds


def read_lines(path):
    return path.read_text(encoding="utf-8").splitlines()


def test_build_dataset_balanced_and_valid(tmp_path):
    out = tmp_path / "sft.jsonl"
    summary = build_dataset(CORPUS, out, pairs_per_level=20, seed=7)
    assert isinstance(summary, BuildSummary)
    assert summary.examples == 120
    for level in ("base", "expanded", "detailed"):
        assert summary.per_level[level]["positive"] == 20
        assert summary.per_level[level]["negative"] == 20
    lines = read_lines(out)
    header = json.loads(lines[0])
    assert header["format"] == "sft-dataset"
    assert header["version"] == 1
    assert header["examples"] == 120
    gold_map = {question: gold for question, gold, _ in CORPUS}
    level_order = {"base": 1, "expanded": 2, "detailed": 3}
    previous = (0, -1)
    for line in lines[1:]:
        record = json.loads(line)
        key = (level_order[record["level"]], record["index"])
        assert key > previous
        previous = key
        assert reparses(record["skeleton"])
        gold_text = extract_skeleton(
            parse_query(gold_map[record["question"]]),
            GranularityLevel.from_name(record["level"])).text
        if record["label"]:
            assert record["skeleton"] == gold_text
            assert record["recipe"] == []
        else:
            assert record["skeleton"] != gold_text
            assert record["recipe"]
            for step in record["recipe"]:
                assert step["operator"] in OPERATORS
        assert set(record["analysis"]) == {"question", "skeleton",
                                           "alignment"}
        assert "【DB_ID】" in record["schema"]


def test_build_dataset_bit_identical(tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    build_dataset(CORPUS, a, pairs_per_level=6, seed=3)
    build_dataset(CORPUS, b, pairs_per_level=6, seed=3)
    assert a.read_bytes() == b.read_bytes()


# The first half of the sha256 of a build's file bytes followed by its
# summary's counts and skips, for (seed, pairs_per_level): a seeded build
# is a fixed function of the corpus, so any change to what a build
# writes shows here.
PINNED_BUILDS = {
    (0, 1): "40c5ae94f30f57d9d75b714018552218",
    (3, 6): "24261700dea59e278ecdeb9eb4600dcf",
    (5, 10): "4b259138b0fbd6178ec5fa9681d8a1b8",
    (7, 20): "f5417f3e399244c1798d2e87fc97eec8",
    (13, 3): "df6ba5837de2bb36c2e8797b77e106e5",
    (29, 7): "66724afa40881a302133b6ae6d4c4226",
}


@pytest.mark.parametrize(("seed", "pairs"), sorted(PINNED_BUILDS))
def test_build_dataset_bytes_pinned(tmp_path, seed, pairs):
    out = tmp_path / "sft.jsonl"
    summary = build_dataset(CORPUS, out, pairs_per_level=pairs, seed=seed)
    assert summary.path == str(out)
    digest = hashlib.sha256(out.read_bytes())
    digest.update(json.dumps([summary.examples, summary.per_level,
                              summary.skipped], sort_keys=True).encode())
    assert digest.hexdigest()[:32] == PINNED_BUILDS[seed, pairs]


def test_build_dataset_parses_each_gold_once(tmp_path, monkeypatch):
    parsed = []
    parse = sqlast.parse

    def counting_parse(text, *args, **kwargs):
        parsed.append(text)
        return parse(text, *args, **kwargs)

    monkeypatch.setattr(sqlast, "parse", counting_parse)
    build_dataset(CORPUS, tmp_path / "sft.jsonl", pairs_per_level=2, seed=0)
    golds = [gold for _, gold, _ in CORPUS]
    assert {gold: parsed.count(gold) for gold in golds} == \
        dict.fromkeys(golds, 1)


def test_build_dataset_seed_changes_bytes(tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    build_dataset(CORPUS, a, pairs_per_level=6, seed=3)
    build_dataset(CORPUS, b, pairs_per_level=6, seed=4)
    assert a.read_bytes() != b.read_bytes()


def test_build_fails_below_minimum_yield(tmp_path, monkeypatch):
    def refuse(gold, rnd):
        raise CorruptionError("no corruption")

    monkeypatch.setattr(sftdata, "corrupt_skeleton", refuse)
    with pytest.raises(DatasetBuildError):
        build_dataset(CORPUS, tmp_path / "x.jsonl", pairs_per_level=2,
                      seed=0)


def test_build_dataset_validation(tmp_path):
    with pytest.raises(ValueError):
        build_dataset([], tmp_path / "x.jsonl")
    with pytest.raises(ValueError):
        build_dataset(CORPUS, tmp_path / "x.jsonl", pairs_per_level=0)


def test_load_dataset_roundtrip(tmp_path):
    out = tmp_path / "sft.jsonl"
    summary = build_dataset(CORPUS, out, pairs_per_level=4, seed=2)
    records = load_dataset(out)
    assert len(records) == summary.examples
    assert all("skeleton" in record for record in records)
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"format": "other"}\n', encoding="utf-8")
    with pytest.raises(ValueError):
        load_dataset(bad)


def test_template_annotator_is_deterministic():
    first = template_analysis("q?", "SELECT _ FROM _", B, True)
    second = template_analysis("q?", "SELECT _ FROM _", B, True)
    assert first == second
    assert len(first) == 3


def test_corruption_error_bubbles_message(monkeypatch):
    gold = sk("SELECT a FROM t", B)
    monkeypatch.setattr(sftdata, "CORRUPTION_ATTEMPTS", 0)
    with pytest.raises(CorruptionError):
        corrupt_skeleton(gold, random.Random(0))
