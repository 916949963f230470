"""Skeleton extraction against the independent oracle and frozen anchors."""

import re

import pytest

from skelsearch import (
    GranularityLevel,
    LevelOrderError,
    SqlQuery,
    SqlSyntaxError,
    extract_skeleton,
    nesting_depth,
    parse_query,
    refinement_check,
)

from oracle_skeleton import oracle_depth, oracle_extract
from fixtures.corpus import CORPUS, DEPTH, FROZEN

LEVELS = {
    "base": GranularityLevel.BASE,
    "expanded": GranularityLevel.EXPANDED,
    "detailed": GranularityLevel.DETAILED,
}

ALLOWED_TOKEN = re.compile(
    r"_|\[col\]|\[tab\]|\[val\]|\[agg\]|[A-Z]+|[(),=!<>*/%+|.-]+")


def extract(sql, name):
    return extract_skeleton(parse_query(sql), LEVELS[name]).text


@pytest.mark.parametrize("sql", CORPUS)
@pytest.mark.parametrize("name", ["base", "expanded", "detailed"])
def test_matches_oracle(sql, name):
    assert extract(sql, name) == oracle_extract(sql, name)


@pytest.mark.parametrize("sql,triple", sorted(FROZEN.items()))
def test_frozen_anchor(sql, triple):
    base, expanded, detailed = triple
    assert extract(sql, "base") == base
    assert extract(sql, "expanded") == expanded
    assert extract(sql, "detailed") == detailed


@pytest.mark.parametrize("sql,triple", sorted(FROZEN.items()))
def test_oracle_agrees_with_frozen(sql, triple):
    base, expanded, detailed = triple
    assert oracle_extract(sql, "base") == base
    assert oracle_extract(sql, "expanded") == expanded
    assert oracle_extract(sql, "detailed") == detailed


@pytest.mark.parametrize("sql,depth", sorted(DEPTH.items()))
def test_depth_anchor(sql, depth):
    assert nesting_depth(parse_query(sql)) == depth
    assert oracle_depth(sql) == depth


@pytest.mark.parametrize("sql", CORPUS)
def test_depth_matches_oracle(sql):
    assert nesting_depth(parse_query(sql)) == oracle_depth(sql)


@pytest.mark.parametrize("sql", CORPUS)
def test_skeleton_depth_law(sql):
    tree = parse_query(sql)
    full = nesting_depth(tree)
    base = extract_skeleton(tree, GranularityLevel.BASE)
    expanded = extract_skeleton(tree, GranularityLevel.EXPANDED)
    detailed = extract_skeleton(tree, GranularityLevel.DETAILED)
    assert base.nesting_depth == 0
    assert expanded.nesting_depth == full
    assert detailed.nesting_depth == full


@pytest.mark.parametrize("sql", CORPUS)
def test_refinement_chain(sql):
    tree = parse_query(sql)
    base = extract_skeleton(tree, GranularityLevel.BASE)
    expanded = extract_skeleton(tree, GranularityLevel.EXPANDED)
    detailed = extract_skeleton(tree, GranularityLevel.DETAILED)
    assert refinement_check(base, expanded)
    assert refinement_check(expanded, detailed)
    assert refinement_check(base, detailed)
    assert refinement_check(base, base)
    assert refinement_check(detailed, detailed)


@pytest.mark.parametrize("sql", CORPUS)
def test_extraction_idempotent(sql):
    tree = parse_query(sql)
    for level in LEVELS.values():
        skeleton = extract_skeleton(tree, level)
        again = extract_skeleton(skeleton.tree, level)
        assert again.text == skeleton.text


@pytest.mark.parametrize("sql", CORPUS)
def test_skeleton_vocabulary(sql):
    tree = parse_query(sql)
    for level in LEVELS.values():
        text = extract_skeleton(tree, level).text
        for token in text.split(" "):
            assert ALLOWED_TOKEN.fullmatch(token), (level, token, text)


@pytest.mark.parametrize("sql", CORPUS)
def test_deterministic(sql):
    for name in LEVELS:
        assert extract(sql, name) == extract(sql, name)


def test_level_order():
    tree = parse_query("SELECT a FROM t")
    base = extract_skeleton(tree, GranularityLevel.BASE)
    detailed = extract_skeleton(tree, GranularityLevel.DETAILED)
    with pytest.raises(LevelOrderError):
        refinement_check(detailed, base)
    assert GranularityLevel.BASE < GranularityLevel.EXPANDED
    assert GranularityLevel.EXPANDED < GranularityLevel.DETAILED
    assert GranularityLevel.from_name("base") is GranularityLevel.BASE
    assert GranularityLevel.from_name("DETAILED") is GranularityLevel.DETAILED
    with pytest.raises(ValueError):
        GranularityLevel.from_name("ultra")


def test_refinement_rejects_mismatch():
    base = extract_skeleton(
        parse_query("SELECT a FROM t WHERE b > 1"), GranularityLevel.BASE)
    detailed = extract_skeleton(
        parse_query("SELECT a FROM t"), GranularityLevel.DETAILED)
    assert not refinement_check(base, detailed)


@pytest.mark.parametrize("bad,offset", [
    ("SELEC a FORM t", 0),
    ("SELECT a FROM", 13),
    ("SELECT a FROM t WHERE", 21),
    ("SELECT a FROM t GROUP a", 16),
    ("SELECT (a FROM t", 10),
    ("SELECT a FROM t extra garbage here ..", 22),
])
def test_syntax_errors(bad, offset):
    with pytest.raises(SqlSyntaxError) as info:
        parse_query(bad)
    assert info.value.offset == offset


def test_unsupported_constructs():
    with pytest.raises(SqlSyntaxError):
        parse_query("WITH x AS (SELECT 1) SELECT * FROM x")
    with pytest.raises(SqlSyntaxError):
        parse_query("SELECT a FROM t RIGHT JOIN u ON t.k = u.k")
    with pytest.raises(ValueError):
        parse_query(SqlQuery("SELECT 1", dialect="postgres"))
    with pytest.raises(ValueError):
        parse_query("   ")


def test_skeleton_reparses():
    sql = ("SELECT s.name, MAX(g.score) FROM students s JOIN grades g "
           "ON s.id = g.sid WHERE s.year IN (SELECT year FROM cohorts) "
           "GROUP BY s.name HAVING COUNT(*) > 2 ORDER BY 2 DESC LIMIT 5")
    tree = parse_query(sql)
    for level in LEVELS.values():
        skeleton = extract_skeleton(tree, level)
        assert parse_query(skeleton.text).stmt == skeleton.tree.stmt


def test_clause_tree_projection():
    tree = parse_query(
        "SELECT a FROM t WHERE b IN (SELECT c FROM u WHERE d > 1)")
    labels = [c.label for c in tree.root.clauses]
    assert labels == ["SELECT", "FROM", "WHERE"]
    where = tree.root.clauses[2]
    assert len(where.subqueries) == 1
    assert where.subqueries[0].depth == 1
    assert nesting_depth(tree) == 1


# Parse once: extraction renders from the tree it is given


def test_extract_skeleton_does_not_parse(parse_counts):
    tree = parse_query("SELECT a FROM t WHERE b IN (SELECT c FROM u) "
                       "ORDER BY a LIMIT 3")
    parse_counts.update(parse=0, lex=0)
    for level in LEVELS.values():
        extract_skeleton(tree, level)
    assert parse_counts == {"parse": 0, "lex": 0}


def test_skeleton_tree_is_parsed_once_on_first_use(parse_counts):
    skeleton = extract_skeleton(parse_query("SELECT a FROM t"),
                                GranularityLevel.DETAILED)
    parse_counts.update(parse=0, lex=0)
    assert skeleton.tree is skeleton.tree
    assert skeleton.tree.text == skeleton.text
    assert parse_counts == {"parse": 1, "lex": 1}


@pytest.mark.parametrize("sql", CORPUS)
@pytest.mark.parametrize("name", ["base", "expanded", "detailed"])
def test_skeleton_depth_and_tree_match_reparse(sql, name):
    skeleton = extract_skeleton(parse_query(sql), LEVELS[name])
    reparsed = parse_query(skeleton.text)
    assert skeleton.nesting_depth == nesting_depth(reparsed)
    assert skeleton.tree.stmt == reparsed.stmt
