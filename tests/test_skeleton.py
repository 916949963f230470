"""Skeleton extraction against the independent oracle and frozen anchors."""

import dataclasses
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skelsearch import sqlast
from skelsearch import (
    GranularityLevel,
    LevelOrderError,
    Skeleton,
    SqlSyntaxError,
    extract_skeleton,
    parse_query,
    refinement_check,
)

from oracle_skeleton import oracle_depth, oracle_extract
from fixtures.corpus import CORPUS, DEPTH, FROZEN
from test_sqlast import _random_statement

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
    assert parse_query(sql).nesting_depth == depth
    assert oracle_depth(sql) == depth


@pytest.mark.parametrize("sql", CORPUS)
def test_depth_matches_oracle(sql):
    assert parse_query(sql).nesting_depth == oracle_depth(sql)


@pytest.mark.parametrize("sql", CORPUS)
def test_skeleton_depth_law(sql):
    tree = parse_query(sql)
    full = tree.nesting_depth
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
        again = extract_skeleton(parse_query(skeleton.text), level)
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
        parse_query("   ")


def test_skeleton_reparses():
    sql = ("SELECT s.name, MAX(g.score) FROM students s JOIN grades g "
           "ON s.id = g.sid WHERE s.year IN (SELECT year FROM cohorts) "
           "GROUP BY s.name HAVING COUNT(*) > 2 ORDER BY 2 DESC LIMIT 5")
    tree = parse_query(sql)
    for level in LEVELS.values():
        skeleton = extract_skeleton(tree, level)
        assert extract_skeleton(parse_query(skeleton.text), level) == skeleton


# Parse once: extraction renders from the tree it is given


def test_extract_skeleton_does_not_parse(parse_counts):
    tree = parse_query("SELECT a FROM t WHERE b IN (SELECT c FROM u) "
                       "ORDER BY a LIMIT 3")
    parse_counts.update(parse=0, lex=0)
    for level in LEVELS.values():
        extract_skeleton(tree, level)
    assert parse_counts == {"parse": 0, "lex": 0}


# A skeleton is compared and hashed by (level, text) alone, which is
# sound because its depth follows from its text: extracting again from
# the text's own parse gives back the same text and the same depth.


def assert_reextracts(tree, level):
    skeleton = extract_skeleton(tree, level)
    again = extract_skeleton(parse_query(skeleton.text), level)
    assert again == skeleton, (skeleton.text, again.text)
    assert again.nesting_depth == skeleton.nesting_depth, skeleton.text


@pytest.mark.parametrize("sql", CORPUS)
@pytest.mark.parametrize("name", ["base", "expanded", "detailed"])
def test_skeleton_reextracts_from_its_text(sql, name):
    assert_reextracts(parse_query(sql), LEVELS[name])


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1).map(_random_statement))
# a `_` that opens a bracketed join chain is its first table
@example("SELECT a FROM t JOIN (u JOIN (SELECT b FROM v) AS w ON u.k = w.k) "
         "ON t.k = u.k")
# a value container renders its `_ UNION _` arms as a bracketed subquery
@example("SELECT f(a IN ( _ UNION _ ), (SELECT b FROM u)) FROM t")
# a container of several subqueries is bracketed as a BETWEEN's low bound
@example("SELECT a FROM t WHERE a BETWEEN CASE WHEN (SELECT b FROM u) "
         "THEN (SELECT c FROM v) END AND b = 1 BETWEEN c AND d")
# an ESCAPE ends a prefix NOT's operand, and the skeleton drops the ESCAPE
@example("SELECT a FROM t WHERE (SELECT b FROM u) LIKE NOT b ESCAPE c "
         "IN (1, 2)")
# ... also where that NOT is the right operand of a `<` in the pattern
@example(_random_statement(20307))
def test_skeleton_reextracts_on_generated_statements(sql):
    try:
        tree = parse_query(sql)
    except SqlSyntaxError:
        return
    for level in LEVELS.values():
        assert_reextracts(tree, level)


def test_skeleton_is_a_value_of_level_and_text():
    a = Skeleton(GranularityLevel.BASE, "SELECT _", 0)
    b = Skeleton(GranularityLevel.BASE, "SELECT _", 1)
    assert a == b and hash(a) == hash(b)
    assert a != Skeleton(GranularityLevel.EXPANDED, "SELECT _", 0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.text = "SELECT _ FROM _"


# Tree walks: sqlast.children lists each node's children once


def children_walk(root):
    nodes, stack = [], [root]
    while stack:
        node = stack.pop()
        nodes.append(node)
        stack.extend(sqlast.children(node))
    return nodes


def field_walk(root):
    """The same walk over every dataclass field, needing no child table."""
    nodes, stack = [], [root]
    while stack:
        value = stack.pop()
        if dataclasses.is_dataclass(value):
            nodes.append(value)
            stack.extend(getattr(value, f.name)
                         for f in dataclasses.fields(value))
        elif isinstance(value, (list, tuple)):
            stack.extend(value)
    return nodes


@pytest.mark.parametrize("sql", CORPUS)
def test_children_reach_every_node_in_source_order(sql):
    tree = parse_query(sql)
    texts = [sql] + [extract_skeleton(tree, level).text
                     for level in LEVELS.values()]
    for text in texts:
        stmt = parse_query(text).stmt
        assert [id(n) for n in children_walk(stmt)] == \
            [id(n) for n in field_walk(stmt)], text


def test_extraction_visits_each_node_once(monkeypatch):
    """Each extraction lists a node's children at most once: the parser's
    marks say which nodes hold a subquery, and only a value container's
    collect walks the tree, once per container."""
    tree = parse_query(
        "SELECT a, (SELECT MAX(b) FROM u WHERE u.k = t.k), "
        "COALESCE((SELECT MIN(c) FROM r), CASE WHEN a IN (SELECT a FROM p) "
        "THEN 1 END) FROM "
        "(SELECT k, a FROM v WHERE c IN (SELECT c FROM w WHERE d IN "
        "(SELECT d FROM x WHERE e > (SELECT AVG(e) FROM y)))) AS t "
        "JOIN s ON s.k = t.k WHERE NOT EXISTS (SELECT 1 FROM z "
        "WHERE z.k = t.k AND z.f IN (SELECT f FROM q)) "
        "ORDER BY a LIMIT 3")
    visits = []
    children = sqlast.children

    def counted(node):
        visits.append(id(node))
        return children(node)

    monkeypatch.setattr(sqlast, "children", counted)
    for level in (GranularityLevel.EXPANDED, GranularityLevel.DETAILED):
        visits.clear()
        extract_skeleton(tree, level)
        assert visits, "no container was collected"
        assert len(visits) == len(set(visits))
    assert tree.nesting_depth == 4


def test_escape_operand_is_dropped():
    sql = "SELECT a FROM t WHERE a LIKE b ESCAPE (SELECT c FROM u)"
    tree = parse_query(sql)
    assert tree.nesting_depth == 0 == oracle_depth(sql)
    for name, level in LEVELS.items():
        skeleton = extract_skeleton(tree, level)
        assert skeleton.text == oracle_extract(sql, name)
        assert skeleton.nesting_depth == 0
