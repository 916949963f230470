"""The SQL front end: lexer and parser equivalence checks.

Two references pin the front end's observable output:

* `fixtures/sqlast_digests.json` holds, for each corpus query, one digest
  over the tokens and the tree (or the error message and offset) of the
  query, of its base/expanded/detailed skeleton texts, and of every
  prefix of these four texts. It is the output of this file run as a
  script (`PYTHONPATH=src python tests/test_sqlast.py`) against the
  recursive-descent parser that predates the master-pattern lexer and
  precedence climbing, except the entries of the queries that hold
  EXISTS: their trees changed when `NOT EXISTS` became a prefix NOT
  over an `Exists` node.

* `ReferenceLexer` below is the character-dispatch lexer that the
  master-pattern lexer replaced, kept as an oracle for a differential
  test on generated text. The master pattern is in turn the oracle for
  the lexer's split path, which lexes space-separated skeleton text.

`reference_walk` below, the post-parse tree walk that the parser's
subquery marks replaced, is the oracle for a third differential test.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import sqlite3
import sys
import threading
from contextlib import closing
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skelsearch import GranularityLevel, extract_skeleton, parse_query
from skelsearch import sqlast
from skelsearch.normalize import NormalizationReport, normalize
from skelsearch.sftdata import CorruptionError, corrupt_skeleton
from skelsearch.sqlast import (
    KEYWORDS,
    PLACEHOLDER_SYMBOLS,
    SqlSyntaxError,
    Token,
    TokenType,
)

from fixtures.corpus import CORPUS

DIGESTS = Path(__file__).parent / "fixtures" / "sqlast_digests.json"


# Parser fixture


def _lex_outcome(text: str) -> str:
    try:
        tokens = sqlast.Lexer(text).tokens()
    except SqlSyntaxError as exc:
        return repr(("error", str(exc), exc.offset))
    return repr([(t.type.name, t.value, t.offset) for t in tokens])


def _parse_outcome(text: str) -> str:
    try:
        return repr(sqlast.parse(text).stmt)
    except SqlSyntaxError as exc:
        return repr(("error", str(exc), exc.offset))


def corpus_texts(sql: str) -> list[str]:
    """The query and its three skeleton texts."""
    tree = parse_query(sql)
    return [sql] + [extract_skeleton(tree, level).text
                    for level in GranularityLevel]


def outcome_digest(sql: str) -> str:
    """Digest of the lex and parse outcome of every prefix of every text
    in `corpus_texts(sql)`, the whole texts included."""
    h = hashlib.sha256()
    for text in corpus_texts(sql):
        for end in range(1, len(text) + 1):
            prefix = text[:end]
            h.update(_lex_outcome(prefix).encode())
            h.update(_parse_outcome(prefix).encode())
    return h.hexdigest()[:16]


def test_digest_fixture_covers_corpus():
    assert sorted(json.loads(DIGESTS.read_text())) == sorted(CORPUS)


@pytest.mark.parametrize("sql", CORPUS)
def test_outcomes_match_digest_fixture(sql):
    assert outcome_digest(sql) == json.loads(DIGESTS.read_text())[sql]


# Operator precedence


def sexpr(node) -> str:
    """An expression as a parenthesized prefix form."""
    if isinstance(node, sqlast.ColumnRef):
        return node.name
    if isinstance(node, sqlast.Literal):
        return node.value
    if isinstance(node, sqlast.Binary):
        return f"({node.op} {sexpr(node.left)} {sexpr(node.right)})"
    if isinstance(node, sqlast.Unary):
        return f"({node.op} {sexpr(node.operand)})"
    if isinstance(node, sqlast.Collate):
        return f"(COLLATE {sexpr(node.expr)} {node.collation})"
    not_ = "NOT " if getattr(node, "negated", False) else ""
    if isinstance(node, sqlast.Between):
        return (f"({not_}BETWEEN {sexpr(node.expr)} {sexpr(node.low)} "
                f"{sexpr(node.high)})")
    if isinstance(node, sqlast.LikeOp):
        return f"({not_}{node.op} {sexpr(node.left)} {sexpr(node.right)})"
    if isinstance(node, sqlast.IsOp):
        return f"(IS {not_}{sexpr(node.left)} {sexpr(node.right)})"
    if isinstance(node, sqlast.InList):
        items = " ".join(sexpr(item) for item in node.items)
        return f"({not_}IN {sexpr(node.expr)} {items})"
    raise TypeError(type(node).__name__)


@pytest.mark.parametrize("text,expected", [
    ("SELECT NOT a = b AND c OR d", "(OR (AND (NOT (= a b)) c) d)"),
    ("SELECT NOT NOT a AND b", "(AND (NOT (NOT a)) b)"),
    ("SELECT a + b * c - d || e", "(- (+ a (* b c)) (|| d e))"),
    ("SELECT a NOT BETWEEN 1 AND 2 AND b NOT LIKE c ESCAPE d",
     "(AND (NOT BETWEEN a 1 2) (NOT LIKE b c))"),
    ("SELECT a BETWEEN 1 + 2 AND 3 * 4 - 5",
     "(BETWEEN a (+ 1 2) (- (* 3 4) 5))"),
    ("SELECT -a COLLATE nocase", "(COLLATE (- a) nocase)"),
    ("SELECT a IS NOT b = c IN (1)", "(IN (= (IS NOT a b) c) 1)"),
    # SQLite's trees: a tighter operator may follow IN (...), prefix NOT
    # may be any operand, and a BETWEEN's low bound takes all but AND/OR
    ("SELECT b IN (1) + 2", "(+ (IN b 1) 2)"),
    ("SELECT NOT b IN (1) * 2", "(NOT (* (IN b 1) 2))"),
    ("SELECT a = NOT b", "(= a (NOT b))"),
    ("SELECT 1 BETWEEN 0 = 0 AND 2", "(BETWEEN 1 (= 0 0) 2)"),
    # < <= > >= bind tighter than LIKE, so the ESCAPE is the LIKE's
    ("SELECT a LIKE b < c ESCAPE d", "(LIKE a (< b c))"),
])
def test_precedence(text, expected):
    assert sexpr(sqlast.parse(text).stmt.arms[0].items[0].expr) == expected


@pytest.mark.parametrize("text,message", [
    ("SELECT a NOT NULL", "trailing input 'NOT' (offset 9)"),
])
def test_precedence_errors(text, message):
    with pytest.raises(SqlSyntaxError) as info:
        sqlast.parse(text)
    assert str(info.value) == message


# Lexer differential


_REF_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_REF_NUMBER = re.compile(
    r"0[xX][0-9a-fA-F]+"
    r"|\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?")
_REF_PLACEHOLDER = re.compile(r"\[(?:col|tab|val|agg)\]")
_REF_NAME_CHAR = re.compile(r"[A-Za-z0-9_]")


class ReferenceLexer:
    """One token per `_next` call, dispatching on the first character."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def tokens(self) -> list[Token]:
        out: list[Token] = []
        while True:
            tok = self._next()
            out.append(tok)
            if tok.type is TokenType.EOF:
                return out

    def _skip_trivia(self) -> None:
        text, n = self.text, len(self.text)
        while self.pos < n:
            ch = text[self.pos]
            if ch.isspace():
                self.pos += 1
            elif text.startswith("--", self.pos):
                nl = text.find("\n", self.pos)
                self.pos = n if nl < 0 else nl + 1
            elif text.startswith("/*", self.pos):
                end = text.find("*/", self.pos + 2)
                if end < 0:
                    raise SqlSyntaxError("unterminated comment", self.pos)
                self.pos = end + 2
            else:
                return

    def _next(self) -> Token:
        self._skip_trivia()
        text, start = self.text, self.pos
        if start >= len(text):
            return Token(TokenType.EOF, "", start)
        ch = text[start]

        m = _REF_PLACEHOLDER.match(text, start)
        if m:
            self.pos = m.end()
            return Token(TokenType.PLACEHOLDER, m.group(), start)
        if ch == "_" and not _REF_NAME_CHAR.match(text, start + 1):
            self.pos = start + 1
            return Token(TokenType.PLACEHOLDER, "_", start)

        if ch == "'":
            i = start + 1
            while i < len(text):
                if text[i] == "'":
                    if text.startswith("''", i):
                        i += 2
                        continue
                    self.pos = i + 1
                    return Token(TokenType.STRING, text[start:i + 1], start)
                i += 1
            raise SqlSyntaxError("unterminated string", start)

        for quote, closer in (("`", "`"), ('"', '"'), ("[", "]")):
            if ch == quote:
                end = text.find(closer, start + 1)
                # a doubled ` or " stands for one; brackets have no escape
                while end >= 0 and quote != "[" and \
                        text.startswith(closer * 2, end):
                    end = text.find(closer, end + 2)
                if end < 0:
                    raise SqlSyntaxError("unterminated identifier", start)
                self.pos = end + 1
                name = text[start + 1:end].replace(closer * 2, closer)
                return Token(TokenType.IDENTIFIER, name, start)

        if ch.isdigit() or (ch == "." and start + 1 < len(text)
                            and text[start + 1].isdigit()):
            m = _REF_NUMBER.match(text, start)
            if m:
                self.pos = m.end()
                return Token(TokenType.NUMBER, m.group(), start)

        m = _REF_WORD.match(text, start)
        if m:
            self.pos = m.end()
            word = m.group()
            up = word.upper()
            if up in KEYWORDS:
                return Token(TokenType.KEYWORD, up, start)
            return Token(TokenType.IDENTIFIER, word, start)

        for multi, canon in (("==", "="), ("<>", "!="), ("!=", "!="),
                             ("<=", "<="), (">=", ">="), ("||", "||")):
            if text.startswith(multi, start):
                self.pos = start + len(multi)
                return Token(TokenType.OPERATOR, canon, start)
        if ch in "=<>+-*/%(),.;":
            self.pos = start + 1
            return Token(TokenType.OPERATOR, ch, start)
        raise SqlSyntaxError(f"unexpected character {ch!r}", start)


def _lexed(lexer) -> object:
    try:
        return lexer.tokens()
    except SqlSyntaxError as exc:
        return ("error", str(exc), exc.offset)


FRAGMENTS = [
    "SELECT", "select", "FROM", "Where", "AND", "not", "NULL", "x", "t1",
    "a_b", "_", "__", "_x", "_1", "[col]", "[tab]", "[val]", "[agg]", "[co",
    "[", "]", "'", "''", "'it''s'", "\"", "\"q\"", "\"a\"\"b\"", "`", "`b`",
    "`a``b`", "--", "\n", "/*", "*/", "/**/", "*", "/", "-", "+", "%", "=",
    "==", "<", ">", "<>", "!=", "!", "<=", ">=", "|", "||", "(", ")", ",", ".",
    ";", "0", "7", "12", "1.", ".5", "1e5", "2E-3", "0x1F", "0X", "e", "²",
    "٣", "௫", "@", "?", "$", "#", "é", "ß", "\t", " ", " ", " ", "\x1c", "　",
    "\x85", "\r",
]

sql_like = st.lists(st.sampled_from(FRAGMENTS), max_size=24).map("".join)
any_text = st.text(
    alphabet=st.sampled_from("'\"`[]_-/*.0123456789xXeE+aZ ;()\n²٣ "),
    max_size=24)


@settings(max_examples=600, deadline=None)
@given(st.one_of(sql_like, any_text))
def test_lexer_matches_reference(text):
    assert _lexed(sqlast.Lexer(text)) == _lexed(ReferenceLexer(text))


@pytest.mark.parametrize("text,message,offset", [
    ("SELECT 'abc", "unterminated string", 7),
    ("SELECT 'a''", "unterminated string", 7),
    ("SELECT `a", "unterminated identifier", 7),
    ("SELECT \"a", "unterminated identifier", 7),
    ("SELECT \"a\"\"", "unterminated identifier", 7),
    ("SELECT `a``", "unterminated identifier", 7),
    ("SELECT [a", "unterminated identifier", 7),
    ("SELECT a /* b", "unterminated comment", 9),
    ("SELECT a /*/", "unterminated comment", 9),
    ("SELECT ²", "unexpected character '²'", 7),
    ("SELECT a @ b", "unexpected character '@'", 9),
])
def test_lexer_errors(text, message, offset):
    with pytest.raises(SqlSyntaxError) as info:
        sqlast.Lexer(text).tokens()
    assert str(info.value) == f"{message} (offset {offset})"
    assert info.value.offset == offset


def test_lexer_limit_stops_after_limit_plus_one_tokens():
    tokens = sqlast.Lexer("SELECT a , b FROM t WHERE x = 'open", 4).tokens()
    assert [t.value for t in tokens] == ["SELECT", "a", ",", "b", "FROM", ""]
    assert tokens[-1].type is sqlast.TokenType.EOF
    text = "SELECT a FROM t"
    assert (sqlast.Lexer(text, 4).tokens()
            == sqlast.Lexer(text).tokens())


# Split path: `tokens()` lexes whole space-separated pieces itself and
# hands the rest to the master pattern, so it must give what the pattern
# alone (`match_tokens([], 0)`) gives, under any limit.

SKELETON_TEXTS = sorted({extract_skeleton(parse_query(sql), level).text
                         for sql in CORPUS for level in GranularityLevel})

SPLIT_PIECES = [
    *sorted(PLACEHOLDER_SYMBOLS), "_1", "__", "[x]", "[col", "--", "/*", "*/",
    "==", "<>", "!=", "<=", ">=", "||", "|", "!", "=", "<", ">", "-", "/",
    "*", "(", ")", ",", ".", ";", "0", "7", "12", ".5", "a1", "t", "Ab_9",
    "SELECT", "select", "Order", "BY", "'x'", "\xa0", "ſ", "ı", "ﬁ",
    "ſelect", "ıN", "ﬁle", "é",
]

split_piece = st.one_of(st.sampled_from(SPLIT_PIECES),
                        st.sampled_from(SKELETON_TEXTS),
                        st.sampled_from(SKELETON_TEXTS).map(str.lower))
split_text = st.lists(
    st.tuples(split_piece,
              st.sampled_from([" ", " ", " ", " ", "", "  ", "\xa0", "\n"])),
    max_size=12).map(lambda pairs: "".join(p + s for p, s in pairs))


def _lexed_fields(lex) -> object:
    try:
        return [(t.type, t.value, t.offset) for t in lex()]
    except SqlSyntaxError as exc:
        return ("error", str(exc), exc.offset)


@settings(max_examples=1500, deadline=None)
@given(st.one_of(split_text, split_text.map(str.strip), sql_like),
       st.one_of(st.none(), st.integers(0, 40)))
@example("ſelect _ from _", None)
@example("SELECT _ FROM _ WHERE _ = _", 3)
def test_split_path_matches_master_pattern(text, limit):
    lexer = sqlast.Lexer(text, limit)
    assert _lexed_fields(lexer.tokens) == \
        _lexed_fields(lambda: lexer.match_tokens([], 0))


def test_trivia_and_operator_spellings():
    tokens = sqlast.Lexer(
        "SELECT -- note\n a/**/== [b] <> `c` || 'd''e' ;").tokens()
    assert [(t.type.name, t.value, t.offset) for t in tokens] == [
        ("KEYWORD", "SELECT", 0), ("IDENTIFIER", "a", 16),
        ("OPERATOR", "=", 21), ("IDENTIFIER", "b", 24),
        ("OPERATOR", "!=", 28), ("IDENTIFIER", "c", 31),
        ("OPERATOR", "||", 35), ("STRING", "'d''e'", 38),
        ("OPERATOR", ";", 45), ("EOF", "", 46),
    ]


# CAST type names


def test_cast_type_size_is_skipped():
    cast = sqlast.parse("SELECT CAST(a AS VARCHAR(20)) FROM t").stmt \
        .arms[0].items[0].expr
    assert cast == sqlast.Cast(sqlast.ColumnRef(None, "a"), "VARCHAR")


@pytest.mark.parametrize("sql,offset", [
    ("SELECT CAST(a AS INT(", 21),
    ("SELECT CAST(a AS INT(3", 22),
])
def test_unclosed_cast_type_size_fails(sql, offset):
    # run in a thread: a parser that loops forever here fails the join
    outcome: list = []

    def parse():
        try:
            sqlast.parse(sql)
        except SqlSyntaxError as exc:
            outcome.append(exc)

    worker = threading.Thread(target=parse, daemon=True)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    assert str(outcome[0]) == f"expected ')', found '' (offset {offset})"


# Hex literals and names that start with `_` and a digit


@pytest.mark.parametrize("sql,expected", [
    ("SELECT a FROM t WHERE b = 0x1F",
     sqlast.Binary("=", sqlast.ColumnRef(None, "b"),
                   sqlast.Literal("0x1F", "number"))),
    ("SELECT 0x1F FROM t",
     sqlast.SelectItem(sqlast.Literal("0x1F", "number"))),
    ("SELECT _1 FROM t", sqlast.SelectItem(sqlast.ColumnRef(None, "_1"))),
    ("SELECT _2a AS x FROM t",
     sqlast.SelectItem(sqlast.ColumnRef(None, "_2a"), "x")),
])
def test_sqlite_hex_literals_and_digit_names(sql, expected):
    conn = sqlite3.connect(":memory:")
    try:
        conn.execute("CREATE TABLE t (a, b, _1, _2a)")
        conn.execute(sql).fetchall()  # valid SQLite
    finally:
        conn.close()
    core = sqlast.parse(sql).stmt.arms[0]
    assert expected in (core.where, core.items[0])


@pytest.mark.parametrize("sql", [
    'SELECT "a""b" FROM t',
    "SELECT `a``b` FROM t",
    'SELECT "a""b""" FROM t',
    'SELECT [a""b] FROM t',
])
def test_doubled_quotes_in_quoted_names(sql):
    """A doubled closing quote inside a quoted name is one quote of the
    name, as SQLite reads it."""
    conn = sqlite3.connect(":memory:")
    try:
        conn.execute('CREATE TABLE t ("a""b", "a`b", "a""b""", "a""""b")')
        name = conn.execute(sql).description[0][0]
    finally:
        conn.close()
    items = sqlast.parse(sql).stmt.arms[0].items
    assert items == [sqlast.SelectItem(sqlast.ColumnRef(None, name))]


@pytest.mark.parametrize("text,tokens", [
    ("0x1F 0XaB", [("NUMBER", "0x1F"), ("NUMBER", "0XaB")]),
    ("0x", [("NUMBER", "0"), ("IDENTIFIER", "x")]),
    ("_1 _ 1 __1", [("IDENTIFIER", "_1"), ("PLACEHOLDER", "_"),
                    ("NUMBER", "1"), ("IDENTIFIER", "__1")]),
])
def test_hex_and_underscore_tokens(text, tokens):
    lexed = sqlast.Lexer(text).tokens()[:-1]
    assert [(t.type.name, t.value) for t in lexed] == tokens


def test_hex_and_digit_names_in_skeletons():
    tree = parse_query("SELECT _1 FROM t WHERE b = 0x1F")
    assert extract_skeleton(tree, GranularityLevel.DETAILED).text == \
        "SELECT [col] FROM [tab] WHERE [col] = [val]"


# Nesting bound

# Ways to nest an expression one level deeper: (prefix, suffix) around it.
_WRAPS = {
    "paren": ("(", ")"),
    "not": ("NOT ", ""),
    "minus": ("- ", ""),
    "exists": ("EXISTS (SELECT ", ")"),
    "not-exists": ("NOT EXISTS (SELECT ", ")"),
    "in": ("a IN (SELECT ", ")"),
    "scalar": ("(SELECT ", ")"),
    "call": ("f(", ")"),
    "aggregate": ("MAX(", ")"),
    "case": ("CASE WHEN ", " THEN 1 END"),
    "cast": ("CAST(", " AS INT)"),
    "between": ("a BETWEEN (", ") AND 2"),
    "collate": ("", " COLLATE nocase"),
}
# Left-deep operator chains, one level per operator.
_CHAINS = (" OR ", " AND ", " = ", " + ", " * ", " || ")


def _nest(expr: str, form: str, times: int) -> str:
    if form in _CHAINS:
        return expr + (form + "1") * times
    prefix, suffix = _WRAPS[form]
    return prefix * times + expr + suffix * times


def _statement(expr: str, form: str, times: int) -> str:
    if form == "derived":
        return ("SELECT * FROM " + "(SELECT * FROM " * times
                + "t WHERE " + expr + ")" * times)
    if form == "joins":
        return ("SELECT " + expr + " FROM " + "(t JOIN " * times + "u"
                + ")" * times)
    return "SELECT " + expr


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(sorted(_WRAPS) + list(_CHAINS)),
                          st.integers(1, 2000)), min_size=1, max_size=2),
       st.sampled_from(["select", "derived", "joins"]),
       st.integers(1, 2000))
def test_deep_nesting_is_a_syntax_error(steps, outer, outer_times):
    """Nesting of any depth parses, or fails as a syntax error; it never
    exhausts the interpreter's recursion limit."""
    expr = "1"
    for form, times in steps:
        expr = _nest(expr, form, times)
    text = _statement(expr, outer, outer_times)
    for level in GranularityLevel:
        assert isinstance(normalize(text, level), NormalizationReport)
    try:
        tree = parse_query(text)
    except SqlSyntaxError:
        return
    for level in GranularityLevel:
        extract_skeleton(tree, level)


@pytest.mark.parametrize("text,offset", [
    ("SELECT " + "NOT " * 500 + "1", 595),
    ("SELECT " + "- " * 500 + "1", 301),
    ("SELECT " + "EXISTS (SELECT " * 100 + "1" + ")" * 100, 555),
    ("SELECT " + "(" * 1000 + "1" + ")" * 1000, 154),
    ("SELECT a FROM t WHERE " + " OR ".join(["a = 1"] * 600), 1333),
    ("SELECT 1 = " + "NOT " * 500 + "1", 595),
    ("SELECT a IN (1)" + " COLLATE nocase" * 500, 2191),
], ids=["not", "minus", "exists", "paren", "or-chain", "not-under-compare",
        "collate-after-in"])
def test_nesting_fails_at_the_token_past_the_bound(text, offset):
    with pytest.raises(SqlSyntaxError) as info:
        parse_query(text)
    assert str(info.value) == (f"query nested deeper than "
                               f"{sqlast.MAX_HEIGHT} levels (offset {offset})")


def _height(node) -> int:
    best, stack = 0, [(node, 1)]
    while stack:
        node, depth = stack.pop()
        best = max(best, depth)
        stack.extend((child, depth + 1) for child in sqlast.children(node))
    return best


@pytest.mark.parametrize("form", ["not", "call", " OR "])
def test_trees_up_to_the_bound_parse(form):
    # SelectStmt, SelectCore and SelectItem sit above the expression.
    times = sqlast.MAX_HEIGHT - 4
    tree = parse_query(_statement(_nest("1", form, times), "select", 1))
    assert _height(tree.stmt) == sqlast.MAX_HEIGHT
    for level in GranularityLevel:
        extract_skeleton(tree, level)
    with pytest.raises(SqlSyntaxError):
        parse_query(_statement(_nest("1", form, times + 1), "select", 1))


def _recursion_depth() -> int:
    """The caller's recursion depth as the interpreter counts it, C-level
    entries included: the limit less the nested calls still free."""
    def free(n: int) -> int:
        try:
            return free(n + 1)
        except RecursionError:
            return n

    return sys.getrecursionlimit() - free(0)


# Recursion budget, above the caller's depth, that parsing and extracting
# at all three levels a tree exactly MAX_HEIGHT tall needed when
# `ClauseTree` still walked each tree after the parse: the smallest that
# let each form through.
_FRAME_BUDGETS = {"not": 298, "call": 594, " OR ": 298}


@pytest.mark.parametrize("form", sorted(_FRAME_BUDGETS))
def test_max_height_frame_budget_does_not_grow(form):
    text = _statement(_nest("1", form, sqlast.MAX_HEIGHT - 4), "select", 1)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_recursion_depth() + _FRAME_BUDGETS[form])
    try:
        tree = parse_query(text)
        for level in GranularityLevel:
            extract_skeleton(tree, level)
    finally:
        sys.setrecursionlimit(limit)


# Parser marks against the post-parse walk they replaced


def reference_walk(stmt) -> tuple[dict[int, int], bool]:
    """`ClauseTree._walk` as it stood before the parser marked subquery
    holders, verbatim: each node's subquery depth keyed by id, and
    whether a `_` stands for a whole SELECT arm."""
    depths: dict[int, int] = {}
    placeholder_query = False

    def visit(node) -> int:
        nonlocal placeholder_query
        depth = 0
        for child in sqlast.children(node):
            below = visit(child) + isinstance(child, sqlast.SelectStmt)
            if below > depth:
                depth = below
        if type(node) is sqlast.PlaceholderQuery:
            placeholder_query = True
        depths[id(node)] = depth
        return depth

    visit(stmt)
    return depths, placeholder_query


# The node kinds the parser marks: every expression, and FROM chains.
MARKED_KINDS = (
    sqlast.Literal, sqlast.ColumnRef, sqlast.Star, sqlast.Placeholder,
    sqlast.FuncCall, sqlast.Unary, sqlast.Binary, sqlast.Grouping,
    sqlast.InList, sqlast.InSelect, sqlast.Exists, sqlast.Between,
    sqlast.LikeOp, sqlast.IsOp, sqlast.Case, sqlast.Cast, sqlast.Collate,
    sqlast.Subquery, sqlast.JoinChain,
)


def check_marks(tree) -> int:
    """Assert that the tree's noted facts equal the reference walk's;
    returns the number of marked-kind nodes checked."""
    depths, placeholder_query = reference_walk(tree.stmt)
    assert tree.nesting_depth == depths[id(tree.stmt)]
    assert tree.has_placeholder_query is placeholder_query
    nodes, stack = [], [tree.stmt]
    while stack:
        node = stack.pop()
        nodes.append(node)
        stack.extend(sqlast.children(node))
    kinds = [node for node in nodes if isinstance(node, MARKED_KINDS)]
    assert tree.marks <= {id(node) for node in kinds}
    for node in kinds:
        assert (id(node) in tree.marks) == (depths[id(node)] > 0), node
    return len(kinds)


def marked_texts(sql: str) -> list[str]:
    """A corpus query, its three skeletons, and corruptions of these."""
    texts = corpus_texts(sql)
    tree = parse_query(sql)
    for level in GranularityLevel:
        gold = extract_skeleton(tree, level)
        for seed in range(3):
            try:
                texts.append(corrupt_skeleton(gold, random.Random(seed))[0])
            except CorruptionError:
                pass
    return texts


@pytest.mark.parametrize("sql", CORPUS)
def test_marks_match_reference_walk_on_corpus(sql):
    for text in marked_texts(sql):
        check_marks(sqlast.parse(text))


def test_corpus_marks_span_the_holder_kinds():
    seen = set()
    for sql in CORPUS:
        tree = sqlast.parse(sql)
        stack = [tree.stmt]
        while stack:
            node = stack.pop()
            if id(node) in tree.marks:
                seen.add(type(node))
            stack.extend(sqlast.children(node))
    assert {sqlast.Subquery, sqlast.InSelect, sqlast.Exists, sqlast.Binary,
            sqlast.FuncCall, sqlast.JoinChain} <= seen


@pytest.mark.parametrize("sql,depth,placeholder_query", [
    # the ESCAPE operand is parsed and dropped, with what it noted
    ("SELECT a FROM t WHERE a LIKE b ESCAPE (SELECT c FROM u)", 0, False),
    ("SELECT a FROM t WHERE a LIKE b ESCAPE (x IN ( _ UNION _ ))", 0, False),
    ("SELECT a FROM t WHERE a LIKE (SELECT b FROM u) ESCAPE "
     "(SELECT c FROM (SELECT c FROM v))", 1, False),
    # here the IN applies to the whole LIKE and is kept
    ("SELECT a FROM t WHERE a LIKE b ESCAPE x IN ( _ UNION _ )", 1, True),
    ("SELECT (SELECT a FROM u) COLLATE nocase COLLATE binary FROM t",
     1, False),
    ("SELECT a FROM t WHERE b COLLATE nocase = (SELECT c FROM u) "
     "COLLATE binary", 1, False),
    ("SELECT a FROM t JOIN (u JOIN (SELECT b FROM v) AS w ON u.k = w.k) "
     "ON t.k = u.k", 1, False),
    ("SELECT a FROM (t JOIN u ON t.k = u.k), (v JOIN (SELECT b FROM "
     "(SELECT b FROM x)) AS w ON v.k = w.k)", 2, False),
    # a lone `_` in IN ( ) is a list item, not a SELECT arm
    ("SELECT a FROM t WHERE b IN ( _ )", 0, False),
    # a `_` that a join follows is a table, and one that a set operator
    # follows is a SELECT arm, in a bracket as in IN ( )
    ("SELECT a FROM t JOIN ( _ JOIN ( SELECT b FROM v ) )", 1, False),
    ("SELECT ( _ UNION _ ) AND ( SELECT b FROM u ) FROM t", 1, True),
])
def test_marks_on_explicit_cases(sql, depth, placeholder_query):
    tree = sqlast.parse(sql)
    assert tree.nesting_depth == depth
    assert tree.has_placeholder_query is placeholder_query
    check_marks(tree)


# Expressions, FROM clauses and statements with subqueries anywhere,
# drawn from a seed: each `{}` is filled with a smaller expression.
_LEAVES = ["a", "t.b", "1", "'s'", "NULL", "_", "[col]", "[val]"]
_FORMS = [
    "(SELECT {} FROM u)", "EXISTS (SELECT {} FROM u WHERE {})",
    "{} NOT IN (SELECT {} FROM u)", "{} IN ({}, 2)", "{} IN ( _ UNION _ )",
    "{} = {}", "{} + {}", "{} * {}", "{} || {}", "{} AND {}", "{} OR {}",
    "{} < {}", "NOT {}", "- {}", "({})", "{} COLLATE nocase",
    "{} LIKE {} ESCAPE {}", "{} BETWEEN {} AND {}", "{} IS NOT {}",
    "CASE WHEN {} THEN {} ELSE {} END", "CAST({} AS INT)", "f({}, {})",
    "COUNT(DISTINCT {})",
]
_SOURCES = [
    "t", "_", "(SELECT {} FROM v) AS d", "t LEFT JOIN u ON {}",
    "t JOIN (u JOIN (SELECT {} FROM v) AS w ON {}) ON t.k = u.k",
    "(t JOIN u ON {}), v",
]
_STATEMENT = ("SELECT {}, {} FROM {} WHERE {} GROUP BY a HAVING {}{} "
              "ORDER BY {} LIMIT {}")
_TAILS = ["", " UNION _", " EXCEPT SELECT {} FROM t"]


def _fill(rnd: random.Random, form: str, height: int,
          leaves=_LEAVES, forms=_FORMS) -> str:
    return form.format(*(_random_expr(rnd, height - 1, leaves, forms)
                         for _ in range(form.count("{}"))))


def _random_expr(rnd: random.Random, height: int,
                 leaves=_LEAVES, forms=_FORMS) -> str:
    if height <= 0 or rnd.random() < 0.3:
        return rnd.choice(leaves)
    return _fill(rnd, rnd.choice(forms), height, leaves, forms)


def _random_statement(seed: int) -> str:
    rnd = random.Random(seed)
    parts = [_random_expr(rnd, 3) for _ in range(2)]
    parts.append(_fill(rnd, rnd.choice(_SOURCES), 3))
    parts += [_random_expr(rnd, 3) for _ in range(2)]
    parts.append(_fill(rnd, rnd.choice(_TAILS), 3))
    parts += [_random_expr(rnd, 3) for _ in range(2)]
    return _STATEMENT.format(*parts)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.integers(0, 2**32 - 1).map(_random_statement),
                 sql_like, any_text))
def test_marks_match_reference_walk_on_generated_text(text):
    try:
        tree = sqlast.parse(text)
    except SqlSyntaxError:
        return
    check_marks(tree)


# SQLite as the oracle. The expressions are `_random_expr`'s without
# placeholders, which SQLite has no reading of.
_PLAIN_LEAVES = [leaf for leaf in _LEAVES if leaf not in PLACEHOLDER_SYMBOLS]
_PLAIN_FORMS = [form for form in _FORMS if "_" not in form]
# What SQLite says when its parser, not a later check, rejects the text.
_SQLITE_SYNTAX = ("syntax error", "incomplete input", "unrecognized token")
# The rows of tables t, u and v: each column holds an int, a text, a float
# and a NULL.
_ROWS = [(1, "s", 2.5, None), ("S", -1.5, None, 0), (0.5, None, 2, "s"),
         (None, 0, "s", -0.5)]


def oracle_db() -> sqlite3.Connection:
    """An in-memory database with tables t, u and v of columns a, b, c and
    k, each holding `_ROWS`, and a deterministic two-argument function f."""
    conn = sqlite3.connect(":memory:")
    for name in "tuv":
        conn.execute(f"CREATE TABLE {name} (a, b, c, k)")
        conn.executemany(f"INSERT INTO {name} VALUES (?, ?, ?, ?)", _ROWS)
    conn.create_function("f", 2, lambda x, y: repr((x, y)),
                         deterministic=True)
    return conn


def sqlite_parses(sql: str) -> bool:
    """Whether SQLite prepares `sql` on `oracle_db()` without a syntax
    error."""
    with closing(oracle_db()) as conn:
        try:
            conn.execute("EXPLAIN " + sql).fetchall()
        except sqlite3.Error as exc:
            return not any(s in str(exc) for s in _SQLITE_SYNTAX)
    return True


def _random_select(seed: int, forms=_PLAIN_FORMS) -> str:
    return ("SELECT " + _random_expr(random.Random(seed), 4, _PLAIN_LEAVES,
                                     forms) + " FROM t")


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1).map(_random_select))
@example("SELECT 1 = NOT 0")
@example("SELECT 1 < NOT 0")
@example("SELECT 1 BETWEEN 0 AND NOT 0")
@example("SELECT 1 BETWEEN 0 = 0 AND 2")
@example("SELECT 1 BETWEEN 0 IS 0 AND 2")
@example("SELECT (1 IN (1, 2) COLLATE nocase)")
@example("SELECT a LIKE b < c ESCAPE d FROM t")
def test_what_sqlite_parses_parses(sql):
    if sqlite_parses(sql):
        sqlast.parse(sql)


def bracketed(node) -> str:
    """SQL text of a parsed statement, or of an expression node in
    brackets, with every expression node below in brackets too: the
    text leaves no operator's precedence to the reader. Covers the node
    kinds that `_random_select` statements parse to."""
    b = bracketed
    not_ = "NOT " if getattr(node, "negated", False) else ""
    if isinstance(node, sqlast.SelectStmt):
        (core,) = node.arms
        text = "SELECT " + ", ".join(b(item.expr) for item in core.items)
        if core.from_ is not None:
            text += " FROM " + core.from_.first.name
        if core.where is not None:
            text += " WHERE " + b(core.where)
        return text
    if isinstance(node, sqlast.Literal):
        text = node.value
    elif isinstance(node, sqlast.ColumnRef):
        text = node.name if node.table is None \
            else f"{node.table}.{node.name}"
    elif isinstance(node, sqlast.Unary):
        text = f"{node.op} {b(node.operand)}"
    elif isinstance(node, sqlast.Binary):
        text = f"{b(node.left)} {node.op} {b(node.right)}"
    elif isinstance(node, sqlast.Grouping):
        text = b(node.expr)
    elif isinstance(node, sqlast.Subquery):
        text = b(node.query)
    elif isinstance(node, sqlast.Exists):
        text = f"EXISTS ({b(node.query)})"
    elif isinstance(node, sqlast.InList):
        items = ", ".join(b(item) for item in node.items)
        text = f"{b(node.expr)} {not_}IN ({items})"
    elif isinstance(node, sqlast.InSelect):
        text = f"{b(node.expr)} {not_}IN ({b(node.query)})"
    elif isinstance(node, sqlast.Between):
        text = (f"{b(node.expr)} {not_}BETWEEN {b(node.low)} "
                f"AND {b(node.high)}")
    elif isinstance(node, sqlast.LikeOp):
        text = f"{b(node.left)} {not_}{node.op} {b(node.right)}"
    elif isinstance(node, sqlast.IsOp):
        text = f"{b(node.left)} IS {not_}{b(node.right)}"
    elif isinstance(node, sqlast.Collate):
        text = f"{b(node.expr)} COLLATE {node.collation}"
    elif isinstance(node, sqlast.Case):
        whens = " ".join(f"WHEN {b(cond)} THEN {b(value)}"
                         for cond, value in node.whens)
        text = f"CASE {whens} ELSE {b(node.default)} END"
    elif isinstance(node, sqlast.Cast):
        text = f"CAST({b(node.expr)} AS {node.type_name})"
    elif isinstance(node, sqlast.FuncCall):
        distinct = "DISTINCT " if node.distinct else ""
        text = f"{node.name}({distinct}{', '.join(map(b, node.args))})"
    else:
        raise TypeError(type(node).__name__)
    return "(" + text + ")"


# SQLite as the oracle of tree shape: the tree, printed with every node in
# brackets, must evaluate as SQLite evaluates the text. The LIKE form has
# no ESCAPE here, since the tree drops the ESCAPE operand.
@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1).map(lambda seed: _random_select(
    seed, [form for form in _PLAIN_FORMS if "ESCAPE" not in form])))
@example("SELECT NOT EXISTS (SELECT 1) + 1")
@example("SELECT 2 = 2 < 3")
@example("SELECT 'a' || 2 * 3")
def test_tree_evaluates_as_sqlite_reads_the_text(sql):
    with closing(oracle_db()) as conn:
        try:
            rows = conn.execute(sql).fetchall()
        except sqlite3.Error:
            return
        tree_rows = conn.execute(bracketed(sqlast.parse(sql).stmt)).fetchall()
    assert sorted(tree_rows, key=repr) == sorted(rows, key=repr), sql


if __name__ == "__main__":
    print(json.dumps({sql: outcome_digest(sql) for sql in CORPUS},
                     indent=1, sort_keys=True))
