"""The SQL front end: lexer and parser equivalence checks.

Two references pin the front end's observable output:

* `fixtures/sqlast_digests.json` holds, for each corpus query, one digest
  over the tokens and the tree (or the error message and offset) of the
  query, of its base/expanded/detailed skeleton texts, and of every
  prefix of these four texts. It is the output of this file run as a
  script (`PYTHONPATH=src python tests/test_sqlast.py`) against the
  recursive-descent parser that predates the master-pattern lexer and
  precedence climbing.

* `ReferenceLexer` below is the character-dispatch lexer that the
  master-pattern lexer replaced, kept as an oracle for a differential
  test on generated text.
"""

from __future__ import annotations

import hashlib
import json
import re
import sqlite3
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skelsearch import GranularityLevel, extract_skeleton, parse_query
from skelsearch import sqlast
from skelsearch.sqlast import KEYWORDS, SqlSyntaxError, Token, TokenType

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
        return repr(sqlast.parse(text))
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
    ("SELECT a + b * c - d || e", "(|| (- (+ a (* b c)) d) e)"),
    ("SELECT a NOT BETWEEN 1 AND 2 AND b NOT LIKE c ESCAPE d",
     "(AND (NOT BETWEEN a 1 2) (NOT LIKE b c))"),
    ("SELECT a BETWEEN 1 + 2 AND 3 * 4 - 5",
     "(BETWEEN a (+ 1 2) (- (* 3 4) 5))"),
    ("SELECT -a COLLATE nocase", "(- (COLLATE a nocase))"),
    ("SELECT a IS NOT b = c IN (1)", "(IN (= (IS NOT a b) c) 1)"),
])
def test_precedence(text, expected):
    assert sexpr(sqlast.parse(text).arms[0].items[0].expr) == expected


@pytest.mark.parametrize("text,message", [
    # IN (...) ends a comparison: a tighter operator may not extend it
    ("SELECT a FROM t WHERE b IN (1) + 2", "trailing input '+' (offset 31)"),
    ("SELECT a FROM t WHERE NOT b IN (1) * 2",
     "trailing input '*' (offset 35)"),
    # prefix NOT is not an operand of a comparison
    ("SELECT a = NOT b", "unexpected token 'NOT' (offset 11)"),
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
                if end < 0:
                    raise SqlSyntaxError("unterminated identifier", start)
                self.pos = end + 1
                return Token(TokenType.IDENTIFIER, text[start + 1:end], start)

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
    "[", "]", "'", "''", "'it''s'", "\"", "\"q\"", "`", "`b`", "--", "\n",
    "/*", "*/", "/**/", "*", "/", "-", "+", "%", "=", "==", "<", ">", "<>",
    "!=", "!", "<=", ">=", "|", "||", "(", ")", ",", ".", ";", "0", "7",
    "12", "1.", ".5", "1e5", "2E-3", "0x1F", "0X", "e", "²", "٣", "௫",
    "@", "?", "$", "#", "é", "ß", "\t", " ", " ", " ", "\x1c",
    "　", "\x85", "\r",
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
    cast = sqlast.parse("SELECT CAST(a AS VARCHAR(20)) FROM t") \
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
    core = sqlast.parse(sql).arms[0]
    assert expected in (core.where, core.items[0])


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


if __name__ == "__main__":
    print(json.dumps({sql: outcome_digest(sql) for sql in CORPUS},
                     indent=1, sort_keys=True))
