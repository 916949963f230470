"""SQLite-dialect SELECT parser producing a small expression AST.

The parser covers the query shapes found in the common text-to-SQL
benchmarks: plain and compound SELECTs, every SQLite join form, subqueries
in any expression or FROM position, aggregates, CASE/CAST, window calls,
and the usual predicate operators. Statements other than SELECT are
rejected.

Skeleton placeholder tokens are first-class: `_` and the typed slots
`[col]`, `[tab]`, `[val]`, `[agg]` lex as placeholders, so the same parser
handles full SQL, pure skeleton text, and mixed output from an agent.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum, auto
from itertools import islice


class SqlSyntaxError(ValueError):
    """Raised when the input does not parse; carries a byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class TokenType(Enum):
    KEYWORD = auto()
    IDENTIFIER = auto()
    STRING = auto()
    NUMBER = auto()
    OPERATOR = auto()
    PLACEHOLDER = auto()
    EOF = auto()


@dataclass(slots=True)
class Token:
    type: TokenType
    value: str
    offset: int


# The token kinds as module constants: on Python 3.11 each `TokenType.X`
# lookup runs the enum metaclass, several times the cost of a global.
_KEYWORD = TokenType.KEYWORD
_IDENTIFIER = TokenType.IDENTIFIER
_STRING = TokenType.STRING
_NUMBER = TokenType.NUMBER
_OPERATOR = TokenType.OPERATOR
_PLACEHOLDER = TokenType.PLACEHOLDER
_EOF = TokenType.EOF


KEYWORDS = frozenset({
    "SELECT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "ORDER", "LIMIT",
    "OFFSET", "JOIN", "LEFT", "RIGHT", "FULL", "INNER", "OUTER", "CROSS",
    "NATURAL", "ON", "USING", "AS", "AND", "OR", "NOT", "IN", "EXISTS",
    "BETWEEN", "LIKE", "GLOB", "REGEXP", "MATCH", "IS", "NULL", "DISTINCT",
    "ALL", "UNION", "INTERSECT", "EXCEPT", "CASE", "WHEN", "THEN", "ELSE",
    "END", "CAST", "COLLATE", "ASC", "DESC", "ESCAPE", "TRUE", "FALSE",
    "OVER", "PARTITION", "ROWS", "RANGE", "GROUPS", "UNBOUNDED",
    "PRECEDING", "FOLLOWING", "CURRENT", "ROW", "WITH", "VALUES",
})

PLACEHOLDER_SYMBOLS = frozenset({"_", "[col]", "[tab]", "[val]", "[agg]"})

AGGREGATE_FUNCTIONS = frozenset({
    "COUNT", "SUM", "AVG", "MIN", "MAX", "TOTAL", "GROUP_CONCAT",
})

_TOKEN_RE = re.compile(r"""
    (?:\s+|--[^\n]*\n?|/\*[\s\S]*?\*/)*    # trivia, skipped
    (?:
        (?P<comment>/\*)                    # a comment never closed
      | (?P<placeholder>\[(?:col|tab|val|agg)\]|_(?![A-Za-z0-9_]))
      | (?P<string>'[^']*(?:''[^']*)*'(?!'))
      | (?P<quoted>`[^`]*(?:``[^`]*)*`(?!`)|"[^"]*(?:""[^"]*)*"(?!")
                  |\[[^\]]*\])
      | (?P<number>0[xX][0-9a-fA-F]+|\d+\.\d*(?:[eE][+-]?\d+)?
                  |\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)
      | (?P<word>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<op2>==|<>|!=|<=|>=|\|\|)
      | (?P<op>[-=<>+*/%(),.;])
      | (?P<bad>.)
      | (?P<end>\Z)
    )""", re.VERBOSE)

# SQLite's quoted strings and names, then its comments, as regex text:
# enough of the lexical grammar for a scan that does not lex to tell the
# SQL around them from what they hold (`sqlgen.extract_statement`,
# `selector._is_ordered`). A match that starts with `-` or `/` is a
# comment; under re.DOTALL one never closed runs to the end. The text
# has no group, so that `re` skips ahead to a character that can start
# a match.
QUOTED_OR_COMMENT = (r"'(?:[^']|'')*'|\"(?:[^\"]|\"\")*\"|`(?:[^`]|``)*`"
                     r"|\[[^\]]*\]|--[^\n]*|/\*.*?(?:\*/|\Z)")

_OP_SPELLINGS = {"==": "=", "<>": "!="}
# A `bad` character that opens a string or quoted name was never closed.
_UNTERMINATED = {"'": "unterminated string",
                 **dict.fromkeys("`\"[", "unterminated identifier")}

# Whole space-separated pieces the split path lexes without the master
# pattern: each placeholder, each operator spelled as the pattern lexes it
# (`op` and `op2`), and each keyword in upper case. Other keywords and
# names are ASCII words, tested in `Lexer.tokens`.
_PIECES = {
    **{p: (_PLACEHOLDER, p) for p in PLACEHOLDER_SYMBOLS},
    **{op: (_OPERATOR, op) for op in "-=<>+*/%(),.;"},
    **{op: (_OPERATOR, _OP_SPELLINGS.get(op, op))
       for op in ("==", "<>", "!=", "<=", ">=", "||")},
    **{word: (_KEYWORD, word) for word in KEYWORDS},
}


class Lexer:
    """Tokenizer for the SQLite SELECT dialect plus skeleton placeholders.

    Most agent lines are skeleton text: keywords, placeholders and
    operators between single spaces. So the text is first split on
    spaces, and each piece that is one whole token (a placeholder, an
    operator or an ASCII word) becomes that token. From the first piece
    that is not, the master pattern lexes the rest: it matches the
    trivia before a token and the token itself, and its named group says
    which kind of token it is. The pattern matches at every position (a
    stray character is `bad`, the end is `end`), so `finditer` walks the
    text token by token with no gaps. A whole-token piece is exactly what
    the pattern would match after one space of trivia, so the tokens and
    offsets are the pattern's own; `match_tokens([], 0)` is the pattern
    alone, the reference.

    With a `limit` (at least 0), lexing stops after `limit + 1` tokens: a
    text that holds more than `limit` comes back as its first `limit + 1`
    tokens and EOF, and nothing after them is lexed or checked.
    """

    def __init__(self, text: str, limit: int | None = None):
        self.text = text
        self.limit = limit

    def tokens(self) -> list[Token]:
        text = self.text
        out: list[Token] = []
        append = out.append
        offset = 0
        # at most `limit + 1` pieces: past the limit, the last one holds a
        # space, so the pattern lexes it, with one token left to lex
        for piece in text.split(" ", -1 if self.limit is None
                                else self.limit):
            known = _PIECES.get(piece)
            if known is not None:
                append(Token(known[0], known[1], offset))
            elif piece.isascii() and piece.isidentifier():
                # an ASCII identifier is exactly [A-Za-z_][A-Za-z0-9_]*;
                # test ASCII first, as `"ſelect".upper()` is "SELECT"
                up = piece.upper()
                if up in KEYWORDS:
                    append(Token(_KEYWORD, up, offset))
                else:
                    append(Token(_IDENTIFIER, piece, offset))
            else:
                return self.match_tokens(out, offset)
            offset += len(piece) + 1
        append(Token(_EOF, "", len(text)))
        return out

    def match_tokens(self, out: list[Token], pos: int) -> list[Token]:
        """`out`, the tokens before offset `pos`, extended by the master
        pattern's tokens from `pos` on, and EOF."""
        text = self.text
        append = out.append
        matches = _TOKEN_RE.finditer(text, pos)
        if self.limit is not None:
            matches = islice(matches, self.limit + 1 - len(out))
        for m in matches:
            kind = m.lastgroup
            start = m.start(kind)
            if kind == "word":
                word = m[kind]
                up = word.upper()
                if up in KEYWORDS:
                    append(Token(_KEYWORD, up, start))
                else:
                    append(Token(_IDENTIFIER, word, start))
            elif kind == "op":
                append(Token(_OPERATOR, m[kind], start))
            elif kind == "placeholder":
                append(Token(_PLACEHOLDER, m[kind], start))
            elif kind == "number":
                append(Token(_NUMBER, m[kind], start))
            elif kind == "string":
                append(Token(_STRING, m[kind], start))
            elif kind == "quoted":
                # a doubled closing quote stands for one; `]` never doubles
                name, closer = m[kind][1:-1], m[kind][-1]
                append(Token(_IDENTIFIER, name.replace(closer * 2, closer),
                             start))
            elif kind == "op2":
                op = m[kind]
                append(Token(_OPERATOR, _OP_SPELLINGS.get(op, op), start))
            elif kind == "end":
                break
            elif kind == "comment":
                raise SqlSyntaxError("unterminated comment", start)
            else:
                ch = m[kind]
                raise SqlSyntaxError(
                    _UNTERMINATED.get(ch, f"unexpected character {ch!r}"),
                    start)
        append(Token(_EOF, "", len(text)))
        return out


# Expression nodes

@dataclass
class Literal:
    value: str
    kind: str  # "number" | "string" | "null" | "bool"


@dataclass
class ColumnRef:
    table: str | None
    name: str


@dataclass
class Star:
    table: str | None = None


@dataclass
class Placeholder:
    symbol: str


@dataclass
class FuncCall:
    name: str
    args: list
    distinct: bool = False
    window: bool = False


@dataclass
class Unary:
    op: str
    operand: object


@dataclass
class Binary:
    op: str
    left: object
    right: object


@dataclass
class Grouping:
    expr: object


@dataclass
class InList:
    negated: bool
    expr: object
    items: list


@dataclass
class InSelect:
    negated: bool
    expr: object
    query: object


@dataclass
class Exists:
    query: object


@dataclass
class Between:
    negated: bool
    expr: object
    low: object
    high: object


@dataclass
class LikeOp:
    """`left op right`; an ESCAPE operand is parsed and dropped."""

    op: str
    negated: bool
    left: object
    right: object


@dataclass
class IsOp:
    negated: bool
    left: object
    right: object


@dataclass
class Case:
    operand: object | None
    whens: list
    default: object | None


@dataclass
class Cast:
    expr: object
    type_name: str


@dataclass
class Collate:
    expr: object
    collation: str


@dataclass
class Subquery:
    query: object


# Query structure nodes

@dataclass
class SelectItem:
    expr: object
    alias: str | None = None


@dataclass
class OrderItem:
    expr: object
    desc: bool = False


@dataclass
class TableRef:
    name: str
    schema: str | None = None
    alias: str | None = None


@dataclass
class DerivedTable:
    query: object
    alias: str | None = None


@dataclass
class PlaceholderSource:
    symbol: str


@dataclass
class Join:
    kind: str  # "JOIN" | "LEFT JOIN"
    source: object
    on: object | None = None
    using: list[str] = field(default_factory=list)


@dataclass
class JoinChain:
    first: object
    joins: list[Join] = field(default_factory=list)


@dataclass
class SelectCore:
    distinct: bool
    items: list[SelectItem]
    from_: JoinChain | None
    where: object | None
    group_by: list | None
    having: object | None


@dataclass
class PlaceholderQuery:
    symbol: str = "_"


@dataclass
class SelectStmt:
    arms: list  # SelectCore | PlaceholderQuery
    ops: list[str]  # set operators between consecutive arms
    order_by: list[OrderItem] | None = None
    limit: object | None = None
    offset: object | None = None


# The AST's shape: each inner node class's child fields in source order.
# Leaf classes have no entry. Every walk over a tree goes through
# `children`, so a new node class needs one line here.
_CHILD_FIELDS: dict[type, tuple[str, ...]] = {
    FuncCall: ("args",),
    Unary: ("operand",),
    Binary: ("left", "right"),
    Grouping: ("expr",),
    InList: ("expr", "items"),
    InSelect: ("expr", "query"),
    Exists: ("query",),
    Between: ("expr", "low", "high"),
    LikeOp: ("left", "right"),
    IsOp: ("left", "right"),
    Case: ("operand", "whens", "default"),
    Cast: ("expr",),
    Collate: ("expr",),
    Subquery: ("query",),
    SelectItem: ("expr",),
    OrderItem: ("expr",),
    DerivedTable: ("query",),
    Join: ("source", "on"),
    JoinChain: ("first", "joins"),
    SelectCore: ("items", "from_", "where", "group_by", "having"),
    SelectStmt: ("arms", "order_by", "limit", "offset"),
}


def children(node) -> list:
    """The child nodes of `node` in source order; [] for a leaf.

    Absent optional fields are skipped, list fields are spread, and the
    (condition, value) pairs of `Case.whens` are flattened.
    """
    out = []
    for name in _CHILD_FIELDS.get(type(node), ()):
        value = getattr(node, name)
        if value is None:
            continue
        if isinstance(value, list):
            for item in value:
                if isinstance(item, tuple):
                    out.extend(item)
                else:
                    out.append(item)
        else:
            out.append(value)
    return out


# Parser tags: a keyword, operator or placeholder token is tagged with its
# text; the other kinds with a lowercase name no token text can equal.
_TYPE_TAGS = {_IDENTIFIER: "identifier", _STRING: "string",
              _NUMBER: "number", _EOF: "eof"}
# The longest lookahead past the current token (LEFT OUTER JOIN).
_LOOKAHEAD = 2
# How many nodes tall a parse tree may be; deeper input is a syntax error
# at the token that passes the bound. Nested calls take the parser 4
# frames a level; skeleton rendering takes fewer (Detailed 2). So 150
# levels need 600 frames of the default recursion limit of 1000 and
# leave the caller 400. The test corpus tops out at 13.
MAX_HEIGHT = 150
_TOO_DEEP = f"query nested deeper than {MAX_HEIGHT} levels"

# Binding power of the infix operators, loosest first; every level is
# left-associative. These are SQLite's levels (lang_expr.html#operators,
# less the operators the lexer has no token for); prefix NOT binds between
# AND and `=`, and a prefix sign tighter than COLLATE.
_OR, _AND, _NOT, _EQ, _LT, _ADD, _MUL, _CONCAT, _COLLATE = range(1, 10)
_INFIX = {
    "OR": _OR, "AND": _AND,
    **dict.fromkeys(("=", "!=", "IS", "IN", "LIKE", "GLOB", "REGEXP", "MATCH",
                     "BETWEEN", "NOT"), _EQ),
    **dict.fromkeys(("<", "<=", ">", ">="), _LT),
    "+": _ADD, "-": _ADD,
    "*": _MUL, "/": _MUL, "%": _MUL,
    "||": _CONCAT,
    "COLLATE": _COLLATE,
}
_LIKE_OPS = frozenset({"LIKE", "GLOB", "REGEXP", "MATCH"})
_NEGATABLE = _LIKE_OPS | {"IN", "BETWEEN"}
_SET_STARTERS = frozenset({"UNION", "INTERSECT", "EXCEPT"})
_JOIN_STARTS = frozenset({"JOIN", "LEFT", "INNER", "CROSS", "NATURAL",
                          "RIGHT", "FULL"})
# What may follow a `_` that stands for a whole SELECT arm.
_ARM_ENDS = _SET_STARTERS | {"ORDER", "LIMIT", ")", ";", "eof"}


class Parser:
    """Recursive-descent parser over the token stream.

    `tags[i]` is the tag of `tokens[i]`, so each test of the current
    token is one list lookup; both lists are padded with EOF so that
    lookahead never runs off the end.

    `depth` is the tree depth of the node being parsed, and `deepest`
    the deepest level that the innermost open expression's subtree
    reaches. An infix operator puts a new node above everything its
    expression has parsed so far, so it pushes `deepest` one level down.

    On the way the parser notes what skeleton rendering asks of a tree.
    `selects` counts the SELECTs finished so far: an expression or
    FROM-chain node holds a subquery iff the count has grown between the
    node's first token and its construction, and then its id goes into
    `marks`. `level` is the subquery level of the innermost open SELECT
    (the statement's own is 0), `nesting` the deepest level opened, and
    `placeholder_query` whether a `_` stood for a whole SELECT arm.
    """

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens + [tokens[-1]] * _LOOKAHEAD
        self.tags = [
            tok.value if (kind := tok.type) is _KEYWORD
            or kind is _OPERATOR or kind is _PLACEHOLDER
            else "identifier" if kind is _IDENTIFIER else _TYPE_TAGS[kind]
            for tok in self.tokens]
        self.i = 0
        self.depth = self.deepest = 0
        self.marks: set[int] = set()
        self.selects = self.nesting = 0
        self.level = -1
        self.placeholder_query = False

    def peek(self) -> Token:
        return self.tokens[self.i]

    def advance(self) -> Token:
        tok = self.tokens[self.i]
        if tok.type is not _EOF:
            self.i += 1
        return tok

    def at(self, tag: str) -> bool:
        return self.tags[self.i] == tag

    def eat(self, tag: str) -> bool:
        if self.tags[self.i] == tag:
            self.i += 1
            return True
        return False

    def eat_seq(self, *tags: str) -> bool:
        i = self.i
        for k, tag in enumerate(tags):
            if self.tags[i + k] != tag:
                return False
        self.i = i + len(tags)
        return True

    def expect_op(self, op: str) -> None:
        if not self.eat(op):
            tok = self.peek()
            raise SqlSyntaxError(f"expected {op!r}, found {tok.value!r}",
                                 tok.offset)

    def expect_keyword(self, word: str) -> None:
        if not self.eat(word):
            tok = self.peek()
            raise SqlSyntaxError(f"expected {word}, found {tok.value!r}",
                                 tok.offset)

    def fail(self, message: str) -> SqlSyntaxError:
        return SqlSyntaxError(message, self.peek().offset)

    def reach(self, depth: int) -> int:
        """Note that the tree reaches `depth`, failing past MAX_HEIGHT."""
        if depth > MAX_HEIGHT:
            raise self.fail(_TOO_DEEP)
        if depth > self.deepest:
            self.deepest = depth
        return depth

    # statement

    def parse_statement(self) -> SelectStmt:
        if self.at("WITH"):
            raise self.fail("WITH (common table expressions) not supported")
        stmt = self.select_stmt()
        self.eat(";")
        if not self.at("eof"):
            raise self.fail(f"trailing input {self.peek().value!r}")
        return stmt

    def select_stmt(self) -> SelectStmt:
        # The statement, its SelectCore, and a SelectItem or JoinChain
        # sit above the expressions and sources it holds.
        outer = self.depth
        self.depth = self.reach(outer + 3)
        level = self.level = self.level + 1
        if level > self.nesting:
            self.nesting = level
        arms = [self.select_arm()]
        ops: list[str] = []
        while True:
            tag = self.tags[self.i]
            if tag not in _SET_STARTERS:
                break
            self.i += 1
            if tag == "UNION" and self.eat("ALL"):
                tag = "UNION ALL"
            ops.append(tag)
            arms.append(self.select_arm())
        order_by = limit = offset = None
        if self.eat_seq("ORDER", "BY"):
            order_by = [self.order_item()]
            while self.eat(","):
                order_by.append(self.order_item())
        if self.eat("LIMIT"):
            limit = self.expr()
            if self.eat("OFFSET"):
                offset = self.expr()
            elif self.eat(","):
                offset, limit = limit, self.expr()
        self.depth = outer
        self.level = level - 1
        self.selects += 1
        return SelectStmt(arms, ops, order_by, limit, offset)

    def select_arm(self):
        if self.at("_") and self.tags[self.i + 1] in _ARM_ENDS:
            self.i += 1
            self.placeholder_query = True
            return PlaceholderQuery()
        return self.select_core()

    def select_core(self) -> SelectCore:
        self.expect_keyword("SELECT")
        distinct = self.eat("DISTINCT")
        if not distinct:
            self.eat("ALL")
        items = [self.select_item()]
        while self.eat(","):
            items.append(self.select_item())
        from_ = where = having = None
        group_by = None
        if self.eat("FROM"):
            from_ = self.from_clause()
        if self.eat("WHERE"):
            where = self.expr()
        if self.eat_seq("GROUP", "BY"):
            group_by = [self.expr()]
            while self.eat(","):
                group_by.append(self.expr())
        if self.eat("HAVING"):
            having = self.expr()
        return SelectCore(distinct, items, from_, where, group_by, having)

    def select_item(self) -> SelectItem:
        expr = self.expr()
        alias = None
        if self.eat("AS"):
            alias = self._name("alias")
        elif self.at("identifier"):
            alias = self.advance().value
        return SelectItem(expr, alias)

    def order_item(self) -> OrderItem:
        expr = self.expr()
        desc = self.eat("DESC")
        if not desc:
            self.eat("ASC")
        return OrderItem(expr, desc)

    def _name(self, what: str) -> str:
        tag = self.tags[self.i]
        if tag == "identifier" or tag == "string":
            return self.advance().value
        raise self.fail(f"expected {what}")

    # FROM clause

    def from_clause(self) -> JoinChain:
        start = self.selects
        chain = JoinChain(self.source())
        while True:
            if self.eat(","):
                chain.joins.append(Join("JOIN", self.source()))
                continue
            kind = self._join_kind()
            if kind is None:
                if self.selects != start:
                    self.marks.add(id(chain))
                return chain
            source = self.source()
            on = None
            using: list[str] = []
            if self.eat("ON"):
                on = self.expr()
            elif self.eat("USING"):
                self.expect_op("(")
                using.append(self._name("column"))
                while self.eat(","):
                    using.append(self._name("column"))
                self.expect_op(")")
            chain.joins.append(Join(kind, source, on, using))

    def _join_kind(self) -> str | None:
        tag = self.tags[self.i]
        if tag not in _JOIN_STARTS:
            return None
        if tag == "RIGHT" or tag == "FULL":
            raise self.fail("RIGHT/FULL joins not supported")
        if self.eat("NATURAL"):
            for prefix in (("LEFT", "OUTER"), ("LEFT",), ("INNER",),
                           ("CROSS",)):
                if self.eat_seq(*prefix):
                    break
            self.expect_keyword("JOIN")
            return "JOIN"
        if self.eat_seq("LEFT", "OUTER", "JOIN") or \
                self.eat_seq("LEFT", "JOIN"):
            return "LEFT JOIN"
        if self.eat_seq("INNER", "JOIN") or \
                self.eat_seq("CROSS", "JOIN") or self.eat("JOIN"):
            return "JOIN"
        return None

    def source(self):
        tag = self.tags[self.i]
        if tag == "(":
            self.i += 1
            # A Join, then the DerivedTable or inner JoinChain.
            outer = self.depth
            self.depth = self.reach(outer + 2)
            if self.at("SELECT") or (
                    self.at("_") and self.tags[self.i + 1] in _ARM_ENDS):
                query = self.select_stmt()
                self.expect_op(")")
                self.depth = outer
                return DerivedTable(query, self._maybe_alias())
            inner = self.from_clause()
            self.expect_op(")")
            self._maybe_alias()
            self.depth = outer
            return inner
        if tag in PLACEHOLDER_SYMBOLS:
            self.i += 1
            return PlaceholderSource(tag)
        if tag != "identifier":
            raise self.fail("expected table name")
        name = self.advance().value
        schema = None
        if self.at(".") and self.tags[self.i + 1] == "identifier":
            self.i += 1
            schema, name = name, self.advance().value
        return TableRef(name, schema, self._maybe_alias())

    def _maybe_alias(self) -> str | None:
        if self.eat("AS"):
            return self._name("alias")
        if self.at("identifier"):
            return self.advance().value
        return None

    # expressions

    def expr(self, level: int = _OR):
        """An expression whose infix operators bind at least as tightly
        as `level` (precedence climbing)."""
        tags = self.tags
        start = self.selects
        outer_deepest = self.deepest
        depth = self.depth + 1
        if depth > MAX_HEIGHT:
            raise self.fail(_TOO_DEEP)
        self.depth = self.deepest = depth
        if tags[self.i] == "NOT":
            self.i += 1
            left = Unary("NOT", self.expr(_NOT))
        else:
            left = self._unary()
        while True:
            if self.selects != start:
                self.marks.add(id(left))
            tag = tags[self.i]
            bind = _INFIX.get(tag)
            if bind is None or bind < level:
                break
            negated = tag == "NOT"
            if negated:
                if tags[self.i + 1] not in _NEGATABLE:
                    break
                self.i += 1
                tag = tags[self.i]
            self.reach(self.deepest + 1)
            self.i += 1
            if tag == "IN":
                left = self._in_tail(negated, left)
            elif tag == "COLLATE":
                left = Collate(left, self._name("collation"))
            elif tag == "BETWEEN":
                low = self.expr(_NOT)
                self.expect_keyword("AND")
                left = Between(negated, left, low, self.expr(bind + 1))
            elif tag in _LIKE_OPS:
                right = self.expr(bind + 1)
                if self.eat("ESCAPE"):
                    # The operand is dropped, and so is what it noted.
                    noted = (self.marks, self.selects, self.nesting,
                             self.placeholder_query)
                    self.marks = set()
                    self.expr(bind + 1)
                    (self.marks, self.selects, self.nesting,
                     self.placeholder_query) = noted
                left = LikeOp(tag, negated, left, right)
            elif tag == "IS":
                is_negated = self.eat("NOT")
                left = IsOp(is_negated, left, self.expr(bind + 1))
            else:
                left = Binary(tag, left, self.expr(bind + 1))
        self.depth = depth - 1
        if outer_deepest > self.deepest:
            self.deepest = outer_deepest
        return left

    def _in_tail(self, negated: bool, expr):
        self.expect_op("(")
        if self.at("SELECT") or (
                self.at("_") and self.tags[self.i + 1] in _SET_STARTERS):
            query = self.select_stmt()
            self.expect_op(")")
            return InSelect(negated, expr, query)
        items = [self.expr()]
        while self.eat(","):
            items.append(self.expr())
        self.expect_op(")")
        return InList(negated, expr, items)

    def _unary(self):
        tag = self.tags[self.i]
        if tag == "+" or tag == "-":
            self.i += 1
            # the operand takes no infix operator, as a sign binds tightest
            return Unary(tag, self.expr(_COLLATE + 1))
        return _PRIMARY.get(tag, Parser._unexpected)(self)

    # primaries, dispatched on the tag of their first token by _PRIMARY

    def _placeholder(self) -> Placeholder:
        return Placeholder(self.advance().value)

    def _number(self) -> Literal:
        return Literal(self.advance().value, "number")

    def _string(self) -> Literal:
        return Literal(self.advance().value, "string")

    def _null(self) -> Literal:
        self.i += 1
        return Literal("NULL", "null")

    def _bool(self) -> Literal:
        return Literal(self.advance().value, "bool")

    def _exists(self) -> Exists:
        self.i += 1
        self.expect_op("(")
        query = self.select_stmt()
        self.expect_op(")")
        return Exists(query)

    def _paren(self):
        self.i += 1
        if self.at("SELECT") or (
                self.at("_") and self.tags[self.i + 1] in _SET_STARTERS):
            query = self.select_stmt()
            self.expect_op(")")
            return Subquery(query)
        expr = self.expr()
        self.expect_op(")")
        return Grouping(expr)

    def _star(self) -> Star:
        self.i += 1
        return Star()

    def _unexpected(self):
        raise self.fail(f"unexpected token {self.peek().value!r}")

    def _case(self) -> Case:
        self.expect_keyword("CASE")
        operand = None
        if not self.at("WHEN"):
            operand = self.expr()
        whens = []
        while self.eat("WHEN"):
            cond = self.expr()
            self.expect_keyword("THEN")
            whens.append((cond, self.expr()))
        if not whens:
            raise self.fail("CASE requires at least one WHEN")
        default = None
        if self.eat("ELSE"):
            default = self.expr()
        self.expect_keyword("END")
        return Case(operand, whens, default)

    def _cast(self) -> Cast:
        self.expect_keyword("CAST")
        self.expect_op("(")
        expr = self.expr()
        self.expect_keyword("AS")
        parts = []
        while True:
            tag = self.tags[self.i]
            if tag == "(":  # a size such as VARCHAR(20), skipped
                self.i += 1
                while not self.at(")") and not self.at("eof"):
                    self.i += 1
                self.expect_op(")")
                break
            if tag != "identifier" and tag not in KEYWORDS:
                break
            parts.append(self.advance().value)
        if not parts:
            raise self.fail("expected type name in CAST")
        self.expect_op(")")
        return Cast(expr, " ".join(parts))

    def _name_or_call(self):
        name = self.advance().value
        if self.at("("):
            return self._call(name)
        table = None
        if self.eat("."):
            if self.eat("*"):
                return Star(name)
            table, name = name, self._name("column")
        return ColumnRef(table, name)

    def _call(self, name: str) -> FuncCall:
        self.expect_op("(")
        args: list = []
        distinct = False
        if self.eat("*"):
            args.append(Star())
        elif not self.at(")"):
            distinct = self.eat("DISTINCT")
            if not distinct:
                self.eat("ALL")
            args.append(self.expr())
            while self.eat(","):
                args.append(self.expr())
        self.expect_op(")")
        window = self.eat("OVER")
        if window:
            self.expect_op("(")
            depth = 1
            while depth:
                tag = self.tags[self.i]
                if tag == "eof":
                    raise self.fail("unterminated window definition")
                self.i += 1
                if tag == "(":
                    depth += 1
                elif tag == ")":
                    depth -= 1
        return FuncCall(name.upper(), args, distinct, window)


_PRIMARY = {
    **dict.fromkeys(PLACEHOLDER_SYMBOLS, Parser._placeholder),
    "number": Parser._number,
    "string": Parser._string,
    "identifier": Parser._name_or_call,
    "NULL": Parser._null,
    "TRUE": Parser._bool,
    "FALSE": Parser._bool,
    "EXISTS": Parser._exists,
    "CASE": Parser._case,
    "CAST": Parser._cast,
    "(": Parser._paren,
    "*": Parser._star,
}


@dataclass
class ClauseTree:
    """A parsed statement and what the parser noted about its subqueries.

    `marks` holds the ids of the expression and `JoinChain` nodes that
    hold a SELECT at any depth; no other node kind is marked.
    """

    stmt: SelectStmt
    nesting_depth: int  # subquery levels below the statement; 0 if flat
    has_placeholder_query: bool  # a `_` stands for a whole SELECT arm
    marks: set[int] = field(compare=False, repr=False)


def parse(text: str, tokens: list[Token] | None = None) -> ClauseTree:
    """Parse one SELECT statement, raising SqlSyntaxError on bad input.

    `tokens`, when given, must be `Lexer(text).tokens()` (EOF included);
    a caller that has already lexed the text passes them to skip a
    second lex.
    """
    if not text or not text.strip():
        raise SqlSyntaxError("empty statement", 0)
    if tokens is None:
        tokens = Lexer(text).tokens()
    parser = Parser(tokens)
    stmt = parser.parse_statement()
    return ClauseTree(stmt, parser.nesting, parser.placeholder_query,
                      parser.marks)
