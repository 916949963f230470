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


@dataclass
class Token:
    type: TokenType
    value: str
    offset: int


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

_WORD_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_NUMBER_RE = re.compile(
    r"\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?"
    r"|0[xX][0-9a-fA-F]+")
_PLACEHOLDER_RE = re.compile(r"\[(?:col|tab|val|agg)\]")


class Lexer:
    """Tokenizer for the SQLite SELECT dialect plus skeleton placeholders."""

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

        m = _PLACEHOLDER_RE.match(text, start)
        if m:
            self.pos = m.end()
            return Token(TokenType.PLACEHOLDER, m.group(), start)
        if ch == "_" and not _WORD_RE.match(text, start + 1):
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
            m = _NUMBER_RE.match(text, start)
            if m:
                self.pos = m.end()
                return Token(TokenType.NUMBER, m.group(), start)

        m = _WORD_RE.match(text, start)
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
    negated: bool
    query: object


@dataclass
class Between:
    negated: bool
    expr: object
    low: object
    high: object


@dataclass
class LikeOp:
    op: str
    negated: bool
    left: object
    right: object
    escape: object | None = None


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


_COMPARISONS = frozenset({"=", "!=", "<", "<=", ">", ">="})
_SET_STARTERS = frozenset({"UNION", "INTERSECT", "EXCEPT"})
_ARM_FOLLOWERS = frozenset({"UNION", "INTERSECT", "EXCEPT", "ORDER",
                            "LIMIT"})


class Parser:
    """Recursive-descent parser over the token stream."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0

    def peek(self, k: int = 0) -> Token:
        j = min(self.i + k, len(self.tokens) - 1)
        return self.tokens[j]

    def advance(self) -> Token:
        tok = self.peek()
        if tok.type is not TokenType.EOF:
            self.i += 1
        return tok

    def at_keyword(self, *words: str) -> bool:
        for k, word in enumerate(words):
            tok = self.peek(k)
            if tok.type is not TokenType.KEYWORD or tok.value != word:
                return False
        return True

    def eat_keyword(self, *words: str) -> bool:
        if self.at_keyword(*words):
            self.i += len(words)
            return True
        return False

    def at_op(self, op: str, k: int = 0) -> bool:
        tok = self.peek(k)
        return tok.type is TokenType.OPERATOR and tok.value == op

    def eat_op(self, op: str) -> bool:
        if self.at_op(op):
            self.i += 1
            return True
        return False

    def expect_op(self, op: str) -> None:
        if not self.eat_op(op):
            tok = self.peek()
            raise SqlSyntaxError(f"expected {op!r}, found {tok.value!r}",
                                 tok.offset)

    def expect_keyword(self, word: str) -> None:
        if not self.eat_keyword(word):
            tok = self.peek()
            raise SqlSyntaxError(f"expected {word}, found {tok.value!r}",
                                 tok.offset)

    def fail(self, message: str) -> SqlSyntaxError:
        return SqlSyntaxError(message, self.peek().offset)

    # statement

    def parse_statement(self) -> SelectStmt:
        if self.at_keyword("WITH"):
            raise self.fail("WITH (common table expressions) not supported")
        stmt = self.select_stmt()
        self.eat_op(";")
        if self.peek().type is not TokenType.EOF:
            raise self.fail(f"trailing input {self.peek().value!r}")
        return stmt

    def select_stmt(self) -> SelectStmt:
        arms = [self.select_arm()]
        ops: list[str] = []
        while True:
            if self.eat_keyword("UNION", "ALL"):
                ops.append("UNION ALL")
            elif self.eat_keyword("UNION"):
                ops.append("UNION")
            elif self.eat_keyword("INTERSECT"):
                ops.append("INTERSECT")
            elif self.eat_keyword("EXCEPT"):
                ops.append("EXCEPT")
            else:
                break
            arms.append(self.select_arm())
        order_by = limit = offset = None
        if self.eat_keyword("ORDER", "BY"):
            order_by = [self.order_item()]
            while self.eat_op(","):
                order_by.append(self.order_item())
        if self.eat_keyword("LIMIT"):
            limit = self.expr()
            if self.eat_keyword("OFFSET"):
                offset = self.expr()
            elif self.eat_op(","):
                offset, limit = limit, self.expr()
        return SelectStmt(arms, ops, order_by, limit, offset)

    def select_arm(self):
        tok = self.peek()
        if tok.type is TokenType.PLACEHOLDER and tok.value == "_":
            nxt = self.peek(1)
            if nxt.type is TokenType.EOF or \
                    (nxt.type is TokenType.OPERATOR and
                     nxt.value in {")", ";"}) or \
                    (nxt.type is TokenType.KEYWORD and
                     nxt.value in _ARM_FOLLOWERS):
                self.advance()
                return PlaceholderQuery()
        return self.select_core()

    def select_core(self) -> SelectCore:
        self.expect_keyword("SELECT")
        distinct = False
        if self.eat_keyword("DISTINCT"):
            distinct = True
        else:
            self.eat_keyword("ALL")
        items = [self.select_item()]
        while self.eat_op(","):
            items.append(self.select_item())
        from_ = where = having = None
        group_by = None
        if self.eat_keyword("FROM"):
            from_ = self.from_clause()
        if self.eat_keyword("WHERE"):
            where = self.expr()
        if self.eat_keyword("GROUP", "BY"):
            group_by = [self.expr()]
            while self.eat_op(","):
                group_by.append(self.expr())
        if self.eat_keyword("HAVING"):
            having = self.expr()
        return SelectCore(distinct, items, from_, where, group_by, having)

    def select_item(self) -> SelectItem:
        expr = self.expr()
        alias = None
        if self.eat_keyword("AS"):
            alias = self._name("alias")
        elif self.peek().type is TokenType.IDENTIFIER:
            alias = self.advance().value
        return SelectItem(expr, alias)

    def order_item(self) -> OrderItem:
        expr = self.expr()
        desc = False
        if self.eat_keyword("DESC"):
            desc = True
        else:
            self.eat_keyword("ASC")
        return OrderItem(expr, desc)

    def _name(self, what: str) -> str:
        tok = self.peek()
        if tok.type in (TokenType.IDENTIFIER, TokenType.STRING):
            self.advance()
            return tok.value
        raise self.fail(f"expected {what}")

    # FROM clause

    def from_clause(self) -> JoinChain:
        chain = JoinChain(self.source())
        while True:
            if self.eat_op(","):
                chain.joins.append(Join("JOIN", self.source()))
                continue
            kind = self._join_kind()
            if kind is None:
                return chain
            source = self.source()
            on = None
            using: list[str] = []
            if self.eat_keyword("ON"):
                on = self.expr()
            elif self.eat_keyword("USING"):
                self.expect_op("(")
                using.append(self._name("column"))
                while self.eat_op(","):
                    using.append(self._name("column"))
                self.expect_op(")")
            chain.joins.append(Join(kind, source, on, using))

    def _join_kind(self) -> str | None:
        if self.at_keyword("RIGHT") or self.at_keyword("FULL"):
            raise self.fail("RIGHT/FULL joins not supported")
        if self.eat_keyword("NATURAL"):
            for prefix in (("LEFT", "OUTER"), ("LEFT",), ("INNER",),
                           ("CROSS",)):
                if self.eat_keyword(*prefix):
                    break
            self.expect_keyword("JOIN")
            return "JOIN"
        if self.eat_keyword("LEFT", "OUTER", "JOIN") or \
                self.eat_keyword("LEFT", "JOIN"):
            return "LEFT JOIN"
        if self.eat_keyword("INNER", "JOIN") or \
                self.eat_keyword("CROSS", "JOIN") or self.eat_keyword("JOIN"):
            return "JOIN"
        return None

    def source(self):
        tok = self.peek()
        if tok.type is TokenType.OPERATOR and tok.value == "(":
            self.advance()
            if self.at_keyword("SELECT") or (
                    self.peek().type is TokenType.PLACEHOLDER and
                    self.peek().value == "_"):
                query = self.select_stmt()
                self.expect_op(")")
                return DerivedTable(query, self._maybe_alias())
            inner = self.from_clause()
            self.expect_op(")")
            self._maybe_alias()
            return inner
        if tok.type is TokenType.PLACEHOLDER:
            self.advance()
            return PlaceholderSource(tok.value)
        if tok.type is not TokenType.IDENTIFIER:
            raise self.fail("expected table name")
        name = self.advance().value
        schema = None
        if self.at_op(".") and self.peek(1).type is TokenType.IDENTIFIER:
            self.advance()
            schema, name = name, self.advance().value
        return TableRef(name, schema, self._maybe_alias())

    def _maybe_alias(self) -> str | None:
        if self.eat_keyword("AS"):
            return self._name("alias")
        if self.peek().type is TokenType.IDENTIFIER:
            return self.advance().value
        return None

    # expressions

    def expr(self):
        return self._or()

    def _or(self):
        expr = self._and()
        while self.eat_keyword("OR"):
            expr = Binary("OR", expr, self._and())
        return expr

    def _and(self):
        expr = self._not()
        while self.eat_keyword("AND"):
            expr = Binary("AND", expr, self._not())
        return expr

    def _not(self):
        if self.at_keyword("NOT") and not self.at_keyword("NOT", "EXISTS"):
            self.advance()
            return Unary("NOT", self._not())
        return self._comparison()

    def _comparison(self):
        expr = self._additive()
        while True:
            negated = False
            if self.at_keyword("NOT") and self.peek(1).type is \
                    TokenType.KEYWORD and self.peek(1).value in \
                    {"IN", "BETWEEN", "LIKE", "GLOB", "REGEXP", "MATCH"}:
                self.advance()
                negated = True
            tok = self.peek()
            if tok.type is TokenType.OPERATOR and tok.value in _COMPARISONS:
                self.advance()
                expr = Binary(tok.value, expr, self._additive())
            elif self.eat_keyword("IN"):
                expr = self._in_tail(negated, expr)
            elif self.eat_keyword("BETWEEN"):
                low = self._additive()
                self.expect_keyword("AND")
                expr = Between(negated, expr, low, self._additive())
            elif tok.type is TokenType.KEYWORD and tok.value in \
                    {"LIKE", "GLOB", "REGEXP", "MATCH"}:
                self.advance()
                right = self._additive()
                escape = None
                if self.eat_keyword("ESCAPE"):
                    escape = self._additive()
                expr = LikeOp(tok.value, negated, expr, right, escape)
            elif self.eat_keyword("IS"):
                is_negated = self.eat_keyword("NOT")
                expr = IsOp(is_negated, expr, self._additive())
            else:
                return expr

    def _in_tail(self, negated: bool, expr):
        self.expect_op("(")
        if self.at_keyword("SELECT") or (
                self.peek().type is TokenType.PLACEHOLDER and
                self.peek().value == "_" and self._ph_starts_query()):
            query = self.select_stmt()
            self.expect_op(")")
            return InSelect(negated, expr, query)
        items = [self.expr()]
        while self.eat_op(","):
            items.append(self.expr())
        self.expect_op(")")
        return InList(negated, expr, items)

    def _ph_starts_query(self) -> bool:
        nxt = self.peek(1)
        return nxt.type is TokenType.KEYWORD and nxt.value in _SET_STARTERS

    def _additive(self):
        expr = self._multiplicative()
        while True:
            tok = self.peek()
            if tok.type is TokenType.OPERATOR and tok.value in \
                    {"+", "-", "||"}:
                self.advance()
                expr = Binary(tok.value, expr, self._multiplicative())
            else:
                return expr

    def _multiplicative(self):
        expr = self._unary()
        while True:
            tok = self.peek()
            if tok.type is TokenType.OPERATOR and tok.value in \
                    {"*", "/", "%"}:
                self.advance()
                expr = Binary(tok.value, expr, self._unary())
            else:
                return expr

    def _unary(self):
        tok = self.peek()
        if tok.type is TokenType.OPERATOR and tok.value in {"+", "-"}:
            self.advance()
            return Unary(tok.value, self._unary())
        return self._postfix()

    def _postfix(self):
        expr = self._primary()
        while self.eat_keyword("COLLATE"):
            expr = Collate(expr, self._name("collation"))
        return expr

    def _primary(self):
        tok = self.peek()
        if tok.type is TokenType.PLACEHOLDER:
            self.advance()
            return Placeholder(tok.value)
        if tok.type is TokenType.NUMBER:
            self.advance()
            return Literal(tok.value, "number")
        if tok.type is TokenType.STRING:
            self.advance()
            return Literal(tok.value, "string")
        if tok.type is TokenType.KEYWORD:
            if tok.value == "NULL":
                self.advance()
                return Literal("NULL", "null")
            if tok.value in {"TRUE", "FALSE"}:
                self.advance()
                return Literal(tok.value, "bool")
            if tok.value == "EXISTS" or self.at_keyword("NOT", "EXISTS"):
                negated = self.eat_keyword("NOT")
                self.expect_keyword("EXISTS")
                self.expect_op("(")
                query = self.select_stmt()
                self.expect_op(")")
                return Exists(negated, query)
            if tok.value == "CASE":
                return self._case()
            if tok.value == "CAST":
                return self._cast()
        if tok.type is TokenType.OPERATOR and tok.value == "(":
            self.advance()
            if self.at_keyword("SELECT"):
                query = self.select_stmt()
                self.expect_op(")")
                return Subquery(query)
            expr = self.expr()
            self.expect_op(")")
            return Grouping(expr)
        if tok.type is TokenType.OPERATOR and tok.value == "*":
            self.advance()
            return Star()
        if tok.type is TokenType.IDENTIFIER:
            return self._name_or_call()
        raise self.fail(f"unexpected token {tok.value!r}")

    def _case(self) -> Case:
        self.expect_keyword("CASE")
        operand = None
        if not self.at_keyword("WHEN"):
            operand = self.expr()
        whens = []
        while self.eat_keyword("WHEN"):
            cond = self.expr()
            self.expect_keyword("THEN")
            whens.append((cond, self.expr()))
        if not whens:
            raise self.fail("CASE requires at least one WHEN")
        default = None
        if self.eat_keyword("ELSE"):
            default = self.expr()
        self.expect_keyword("END")
        return Case(operand, whens, default)

    def _cast(self) -> Cast:
        self.expect_keyword("CAST")
        self.expect_op("(")
        expr = self.expr()
        self.expect_keyword("AS")
        parts = []
        while self.peek().type in (TokenType.IDENTIFIER, TokenType.KEYWORD) \
                or self.at_op("("):
            if self.at_op("("):
                self.advance()
                while not self.eat_op(")"):
                    self.advance()
                break
            parts.append(self.advance().value)
        if not parts:
            raise self.fail("expected type name in CAST")
        self.expect_op(")")
        return Cast(expr, " ".join(parts))

    def _name_or_call(self):
        name = self.advance().value
        if self.at_op("("):
            return self._call(name)
        table = None
        if self.at_op("."):
            self.advance()
            if self.eat_op("*"):
                return Star(name)
            table, name = name, self._name("column")
        return ColumnRef(table, name)

    def _call(self, name: str) -> FuncCall:
        self.expect_op("(")
        args: list = []
        distinct = False
        if self.eat_op("*"):
            args.append(Star())
        elif not self.at_op(")"):
            if self.eat_keyword("DISTINCT"):
                distinct = True
            else:
                self.eat_keyword("ALL")
            args.append(self.expr())
            while self.eat_op(","):
                args.append(self.expr())
        self.expect_op(")")
        window = False
        if self.eat_keyword("OVER"):
            window = True
            self.expect_op("(")
            depth = 1
            while depth:
                tok = self.advance()
                if tok.type is TokenType.EOF:
                    raise self.fail("unterminated window definition")
                if tok.type is TokenType.OPERATOR and tok.value == "(":
                    depth += 1
                elif tok.type is TokenType.OPERATOR and tok.value == ")":
                    depth -= 1
        return FuncCall(name.upper(), args, distinct, window)


def parse(text: str, tokens: list[Token] | None = None) -> SelectStmt:
    """Parse one SELECT statement, raising SqlSyntaxError on bad input.

    `tokens`, when given, must be `Lexer(text).tokens()` (EOF included);
    a caller that has already lexed the text passes them to skip a
    second lex.
    """
    if not text or not text.strip():
        raise SqlSyntaxError("empty statement", 0)
    if tokens is None:
        tokens = Lexer(text).tokens()
    return Parser(tokens).parse_statement()
