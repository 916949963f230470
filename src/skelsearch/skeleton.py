"""Three-level SQL skeletons.

A skeleton is a structural outline of a query: keywords and placeholders,
never schema identifiers or literals. Three granularities form a total
order:

* Base: only the top-level clause labels, one `_` per clause body.
  Compound queries render one `_` per arm around the set operators.
* Expanded: every subquery boundary at any depth is preserved and rendered
  as ( SELECT ... ); subquery-free spans collapse to `_`; operators appear
  only on the path to a subquery.
* Detailed: typed slots [col] [tab] [val] [agg] replace content, join
  connectives are materialized as JOIN ... ON, and DISTINCT, DESC, LIMIT
  and OFFSET render explicitly.

Canonical skeleton text uses uppercase keywords, single spaces between
tokens, and spaced parentheses, so string equality coincides with tree
equality. Skeleton text re-parses under the same grammar (placeholders are
ordinary leaves), which makes erasing a fine skeleton to a coarser level
the same operation as extracting from full SQL.

The clause tree is what `sqlast.parse` returns: besides the statement it
carries the facts the parser noted on its one pass, namely the nesting
depth, whether a `_` stands for a SELECT arm, and which nodes hold a
subquery. Rendering reads those instead of walking the tree for them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum

from . import sqlast as A
from .sqlast import ClauseTree


class GranularityLevel(IntEnum):
    """Skeleton granularity; the integer order is the refinement order."""

    BASE = 1
    EXPANDED = 2
    DETAILED = 3

    @classmethod
    def from_name(cls, name: str) -> "GranularityLevel":
        try:
            return cls[name.strip().upper()]
        except (AttributeError, KeyError):  # not a string, or no such level
            raise ValueError(f"unknown granularity level {name!r}") from None

    def __init__(self, value: int):
        # an attribute, not a property: records, prompts and span names
        # read it for every skeleton
        self.label = self.name.lower()


# Hot enum members as module constants, as in `sqlast`.
_BASE = GranularityLevel.BASE
_DETAILED = GranularityLevel.DETAILED


class LevelOrderError(ValueError):
    """Raised when a refinement check is asked with the levels reversed."""


@dataclass(frozen=True, slots=True)
class Skeleton:
    """A granularity-tagged skeleton text. Equality and hash read only
    (level, text): the depth follows from the text, as extracting from
    the text's own parse gives back the same text and depth."""

    level: GranularityLevel
    text: str
    nesting_depth: int = field(compare=False)


def parse_query(text: str,
                tokens: list[A.Token] | None = None) -> ClauseTree:
    """Parse SQLite SQL into a clause tree.

    Args:
        text: the query text.
        tokens: `Lexer(text).tokens()` when the caller has already lexed
            the text, so it is not lexed again.

    Raises:
        SqlSyntaxError: when the text is empty or does not parse, with a
            byte offset.
    """
    return A.parse(text, tokens)


def extract_skeleton(tree: ClauseTree, level: GranularityLevel) -> Skeleton:
    """Render the skeleton of a clause tree at the given granularity.

    Base renders no subquery, so its depth is 0; Expanded and Detailed
    keep every subquery boundary, so theirs is the source's depth.
    """
    if level is _BASE:
        return Skeleton(level, _render_base(tree.stmt), 0)
    return Skeleton(level, _Renderer(tree, level).query(tree.stmt),
                    tree.nesting_depth)


def refinement_check(coarse: Skeleton, fine: Skeleton) -> bool:
    """True iff erasing `fine` to coarse.level reproduces coarse.text."""
    if coarse.level > fine.level:
        raise LevelOrderError(
            f"coarse level {coarse.level.label} exceeds fine level "
            f"{fine.level.label}")
    if coarse.level == fine.level:
        return coarse.text == fine.text
    return extract_skeleton(parse_query(fine.text),
                            coarse.level).text == coarse.text


# rendering

def _arm_labels(arm: A.SelectCore) -> list[str]:
    labels = ["SELECT"]
    if arm.from_ is not None:
        labels.append("FROM")
    if arm.where is not None:
        labels.append("WHERE")
    if arm.group_by is not None:
        labels.append("GROUP BY")
    if arm.having is not None:
        labels.append("HAVING")
    return labels


def _render_base(stmt: A.SelectStmt) -> str:
    parts = []
    multi = len(stmt.arms) > 1
    for i, arm in enumerate(stmt.arms):
        if i:
            parts.append(stmt.ops[i - 1])
        if multi or isinstance(arm, A.PlaceholderQuery):
            parts.append("_")
        else:
            parts.append(" ".join(f"{label} _"
                                  for label in _arm_labels(arm)))
    if stmt.order_by is not None:
        parts.append("ORDER BY _")
    if stmt.limit is not None:
        parts.append("LIMIT _")
    if stmt.offset is not None:
        parts.append("OFFSET _")
    return " ".join(parts)


def _bare(word: str, text: str) -> bool:
    """Whether rendered text holds `word` outside every bracket."""
    depth = 0
    for token in text.split(" "):
        depth += (token == "(") - (token == ")")
        if token == word and not depth:
            return True
    return False


class _Renderer:
    """Expanded or Detailed text of one clause tree.

    Whether a node holds a subquery is read from the marks the parser
    left on the tree, so no subtree is walked to find out.
    """

    def __init__(self, tree: ClauseTree, level: GranularityLevel):
        self.marks = tree.marks
        self.detailed = level is _DETAILED

    def query(self, stmt: A.SelectStmt) -> str:
        parts = []
        for i, arm in enumerate(stmt.arms):
            if i:
                parts.append(stmt.ops[i - 1])
            parts.append(self.arm(arm))
        if stmt.order_by is not None:
            if self.detailed:
                body = " , ".join(
                    self.expr(item.expr) + (" DESC" if item.desc else "")
                    for item in stmt.order_by)
            else:
                body = self.runs([item.expr for item in stmt.order_by])
            parts.append("ORDER BY " + body)
        if stmt.limit is not None:
            parts.append("LIMIT " + self.slot(stmt.limit))
        if stmt.offset is not None:
            parts.append("OFFSET " + self.slot(stmt.offset))
        return " ".join(parts)

    def arm(self, arm) -> str:
        if isinstance(arm, A.PlaceholderQuery):
            return "_"
        select = "SELECT DISTINCT" if arm.distinct and self.detailed \
            else "SELECT"
        parts = [select + " " + self.runs([item.expr for item in arm.items])]
        if arm.from_ is not None:
            parts.append("FROM " + self.from_(arm.from_))
        if arm.where is not None:
            parts.append("WHERE " + self.slot(arm.where))
        if arm.group_by is not None:
            parts.append("GROUP BY " + self.runs(arm.group_by))
        if arm.having is not None:
            parts.append("HAVING " + self.slot(arm.having))
        return " ".join(parts)

    def runs(self, exprs) -> str:
        """Comma list; at Expanded, subquery-free runs collapse to one `_`."""
        if self.detailed:
            return " , ".join(self.expr(e) for e in exprs)
        rendered = []
        in_run = False
        for e in exprs:
            if id(e) in self.marks:
                if in_run:
                    rendered.append("_")
                    in_run = False
                rendered.append(self.expr(e))
            else:
                in_run = True
        if in_run:
            rendered.append("_")
        return " , ".join(rendered)

    def slot(self, e) -> str:
        if self.detailed or id(e) in self.marks:
            return self.expr(e)
        return "_"

    def from_(self, chain: A.JoinChain) -> str:
        if not self.detailed and id(chain) not in self.marks:
            return "_"
        parts = [self.source(chain.first)]
        for join in chain.joins:
            parts.append(join.kind)
            parts.append(self.source(join.source))
            if self.detailed:
                if join.on is not None:
                    parts.append("ON " + self.expr(join.on))
                elif join.using:
                    parts.append("ON " + " AND ".join(
                        "[col] = [col]" for _ in join.using))
            elif join.on is not None and id(join.on) in self.marks:
                parts.append("ON " + self.expr(join.on))
        return " ".join(parts)

    def source(self, src) -> str:
        if isinstance(src, A.DerivedTable):
            return "( " + self.query(src.query) + " )"
        if isinstance(src, A.JoinChain):
            return "( " + self.from_(src) + " )"
        if isinstance(src, A.PlaceholderSource):
            return src.symbol if self.detailed else "_"
        return "[tab]" if self.detailed else "_"

    def container(self, e) -> str:
        """Opaque value container: render only the subqueries it holds."""
        subqueries = []

        def collect(node) -> None:
            for child in A.children(node):
                if isinstance(child, A.SelectStmt):
                    subqueries.append(child)
                elif id(child) in self.marks:
                    collect(child)

        collect(e)
        return " AND ".join("( " + self.query(q) + " )" for q in subqueries)

    def expr(self, e) -> str:
        has = id(e) in self.marks
        detailed = self.detailed
        if not detailed and not has:
            return "_"
        if isinstance(e, A.Placeholder):
            return e.symbol if detailed else "_"
        if isinstance(e, A.Subquery):
            return "( " + self.query(e.query) + " )"
        if isinstance(e, A.Exists):
            return "EXISTS ( " + self.query(e.query) + " )"
        if isinstance(e, A.InSelect):
            word = "NOT IN" if e.negated else "IN"
            return f"{self.slot(e.expr)} {word} ( {self.query(e.query)} )"
        if isinstance(e, A.InList):
            word = "NOT IN" if e.negated else "IN"
            if detailed and not has:
                return f"{self.expr(e.expr)} {word} ( [val] )"
            if detailed:
                items = " , ".join(self.expr(x) for x in e.items)
            else:
                items = self.runs(e.items)
            return f"{self.slot(e.expr)} {word} ( {items} )"
        if isinstance(e, A.Binary):
            arithmetic = e.op in ("+", "-", "*", "/", "%", "||")
            if arithmetic and detailed and not has:
                return "[val]"
            return f"{self.slot(e.left)} {e.op} {self.slot(e.right)}"
        if isinstance(e, A.Unary):
            if e.op == "NOT":
                return "NOT " + self.slot(e.operand)
            if detailed and not has:
                return "[val]"
            return self.expr(e.operand)
        if isinstance(e, A.Between):
            word = "NOT BETWEEN" if e.negated else "BETWEEN"
            low = self.slot(e.low)
            # a container's subqueries: bare, their AND would end it
            if _bare("AND", low):
                low = "( " + low + " )"
            return (f"{self.slot(e.expr)} {word} "
                    f"{low} AND {self.slot(e.high)}")
        if isinstance(e, A.LikeOp):
            word = ("NOT " if e.negated else "") + e.op
            right = self.slot(e.right)
            # a bare NOT is a prefix NOT whose operand runs to the end of
            # `right`, and the ESCAPE that may have ended it is gone
            if _bare("NOT", right):
                right = "( " + right + " )"
            return f"{self.slot(e.left)} {word} {right}"
        if isinstance(e, A.IsOp):
            word = "IS NOT" if e.negated else "IS"
            if isinstance(e.right, A.Literal) and e.right.kind == "null":
                right = "NULL" if detailed else "_"
            else:
                right = self.slot(e.right)
            if not detailed:
                return f"{self.slot(e.left)} {word} {right}"
            return f"{self.expr(e.left)} {word} {right}"
        if isinstance(e, A.Grouping):
            inner = self.expr(e.expr) if detailed and not has \
                else self.slot(e.expr)
            if " " in inner:
                return "( " + inner + " )"
            return inner
        if isinstance(e, A.Collate):
            return self.expr(e.expr)
        if isinstance(e, (A.Case, A.Cast)):
            if has:
                return self.container(e)
            return "[val]"
        if isinstance(e, A.FuncCall):
            if has:
                return self.container(e)
            if e.window:
                return "[val]"
            return "[agg]" if e.name in A.AGGREGATE_FUNCTIONS else "[val]"
        if isinstance(e, (A.ColumnRef, A.Star)):
            return "[col]"
        if isinstance(e, A.Literal):
            return "[val]"
        raise TypeError(f"cannot render expression node {type(e).__name__}")
