"""Three-level SQL skeletons derived from clause-level ASTs.

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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from functools import cached_property

from . import sqlast as A


class GranularityLevel(IntEnum):
    """Skeleton granularity; the integer order is the refinement order."""

    BASE = 1
    EXPANDED = 2
    DETAILED = 3

    @classmethod
    def from_name(cls, name: str) -> "GranularityLevel":
        try:
            return cls[name.strip().upper()]
        except KeyError:
            raise ValueError(f"unknown granularity level {name!r}") from None

    @property
    def label(self) -> str:
        return self.name.lower()


class LevelOrderError(ValueError):
    """Raised when a refinement check is asked with the levels reversed."""


@dataclass
class SqlQuery:
    """Raw SQL input tagged with its dialect (only sqlite is accepted)."""

    text: str
    dialect: str = "sqlite"


@dataclass
class QueryNode:
    """Clause-level projection of one (sub)query."""

    depth: int
    clauses: list["ClauseNode"] = field(default_factory=list)
    compound_ops: list[str] = field(default_factory=list)
    arms: list["QueryNode"] = field(default_factory=list)


@dataclass
class ClauseNode:
    """One top-level clause of a query with its nested query nodes."""

    label: str
    subqueries: list[QueryNode] = field(default_factory=list)


@dataclass
class ClauseTree:
    """Parsed statement plus its clause-level projection."""

    stmt: A.SelectStmt
    text: str

    @cached_property
    def root(self) -> QueryNode:
        """Clause-level projection, built on first use."""
        return _project_query(self.stmt, 0)


@dataclass
class Skeleton:
    """A granularity-tagged skeleton; its clause tree is parsed from the
    text on first use."""

    level: GranularityLevel
    text: str
    nesting_depth: int

    @cached_property
    def tree(self) -> ClauseTree:
        return parse_query(self.text)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Skeleton):
            return NotImplemented
        return self.level == other.level and self.text == other.text

    def __hash__(self) -> int:
        return hash((self.level, self.text))


CLAUSE_VOCABULARY = frozenset({
    "SELECT", "FROM", "WHERE", "GROUP BY", "HAVING", "ORDER BY", "LIMIT",
    "OFFSET",
})


def parse_query(q: SqlQuery | str,
                tokens: list[A.Token] | None = None) -> ClauseTree:
    """Parse SQL into a clause tree.

    Args:
        q: the query text, optionally wrapped in SqlQuery to carry an
            explicit dialect tag.
        tokens: `Lexer(text).tokens()` when the caller has already lexed
            the text, so it is not lexed again.

    Raises:
        SqlSyntaxError: when the text does not parse, with a byte offset.
        ValueError: when the declared dialect is not sqlite or the text
            is empty.
    """
    if isinstance(q, str):
        q = SqlQuery(q)
    if q.dialect != "sqlite":
        raise ValueError(f"unsupported dialect {q.dialect!r}")
    if not q.text or not q.text.strip():
        raise ValueError("query text is empty")
    return ClauseTree(A.parse(q.text, tokens), q.text)


def nesting_depth(tree: ClauseTree) -> int:
    """Maximum subquery nesting depth; 0 for flat queries."""
    return _query_depth(tree.stmt)


def extract_skeleton(tree: ClauseTree, level: GranularityLevel) -> Skeleton:
    """Render the skeleton of a clause tree at the given granularity.

    Base renders no subquery, so its depth is 0; Expanded and Detailed
    keep every subquery boundary, so theirs is the source's depth.
    """
    if level is GranularityLevel.BASE:
        return Skeleton(level, _render_base(tree.stmt), 0)
    return Skeleton(level, _render_query(tree.stmt, level),
                    _query_depth(tree.stmt))


def refinement_check(coarse: Skeleton, fine: Skeleton) -> bool:
    """True iff erasing `fine` to coarse.level reproduces coarse.text."""
    if coarse.level > fine.level:
        raise LevelOrderError(
            f"coarse level {coarse.level.label} exceeds fine level "
            f"{fine.level.label}")
    if coarse.level == fine.level:
        return coarse.text == fine.text
    return extract_skeleton(fine.tree, coarse.level).text == coarse.text


# clause-level projection

def _project_query(stmt: A.SelectStmt, depth: int) -> QueryNode:
    trailing: list[ClauseNode] = []
    if stmt.order_by is not None:
        subs = []
        for item in stmt.order_by:
            subs.extend(_expr_subqueries(item.expr))
        trailing.append(ClauseNode("ORDER BY", [
            _project_query(s, depth + 1) for s in subs]))
    if stmt.limit is not None:
        trailing.append(ClauseNode("LIMIT", [
            _project_query(s, depth + 1)
            for s in _expr_subqueries(stmt.limit)]))
    if stmt.offset is not None:
        trailing.append(ClauseNode("OFFSET", [
            _project_query(s, depth + 1)
            for s in _expr_subqueries(stmt.offset)]))

    if len(stmt.arms) > 1:
        arms = [_project_arm(arm, depth) for arm in stmt.arms]
        return QueryNode(depth, trailing, list(stmt.ops), arms)
    node = _project_arm(stmt.arms[0], depth)
    node.clauses.extend(trailing)
    return node


def _project_arm(arm, depth: int) -> QueryNode:
    if isinstance(arm, A.PlaceholderQuery):
        return QueryNode(depth)
    clauses: list[ClauseNode] = []

    def clause(label: str, exprs) -> None:
        subs = []
        for e in exprs:
            subs.extend(_expr_subqueries(e))
        clauses.append(ClauseNode(label, [
            _project_query(s, depth + 1) for s in subs]))

    clause("SELECT", [item.expr for item in arm.items])
    if arm.from_ is not None:
        subs = _from_subqueries(arm.from_)
        clauses.append(ClauseNode("FROM", [
            _project_query(s, depth + 1) for s in subs]))
    if arm.where is not None:
        clause("WHERE", [arm.where])
    if arm.group_by is not None:
        clause("GROUP BY", arm.group_by)
    if arm.having is not None:
        clause("HAVING", [arm.having])
    return QueryNode(depth, clauses)


def _from_subqueries(chain: A.JoinChain) -> list[A.SelectStmt]:
    out: list[A.SelectStmt] = []

    def source(src) -> None:
        if isinstance(src, A.DerivedTable):
            out.append(src.query)
        elif isinstance(src, A.JoinChain):
            walk(src)

    def walk(c: A.JoinChain) -> None:
        source(c.first)
        for join in c.joins:
            source(join.source)
            if join.on is not None:
                out.extend(_expr_subqueries(join.on))

    walk(chain)
    return out


def _expr_subqueries(expr) -> list[A.SelectStmt]:
    out: list[A.SelectStmt] = []

    def walk(e) -> None:
        if isinstance(e, A.Subquery):
            out.append(e.query)
        elif isinstance(e, A.Exists):
            out.append(e.query)
        elif isinstance(e, A.InSelect):
            walk(e.expr)
            out.append(e.query)
        elif isinstance(e, A.Binary):
            walk(e.left)
            walk(e.right)
        elif isinstance(e, (A.Unary, A.Grouping)):
            walk(e.operand if isinstance(e, A.Unary) else e.expr)
        elif isinstance(e, A.Collate):
            walk(e.expr)
        elif isinstance(e, A.Cast):
            walk(e.expr)
        elif isinstance(e, A.InList):
            walk(e.expr)
            for item in e.items:
                walk(item)
        elif isinstance(e, A.Between):
            walk(e.expr)
            walk(e.low)
            walk(e.high)
        elif isinstance(e, A.LikeOp):
            walk(e.left)
            walk(e.right)
        elif isinstance(e, A.IsOp):
            walk(e.left)
            walk(e.right)
        elif isinstance(e, A.Case):
            if e.operand is not None:
                walk(e.operand)
            for cond, value in e.whens:
                walk(cond)
                walk(value)
            if e.default is not None:
                walk(e.default)
        elif isinstance(e, A.FuncCall):
            for arg in e.args:
                walk(arg)

    walk(expr)
    return out


# nesting depth

def _query_depth(stmt: A.SelectStmt) -> int:
    depth = 0
    for arm in stmt.arms:
        depth = max(depth, _arm_depth(arm))
    for item in stmt.order_by or []:
        depth = max(depth, _expr_depth(item.expr))
    for e in (stmt.limit, stmt.offset):
        if e is not None:
            depth = max(depth, _expr_depth(e))
    return depth


def _arm_depth(arm) -> int:
    if isinstance(arm, A.PlaceholderQuery):
        return 0
    depth = 0
    for item in arm.items:
        depth = max(depth, _expr_depth(item.expr))
    if arm.from_ is not None:
        depth = max(depth, _from_depth(arm.from_))
    for e in [arm.where, arm.having] + list(arm.group_by or []):
        if e is not None:
            depth = max(depth, _expr_depth(e))
    return depth


def _from_depth(chain: A.JoinChain) -> int:
    depth = _source_depth(chain.first)
    for join in chain.joins:
        depth = max(depth, _source_depth(join.source))
        if join.on is not None:
            depth = max(depth, _expr_depth(join.on))
    return depth


def _source_depth(src) -> int:
    if isinstance(src, A.DerivedTable):
        return 1 + _query_depth(src.query)
    if isinstance(src, A.JoinChain):
        return _from_depth(src)
    return 0


def _expr_depth(e) -> int:
    return max([0] + [1 + _query_depth(q) for q in _expr_subqueries(e)])


def _has_subquery(e) -> bool:
    return bool(_expr_subqueries(e))


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


def _render_query(stmt: A.SelectStmt, level: GranularityLevel) -> str:
    parts = []
    for i, arm in enumerate(stmt.arms):
        if i:
            parts.append(stmt.ops[i - 1])
        parts.append(_render_arm(arm, level))
    if stmt.order_by is not None:
        if level is GranularityLevel.EXPANDED:
            body = _render_runs([item.expr for item in stmt.order_by], level)
        else:
            body = " , ".join(
                _render_expr(item.expr, level) + (" DESC" if item.desc
                                                  else "")
                for item in stmt.order_by)
        parts.append("ORDER BY " + body)
    if stmt.limit is not None:
        parts.append("LIMIT " + _render_slot(stmt.limit, level))
    if stmt.offset is not None:
        parts.append("OFFSET " + _render_slot(stmt.offset, level))
    return " ".join(parts)


def _render_arm(arm, level: GranularityLevel) -> str:
    if isinstance(arm, A.PlaceholderQuery):
        return "_"
    parts = []
    select = "SELECT"
    if arm.distinct and level is GranularityLevel.DETAILED:
        select += " DISTINCT"
    parts.append(select + " " + _render_runs(
        [item.expr for item in arm.items], level))
    if arm.from_ is not None:
        parts.append("FROM " + _render_from(arm.from_, level))
    if arm.where is not None:
        parts.append("WHERE " + _render_slot(arm.where, level))
    if arm.group_by is not None:
        parts.append("GROUP BY " + _render_runs(arm.group_by, level))
    if arm.having is not None:
        parts.append("HAVING " + _render_slot(arm.having, level))
    return " ".join(parts)


def _render_runs(exprs, level: GranularityLevel) -> str:
    """Comma list; at Expanded, subquery-free runs collapse to one `_`."""
    if level is GranularityLevel.DETAILED:
        return " , ".join(_render_expr(e, level) for e in exprs)
    rendered = []
    in_run = False
    for e in exprs:
        if _has_subquery(e):
            if in_run:
                rendered.append("_")
                in_run = False
            rendered.append(_render_expr(e, level))
        else:
            in_run = True
    if in_run:
        rendered.append("_")
    return " , ".join(rendered)


def _render_slot(e, level: GranularityLevel) -> str:
    if level is GranularityLevel.EXPANDED and not _has_subquery(e):
        return "_"
    return _render_expr(e, level)


def _render_from(chain: A.JoinChain, level: GranularityLevel) -> str:
    if level is GranularityLevel.EXPANDED and _from_depth(chain) == 0:
        return "_"
    parts = [_render_source(chain.first, level)]
    for join in chain.joins:
        parts.append(join.kind)
        parts.append(_render_source(join.source, level))
        if level is GranularityLevel.DETAILED:
            if join.on is not None:
                parts.append("ON " + _render_expr(join.on, level))
            elif join.using:
                parts.append("ON " + " AND ".join(
                    "[col] = [col]" for _ in join.using))
        elif join.on is not None and _has_subquery(join.on):
            parts.append("ON " + _render_expr(join.on, level))
    return " ".join(parts)


def _render_source(src, level: GranularityLevel) -> str:
    detailed = level is GranularityLevel.DETAILED
    if isinstance(src, A.DerivedTable):
        return "( " + _render_query(src.query, level) + " )"
    if isinstance(src, A.JoinChain):
        return "( " + _render_from(src, level) + " )"
    if isinstance(src, A.PlaceholderSource):
        return src.symbol if detailed else "_"
    return "[tab]" if detailed else "_"


def _render_container(e, level: GranularityLevel) -> str:
    """Opaque value container: render only the subqueries it holds."""
    return " AND ".join(
        "( " + _render_query(q, level) + " )" for q in _expr_subqueries(e))


def _render_expr(e, level: GranularityLevel) -> str:
    has = _has_subquery(e)
    detailed = level is GranularityLevel.DETAILED
    if not detailed and not has:
        return "_"
    if isinstance(e, A.Placeholder):
        return e.symbol if detailed else "_"
    if isinstance(e, A.Subquery):
        return "( " + _render_query(e.query, level) + " )"
    if isinstance(e, A.Exists):
        prefix = "NOT " if e.negated else ""
        return prefix + "EXISTS ( " + _render_query(e.query, level) + " )"
    if isinstance(e, A.InSelect):
        word = "NOT IN" if e.negated else "IN"
        return (f"{_render_slot(e.expr, level)} {word} "
                f"( {_render_query(e.query, level)} )")
    if isinstance(e, A.InList):
        word = "NOT IN" if e.negated else "IN"
        if detailed and not has:
            return f"{_render_expr(e.expr, level)} {word} ( [val] )"
        if detailed:
            items = " , ".join(_render_expr(x, level) for x in e.items)
        else:
            items = _render_runs(e.items, level)
        return f"{_render_slot(e.expr, level)} {word} ( {items} )"
    if isinstance(e, A.Binary):
        arithmetic = e.op in ("+", "-", "*", "/", "%", "||")
        if arithmetic and detailed and not has:
            return "[val]"
        return (f"{_render_slot(e.left, level)} {e.op} "
                f"{_render_slot(e.right, level)}")
    if isinstance(e, A.Unary):
        if e.op == "NOT":
            return "NOT " + _render_slot(e.operand, level)
        if detailed and not has:
            return "[val]"
        return _render_expr(e.operand, level)
    if isinstance(e, A.Between):
        word = "NOT BETWEEN" if e.negated else "BETWEEN"
        return (f"{_render_slot(e.expr, level)} {word} "
                f"{_render_slot(e.low, level)} AND "
                f"{_render_slot(e.high, level)}")
    if isinstance(e, A.LikeOp):
        word = ("NOT " if e.negated else "") + e.op
        return (f"{_render_slot(e.left, level)} {word} "
                f"{_render_slot(e.right, level)}")
    if isinstance(e, A.IsOp):
        word = "IS NOT" if e.negated else "IS"
        if isinstance(e.right, A.Literal) and e.right.kind == "null":
            right = "NULL" if detailed else "_"
        else:
            right = _render_slot(e.right, level)
        if not detailed:
            return f"{_render_slot(e.left, level)} {word} {right}"
        return f"{_render_expr(e.left, level)} {word} {right}"
    if isinstance(e, A.Grouping):
        inner = _render_expr(e.expr, level) if detailed and not has \
            else _render_slot(e.expr, level)
        if " " in inner:
            return "( " + inner + " )"
        return inner
    if isinstance(e, A.Collate):
        return _render_expr(e.expr, level)
    if isinstance(e, (A.Case, A.Cast)):
        if has:
            return _render_container(e, level)
        return "[val]"
    if isinstance(e, A.FuncCall):
        if has:
            return _render_container(e, level)
        if e.window:
            return "[val]"
        return "[agg]" if e.name in A.AGGREGATE_FUNCTIONS else "[val]"
    if isinstance(e, (A.ColumnRef, A.Star)):
        return "[col]"
    if isinstance(e, A.Literal):
        return "[val]"
    raise TypeError(f"cannot render expression node {type(e).__name__}")
