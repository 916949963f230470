"""Training-data synthesis for the skeleton evaluation agent.

Positives are gold skeleton extractions. Negatives corrupt the gold
skeleton text with one or two operators drawn uniformly from a fixed
family of seven, then must re-parse under the skeleton grammar and
differ from the gold text; construction retries up to a bound and the
whole build fails if it falls below 90% of the target. Each example
carries a three-stage analysis filled in from a fixed template, so a
build needs no model access.
Output is line-delimited JSON with a versioned header, ordered by
(level, index), and bit-identical for a fixed seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

from . import sqlast as A
from .schema import DatabaseProfile, TableProfile, render_mschema
from .skeleton import GranularityLevel, Skeleton, extract_skeleton, parse_query
from .sqlast import SqlSyntaxError

DATASET_FORMAT = "sft-dataset"
DATASET_VERSION = 1
CORRUPTION_ATTEMPTS = 64
MIN_YIELD = 0.9

class CorruptionError(RuntimeError):
    """No grammatical, distinct corruption found within the attempt bound."""


class DatasetBuildError(RuntimeError):
    """The build fell below the minimum yield."""


class UnresolvedReference(ValueError):
    """Gold SQL names a table or column absent from the profile."""


@dataclass
class BuildSummary:
    path: str
    examples: int
    per_level: dict[str, dict[str, int]]
    skipped: list[str] = field(default_factory=list)


# Corruption operators. Each takes the token list of a canonical skeleton
# text and returns (new tokens, detail) or None when inapplicable; the
# caller verifies re-parse and distinctness, so operators only have to be
# plausible, not safe in every context.

_CLAUSE_BOUNDARY = {"WHERE", "GROUP", "HAVING", "ORDER", "LIMIT", "OFFSET",
                    "UNION", "INTERSECT", "EXCEPT"}
_COMPARISONS = {"=", "!=", "<", ">", "<=", ">="}
_ARITHMETIC = {"+", "-", "*", "/", "%", "||"}
_TYPED_SLOTS = ("[col]", "[tab]", "[val]", "[agg]")

_SWAPS = [
    (("WHERE",), ("GROUP", "BY")),
    (("WHERE",), ("HAVING",)),
    (("HAVING",), ("WHERE",)),
    (("GROUP", "BY"), ("ORDER", "BY")),
    (("ORDER", "BY"), ("GROUP", "BY")),
    (("UNION",), ("INTERSECT",)),
    (("UNION",), ("EXCEPT",)),
    (("INTERSECT",), ("UNION",)),
    (("EXCEPT",), ("UNION",)),
    (("=",), ("!=",)),
    (("!=",), ("=",)),
    (("<",), (">=",)),
    ((">",), ("<=",)),
    (("<=",), (">",)),
    ((">=",), ("<",)),
    (("AND",), ("OR",)),
    (("OR",), ("AND",)),
    (("IN",), ("LIKE",)),
]


def _depths(tokens: list[str]) -> list[int]:
    """Paren depth at each token; the parens themselves sit inside."""
    out = []
    depth = 0
    for token in tokens:
        if token == "(":
            depth += 1
        out.append(depth)
        if token == ")":
            depth -= 1
    return out


def _span_end(tokens, depths, start) -> int:
    """End (exclusive) of the clause starting at tokens[start]."""
    level = depths[start]
    i = start + 1
    while i < len(tokens):
        if depths[i] < level:
            break
        if depths[i] == level and tokens[i] in _CLAUSE_BOUNDARY:
            break
        i += 1
    return i


def _op_keyword_substitution(tokens, level, rnd):
    options = []
    for old, new in _SWAPS:
        for i in range(len(tokens) - len(old) + 1):
            if tuple(tokens[i:i + len(old)]) == old:
                options.append((i, old, new))
    if not options:
        return None
    i, old, new = options[rnd.randrange(len(options))]
    out = tokens[:i] + list(new) + tokens[i + len(old):]
    return out, f"{' '.join(old)} -> {' '.join(new)}"


def _op_clause_deletion(tokens, level, rnd):
    depths = _depths(tokens)
    options = [i for i, token in enumerate(tokens) if token in
               ("WHERE", "GROUP", "HAVING", "ORDER", "LIMIT", "OFFSET")]
    if not options:
        return None
    i = options[rnd.randrange(len(options))]
    end = _span_end(tokens, depths, i)
    # a dangling OFFSET cannot survive its LIMIT
    if tokens[i] == "LIMIT" and end < len(tokens) and tokens[end] == "OFFSET":
        end = _span_end(tokens, depths, end)
    out = tokens[:i] + tokens[end:]
    return out, f"deleted {tokens[i]}"


def _op_clause_insertion(tokens, level, rnd):
    detailed = level is GranularityLevel.DETAILED
    depths = _depths(tokens)
    top = [t for t, d in zip(tokens, depths) if d == 0]
    from_end = next((_span_end(tokens, depths, i)
                     for i, token in enumerate(tokens)
                     if token == "FROM" and depths[i] == 0), None)

    options = []
    if from_end is not None and "WHERE" not in top:
        body = ["WHERE", "[col]", "=", "[val]"] if detailed \
            else ["WHERE", "_"]
        options.append((from_end, body, "WHERE"))
    if from_end is not None and "GROUP" not in top:
        anchor = from_end
        body = ["GROUP", "BY", "[col]"] if detailed else ["GROUP", "BY", "_"]
        for i, token in enumerate(tokens):
            if token == "WHERE" and depths[i] == 0:
                anchor = _span_end(tokens, depths, i)
        options.append((anchor, body, "GROUP BY"))
    if "ORDER" not in top:
        anchor = len(tokens)
        for i, token in enumerate(tokens):
            if token in ("LIMIT", "OFFSET") and depths[i] == 0:
                anchor = i
                break
        body = ["ORDER", "BY", "[col]"] if detailed else ["ORDER", "BY", "_"]
        options.append((anchor, body, "ORDER BY"))
    if "LIMIT" not in top:
        body = ["LIMIT", "[val]"] if detailed else ["LIMIT", "_"]
        options.append((len(tokens), body, "LIMIT"))
    if not options:
        return None
    anchor, body, name = options[rnd.randrange(len(options))]
    out = tokens[:anchor] + body + tokens[anchor:]
    return out, f"inserted {name}"


def _subquery_spans(tokens):
    spans = []
    stack = []
    for i, token in enumerate(tokens):
        if token == "(":
            stack.append(i)
        elif token == ")":
            start = stack.pop()
            if start + 1 < len(tokens) and tokens[start + 1] == "SELECT":
                spans.append((start, i))
    spans.sort()
    return spans


def _op_nesting_flattening(tokens, level, rnd):
    spans = _subquery_spans(tokens)
    if not spans:
        return None
    start, end = spans[rnd.randrange(len(spans))]
    detailed = level is GranularityLevel.DETAILED
    before = tokens[start - 1] if start > 0 else ""
    if before in ("FROM", "JOIN"):
        repl = ["[tab]"] if detailed else ["_"]
    elif before == "IN":
        if detailed:
            out = tokens[:start] + ["(", "[val]", ")"] + tokens[end + 1:]
            return out, "flattened subquery"
        left = start - 1  # the IN keyword
        if left > 0 and tokens[left - 1] == "NOT":
            left -= 1
        left = max(left - 1, 0)  # the probed operand
        out = tokens[:left] + ["_"] + tokens[end + 1:]
        return out, "flattened subquery"
    elif before == "EXISTS":
        left = start - 1
        if left > 0 and tokens[left - 1] == "NOT":
            left -= 1
        out = tokens[:left] + (["[val]"] if detailed else ["_"]) \
            + tokens[end + 1:]
        return out, "flattened subquery"
    elif not detailed and before in (_COMPARISONS | _ARITHMETIC):
        out = tokens[:start - 2] + ["_"] + tokens[end + 1:]
        return out, "flattened subquery"
    else:
        repl = ["[val]"] if detailed else ["_"]
    out = tokens[:start] + repl + tokens[end + 1:]
    return out, "flattened subquery"


def _op_nesting_injection(tokens, level, rnd):
    options = []
    for i, token in enumerate(tokens):
        before = tokens[i - 1] if i > 0 else ""
        if token == "_" and before in ("WHERE", "HAVING"):
            options.append((i, i + 1,
                            ["_", "IN", "(", "SELECT", "_", "FROM", "_", ")"]))
        elif token == "_" and before == "FROM":
            options.append((i, i + 1,
                            ["(", "SELECT", "_", "FROM", "_", ")"]))
        elif token == "[val]":
            options.append((i, i + 1,
                            ["(", "SELECT", "[col]", "FROM", "[tab]", ")"]))
        elif token == "[tab]" and before in ("FROM", "JOIN"):
            options.append((i, i + 1,
                            ["(", "SELECT", "[col]", "FROM", "[tab]", ")"]))
    if not options:
        return None
    start, end, body = options[rnd.randrange(len(options))]
    out = tokens[:start] + body + tokens[end:]
    return out, "injected subquery"


def _op_placeholder_retyping(tokens, level, rnd):
    options = [i for i, token in enumerate(tokens) if token in _TYPED_SLOTS]
    if not options:
        return None
    i = options[rnd.randrange(len(options))]
    others = [slot for slot in _TYPED_SLOTS if slot != tokens[i]]
    new = others[rnd.randrange(len(others))]
    detail = f"{tokens[i]} -> {new}"
    out = list(tokens)
    out[i] = new
    return out, detail


def _op_join_toggle(tokens, level, rnd):
    lefts = [i for i, token in enumerate(tokens)
             if token == "LEFT" and tokens[i + 1:i + 2] == ["JOIN"]]
    if lefts:
        i = lefts[rnd.randrange(len(lefts))]
        return tokens[:i] + tokens[i + 1:], "LEFT JOIN -> JOIN"
    joins = [i for i, token in enumerate(tokens) if token == "JOIN"]
    if joins:
        i = joins[rnd.randrange(len(joins))]
        return tokens[:i] + ["LEFT"] + tokens[i:], "JOIN -> LEFT JOIN"
    if level is GranularityLevel.DETAILED:
        anchors = [i for i, token in enumerate(tokens)
                   if token == "[tab]" and tokens[i - 1:i] == ["FROM"]]
        if anchors:
            i = anchors[rnd.randrange(len(anchors))] + 1
            body = ["JOIN", "[tab]", "ON", "[col]", "=", "[col]"]
            return tokens[:i] + body + tokens[i:], "inserted JOIN"
    return None


_OPERATOR_FNS = {
    "keyword-substitution": _op_keyword_substitution,
    "clause-deletion": _op_clause_deletion,
    "clause-insertion": _op_clause_insertion,
    "nesting-flattening": _op_nesting_flattening,
    "nesting-injection": _op_nesting_injection,
    "placeholder-retyping": _op_placeholder_retyping,
    "join-toggle": _op_join_toggle,
}
OPERATORS = tuple(_OPERATOR_FNS)


def corrupt_skeleton(gold: Skeleton,
                     rnd: random.Random) -> tuple[str, list[dict]]:
    """A grammatical skeleton text that differs from the gold text, and
    its recipe: an {"operator", "detail"} dict per operator applied."""
    base = gold.text.split(" ")
    for _ in range(CORRUPTION_ATTEMPTS):
        tokens = list(base)
        recipe = []
        for name in rnd.sample(OPERATORS, rnd.randint(1, 2)):
            result = _OPERATOR_FNS[name](tokens, gold.level, rnd)
            if result is None:
                break
            tokens, detail = result
            recipe.append({"operator": name, "detail": detail})
        else:
            text = " ".join(tokens)
            if text == gold.text:
                continue
            try:
                parse_query(text)
            except SqlSyntaxError:
                continue
            return text, recipe
    raise CorruptionError(
        f"no corruption found for {gold.level.label} skeleton "
        f"{gold.text!r} within {CORRUPTION_ATTEMPTS} attempts")


# Demonstration schema pruning


def prune_demonstration_schema(profile: DatabaseProfile,
                               tree: A.ClauseTree) -> DatabaseProfile:
    """Profile reduced to what the gold SQL parsed to `tree` touches, plus
    key columns."""
    nodes, stack = [], [tree.stmt]
    while stack:
        node = stack.pop()
        nodes.append(node)
        stack.extend(A.children(node))
    by_name = {table.name: table for table in profile.tables}
    aliases: dict[str, str] = {}
    derived: set[str] = set()
    for node in nodes:
        if isinstance(node, A.TableRef):
            if node.name not in by_name:
                raise UnresolvedReference(f"unknown table {node.name!r}")
            aliases[node.name] = node.name
            if node.alias:
                aliases[node.alias] = node.name
        elif isinstance(node, A.DerivedTable) and node.alias:
            derived.add(node.alias)
    used = {name: set() for name in aliases.values()}
    star_tables: set[str] = set()
    for node in nodes:
        if isinstance(node, A.Star):
            if node.table is None:
                star_tables.update(used)
            elif node.table in aliases:
                star_tables.add(aliases[node.table])
            elif node.table not in derived:
                raise UnresolvedReference(f"unknown table {node.table!r}")
        elif isinstance(node, A.Join) and node.using:
            for name in used:
                columns = by_name[name].column_names()
                used[name].update(c for c in node.using if c in columns)
        elif isinstance(node, A.ColumnRef):
            if node.table is not None:
                if node.table in derived:
                    continue
                if node.table not in aliases:
                    raise UnresolvedReference(
                        f"unknown table {node.table!r}")
                table = aliases[node.table]
                if node.name not in by_name[table].column_names():
                    raise UnresolvedReference(
                        f"unknown column {node.table}.{node.name!r}")
                used[table].add(node.name)
            else:
                owners = [name for name in used
                          if node.name in by_name[name].column_names()]
                if not owners:
                    if derived:
                        continue  # may come from a derived-table alias
                    raise UnresolvedReference(
                        f"unknown column {node.name!r}")
                used[owners[0]].add(node.name)
    kept_tables = []
    for table in profile.tables:
        if table.name not in used:
            continue
        keep = set(used[table.name])
        if table.name in star_tables:
            keep.update(table.column_names())
        keep.update(c.name for c in table.columns if c.primary_key)
        for fk in profile.foreign_keys:
            if fk.table == table.name and fk.ref_table in used:
                keep.add(fk.column)
            if fk.ref_table == table.name and fk.table in used:
                keep.add(fk.ref_column)
        kept_tables.append(TableProfile(
            table.name,
            [c for c in table.columns if c.name in keep]))
    kept_names = {t.name: set(t.column_names()) for t in kept_tables}
    kept_fks = [fk for fk in profile.foreign_keys
                if fk.column in kept_names.get(fk.table, set())
                and fk.ref_column in kept_names.get(fk.ref_table, set())]
    return DatabaseProfile(profile.db_id, kept_tables, kept_fks,
                           path=profile.path)


# Annotation


def template_analysis(question: str, skeleton: str,
                      level: GranularityLevel, label: bool
                      ) -> tuple[str, str, str]:
    """Deterministic slot-filled three-stage analysis of one example."""
    clauses = [token for token in skeleton.split(" ")
               if token.isalpha() and token.isupper()]
    seen = sorted(set(clauses))
    a_q = (f"The question asks: {question} The answer requires the "
           f"database schema above.")
    a_sk = (f"The candidate is a {level.label} skeleton using "
            f"{', '.join(seen) if seen else 'no clause keywords'}.")
    if label:
        a_align = ("Each clause in the skeleton maps onto a "
                   "requirement of the question, so the structure "
                   "is consistent with the intent.")
    else:
        a_align = ("The skeleton's structure does not match what the "
                   "question needs, so it cannot lead to a correct "
                   "query.")
    return a_q, a_sk, a_align


# Dataset build


def build_dataset(corpus, out_path, pairs_per_level: int = 10,
                  seed: int = 0) -> BuildSummary:
    """Write a balanced JSONL dataset; see the module docstring."""
    if not corpus:
        raise ValueError("corpus is empty")
    if pairs_per_level < 1:
        raise ValueError("pairs_per_level must be at least 1")
    prepared = []
    for question, gold_sql, profile in corpus:
        tree = parse_query(gold_sql)
        schema = render_mschema(prune_demonstration_schema(profile, tree))
        skeletons = {level: extract_skeleton(tree, level)
                     for level in GranularityLevel}
        prepared.append((question, schema, skeletons))

    rnd = random.Random(seed)
    skipped: list[str] = []
    lines: list[str] = []
    per_level = {}
    for level in GranularityLevel:
        built = 0
        budget = pairs_per_level * 4
        while built < pairs_per_level and budget > 0:
            budget -= 1
            question, schema, skeletons = prepared[
                rnd.randrange(len(prepared))]
            gold = skeletons[level]
            try:
                negative, recipe = corrupt_skeleton(gold, rnd)
            except CorruptionError as exc:
                skipped.append(str(exc))
                continue
            for offset, (text, label, steps) in enumerate(
                    ((gold.text, True, []), (negative, False, recipe))):
                analysis = template_analysis(question, text, level, label)
                lines.append(json.dumps({
                    "level": level.label,
                    "index": 2 * built + offset,
                    "question": question,
                    "schema": schema,
                    "skeleton": text,
                    "label": label,
                    "analysis": dict(zip(("question", "skeleton",
                                          "alignment"), analysis)),
                    "recipe": steps,
                }, sort_keys=True, ensure_ascii=False))
            built += 1
        per_level[level.label] = {"positive": built, "negative": built}

    target = pairs_per_level * 2 * len(GranularityLevel)
    if len(lines) < MIN_YIELD * target:
        raise DatasetBuildError(
            f"built {len(lines)} of {target} examples; "
            f"skipped: {skipped[:5]}")
    header = json.dumps({"format": DATASET_FORMAT,
                         "version": DATASET_VERSION, "seed": seed,
                         "examples": len(lines)}, sort_keys=True)
    with open(out_path, "w", encoding="utf-8") as handle:
        handle.write("\n".join([header] + lines) + "\n")
    return BuildSummary(str(out_path), len(lines), per_level, skipped)


def load_dataset(path) -> list[dict]:
    """Records of a dataset file, header validated and dropped."""
    with open(path, encoding="utf-8") as handle:
        lines = [line for line in handle.read().splitlines() if line]
    if not lines:
        raise ValueError("empty dataset file")
    header = json.loads(lines[0])
    if header.get("format") != DATASET_FORMAT:
        raise ValueError("not a dataset file")
    if header.get("version") != DATASET_VERSION:
        raise ValueError(f"unsupported dataset version "
                         f"{header.get('version')!r}")
    return [json.loads(line) for line in lines[1:]]
