"""In-memory span recorder that wraps each layer's public functions.

Spans are recorded from the benchmark's side only: while a Tracer is
installed, the functions each layer calls into other layers are replaced
by timing wrappers at their call sites (the module attribute or class
method the caller looks up). Each span keeps its name, start, end,
parent and item id. The engine runs agent calls in pool threads that do
not carry context, so those spans take their item id from the question
argument and their parent from the innermost open span of that item.

A span's self time is its duration minus the union of its children's
intervals. `layer_metrics` reduces the spans of a run to per-layer
self time, inclusive time, calls per item and ratios.
"""

from __future__ import annotations

import threading
import time
import types
from collections import Counter, defaultdict

import skelsearch.agents as agents
import skelsearch.bench as bench
import skelsearch.engine as engine
import skelsearch.gateway as gateway
import skelsearch.normalize as normalize
import skelsearch.selector as selector
import skelsearch.skeleton as skeleton
import skelsearch.sqlast as sqlast
import skelsearch.sqlgen as sqlgen


def _union(intervals) -> float:
    """Total length covered by (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        start = max(start, reach)
        if end > start:
            total += end - start
            reach = end
    return total


class Span:
    __slots__ = ("name", "start", "end", "parent", "item", "children")

    def __init__(self, name, start, parent, item):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.item = item
        self.children: list[tuple[float, float]] = []

    @property
    def duration(self) -> float:
        return self.end - self.start

    def self_time(self) -> float:
        return self.duration - _union(
            (max(start, self.start), min(end, self.end))
            for start, end in self.children)


class Tracer:
    """Records spans and counts while installed; restores on uninstall."""

    def __init__(self, question_items: dict[str, str]):
        self.question_items = question_items
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._item_stacks: dict[str, list[Span]] = {}
        self._executed: dict[str, set] = defaultdict(set)
        self._patches: list[tuple[object, str, object]] = []

    # span bookkeeping

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, item: str | None = None,
             root: bool = False) -> Span:
        stack = self._stack()
        if root:
            self._item_stacks[item] = stack
            self._executed.pop(item, None)
        if stack:
            parent = stack[-1]
        else:
            owner = self._item_stacks.get(item)
            parent = owner[-1] if owner else None
        if item is None and parent is not None:
            item = parent.item
        span = Span(name, time.perf_counter(), parent, item)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        if span.parent is not None:
            span.parent.children.append((span.start, span.end))
        with self._lock:
            self.spans.append(span)

    def count(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[key] += amount

    def wrap(self, fn, name, item_of=None, on_result=None, on_error=None,
             root=False):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.open(name if isinstance(name, str)
                               else name(args),
                               item_of(args) if item_of else None, root)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.close(span)
                if on_error:
                    on_error(span, args, exc)
                raise
            tracer.close(span)
            if on_result:
                on_result(span, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def patch(self, owner, attr: str, name, **hooks) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, **hooks))

    # call-site wrappers for every layer

    def install(self) -> None:
        q_item = self.question_items.get
        self.patch(bench, "run_item", "bench.run_item",
                   item_of=lambda a: a[0].question_id, root=True)
        self.patch(bench, "profile_from_sqlite", "schema.profile")
        self.patch(bench, "run_search", "engine.search",
                   on_result=self._searched, on_error=self._search_failed)
        self.patch(bench, "execute_candidate", "selector.execute",
                   on_result=self._executed_one)
        self.patch(selector, "execute_candidate", "selector.execute",
                   on_result=self._executed_one)
        self.patch(selector, "fingerprint_rows", "selector.fingerprint",
                   on_result=lambda s, a, r: self.count(
                       "fingerprint.rows", len(a[0])))
        self.patch(bench, "select_final", "selector.select_final",
                   on_result=lambda s, a, r: self.count(
                       "vote_groups", len(r[1].groups)))
        self.patch(selector.LlmArbitratorBackend, "choose",
                   "selector.arbitrate")
        self.patch(sqlgen, "generate_sql", "sqlgen.generate",
                   on_result=lambda s, a, r: self.count(
                       "generate.failed", int(r.failed)))
        self.patch(engine, "formulate", "agents.formulate",
                   item_of=lambda a: q_item(a[0].question))
        self.patch(engine, "evaluate", "agents.evaluate",
                   item_of=lambda a: q_item(a[1]))
        self.patch(engine, "normalize", "normalize",
                   on_result=lambda s, a, r: self.count(
                       "normalize." + r.outcome.value))
        self.patch(agents, "build_formulation_prompt",
                   "agents.formulation_prompt")
        self.patch(agents, "build_evaluation_prompt",
                   "agents.evaluation_prompt")
        for module in (agents, sqlgen, selector):
            self.patch(module, "load_template", "agents.load_template")
        for module in (agents, sqlgen):
            self.patch(module, "render_mschema", "schema.render_mschema")
        for module in (agents, normalize, selector, skeleton):
            self.patch(module, "parse_query", "skeleton.parse_query")
        for module in (agents, normalize):
            self.patch(module, "extract_skeleton",
                       lambda a: "skeleton.extract." + a[1].label)
        self.patch(sqlast, "parse", "sqlast.parse")
        self.patch(sqlast.Lexer, "tokens", "sqlast.lex")
        self.patch(gateway.LlmGateway, "complete", "gateway.complete")
        self.patch(gateway, "prompt_key", "gateway.prompt_key")
        self.patch(gateway.Cassette, "lookup", "gateway.cassette_lookup")
        self.patch(gateway.Cassette, "store", "gateway.cassette_store")
        clock = types.SimpleNamespace(monotonic=time.monotonic,
                                      sleep=time.sleep)
        self._patches.append((gateway, "time", gateway.time))
        gateway.time = clock
        self.patch(clock, "sleep", "gateway.backoff")
        self.patch(threading.Thread, "start", "process.thread_start")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def transport(self, fn):
        """Wrap a gateway transport; failed attempts are counted."""
        return self.wrap(fn, "gateway.transport",
                         on_error=lambda s, a, e: self.count(
                             "transport.failed"))

    # result hooks

    def _searched(self, span, args, result):
        leaves, tree, _ = result
        self._tree_counts(tree)
        self.count("leaves", len(leaves))

    def _search_failed(self, span, args, exc):
        tree = getattr(exc, "tree", None) or getattr(exc, "partial_tree",
                                                      None)
        if tree is not None:
            self._tree_counts(tree)

    def _tree_counts(self, tree):
        self.count("evaluated", len(tree.verdict_log))
        self.count("pruned", sum(not v.verdict for v in tree.verdict_log))

    def _executed_one(self, span, args, outcome):
        key = (args[0].path, args[1].sql)
        with self._lock:
            seen = self._executed[span.item]
            repeat = key in seen
            seen.add(key)
        self.count("execute.repeat", int(repeat))
        self.count("execute.error",
                   int(outcome.status is selector.OutcomeStatus.ERROR))


def layer_metrics(tracer: Tracer, calls: list[tuple[float, float]]) -> dict:
    """Per-layer metrics from the spans of traced run_benchmark calls.

    `calls` holds (start, end) of each traced call, on the clock the
    spans use, so set-up and harness overhead can be separated.
    """
    by_name: dict[str, list[Span]] = defaultdict(list)
    for span in tracer.spans:
        by_name[span.name].append(span)
    items = by_name["bench.run_item"]
    n_items = len(items) or 1
    item_time = sum(s.duration for s in items) or 1e-12
    c = tracer.counts

    def n(name):
        return len(by_name[name])

    def mean_us(name, self_time=False):
        spans = by_name[name]
        if not spans:
            return 0.0
        total = sum(s.self_time() if self_time else s.duration
                    for s in spans)
        return total / len(spans) * 1e6

    def per_item(value):
        return value / n_items

    def ratio(num, den):
        return num / den if den else 0.0

    def total(name):
        return sum(s.duration for s in by_name[name])

    wait = total("gateway.transport") + total("gateway.backoff")
    transported = {id(s.parent) for s in by_name["gateway.transport"]}
    completes = n("gateway.complete")
    overhead = 0.0
    for start, end in calls:
        inside = [(s.start, s.end) for s in items
                  if start <= s.start and s.end <= end]
        first = min((s for s, _ in inside), default=end)
        overhead += (end - first) - _union(inside)
    order_checks = sum(1 for s in by_name["skeleton.parse_query"]
                       if s.parent is not None
                       and s.parent.name == "selector.execute")
    evaluated = c["evaluated"]
    normalized = n("normalize")
    executed = n("selector.execute")
    generated = n("sqlgen.generate")
    attempts = n("gateway.transport")
    m = {
        "sqlast.lex.us": mean_us("sqlast.lex"),
        "sqlast.lex.calls_per_item": per_item(n("sqlast.lex")),
        "sqlast.parse.us": mean_us("sqlast.parse"),
        "sqlast.parse.calls_per_item": per_item(n("sqlast.parse")),
        "skeleton.parse_query.us": mean_us("skeleton.parse_query"),
        "skeleton.parse_query.calls_per_item":
            per_item(n("skeleton.parse_query")),
        "skeleton.extract.base.us": mean_us("skeleton.extract.base"),
        "skeleton.extract.expanded.us":
            mean_us("skeleton.extract.expanded"),
        "skeleton.extract.detailed.us":
            mean_us("skeleton.extract.detailed"),
        "skeleton.extract.calls_per_item": per_item(
            sum(n(f"skeleton.extract.{x}")
                for x in ("base", "expanded", "detailed"))),
        "normalize.us": mean_us("normalize"),
        "normalize.calls_per_item": per_item(normalized),
        "normalize.accept_rate": ratio(
            c["normalize.accepted"] + c["normalize.coerced"], normalized),
        "schema.render_mschema.us": mean_us("schema.render_mschema"),
        "schema.render_mschema.calls_per_item":
            per_item(n("schema.render_mschema")),
        "schema.profile.ms_per_db": mean_us("schema.profile") / 1e3,
        "agents.formulation_prompt.us":
            mean_us("agents.formulation_prompt"),
        "agents.evaluation_prompt.us": mean_us("agents.evaluation_prompt"),
        "agents.load_template.calls_per_item":
            per_item(n("agents.load_template")),
        "agents.formulate.self_us": mean_us("agents.formulate", True),
        "agents.evaluate.self_us": mean_us("agents.evaluate", True),
        "engine.search.self_us_per_item": per_item(
            sum(s.self_time() for s in by_name["engine.search"]) * 1e6),
        "engine.formulate_calls_per_item": per_item(n("agents.formulate")),
        "engine.evaluate_calls_per_item": per_item(n("agents.evaluate")),
        "engine.prune_rate": ratio(c["pruned"], evaluated),
        "engine.leaves_per_item": per_item(c["leaves"]),
        "engine.search.item_share": total("engine.search") / item_time,
        "gateway.complete.self_us": mean_us("gateway.complete", True),
        "gateway.prompt_key.us": mean_us("gateway.prompt_key"),
        "gateway.cassette_lookup.us": mean_us("gateway.cassette_lookup"),
        "gateway.cassette_hit_rate": ratio(
            n("gateway.cassette_lookup"), completes),
        "gateway.cassette_store.us": mean_us("gateway.cassette_store"),
        "gateway.transport_wait_ms_per_item": per_item(wait * 1e3),
        "gateway.transport_wait.item_share": wait / item_time,
        "gateway.retries_per_item": per_item(c["transport.failed"]),
        "gateway.attempts_per_call": ratio(attempts, len(transported)),
        "sqlgen.generate.self_us": mean_us("sqlgen.generate", True),
        "sqlgen.failed_rate": ratio(c["generate.failed"], generated),
        "selector.execute.us": mean_us("selector.execute"),
        "selector.execute.calls_per_item": per_item(executed),
        "selector.execute.repeat_rate": ratio(c["execute.repeat"],
                                              executed),
        "selector.execute.error_rate": ratio(c["execute.error"], executed),
        "selector.execute.item_share": total("selector.execute")
        / item_time,
        "selector.fingerprint.us": mean_us("selector.fingerprint"),
        "selector.fingerprint.rows_per_call": ratio(
            c["fingerprint.rows"], n("selector.fingerprint")),
        "selector.order_check_parses_per_item": per_item(order_checks),
        "selector.select_final.us": mean_us("selector.select_final"),
        "selector.vote_groups_per_item": per_item(c["vote_groups"]),
        "selector.arbitrations_per_item": per_item(n("selector.arbitrate")),
        "bench.overhead_ms_per_item": per_item(overhead * 1e3),
        "process.threads_started_per_item":
            per_item(n("process.thread_start")),
    }
    return m


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    for suffix, unit in ((".us", "us"), ("_us", "us"),
                         ("us_per_item", "us/item"),
                         ("ms_per_item", "ms/item"), ("ms_per_db", "ms"),
                         ("rows_per_call", "rows"),
                         ("attempts_per_call", "1/call"),
                         ("_per_item", "1/item"), ("_rate", "ratio"),
                         ("_share", "ratio")):
        if name.endswith(suffix):
            return unit
    raise KeyError(name)
