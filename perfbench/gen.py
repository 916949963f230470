"""Seeded synthetic inputs: SQLite databases, datasets and query variants.

Every database follows one of three themes that share a logical layout:
people (A), their events (B), a catalog (C) and event lines (D). Keys of
A and B and every date are integers of 10**7 and above (dates are
yyyymmdd), amounts and prices are REALs. Nothing is tuned to dodge the
fingerprint's 7-significant-digit bucketing: single-row date aggregates
and key listings are part of the template mix.

Each dataset item carries its gold SQL plus the variants the model double
may write for it: an equivalent rewrite (same rows, different detailed
skeleton) and wrong-but-valid queries. All inputs derive from one
`random.Random`, so the same seed gives the same files.
"""

from __future__ import annotations

import datetime
import json
import random
import sqlite3
from dataclasses import dataclass
from pathlib import Path

THEMES = {
    "retail": dict(
        A="customers", a_name="name", a_group="city", a_date="signup_date",
        a_real="balance", B="orders", b_fk="customer_id",
        b_date="order_date", b_real="amount", b_status="status",
        C="products", c_name="title", c_group="category", c_real="price",
        D="order_lines", d_b="order_id", d_c="product_id", d_qty="quantity",
        groups=["Oslo", "Lima", "Pune", "Kyiv", "Perth", "Quito", "Turin"],
        statuses=["paid", "shipped", "returned", "pending"],
        categories=["garden", "toys", "books", "audio", "kitchen"]),
    "library": dict(
        A="members", a_name="full_name", a_group="branch",
        a_date="joined_on", a_real="fines", B="loans", b_fk="member_id",
        b_date="loan_date", b_real="fee", b_status="state",
        C="books", c_name="book_title", c_group="genre", c_real="list_price",
        D="loan_items", d_b="loan_id", d_c="book_id", d_qty="copies",
        groups=["north", "south", "harbour", "airport", "campus"],
        statuses=["open", "returned", "overdue", "lost"],
        categories=["poetry", "history", "science", "crime", "travel"]),
    "clinic": dict(
        A="patients", a_name="patient_name", a_group="ward",
        a_date="admitted_on", a_real="weight_kg", B="visits",
        b_fk="patient_id", b_date="visit_date", b_real="charge",
        b_status="outcome", C="treatments", c_name="label",
        c_group="specialty", c_real="unit_cost", D="visit_treatments",
        d_b="visit_id", d_c="treatment_id", d_qty="doses",
        groups=["A1", "A2", "B1", "C3", "ICU", "Day"],
        statuses=["discharged", "admitted", "referred", "follow-up"],
        categories=["oncology", "cardio", "neuro", "ortho", "derma"]),
}

DDL = """
CREATE TABLE {A} (id INTEGER PRIMARY KEY, {a_name} TEXT, {a_group} TEXT,
                  {a_date} INTEGER, {a_real} REAL);
CREATE TABLE {B} (id INTEGER PRIMARY KEY,
                  {b_fk} INTEGER REFERENCES {A}(id),
                  {b_date} INTEGER, {b_real} REAL, {b_status} TEXT);
CREATE TABLE {C} (id INTEGER PRIMARY KEY, {c_name} TEXT, {c_group} TEXT,
                  {c_real} REAL);
CREATE TABLE {D} ({d_b} INTEGER REFERENCES {B}(id),
                  {d_c} INTEGER REFERENCES {C}(id), {d_qty} INTEGER);
"""

FIRST = ["Ada", "Bo", "Cyd", "Dana", "Eli", "Fay", "Gus", "Hana", "Ivo",
         "Jun", "Kai", "Lea", "Mo", "Noor", "Oli", "Pia"]
LAST = ["Berg", "Costa", "Diaz", "Evans", "Fox", "Gray", "Holm", "Ito",
        "Jones", "Kowal", "Lund", "Moreau"]
NOUNS = ["atlas", "kit", "lamp", "guide", "set", "pack", "case", "map"]

DAY0 = datetime.date(2015, 1, 1).toordinal()
DAY1 = datetime.date(2024, 12, 31).toordinal()


@dataclass(frozen=True)
class Sizes:
    a: int
    b: int
    c: int
    d: int


SMALL = Sizes(a=24, b=60, c=16, d=90)
LARGE = Sizes(a=3000, b=15000, c=600, d=30000)

# Constants sit at fixed quantiles of the seeded data, so result sizes,
# and with them the work per item, vary little from seed to seed.
QUANTILES = (0.3, 0.5, 0.7)


def _day(rng: random.Random) -> int:
    return int(datetime.date.fromordinal(
        rng.randint(DAY0, DAY1)).strftime("%Y%m%d"))


@dataclass
class Database:
    db_id: str
    path: Path
    names: dict
    columns: dict  # logical column name -> its sorted values

    def pick(self, column: str, k: int):
        """The column's value at the k-th quantile of QUANTILES (cyclic)."""
        values = self.columns[column]
        return values[int(len(values) * QUANTILES[k % len(QUANTILES)])]


def build_database(root: Path, db_id: str, theme: str, sizes: Sizes,
                   rng: random.Random) -> Database:
    names = THEMES[theme]
    folder = root / db_id
    folder.mkdir(parents=True)
    path = folder / f"{db_id}.sqlite"
    a_base = rng.randrange(10_000_000, 60_000_000)
    b_base = rng.randrange(60_000_000, 99_000_000)
    a_rows = [(a_base + i, f"{rng.choice(FIRST)} {rng.choice(LAST)}",
               rng.choice(names["groups"]), _day(rng),
               round(rng.uniform(0, 5000), 2)) for i in range(sizes.a)]
    b_rows = [(b_base + i, a_rows[rng.randrange(sizes.a)][0], _day(rng),
               round(rng.lognormvariate(4, 1), 2),
               rng.choice(names["statuses"])) for i in range(sizes.b)]
    c_rows = [(i + 1, f"{rng.choice(names['categories'])} "
                      f"{rng.choice(NOUNS)} {i + 1}",
               rng.choice(names["categories"]),
               round(rng.uniform(1, 500), 2)) for i in range(sizes.c)]
    d_rows = [(b_rows[rng.randrange(sizes.b)][0], rng.randint(1, sizes.c),
               rng.randint(1, 20)) for _ in range(sizes.d)]
    conn = sqlite3.connect(path)
    try:
        conn.executescript(DDL.format(**names))
        for table, rows in (("A", a_rows), ("B", b_rows), ("C", c_rows),
                            ("D", d_rows)):
            marks = ", ".join("?" * len(rows[0]))
            conn.executemany(f"INSERT INTO {names[table]} VALUES ({marks})",
                             rows)
        conn.commit()
    finally:
        conn.close()
    group_count, group_total = _per_group(a_rows, b_rows)
    columns = {
        "a_real": sorted(r[4] for r in a_rows),
        "b_date": sorted(r[2] for r in b_rows),
        "d_qty": sorted(r[2] for r in d_rows),
        "group_count": group_count,
        "group_total": group_total,
    }
    return Database(db_id, path, names, columns)


def _per_group(a_rows, b_rows) -> tuple[list[int], list[float]]:
    """Sorted counts and amount totals of B rows per A group."""
    group_of = {r[0]: r[2] for r in a_rows}
    counts: dict = {}
    totals: dict = {}
    for row in b_rows:
        group = group_of[row[1]]
        counts[group] = counts.get(group, 0) + 1
        totals[group] = totals.get(group, 0.0) + row[3]
    return sorted(counts.values()), sorted(totals.values())


@dataclass
class Variants:
    """Gold SQL, its equivalent rewrite and wrong-but-valid queries."""

    question: str
    gold: str
    rewrite: str
    wrong: list[str]
    depth: int
    key: str = ""  # the item's place in the template cycle, seed-free


def _t_filter_order(n, db, k):
    x = db.pick("a_real", k)
    head = f"SELECT {n['a_name']}, {n['a_real']} FROM {n['A']}"
    order = f"ORDER BY {n['a_real']} DESC, id"
    return Variants(
        f"List the {n['a_name']} and {n['a_real']} of {n['A']} whose "
        f"{n['a_real']} is above {x}, highest first.",
        f"{head} WHERE {n['a_real']} > {x} {order}",
        f"{head} WHERE {x} < {n['a_real']} {order}",
        [f"{head} WHERE {n['a_real']} < {x} {order}",
         f"{head} WHERE {n['a_real']} > {x}"], 0)


def _t_group_having(n, db, k):
    k = db.pick("group_count", k)
    join = (f"FROM {n['A']} JOIN {n['B']} ON {n['A']}.id = "
            f"{n['B']}.{n['b_fk']} GROUP BY {n['A']}.{n['a_group']}")
    order = f"ORDER BY COUNT(*) DESC, {n['A']}.{n['a_group']}"
    head = f"SELECT {n['A']}.{n['a_group']}, COUNT(*) {join}"
    return Variants(
        f"Which {n['a_group']} values have more than {k} {n['B']}, and how "
        f"many, most first?",
        f"{head} HAVING COUNT(*) > {k} {order}",
        f"{head} HAVING {k} < COUNT(*) {order}",
        [f"{head} {order}",
         f"{head} HAVING COUNT(*) >= {k} {order}"], 0)


def _t_in_subquery(n, db, k):
    d = db.pick("b_date", k)
    inner = f"SELECT {n['b_fk']} FROM {n['B']} WHERE"
    return Variants(
        f"Name the {n['A']} with {n['B']} on or after {d}.",
        f"SELECT {n['a_name']} FROM {n['A']} WHERE id IN "
        f"({inner} {n['b_date']} >= {d})",
        f"SELECT {n['a_name']} FROM {n['A']} WHERE id IN "
        f"({inner} {d} <= {n['b_date']})",
        [f"SELECT {n['a_name']} FROM {n['A']} WHERE id NOT IN "
         f"({inner} {n['b_date']} >= {d})",
         f"SELECT {n['a_name']} FROM {n['A']} WHERE id IN "
         f"({inner} {n['b_date']} < {d})"], 1)


def _t_scalar_subquery(n, db, k):
    avg = f"(SELECT AVG({n['c_real']}) FROM {n['C']})"
    head = f"SELECT {n['c_name']}, {n['c_real']} FROM {n['C']}"
    order = f"ORDER BY {n['c_real']} DESC, {n['c_name']}"
    return Variants(
        f"Which {n['C']} cost more than the average {n['c_real']}, most "
        f"expensive first?",
        f"{head} WHERE {n['c_real']} > {avg} {order}",
        f"{head} WHERE {avg} < {n['c_real']} {order}",
        [f"{head} WHERE {n['c_real']} < {avg} {order}",
         f"{head} WHERE {n['c_real']} > {avg}"], 1)


def _t_two_levels(n, db, k):
    q = db.pick("d_qty", k)
    lines = f"SELECT {n['d_b']} FROM {n['D']} WHERE"
    head = f"SELECT {n['a_name']}, {n['a_date']} FROM {n['A']} WHERE id IN"
    mid = f"SELECT {n['b_fk']} FROM {n['B']} WHERE id"
    order = f"ORDER BY {n['a_date']}, id"
    return Variants(
        f"Which {n['A']} had a {n['B'][:-1]} with a line of at least {q} "
        f"{n['d_qty']}, earliest {n['a_date']} first?",
        f"{head} ({mid} IN ({lines} {n['d_qty']} >= {q})) {order}",
        f"{head} ({mid} IN ({lines} {q} <= {n['d_qty']})) {order}",
        [f"{head} ({mid} IN ({lines} {n['d_qty']} > {q})) {order}",
         f"{head} ({mid} NOT IN ({lines} {n['d_qty']} >= {q})) {order}"],
        2)


def _t_date_range(n, db, k):
    s = n["statuses"][k % len(n["statuses"])]
    agg = f"SELECT MIN({n['b_date']}), MAX({n['b_date']}) FROM {n['B']}"
    return Variants(
        f"What are the first and last {n['b_date']} of {n['B']} whose "
        f"{n['b_status']} is {s}?",
        f"{agg} WHERE {n['b_status']} = '{s}'",
        f"{agg} WHERE '{s}' = {n['b_status']}",
        [f"{agg} WHERE {n['b_status']} != '{s}'", agg], 0)


def _t_top_range(n, db, k):
    d1 = db.pick("b_date", k)
    d2 = min(d1 + 20000, 20241231)
    limit = 10 + 10 * (k % 3)
    head = f"SELECT id, {n['b_date']}, {n['b_real']} FROM {n['B']} WHERE"
    return Variants(
        f"Top {limit} {n['B']} by {n['b_real']} dated from {d1} to {d2}, "
        f"with ids.",
        f"{head} {n['b_date']} BETWEEN {d1} AND {d2} "
        f"ORDER BY {n['b_real']} DESC, id LIMIT {limit}",
        f"{head} {n['b_date']} >= {d1} AND {n['b_date']} <= {d2} "
        f"ORDER BY {n['b_real']} DESC, id LIMIT {limit}",
        [f"{head} {n['b_date']} BETWEEN {d1} AND {d2} "
         f"ORDER BY {n['b_real']}, id LIMIT {limit}",
         f"{head} {n['b_date']} BETWEEN {d1} AND {d2} "
         f"ORDER BY {n['b_real']} DESC, id"], 0)


def _t_derived(n, db, k):
    x = round(db.pick("group_total", k), 2)
    inner = (f"SELECT {n['A']}.{n['a_group']} AS grp, "
             f"SUM({n['B']}.{n['b_real']}) AS total FROM {n['A']} JOIN "
             f"{n['B']} ON {n['A']}.id = {n['B']}.{n['b_fk']} "
             f"GROUP BY {n['A']}.{n['a_group']}")
    head = f"SELECT t.grp, t.total FROM ({inner}) AS t WHERE"
    order = "ORDER BY t.total DESC, t.grp"
    return Variants(
        f"Which {n['a_group']} values have {n['B']} {n['b_real']} totalling "
        f"over {x}, largest first?",
        f"{head} t.total > {x} {order}",
        f"{head} {x} < t.total {order}",
        [f"{head} t.total < {x} {order}", f"{head} t.total > {x}"], 1)


def _t_join_sum(n, db, k):
    head = (f"SELECT {n['C']}.{n['c_group']}, SUM({n['D']}.{n['d_qty']}) "
            f"FROM {n['C']} JOIN {n['D']} ON {n['C']}.id = ")
    group = f"GROUP BY {n['C']}.{n['c_group']}"
    return Variants(
        f"Total {n['d_qty']} per {n['c_group']}, by {n['c_group']}.",
        f"{head}{n['D']}.{n['d_c']} {group} ORDER BY {n['C']}.{n['c_group']}",
        f"{head}{n['D']}.{n['d_c']} {group} ORDER BY 1",
        [f"{head}{n['D']}.{n['d_c']} WHERE {n['D']}.{n['d_qty']} > 1 "
         f"{group} ORDER BY {n['C']}.{n['c_group']}",
         f"{head}{n['D']}.{n['d_c']} {group}"], 0)


TEMPLATES = [_t_filter_order, _t_group_having, _t_in_subquery,
             _t_scalar_subquery, _t_two_levels, _t_date_range, _t_top_range,
             _t_derived, _t_join_sum]


def _squash(sql: str) -> str:
    """Single-spaced text, as the pipeline's statement extraction gives."""
    return " ".join(sql.split())


@dataclass
class Inputs:
    dataset: Path
    db_root: Path
    databases: list[Database]
    items: list[dict]                 # dataset rows as written
    variants: dict[str, Variants]     # question -> variants


def build_inputs(root: Path, rng: random.Random, n_dbs: int, sizes: Sizes,
                 n_items: int) -> Inputs:
    """Databases under root/dbs and a dataset file root/dataset.json.

    Items cycle through the templates and databases, so every seed gets
    the same mix of query shapes; the seed draws the data, and with it
    the constants.
    """
    db_root = root / "dbs"
    themes = sorted(THEMES)
    databases = [build_database(db_root, f"db{i}", themes[i % len(themes)],
                                sizes, rng) for i in range(n_dbs)]
    items, variants = [], {}
    for index in range(n_items):
        template = TEMPLATES[index % len(TEMPLATES)]
        db = databases[(index // len(TEMPLATES) + index) % n_dbs]
        v = template(db.names, db, index // len(TEMPLATES))
        v.key = str(index)
        v.question = f"[{index}] {v.question}"
        v.gold, v.rewrite = _squash(v.gold), _squash(v.rewrite)
        v.wrong = [_squash(w) for w in v.wrong]
        variants[v.question] = v
        items.append({"question_id": f"q{index:04d}",
                      "question": v.question, "db_id": db.db_id,
                      "SQL": v.gold,
                      "difficulty": ("simple", "moderate",
                                     "challenging")[v.depth]})
    dataset = root / "dataset.json"
    dataset.write_text(json.dumps(items, indent=1), encoding="utf-8")
    return Inputs(dataset, db_root, databases, items, variants)


def int_cell_share(databases: list[Database]) -> float:
    """Share of integer cells of 10**7 and above over all databases."""
    big = total = 0
    for db in databases:
        conn = sqlite3.connect(f"file:{db.path}?mode=ro", uri=True)
        try:
            tables = [r[0] for r in conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'")]
            for table in tables:
                cols = [r[1] for r in conn.execute(
                    f'PRAGMA table_info("{table}")')]
                for col in cols:
                    b, t = conn.execute(
                        f'SELECT SUM(typeof("{col}") = \'integer\' AND '
                        f'"{col}" >= 10000000), '
                        f'SUM(typeof("{col}") = \'integer\') '
                        f'FROM "{table}"').fetchone()
                    big += b or 0
                    total += t or 0
        finally:
            conn.close()
    return big / total if total else 0.0
