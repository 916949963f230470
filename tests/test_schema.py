"""Profile construction and M-Schema rendering."""

import sqlite3
from contextlib import closing

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from skelsearch.schema import (
    SAMPLE_VALUES_PER_COLUMN,
    ColumnProfile,
    DatabaseProfile,
    ForeignKey,
    TableProfile,
    profile_from_sqlite,
    render_mschema,
)

from conftest import make_profile


def table(profile, name):
    return next(t for t in profile.tables if t.name == name)


EXPECTED_TOY = """【DB_ID】 toy
【Schema】
# Table: t
[
(id:INTEGER, Primary Key, Examples: [1, 2, 3]),
(name:TEXT, Examples: [a, b]),
]
# Table: u
[
(t_id:INTEGER, Examples: [1, 2]),
(score:REAL),
]
【Foreign keys】
u.t_id=t.id
"""


def test_renders_published_layout():
    assert render_mschema(make_profile()) == EXPECTED_TOY


def test_rendering_deterministic():
    assert render_mschema(make_profile()) == render_mschema(make_profile())


def test_empty_profile_renders_header():
    text = render_mschema(DatabaseProfile("bare"))
    assert text == "【DB_ID】 bare\n【Schema】\n"


def test_every_table_and_column_once(school_profile):
    text = render_mschema(school_profile)
    for table in school_profile.tables:
        assert text.count(f"# Table: {table.name}") == 1
        for column in table.columns:
            assert text.count(f"({column.name}:") == 1


def test_foreign_key_validation():
    with pytest.raises(ValueError):
        DatabaseProfile(
            "bad",
            tables=[TableProfile("t", [ColumnProfile("id")])],
            foreign_keys=[ForeignKey("t", "id", "missing", "id")],
        )


def test_description_slot():
    profile = DatabaseProfile("d", [TableProfile("t", [
        ColumnProfile("c", "TEXT", description="the label"),
    ])])
    assert "(c:TEXT, the label)," in render_mschema(profile)


def test_profile_from_sqlite(school_db):
    profile = profile_from_sqlite(school_db, db_id="school")
    assert profile.db_id == "school"
    assert [t.name for t in profile.tables] == ["grades", "students"]
    students = table(profile, "students")
    assert students.column_names() == ["id", "name", "year"]
    assert students.columns[0].primary_key
    assert students.columns[1].samples == ["Ada", "Ben", "Cam"]
    assert profile.foreign_keys == [
        ForeignKey("grades", "student_id", "students", "id")]
    again = profile_from_sqlite(school_db, db_id="school")
    assert render_mschema(again) == render_mschema(profile)


def test_sample_truncation(tmp_path):
    import sqlite3

    path = tmp_path / "long.sqlite"
    conn = sqlite3.connect(path)
    conn.execute("CREATE TABLE t (v TEXT)")
    conn.execute("INSERT INTO t VALUES (?)", ("x" * 100,))
    conn.commit()
    conn.close()
    profile = profile_from_sqlite(path)
    rendered = render_mschema(profile)
    assert "x" * 40 + "..." in rendered
    assert "x" * 41 not in rendered


def test_mschema_is_rendered_once(monkeypatch):
    from skelsearch import schema

    formatted = []
    format_sample = schema._format_sample
    monkeypatch.setattr(schema, "_format_sample",
                        lambda v: formatted.append(v) or format_sample(v))
    profile = make_profile()
    first = render_mschema(profile)
    once = len(formatted)
    assert render_mschema(profile) is first
    assert once > 0 and len(formatted) == once


def old_samples(conn, name, col):
    """Sample values as the per-column query before bounded sampling
    read them, kept verbatim as the reference."""
    try:
        values = [r[0] for r in conn.execute(
            f'SELECT DISTINCT "{col}" FROM "{name}" '
            f'WHERE "{col}" IS NOT NULL '
            f'ORDER BY "{col}" '
            f'LIMIT {SAMPLE_VALUES_PER_COLUMN}')]
    except sqlite3.Error:
        values = []
    return values


# Values that fall into few classes under each collation: 1 and 1.0 are
# one value to SQLite, as are NOCASE 'a' and 'A' and RTRIM 'a' and 'a '.
VALUES = st.sampled_from([
    None, 0, 1, 1.0, 2, 2.5, -1, 10**12, "1", "", "a", "A", "a ", "A ",
    "b", "B", "b  ", "ß", b"a", b"", b"\x00"])
COLUMN = st.tuples(st.sampled_from(["", " TEXT", " INTEGER", " REAL",
                                    " NUMERIC", " BLOB"]),
                   st.sampled_from(["", " COLLATE NOCASE", " COLLATE RTRIM",
                                    " COLLATE BINARY"]))


@st.composite
def databases(draw):
    """DDL and rows for one to three tables, with indexes among them."""
    statements, inserts = [], []
    for number in range(draw(st.integers(1, 3))):
        table = f"t{number}"
        columns = [f"c{i}{kind}{collation}" for i, (kind, collation)
                   in enumerate(draw(st.lists(COLUMN, min_size=1,
                                              max_size=4)))]
        without_rowid = draw(st.booleans())
        if without_rowid:
            columns.append("k INTEGER PRIMARY KEY")
        statements.append(f"CREATE TABLE {table} ({', '.join(columns)})"
                          + (" WITHOUT ROWID" if without_rowid else ""))
        width = len(columns) - without_rowid
        rows = draw(st.lists(st.lists(VALUES, min_size=width,
                                      max_size=width), max_size=12))
        # repeat the drawn rows so that a table can outgrow any bounded
        # look-ahead and every value has many equal rows
        rows = rows * draw(st.sampled_from([1, 1, 40]))
        inserts += [(table, row + [key] if without_rowid else row)
                    for key, row in enumerate(rows)]
        names = [column.split()[0] for column in columns]
        for index in range(draw(st.integers(0, 2))):
            picked = draw(st.lists(st.sampled_from(names), min_size=1,
                                   max_size=len(names), unique=True))
            collations = draw(st.lists(
                st.sampled_from(["", " COLLATE NOCASE", " COLLATE BINARY"]),
                min_size=len(picked), max_size=len(picked)))
            statements.append(
                f"CREATE INDEX {table}_{index} ON {table} ("
                + ", ".join(name + collation
                            for name, collation in zip(picked, collations))
                + ")")
    return statements, inserts, draw(st.booleans())


def _collation(column: str) -> str:
    """The collation named in a drawn column definition."""
    return column.split(" COLLATE ")[1] if " COLLATE " in column \
        else "BINARY"


def _build(path, statements, inserts, analyze) -> None:
    path.unlink(missing_ok=True)
    conn = sqlite3.connect(path)
    try:
        for statement in statements:
            conn.execute(statement)
        for table, row in inserts:
            conn.execute(f"INSERT INTO {table} VALUES "
                         f"({', '.join('?' * len(row))})", row)
        if analyze:
            conn.execute("ANALYZE")
        conn.commit()
    finally:
        conn.close()


@pytest.fixture
def drawn(tmp_path):
    """A function that builds a drawn database and its index-free copy
    (the same tables and rows, no CREATE INDEX, no ANALYZE) and returns
    (the copy's statements, profile, copy's profile, copy's path)."""
    def build(database):
        statements, inserts, analyze = database
        plain = [s for s in statements if not s.startswith("CREATE INDEX")]
        path, copy = tmp_path / "drawn.sqlite", tmp_path / "copy.sqlite"
        _build(path, statements, inserts, analyze)
        _build(copy, plain, inserts, False)
        return plain, profile_from_sqlite(path), profile_from_sqlite(copy), \
            copy

    return build


def sampling_property(test):
    """Runs `test` over drawn databases, with the cases that once showed
    an index changing a sample's spelling pinned as examples."""
    for database in [
        # A covering index orders the rows of one NOCASE value by its
        # next column: the per-column sort read them in that order.
        (["CREATE TABLE t0 (c0 TEXT COLLATE NOCASE, c1 INTEGER)",
          "CREATE INDEX t0_0 ON t0 (c0, c1)"],
         [("t0", ["a", 2]), ("t0", ["A", 1]), ("t0", ["b", 2]),
          ("t0", ["B", 1])],
         False),
        (["CREATE TABLE t0 (c0, c1 TEXT COLLATE NOCASE, c2)",
          "CREATE INDEX t0_0 ON t0 (c0, c1)"],
         [("t0", [2, "a", 1]), ("t0", [1, "A", 1]), ("t0", [3, "b", 1])],
         False),
        # With this index and ANALYZE, the per-column sampler showed
        # [0, 1] where the same rows without the index show [0, 1.0].
        (["CREATE TABLE t0 (c0, c1, c2, c3)",
          "CREATE INDEX t0_0 ON t0 (c1, c0, c2, c3)"],
         [("t0", [0, None, None, None]), ("t0", [1.0, None, None, 0]),
          ("t0", [1, None, None, None])] * 40,
         True),
        # An RTRIM column behind an index's leading column: the
        # per-column sampler showed 'b  ' where the sort showed 'b'.
        (["CREATE TABLE t0 (c0 COLLATE RTRIM, c1, c2, c3)",
          "CREATE INDEX t0_0 ON t0 (c1, c0, c2, c3)"],
         [("t0", [0, None, None, None]), ("t0", ["b", None, None, 0]),
          ("t0", ["b  ", None, None, None])] * 40,
         True),
    ]:
        test = example(database=database)(test)
    return settings(max_examples=200, deadline=None,
                    suppress_health_check=[
                        HealthCheck.function_scoped_fixture,
                        HealthCheck.too_slow])(
        given(database=databases())(test))


@sampling_property
def test_samples_without_indexes_match_the_old_query(drawn, database):
    """On a database without indexes, bounded sampling returns what the
    per-column DISTINCT sort returned, value for value and type for
    type: on collation-equal classes, mixed storage classes, NULL-only
    and empty tables, WITHOUT ROWID tables and tables of hundreds of
    rows."""
    _, _, profile, path = drawn(database)
    with closing(sqlite3.connect(path)) as conn:
        for table in profile.tables:
            for column in table.columns:
                expected = old_samples(conn, table.name, column.name)
                assert column.samples == expected, (table.name, column.name)
                assert ([type(v) for v in column.samples]
                        == [type(v) for v in expected])


@sampling_property
def test_rowid_tables_render_the_same_with_indexes(drawn, database):
    """Indexes and ANALYZE do not change the M-Schema text of a rowid
    table: each sample is spelled as its first row in rowid order."""
    statements, profile, copy, _ = drawn(database)
    rowid = {s.split()[2] for s in statements
             if not s.endswith("WITHOUT ROWID")}

    def text(of):
        return render_mschema(DatabaseProfile("drawn", [
            table for table in of.tables if table.name in rowid]))

    assert text(profile) == text(copy)


@sampling_property
def test_without_rowid_samples_are_collation_equal(drawn, database):
    """On a WITHOUT ROWID table an index can pick the spelling of a
    sample (see the `schema` docstring), but each sample still equals
    the index-free copy's under its column's collation."""
    statements, profile, copy, _ = drawn(database)
    tables = [s for s in statements if s.endswith("WITHOUT ROWID")]
    with closing(sqlite3.connect(":memory:")) as conn:
        for statement in tables:
            name = statement.split()[2]
            definitions = statement[statement.index("(") + 1:
                                    statement.rindex(")")].split(", ")
            for column, definition, plain in zip(
                    table(profile, name).columns, definitions,
                    table(copy, name).columns):
                assert len(column.samples) == len(plain.samples), column.name
                for value, expected in zip(column.samples, plain.samples):
                    assert conn.execute(
                        f"SELECT ? = ? COLLATE {_collation(definition)}",
                        (value, expected)).fetchone() == (1,), column.name


def test_names_with_quotes_are_profiled(tmp_path):
    path = tmp_path / "quotes.sqlite"
    conn = sqlite3.connect(path)
    conn.execute('CREATE TABLE "we""ird" ("a""b" TEXT, id INTEGER)')
    conn.execute('CREATE TABLE plain ("x""y" INTEGER '
                 'REFERENCES "we""ird"(id))')
    conn.executemany('INSERT INTO "we""ird" VALUES (?, ?)',
                     [("q", 2), ("p", 1)])
    conn.execute('INSERT INTO plain VALUES (1)')
    conn.commit()
    conn.close()
    profile = profile_from_sqlite(path)
    weird = table(profile, 'we"ird')
    assert [c.samples for c in weird.columns] == [["p", "q"], [1, 2]]
    assert table(profile, "plain").columns[0].samples == [1]
    assert profile.foreign_keys == [ForeignKey("plain", 'x"y', 'we"ird',
                                               "id")]
    assert '(a"b:TEXT, Examples: [p, q]),' in render_mschema(profile)


def _statements(monkeypatch, path) -> list[str]:
    """The SQL statements that profiling `path` runs."""
    statements = []
    connect = sqlite3.connect

    def traced(*args, **kwargs):
        conn = connect(*args, **kwargs)
        conn.set_trace_callback(statements.append)
        return conn

    with monkeypatch.context() as patch:
        patch.setattr(sqlite3, "connect", traced)
        profile_from_sqlite(path)
    return statements


def _two_tables(path, rows):
    conn = sqlite3.connect(path)
    conn.execute("CREATE TABLE person (id INTEGER PRIMARY KEY, name TEXT, "
                 "grp TEXT COLLATE NOCASE, score REAL, note TEXT)")
    conn.execute("CREATE TABLE visit (person_id INTEGER REFERENCES "
                 "person(id), day INTEGER, kind TEXT)")
    conn.executemany("INSERT INTO person VALUES (?, ?, ?, ?, NULL)",
                     [(i, f"n{i % 97}", "AbC"[i % 3], i % 7 / 2)
                      for i in range(rows)])
    conn.executemany("INSERT INTO visit VALUES (?, ?, ?)",
                     [(i % 50, 20200101 + i % 300, "xy"[i % 2])
                      for i in range(rows)])
    conn.commit()
    conn.close()
    return path


def test_statement_count_is_bounded(tmp_path, monkeypatch):
    """A 20-row database runs no more statements than the per-column
    query did (1 + 2 per table + 1 per column), and the count does not
    grow with rows."""
    small = _statements(monkeypatch,
                        _two_tables(tmp_path / "small.sqlite", 20))
    large = _statements(monkeypatch,
                        _two_tables(tmp_path / "large.sqlite", 5000))
    assert len(small) <= 1 + 2 * 2 + 8
    assert len(small) == len(large) == 1 + 2 * 2 + 3
    assert not any("ORDER BY" in statement
                   for statement in small[1:] + large[1:])
