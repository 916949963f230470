"""Profile construction and M-Schema rendering."""

import os
import shutil
import sqlite3
from contextlib import closing

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from skelsearch import schema
from skelsearch.schema import (
    SAMPLE_VALUES_PER_COLUMN,
    ColumnProfile,
    DatabaseProfile,
    ForeignKey,
    TableProfile,
    profile_from_sqlite,
    render_mschema,
)

from conftest import build_school_db, make_profile


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


def test_profile_from_sqlite(school_db):
    profile = profile_from_sqlite(school_db)
    assert profile.db_id == "school"
    assert [t.name for t in profile.tables] == ["grades", "students"]
    students = table(profile, "students")
    assert students.column_names() == ["id", "name", "year"]
    assert students.columns[0].primary_key
    assert students.columns[1].samples == ["Ada", "Ben", "Cam"]
    assert profile.foreign_keys == [
        ForeignKey("grades", "student_id", "students", "id")]
    again = profile_from_sqlite(school_db)
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
def databases(draw, values=VALUES):
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
        rows = draw(st.lists(st.lists(values, min_size=width,
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


# The profile cache (see the `schema` docstring).

# Values whose type or spelling a cache entry could lose: bytes, -0.0,
# ints past float precision, huge and infinite floats, non-ASCII text.
EDGE_VALUES = [b"\x00\xff", b"", -0.0, 2**53, 2**53 + 1, 2**63 - 1,
               -2**63, 1e300, float("inf"), float("-inf"), "é", "日本語"]
CACHE_VALUES = st.one_of(VALUES, st.sampled_from(EDGE_VALUES),
                         st.integers(-2**63, 2**63 - 1),
                         st.floats(allow_nan=False), st.text(max_size=8),
                         st.binary(max_size=8))


def typed_samples(profile):
    return [[(type(v), repr(v)) for v in column.samples]
            for table in profile.tables for column in table.columns]


@pytest.fixture
def introspections(monkeypatch):
    """The paths that profiling reads through SQLite, not the cache."""
    calls, introspect = [], schema._introspect

    def counted(path, *args):
        calls.append(path)
        return introspect(path, *args)

    monkeypatch.setattr(schema, "_introspect", counted)
    return calls


def entries(profile_cache) -> list:
    return sorted(profile_cache.iterdir()) if profile_cache.is_dir() else []


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(database=databases(CACHE_VALUES))
@example(database=(
    ["CREATE TABLE t0 (c0, c1 BLOB, c2 REAL, c3 TEXT)",
     "CREATE TABLE t1 (c0, k INTEGER PRIMARY KEY) WITHOUT ROWID"],
    [("t0", [value, value, value, value]) for value in EDGE_VALUES]
    + [("t1", [None, 1]), ("t1", [None, 2])],
    False))
def test_a_cached_profile_equals_a_fresh_one(tmp_path, profile_cache,
                                             introspections, database):
    """A profile read back from the cache renders the same M-Schema
    bytes and holds equal samples of equal types."""
    shutil.rmtree(profile_cache, ignore_errors=True)
    path = tmp_path / "drawn.sqlite"
    _build(path, *database)
    del introspections[:]
    cold = profile_from_sqlite(path)
    warm = profile_from_sqlite(path)
    assert introspections == [path]
    assert len(entries(profile_cache)) == 1
    assert render_mschema(warm) == render_mschema(cold)
    assert warm == cold
    assert typed_samples(warm) == typed_samples(cold)


def test_a_hit_opens_no_database(tmp_path, monkeypatch, profile_cache):
    """A hit rebuilds tables, samples and foreign keys without SQLite,
    and takes the db_id and path from the call: a copy of the file hits
    the entry its original stored."""
    school = build_school_db(tmp_path / "school.sqlite")
    cold = profile_from_sqlite(school)
    copy = tmp_path / "copy.sqlite"
    shutil.copyfile(school, copy)

    def refuse(*args, **kwargs):
        raise AssertionError("SQLite opened on a hit")

    monkeypatch.setattr(sqlite3, "connect", refuse)
    warm = profile_from_sqlite(copy)
    assert (warm.db_id, warm.path) == ("copy", str(copy))
    assert warm.tables == cold.tables
    assert warm.foreign_keys == cold.foreign_keys == [
        ForeignKey("grades", "student_id", "students", "id")]
    assert len(entries(profile_cache)) == 1


def test_a_changed_row_misses_within_one_mtime(tmp_path, profile_cache):
    """One changed row changes the key, even when the file keeps its
    size and modification time, which a key on the file's stat would
    not see."""
    path = build_school_db(tmp_path / "school.sqlite")
    stat = os.stat(path)
    assert table(profile_from_sqlite(path), "students").columns[1] \
        .samples == ["Ada", "Ben", "Cam"]
    with closing(sqlite3.connect(path)) as conn:
        conn.execute("UPDATE students SET name = 'Aba' WHERE id = 2")
        conn.commit()
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert os.stat(path).st_size == stat.st_size
    assert table(profile_from_sqlite(path), "students").columns[1] \
        .samples == ["Aba", "Ada", "Cam"]
    assert len(entries(profile_cache)) == 2


@pytest.mark.parametrize("suffix", ["-wal", "-journal"])
def test_a_journal_beside_the_database_bypasses_the_cache(
        tmp_path, profile_cache, introspections, suffix):
    """With a -wal or -journal file beside the database, profiling
    neither reads the entry of the file's bytes nor writes one."""
    path = build_school_db(tmp_path / "school.sqlite")
    fresh = profile_from_sqlite(path)
    [entry] = entries(profile_cache)
    stale = entry.read_text(encoding="utf-8").replace('"Ada"', '"Stale"')
    entry.write_text(stale, encoding="utf-8")
    assert "Stale" in render_mschema(profile_from_sqlite(path))
    (tmp_path / f"school.sqlite{suffix}").touch()
    del introspections[:]
    assert render_mschema(profile_from_sqlite(path)) \
        == render_mschema(fresh)
    assert introspections == [path]
    assert entry.read_text(encoding="utf-8") == stale
    entry.unlink()
    profile_from_sqlite(path)
    assert entries(profile_cache) == []


def test_rows_still_in_the_wal_are_sampled(tmp_path, profile_cache):
    """Rows committed to the write-ahead log but not yet copied into the
    database file are sampled, though the file's bytes did not change."""
    path = tmp_path / "wal.sqlite"
    with closing(sqlite3.connect(path)) as conn:
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("CREATE TABLE t (v TEXT)")
        conn.execute("INSERT INTO t VALUES ('b')")
        conn.commit()
    assert not (tmp_path / "wal.sqlite-wal").exists()
    first = profile_from_sqlite(path)
    assert first.tables[0].columns[0].samples == ["b"]
    # The read-only connection may leave the log it opened beside the
    # file, and then nothing is stored; store the file's entry here.
    for suffix in ("-wal", "-shm"):
        (tmp_path / f"wal.sqlite{suffix}").unlink(missing_ok=True)
    schema._store(schema._cache_entry(path), first)
    assert len(entries(profile_cache)) == 1
    data = path.read_bytes()
    with closing(sqlite3.connect(path)) as writer:
        writer.execute("PRAGMA wal_autocheckpoint=0")
        writer.execute("INSERT INTO t VALUES ('a')")
        writer.commit()
        assert path.read_bytes() == data
        assert profile_from_sqlite(path).tables[0].columns[0].samples \
            == ["a", "b"]


@pytest.mark.parametrize("broken", [
    "truncated",
    "not json at all",
    "[" * 100_000,
    "[]",
    '{"tables": [["t", [["c", "", "yes", []]]]], "foreign_keys": []}',
    '{"tables": [["t", [["c", "", false, [[1]]]]]], "foreign_keys": []}',
    '{"tables": [["t", [["c", "", false, [true]]]]], "foreign_keys": []}',
    '{"tables": [["t", [["c", "", false, [{"hex": "zz"}]]]]], '
    '"foreign_keys": []}',
    '{"tables": [["t", [["c", "", false, []]]]], '
    '"foreign_keys": [["t", "c", "u", "d"]]}',
], ids=["truncated", "garbage", "deep", "list", "key-not-bool",
        "sample-list", "sample-bool", "bad-hex", "dangling-fk"])
def test_a_broken_entry_is_profiled_again_and_replaced(
        school_db, profile_cache, introspections, broken):
    """An entry cut short, not JSON, too deep to parse, or of another
    shape than profiles are written in is never read as a profile."""
    fresh = profile_from_sqlite(school_db)
    [entry] = entries(profile_cache)
    good = entry.read_bytes()
    if broken == "truncated":
        entry.write_bytes(good[:len(good) // 2])
    else:
        entry.write_text(broken, encoding="utf-8")
    del introspections[:]
    again = profile_from_sqlite(school_db)
    assert introspections == [school_db]
    assert render_mschema(again) == render_mschema(fresh)
    assert typed_samples(again) == typed_samples(fresh)
    assert entry.read_bytes() == good


def test_an_unwritable_cache_still_profiles(school_db, tmp_path,
                                            monkeypatch, introspections):
    """A cache location that cannot be made (a file stands where its
    directory would be) costs the scans each time, and nothing else."""
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("", encoding="utf-8")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    first = profile_from_sqlite(school_db)
    assert render_mschema(profile_from_sqlite(school_db)) \
        == render_mschema(first)
    assert introspections == [school_db, school_db]
    assert blocker.read_text(encoding="utf-8") == ""


def test_another_sqlite_version_misses(school_db, monkeypatch, profile_cache,
                                       introspections):
    profile_from_sqlite(school_db)
    profile_from_sqlite(school_db)
    assert introspections == [school_db]
    monkeypatch.setattr(sqlite3, "sqlite_version", "0.0.0")
    profile_from_sqlite(school_db)
    assert introspections == [school_db, school_db]
    assert len(entries(profile_cache)) == 2


def test_a_file_changed_while_profiled_is_not_stored(school_db, monkeypatch,
                                                     profile_cache):
    """A row rewritten after the lookup hashed the file, keeping its
    size and modification time, is sampled but not stored under the
    key of the bytes before it, which a file's stat would not show."""
    introspect = schema._introspect

    def rewritten(path, *args):
        stat = os.stat(path)
        with closing(sqlite3.connect(path)) as conn:
            conn.execute("UPDATE students SET name = 'Aba' WHERE id = 2")
            conn.commit()
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert os.stat(path).st_size == stat.st_size
        return introspect(path, *args)

    monkeypatch.setattr(schema, "_introspect", rewritten)
    assert table(profile_from_sqlite(school_db), "students").columns[1] \
        .samples == ["Aba", "Ada", "Cam"]
    assert entries(profile_cache) == []


def test_a_journal_made_while_profiled_stops_the_store(
        school_db, monkeypatch, profile_cache):
    """A journal that appears during the scans may hold rows they read
    but the file's bytes lack, so nothing is stored."""
    introspect = schema._introspect

    def journalled(path, *args):
        open(f"{path}-journal", "w").close()
        return introspect(path, *args)

    monkeypatch.setattr(schema, "_introspect", journalled)
    profile_from_sqlite(school_db)
    assert entries(profile_cache) == []


def test_a_file_touched_while_profiled_is_stored(school_db, monkeypatch,
                                                 profile_cache):
    """A new modification time on the same bytes is no change: the key
    is the file's bytes, not its stat."""
    introspect = schema._introspect

    def touched(path, *args):
        profile = introspect(path, *args)
        stat = os.stat(path)
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1))
        return profile

    monkeypatch.setattr(schema, "_introspect", touched)
    profile_from_sqlite(school_db)
    assert len(entries(profile_cache)) == 1


@pytest.mark.parametrize("setting", [None, "", "relative/cache"])
def test_the_cache_defaults_to_the_home_cache(school_db, tmp_path,
                                              monkeypatch, setting):
    """Unset, empty or relative, XDG_CACHE_HOME means ~/.cache."""
    if setting is None:
        monkeypatch.delenv("XDG_CACHE_HOME")
    else:
        monkeypatch.setenv("XDG_CACHE_HOME", setting)
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    monkeypatch.chdir(tmp_path)
    profile_from_sqlite(school_db)
    assert len(entries(tmp_path / "home" / ".cache" / "skelsearch"
                       / "profiles")) == 1
    assert not (tmp_path / "relative").exists()


def test_the_key_covers_every_byte_of_the_file(tmp_path):
    """Files that differ in a single byte, wherever it lies, have
    different keys; files with the same bytes share one."""
    data = bytes(range(256)) * 3077  # a few reads' worth of bytes
    keys = set()
    for position in (None, 0, len(data) // 2, len(data) - 1):
        changed = bytearray(data)
        if position is not None:
            changed[position] ^= 1
        path = tmp_path / f"{position}.sqlite"
        path.write_bytes(changed)
        keys.add(schema._cache_key(path))
    (tmp_path / "same.sqlite").write_bytes(data)
    keys.add(schema._cache_key(tmp_path / "same.sqlite"))
    assert len(keys) == 4
