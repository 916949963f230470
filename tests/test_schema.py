"""Profile construction and M-Schema rendering."""

import pytest

from skelsearch.schema import (
    ColumnProfile,
    DatabaseProfile,
    ForeignKey,
    TableProfile,
    profile_from_sqlite,
    render_mschema,
)

from conftest import make_profile

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
    students = profile.table("students")
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
