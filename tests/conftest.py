"""Shared fixtures: a small school database and its profile."""

import sqlite3

import pytest

from skelsearch import sqlast
from skelsearch.schema import (
    ColumnProfile,
    DatabaseProfile,
    ForeignKey,
    TableProfile,
    profile_from_sqlite,
)

SCHOOL_DDL = [
    "CREATE TABLE students (id INTEGER PRIMARY KEY, name TEXT, year INTEGER)",
    "CREATE TABLE grades (student_id INTEGER, course TEXT, score REAL, "
    "FOREIGN KEY (student_id) REFERENCES students(id))",
]

SCHOOL_ROWS = {
    "students": [
        (1, "Ada", 2021),
        (2, "Ben", 2022),
        (3, "Cam", 2021),
        (4, "Dee", 2023),
    ],
    "grades": [
        (1, "math", 91.0),
        (1, "physics", 78.5),
        (2, "math", 64.0),
        (3, "math", 91.0),
        (3, "physics", 88.0),
        (4, "math", 55.0),
    ],
}


def build_school_db(path):
    conn = sqlite3.connect(path)
    try:
        for ddl in SCHOOL_DDL:
            conn.execute(ddl)
        for table, rows in SCHOOL_ROWS.items():
            width = ",".join("?" * len(rows[0]))
            conn.executemany(
                f"INSERT INTO {table} VALUES ({width})", rows)
        conn.commit()
    finally:
        conn.close()
    return path


@pytest.fixture
def school_db(tmp_path):
    return build_school_db(tmp_path / "school.sqlite")


@pytest.fixture
def school_profile(school_db):
    return profile_from_sqlite(school_db, db_id="school")


def make_profile(db_id="toy"):
    return DatabaseProfile(
        db_id,
        tables=[
            TableProfile("t", [
                ColumnProfile("id", "INTEGER", primary_key=True,
                              samples=[1, 2, 3]),
                ColumnProfile("name", "TEXT", samples=["a", "b"]),
            ]),
            TableProfile("u", [
                ColumnProfile("t_id", "INTEGER", samples=[1, 2]),
                ColumnProfile("score", "REAL"),
            ]),
        ],
        foreign_keys=[ForeignKey("u", "t_id", "t", "id")],
    )


@pytest.fixture
def toy_profile():
    return make_profile()


@pytest.fixture
def parse_counts(monkeypatch):
    """Counts of sqlast.parse and Lexer.tokens calls while a test runs."""
    counts = {"parse": 0, "lex": 0}
    parse, tokens = sqlast.parse, sqlast.Lexer.tokens

    def counted_parse(*args, **kwargs):
        counts["parse"] += 1
        return parse(*args, **kwargs)

    def counted_tokens(self):
        counts["lex"] += 1
        return tokens(self)

    monkeypatch.setattr(sqlast, "parse", counted_parse)
    monkeypatch.setattr(sqlast.Lexer, "tokens", counted_tokens)
    return counts
