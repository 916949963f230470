"""Database profiles and their M-Schema prompt rendering.

A DatabaseProfile is the static description of one benchmark database:
tables, typed columns, primary keys, sample values, and foreign-key pairs.
Profiles are built once per database (usually by introspecting the sqlite
file) and rendered into the M-Schema layout used by every prompt:

    【DB_ID】 db
    【Schema】
    # Table: t
    [
    (col:TYPE, Primary Key, description, Examples: [v1, v2]),
    ...
    ]
    【Foreign keys】
    t.a=u.b
"""

from __future__ import annotations

import sqlite3
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

SAMPLE_VALUES_PER_COLUMN = 3
SAMPLE_VALUE_MAX_CHARS = 40


@dataclass
class ColumnProfile:
    name: str
    type: str = ""
    primary_key: bool = False
    description: str = ""
    samples: list = field(default_factory=list)


@dataclass
class TableProfile:
    name: str
    columns: list[ColumnProfile] = field(default_factory=list)

    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]


@dataclass
class ForeignKey:
    table: str
    column: str
    ref_table: str
    ref_column: str


@dataclass
class DatabaseProfile:
    """Static description of one database.

    The M-Schema text is rendered on first use and cached, so a profile
    must not change after it is first rendered: build a new profile
    instead of editing one.
    """

    db_id: str
    tables: list[TableProfile] = field(default_factory=list)
    foreign_keys: list[ForeignKey] = field(default_factory=list)
    path: str | None = None

    def __post_init__(self):
        columns = {(t.name.lower(), c.name.lower())
                   for t in self.tables for c in t.columns}
        for fk in self.foreign_keys:
            for table, column in ((fk.table, fk.column),
                                  (fk.ref_table, fk.ref_column)):
                if (table.lower(), column.lower()) not in columns:
                    raise ValueError(
                        f"foreign key endpoint {table}.{column} does not "
                        f"exist in profile {self.db_id!r}")

    def table(self, name: str) -> TableProfile:
        for t in self.tables:
            if t.name.lower() == name.lower():
                return t
        raise KeyError(name)

    @cached_property
    def mschema(self) -> str:
        """Deterministic M-Schema text; `render_mschema` returns it."""
        lines = [f"【DB_ID】 {self.db_id}", "【Schema】"]
        for table in self.tables:
            lines.append(f"# Table: {table.name}")
            lines.append("[")
            for column in table.columns:
                parts = [f"({column.name}:{column.type.upper()}"
                         if column.type else f"({column.name}"]
                if column.primary_key:
                    parts.append("Primary Key")
                if column.description:
                    parts.append(column.description)
                if column.samples:
                    rendered = ", ".join(_format_sample(v)
                                         for v in column.samples)
                    parts.append(f"Examples: [{rendered}]")
                lines.append(", ".join(parts) + "),")
            lines.append("]")
        if self.foreign_keys:
            lines.append("【Foreign keys】")
            for fk in self.foreign_keys:
                lines.append(f"{fk.table}.{fk.column}="
                             f"{fk.ref_table}.{fk.ref_column}")
        return "\n".join(lines) + "\n"


def _format_sample(value) -> str:
    if value is None:
        return "NULL"
    text = str(value)
    if len(text) > SAMPLE_VALUE_MAX_CHARS:
        text = text[:SAMPLE_VALUE_MAX_CHARS] + "..."
    return text


def render_mschema(profile: DatabaseProfile) -> str:
    """Deterministic M-Schema text for prompt embedding.

    Rendered once per profile; later calls return the cached text.
    """
    return profile.mschema


def profile_from_sqlite(path: str | Path, db_id: str | None = None,
                        samples: int = SAMPLE_VALUES_PER_COLUMN,
                        ) -> DatabaseProfile:
    """Introspect a sqlite file into a profile.

    Sample values are the smallest distinct non-null values per column,
    so repeated introspection of an unchanged database is byte-stable.
    """
    path = Path(path)
    if db_id is None:
        db_id = path.stem
    conn = sqlite3.connect(f"file:{path}?mode=ro", uri=True)
    try:
        names = [r[0] for r in conn.execute(
            "SELECT name FROM sqlite_master WHERE type='table' "
            "AND name NOT LIKE 'sqlite_%' ORDER BY name")]
        tables = []
        fks = []
        for name in names:
            columns = []
            for _, col, ctype, _notnull, _default, pk in conn.execute(
                    f'PRAGMA table_info("{name}")'):
                values = []
                if samples > 0:
                    try:
                        values = [r[0] for r in conn.execute(
                            f'SELECT DISTINCT "{col}" FROM "{name}" '
                            f'WHERE "{col}" IS NOT NULL '
                            f'ORDER BY "{col}" LIMIT {int(samples)}')]
                    except sqlite3.Error:
                        values = []
                columns.append(ColumnProfile(col, ctype or "", bool(pk),
                                             samples=values))
            tables.append(TableProfile(name, columns))
            for row in conn.execute(f'PRAGMA foreign_key_list("{name}")'):
                _, _, ref_table, from_col, to_col = row[:5]
                if to_col is None:
                    continue
                fks.append(ForeignKey(name, from_col, ref_table, to_col))
    finally:
        conn.close()
    known = {(t.name.lower(), c.name.lower())
             for t in tables for c in t.columns}
    fks = [fk for fk in fks
           if (fk.table.lower(), fk.column.lower()) in known
           and (fk.ref_table.lower(), fk.ref_column.lower()) in known]
    return DatabaseProfile(db_id, tables, fks, str(path))
