"""Database profiles and their M-Schema prompt rendering.

A DatabaseProfile is the static description of one benchmark database:
tables, typed columns, primary keys, sample values, and foreign-key pairs.
Profiles are built once per database (usually by introspecting the sqlite
file) and rendered into the M-Schema layout used by every prompt:

    【DB_ID】 db
    【Schema】
    # Table: t
    [
    (col:TYPE, Primary Key, Examples: [v1, v2]),
    ...
    ]
    【Foreign keys】
    t.a=u.b

Sample values: each column shows its three smallest distinct non-null
values in the column's collation (NOCASE 'a' and 'A' are one value),
each spelled as the first row in table order that holds it, whatever
indexes or ANALYZE statistics the database has. Profiling reads them in
three rounds of one statement each. Every table is one UNION ALL arm
that scans it `NOT INDEXED` once a round for all its columns: round one
takes `MIN(c)` of every column, rounds two and three take `MIN(c)
FILTER (WHERE c > ?)` above the value found last. A profile thus costs
at most three plain scans per table, no sort, and 1 + 2 per table + 3
statements whatever the number of rows.

A WITHOUT ROWID table has no rowid order, and SQLite 3.40.1 still plans
`SCAN t USING COVERING INDEX i` for it under `NOT INDEXED`. For such a
table the spelling of collation-equal values (NOCASE 'a' and 'A', RTRIM
'a' and 'a ', 1 and 1.0 in an untyped column) can follow that index;
the values themselves do not.

Profiling is byte-stable: an unchanged database gives the same
profile, sample for sample, every time. So a profile is a function of
the database file's bytes, the SQLite version and this module's code,
and `profile_from_sqlite` keeps each one on disk under a hash of the
three, so that a later call on the same bytes skips the scans:
`<cache>/skelsearch/profiles/<key>.json`, where `<cache>` is
`$XDG_CACHE_HOME`, or `~/.cache` when that is unset (or not an
absolute path). Deleting that directory clears it. An edit to this
file invalidates every entry. Only a call on bytes profiled before
gains; a miss costs two hashes of the file and a write more than the
scans alone. A database with a `-wal` or `-journal` file beside it
bypasses the cache, since its committed state is then not the file's
bytes alone. A cache that cannot be read or written only
costs the scans again.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import tempfile
from contextlib import suppress
from dataclasses import dataclass, field
from functools import cache, cached_property
from pathlib import Path

SAMPLE_VALUES_PER_COLUMN = 3
SAMPLE_VALUE_MAX_CHARS = 40


@dataclass
class ColumnProfile:
    name: str
    type: str = ""
    primary_key: bool = False
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


def _quote(name: str) -> str:
    """`name` as an SQL identifier."""
    return '"' + name.replace('"', '""') + '"'


# Arms per UNION ALL statement, well below SQLite's default limit of 500
# terms in a compound SELECT.
_ARMS_PER_STATEMENT = 200


def _sample_values(conn: sqlite3.Connection,
                   tables: list[tuple[str, list[str]]]) -> list[list]:
    """The sample values of the columns of `tables`, a list of (table,
    columns): one list per column, in order (see the module docstring).

    Each round is one UNION ALL with one arm per table. A column that
    has run out of values is asked for values above NULL, so that the
    second and third rounds are one text, prepared once. When a
    statement fails, each column is sampled on its own, and a column
    that fails alone gets no samples.
    """
    if len(tables) > _ARMS_PER_STATEMENT:
        return [samples
                for start in range(0, len(tables), _ARMS_PER_STATEMENT)
                for samples in _sample_values(
                    conn, tables[start:start + _ARMS_PER_STATEMENT])]
    found = [[[] for _ in columns] for _, columns in tables]
    flat = [have for per_table in found for have in per_table]
    width = max((len(columns) for _, columns in tables), default=0)
    first, after = [], []  # the arms of the first and of later rounds
    for index, (table, columns) in enumerate(tables):
        names = [_quote(column) for column in columns]
        pad = ["NULL"] * (width - len(names))
        source = f" FROM {_quote(table)} NOT INDEXED"
        first.append(f"SELECT {index}, "
                     + ", ".join([f"MIN({name})" for name in names] + pad)
                     + source)
        after.append(f"SELECT {index}, " + ", ".join(
            [f"MIN({name}) FILTER (WHERE {name} > ?)" for name in names]
            + pad) + source)
    texts = [" UNION ALL ".join(first), " UNION ALL ".join(after)]
    try:
        for depth in range(SAMPLE_VALUES_PER_COLUMN):
            if all(len(have) < depth for have in flat):
                break
            bounds = [have[-1] if len(have) == depth else None
                      for have in flat] if depth else []
            for index, *values in conn.execute(texts[depth > 0], bounds):
                for have, value in zip(found[index], values):
                    if value is not None:
                        have.append(value)
    except sqlite3.Error:
        if len(flat) == 1:
            return [[]]
        return [samples for table, columns in tables for column in columns
                for samples in _sample_values(conn, [(table, [column])])]
    return flat


def read_only_uri(path: str | Path) -> str:
    """The SQLite URI that opens the database file at `path` read-only.

    The path is percent-encoded, so that a `#`, `?` or `%` in it names
    the file instead of starting a fragment, a query or an escape.
    """
    return Path(path).resolve().as_uri() + "?mode=ro"


def _cache_entry(path: Path) -> Path | None:
    """The cache file of the database at `path`; None when the cache is
    bypassed: no cache directory is known, or a `-wal` or `-journal`
    file sits beside the database."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):  # unset, empty or relative: the default
        home = os.path.expanduser("~")
        if home == "~":
            return None
        base = os.path.join(home, ".cache")
    resolved = path.resolve()  # where SQLite looks for the journal
    if any(os.path.exists(f"{resolved}{suffix}")
           for suffix in ("-wal", "-journal")):
        return None
    return Path(base, "skelsearch", "profiles", f"{_cache_key(path)}.json")


@cache
def _code_digest() -> bytes:
    return hashlib.sha256(Path(__file__).read_bytes()).digest()


def _cache_key(path: Path) -> str:
    """sha256 over this module's code, the SQLite version and the bytes
    of the file at `path`."""
    digest = hashlib.sha256(_code_digest())
    digest.update(sqlite3.sqlite_version.encode() + b"\0")
    view = memoryview(bytearray(1 << 18))  # one buffer, read into again
    with open(path, "rb", buffering=0) as handle:
        while size := handle.readinto(view):
            digest.update(view[:size])
    return digest.hexdigest()


def _encode(profile: DatabaseProfile) -> str:
    """A cache entry: the profile less its db_id and path, each sample
    as JSON keeps it (int, float and str stay apart; floats round-trip
    by repr, inf included) and bytes tagged as {"hex": ...}."""
    return json.dumps({
        "tables": [[table.name, [
            [column.name, column.type, column.primary_key,
             [{"hex": v.hex()} if isinstance(v, bytes) else v
              for v in column.samples]]
            for column in table.columns]] for table in profile.tables],
        "foreign_keys": [[fk.table, fk.column, fk.ref_table, fk.ref_column]
                         for fk in profile.foreign_keys],
    })


def _text(value) -> str:
    if type(value) is not str:
        raise ValueError(f"not a string: {value!r}")
    return value


def _sample(value):
    if type(value) in (int, float, str):
        return value
    if type(value) is dict and list(value) == ["hex"]:
        return bytes.fromhex(_text(value["hex"]))
    raise ValueError(f"not a sample: {value!r}")


def _column(name, ctype, primary_key, samples) -> ColumnProfile:
    if type(primary_key) is not bool or type(samples) is not list:
        raise ValueError("malformed column")
    return ColumnProfile(_text(name), _text(ctype), primary_key,
                         samples=[_sample(v) for v in samples])


def _decode(text: str, db_id: str, path: Path) -> DatabaseProfile:
    """The profile in a cache entry; ValueError, TypeError or
    LookupError when the entry is not one that `_encode` writes."""
    entry = json.loads(text)
    tables = [TableProfile(_text(name), [_column(*column)
                                         for column in columns])
              for name, columns in entry["tables"]]
    fks = [ForeignKey(*map(_text, fk)) for fk in entry["foreign_keys"]]
    return DatabaseProfile(db_id, tables, fks, str(path))


def _store(entry: Path, profile: DatabaseProfile) -> None:
    """Write `entry` whole or not at all."""
    entry.parent.mkdir(parents=True, exist_ok=True)
    handle, temp = tempfile.mkstemp(dir=entry.parent, suffix=".tmp")
    try:
        with os.fdopen(handle, "w", encoding="utf-8") as out:
            out.write(_encode(profile))
        os.replace(temp, entry)
    finally:
        with suppress(OSError):
            os.unlink(temp)


def profile_from_sqlite(path: str | Path) -> DatabaseProfile:
    """Introspect a sqlite file into a profile, or read it from the
    profile cache (see the module docstring). The profile's db_id is the
    file's stem.

    Sample values are the smallest distinct non-null values per column,
    so repeated introspection of an unchanged database is byte-stable:
    that is what lets a cached profile stand in for the scans. A hit
    opens no SQLite connection; the db_id and path come from `path`.
    A miss hashes the file again after the scans and stores its profile
    only under an unchanged key, so bytes written while it was read,
    however quickly and whatever their size, are not stored as the
    profile of the bytes before them. The cache never fails a call: a
    bypass, an `OSError` or a malformed entry means profiling as if
    there were no cache.
    """
    path = Path(path)
    db_id = path.stem
    entry = None
    try:
        entry = _cache_entry(path)
        if entry is not None:
            return _decode(entry.read_text(encoding="utf-8"), db_id, path)
    except (OSError, ValueError, TypeError, LookupError, RecursionError):
        pass
    profile = _introspect(path, db_id)
    if entry is not None:
        with suppress(OSError):
            if _cache_entry(path) == entry:
                _store(entry, profile)
    return profile


def _introspect(path: Path, db_id: str) -> DatabaseProfile:
    """The profile of the sqlite file at `path`, read through SQLite."""
    conn = sqlite3.connect(read_only_uri(path), uri=True)
    try:
        names = [name for (name,) in conn.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table' "
            "AND name NOT LIKE 'sqlite_%' ORDER BY name")]
        infos = [conn.execute(f"PRAGMA table_info({_quote(name)})").fetchall()
                 for name in names]
        samples = iter(_sample_values(conn, [
            (name, [row[1] for row in info])
            for name, info in zip(names, infos)]))
        tables = []
        fks = []
        for name, info in zip(names, infos):
            tables.append(TableProfile(name, [
                ColumnProfile(col, ctype or "", bool(pk),
                              samples=next(samples))
                for _, col, ctype, _notnull, _default, pk in info]))
            for row in conn.execute(
                    f"PRAGMA foreign_key_list({_quote(name)})"):
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
