"""Keyed JSONL files for run state: the cassette and a run's item records."""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path


class Journal:
    """An in-memory key -> entry map backed by one journal file.

    The file is a header line `{"format", "version"}`, then one JSON
    object a line, each with a "key"; a later line for a key replaces an
    earlier one. The first `put` opens one append handle and each `put`
    flushes its line, so a run that stops midway keeps what it wrote. A
    write cut short leaves one unterminated last line: loading drops it,
    and the next `put` truncates it away. `rewrite` and `close` (or
    leaving a `with` block) close the handle. Whoever writes closes it.
    """

    def __init__(self, path: str | Path, fmt: str, version: int):
        self.path = Path(path)
        self._header = json.dumps({"format": fmt, "version": version}) + "\n"
        self._lock = threading.RLock()
        self._entries: dict = {}
        self._handle = None
        self._whole = None  # file length without its torn last line
        self.appended = False  # put wrote since the load or last rewrite
        if self.path.exists():
            self._load()

    def _load(self) -> None:
        data = self.path.read_bytes()
        whole = data.rfind(b"\n") + 1
        if whole < len(data):
            self._whole = whole
        header = self._header.encode()
        if not header.startswith(data[:len(header)]):
            raise ValueError(f"{self.path}: not a journal with header "
                             f"{self._header.strip()}")
        lines = data[len(header):whole].split(b"\n")[:-1]
        for number, line in enumerate(lines, 2):
            try:
                entry = json.loads(line.decode())
                self._entries[entry["key"]] = entry
            except (ValueError, KeyError, TypeError):
                raise ValueError(f"{self.path}: line {number} is not a "
                                 f"journal entry") from None

    def __contains__(self, key) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key) -> dict | None:
        with self._lock:
            return self._entries.get(key)

    def values(self) -> list[dict]:
        """Every entry, in key order."""
        with self._lock:
            return [self._entries[key] for key in sorted(self._entries)]

    def put(self, entry: dict, replace: bool = True) -> None:
        """Hold `entry` under entry["key"] and append it to the file; with
        `replace` false, a key already held keeps its entry."""
        with self._lock:
            if not replace and entry["key"] in self._entries:
                return
            self._entries[entry["key"]] = entry
            self.appended = True
            if self._handle is None:
                if self._whole is not None:
                    os.truncate(self.path, self._whole)
                    self._whole = None
                self._handle = self.path.open("a", encoding="utf-8")
                if self._handle.tell() == 0:
                    self._handle.write(self._header)
            self._handle.write(json.dumps(entry, ensure_ascii=False) + "\n")
            self._handle.flush()

    def rewrite(self, keys=None) -> None:
        """Close the append handle and rewrite the file, through a temporary
        file and `os.replace`, as the header and the entries of `keys`
        (default: all) in key order; other entries are dropped."""
        with self._lock:
            self.close()
            if keys is not None:
                self._entries = {key: self._entries[key] for key in keys}
            tmp = self.path.with_name(self.path.name + ".tmp")
            with tmp.open("w", encoding="utf-8") as fh:
                fh.write(self._header)
                for entry in self.values():
                    fh.write(json.dumps(entry, ensure_ascii=False) + "\n")
            os.replace(tmp, self.path)
            self._whole = None
            self.appended = False

    def close(self) -> None:
        """Close the append handle, if open. Safe to call again."""
        with self._lock:
            if self._handle is not None:
                self._handle.close()
            self._handle = None

    def __enter__(self):
        return self

    def __exit__(self, *_) -> None:
        self.close()
