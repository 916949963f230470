"""Keyed JSONL files for run state: the cassette and a run's item records."""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path


# Bytes of whole lines parsed at once when a journal is loaded: large
# enough that a block holds hundreds of lines, small enough that its
# transient copies come from the heap and not from fresh memory maps.
_BLOCK = 1 << 16


def _encode(entry: dict) -> bytes:
    """An entry's journal line."""
    return (json.dumps(entry, ensure_ascii=False) + "\n").encode()


class Journal:
    """An in-memory key -> entry map backed by one journal file.

    The file is a header line `{"format", "version"}`, then one JSON
    object a line, each with a "key"; a later line for a key replaces an
    earlier one. The first `put` opens one append handle and each `put`
    flushes its line, so a run that stops midway keeps what it wrote. A
    write cut short leaves one unterminated last line: loading drops it,
    and the next `put` truncates it away. `rewrite` and `close` (or
    leaving a `with` block) close the handle. Whoever writes closes it.

    Each entry is decoded or encoded once: loading parses each 64 kB
    block of lines in one `json.loads` call, and `rewrite` copies back
    from the file each line that `put` or an earlier rewrite wrote (only
    its offsets stay in memory), so it encodes only loaded entries.
    """

    def __init__(self, path: str | Path, fmt: str, version: int):
        self.path = Path(path)
        self._header = (json.dumps({"format": fmt, "version": version})
                        + "\n").encode()
        self._lock = threading.RLock()
        self._entries: dict = {}
        self._spans: dict = {}  # key -> (start, end) of its line as written
        self._size = 0  # file length as this journal last wrote it
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
        header = self._header
        if not header.startswith(data[:len(header)]):
            raise ValueError(f"{self.path}: not a journal with header "
                             f"{header.decode().strip()}")
        start, entries = len(header), {}
        try:
            # One parse per block of whole lines, each block read as one
            # array closed by a 0 after its last line's comma; blocks keep
            # the transient text small. A line that is not one whole entry
            # changes the count or fails to parse.
            while start < whole:
                end = data.find(b"\n", min(start + _BLOCK, whole - 1)) + 1
                text = str(memoryview(data)[start:end], "utf-8")
                block = json.loads("".join(
                    ("[", text.replace("\n", ",\n"), "0]")))
                if len(block) != text.count("\n") + 1:
                    raise ValueError("a line holds more than one value")
                block.pop()
                entries.update({entry["key"]: entry for entry in block})
                start = end
            self._entries = entries
            return
        except (ValueError, KeyError, TypeError):
            pass
        # Some line is not one entry: load line by line, to name it.
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
            line = _encode(entry)
            self._entries[entry["key"]] = entry
            self.appended = True
            if self._handle is None:
                if self._whole is not None:
                    os.truncate(self.path, self._whole)
                    self._whole = None
                self._handle = self.path.open("ab")
                self._size = self._handle.seek(0, os.SEEK_END)
                if self._size == 0:
                    self._handle.write(self._header)
                    self._size = len(self._header)
            self._handle.write(line)
            self._handle.flush()
            self._spans[entry["key"]] = (self._size, self._size + len(line))
            self._size += len(line)

    def rewrite(self, keys=None) -> None:
        """Close the append handle and rewrite the file, through a temporary
        file and `os.replace`, as the header and the entries of `keys`
        (default: all) in key order; other entries are dropped."""
        with self._lock:
            self.close()
            if keys is not None:
                self._entries = {key: self._entries[key] for key in keys}
            written = memoryview(self.path.read_bytes() if self._spans
                                 else b"")
            if len(written) != self._size:  # changed by someone else
                self._spans = {}
            spans, size = {}, len(self._header)
            tmp = self.path.with_name(self.path.name + ".tmp")
            with tmp.open("wb") as fh:
                fh.write(self._header)
                for key in sorted(self._entries):
                    span = self._spans.get(key)
                    line = (written[span[0]:span[1]] if span
                            else _encode(self._entries[key]))
                    fh.write(line)
                    spans[key] = (size, size + len(line))
                    size += len(line)
            os.replace(tmp, self.path)
            self._spans, self._size = spans, size
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
