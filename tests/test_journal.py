"""Journal files: torn tails, bad lines, keyed rewrites."""

import json
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from skelsearch.gateway import Cassette, CassetteMiss
from skelsearch import journal as journal_module
from skelsearch.journal import Journal


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(responses=st.lists(st.text(max_size=12), max_size=5), data=st.data())
def test_torn_cassette_keeps_every_whole_entry(tmp_path, responses, data):
    """Cut a stored cassette at any byte: loading gives exactly the
    entries whose line is whole, and a store after the load gives a file
    that reloads with those entries plus the new one."""
    path = tmp_path / "c.cassette"
    path.unlink(missing_ok=True)
    keys = [f"k{index}" for index in range(len(responses))]
    with Cassette(path) as cassette:
        for key, response in zip(keys, responses):
            cassette.store(key, response, 1, 2)
    full = path.read_bytes() if keys else b""
    cut = data.draw(st.integers(0, len(full)), label="cut")
    path.write_bytes(full[:cut])
    # line ends, from the lines as written: header first, then one a key
    ends, end = [], 0
    for line in full.splitlines(keepends=True):
        end += len(line)
        ends.append(end)
    whole = [key for key, end in zip(keys, ends[1:]) if end <= cut]

    torn = Cassette(path)
    assert len(torn) == len(whole)
    for key, response in zip(keys, responses):
        if key in whole:
            assert torn.lookup(key)["response"] == response
        else:
            with pytest.raises(CassetteMiss):
                torn.lookup(key)
    with torn:
        torn.store("new", "after the cut", 3, 4)
    reloaded = Cassette(path)
    assert len(reloaded) == len(whole) + 1
    assert reloaded.lookup("new")["completion_tokens"] == 4
    for key in whole:
        assert reloaded.lookup(key) == torn.lookup(key)


def test_bad_line_names_file_and_line(tmp_path):
    path = tmp_path / "items.jsonl"
    with Journal(path, "bench-items", 1) as journal:
        for index in range(3):
            journal.put({"key": index, "record": {"n": index}})
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    for bad in ("{not json}\n", '{"no key": 1}\n', "[1]\n", "\n", " \n",
                '{"key": 5},{"key": 6}\n', '{"key": [5]}\n', "\udcff\n"):
        path.write_bytes("".join(lines[:2] + [bad] + lines[3:])
                         .encode("utf-8", "surrogateescape"))
        with pytest.raises(ValueError, match=re.escape(f"{path}: line 3 ")):
            Journal(path, "bench-items", 1)
    # a bad last line that ends in a newline was written whole
    path.write_text("".join(lines[:3] + ['{"key": 2, "rec\n']),
                    encoding="utf-8")
    with pytest.raises(ValueError, match="line 4 "):
        Journal(path, "bench-items", 1)


@pytest.mark.parametrize("content", [
    '{"format": "other", "version": 1}\n',
    '{"format": "bench-items", "version": 2}\n',
    '{"format": "other"',  # torn, but not a torn header of this journal
])
def test_foreign_header_is_rejected_and_kept(tmp_path, content):
    path = tmp_path / "items.jsonl"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(ValueError, match="not a journal"):
        Journal(path, "bench-items", 1)
    assert path.read_text(encoding="utf-8") == content


def test_put_replaces_and_rewrite_keeps_the_given_keys(tmp_path):
    path = tmp_path / "items.jsonl"
    with Journal(path, "bench-items", 1) as journal:
        for key in (3, 1, 2, 0):
            journal.put({"key": key, "v": "old"})
        journal.put({"key": 1, "v": "new"})
    assert Journal(path, "bench-items", 1).get(1)["v"] == "new"
    journal.rewrite(range(2))
    lines = [json.loads(line) for line in
             path.read_text(encoding="utf-8").splitlines()]
    assert lines == [{"format": "bench-items", "version": 1},
                     {"key": 0, "v": "old"}, {"key": 1, "v": "new"}]
    assert not list(tmp_path.glob("*.tmp"))


def test_load_keeps_each_entry_once_and_rewrite_keeps_bytes(tmp_path):
    """A loaded journal holds what line-by-line parsing gave: a later line
    for a key replaces an earlier one in place. A rewrite gives the
    bytes of encoding every held entry anew, whether it was loaded, put
    or written by an earlier rewrite."""
    path = tmp_path / "items.jsonl"
    entries = [{"key": 2, "v": "é"}, {"key": 0, "v": [1.5, None]},
               {"key": 2, "v": "new"}, {"key": "k", "v": {"x": "\u2028"}}]
    with Journal(path, "bench-items", 1) as journal:
        for entry in entries:
            journal.put(entry)
    loaded = Journal(path, "bench-items", 1)
    expected = {}
    # split at newlines only: U+2028 in an entry is written as it is
    for line in path.read_text(encoding="utf-8").split("\n")[1:-1]:
        entry = json.loads(line)
        expected[entry["key"]] = entry
    assert loaded._entries == expected
    assert list(loaded._entries) == list(expected)
    loaded.put({"key": 1, "v": "put after the load"})
    loaded.put({"key": 0, "v": "replaced"})
    for keys in ([0, 1, 2], [1, 2], None):  # a second rewrite copies all
        loaded.rewrite(keys)
        assert path.read_text(encoding="utf-8") == "".join(
            [json.dumps({"format": "bench-items", "version": 1}) + "\n"]
            + [json.dumps(entry, ensure_ascii=False) + "\n"
               for entry in loaded.values()])
    loaded.put({"key": 3, "v": "after a rewrite"})
    loaded.close()
    assert Journal(path, "bench-items", 1).values() == loaded.values()


def test_load_reads_a_file_of_many_blocks(tmp_path):
    """A file longer than the loader's block reads as line-by-line parsing
    reads it, and a bad line in a later block is named."""
    path = tmp_path / "items.jsonl"
    with Journal(path, "bench-items", 1) as journal:
        for index in range(1000):
            journal.put({"key": index % 700, "v": "é" * (index % 300)})
    assert path.stat().st_size > 2 * journal_module._BLOCK
    expected = {}
    for line in path.read_text(encoding="utf-8").split("\n")[1:-1]:
        entry = json.loads(line)
        expected[entry["key"]] = entry
    loaded = Journal(path, "bench-items", 1)
    assert list(loaded._entries.items()) == list(expected.items())
    lines = path.read_bytes().split(b"\n")
    lines[-3] = b'{"key": 1},{"key": 2}'
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(ValueError, match=f"line {len(lines) - 2} "):
        Journal(path, "bench-items", 1)
