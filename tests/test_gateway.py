"""Gateway behavior: cassettes, retries, ledger conservation, hermetic replay."""

import json
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from skelsearch.gateway import (
    Cassette,
    CassetteMiss,
    GatewayConfig,
    LlmGateway,
    TransportError,
    UsageLedger,
    prompt_key,
)


def config(**kw):
    kw.setdefault("endpoint", "http://test.invalid/v1/chat")
    kw.setdefault("model", "test-model")
    kw.setdefault("backoff_base", 0.0)
    return GatewayConfig(**kw)


def sentinel_transport(prompt, cfg, api_key=None):
    raise AssertionError("network transport must not be used")


def test_config_validation():
    with pytest.raises(ValueError):
        config(temperature=-1.0)
    with pytest.raises(ValueError):
        config(concurrency=0)
    with pytest.raises(ValueError):
        config(timeout=0)
    assert config().temperature == 0.0
    assert config().concurrency == 50


def test_record_then_replay(tmp_path):
    path = tmp_path / "run.cassette"
    calls = []

    def transport(prompt, cfg, api_key=None):
        calls.append(prompt)
        return f"reply to {prompt}", 10, 5

    recorder = LlmGateway(config(), "record", path, transport=transport)
    first = recorder.complete("hello")
    second = recorder.complete("hello")
    assert first == second == "reply to hello"
    assert calls == ["hello"]
    assert len(Cassette(path)) == 1

    player = LlmGateway(config(), "replay", path,
                        transport=sentinel_transport)
    assert player.complete("hello") == "reply to hello"
    entry = player.ledger.entries[0]
    assert (entry.prompt_tokens, entry.completion_tokens) == (10, 5)
    assert entry.latency == 0.0


def test_replay_miss_is_strict(tmp_path):
    path = tmp_path / "empty.cassette"
    Cassette(path).store(prompt_key("known"), "ok", 1, 1)
    player = LlmGateway(config(), "replay", path,
                        transport=sentinel_transport)
    with pytest.raises(CassetteMiss):
        player.complete("unknown")


def test_cassette_reload_roundtrip(tmp_path):
    path = tmp_path / "c.cassette"
    cassette = Cassette(path)
    cassette.store("k1", "value one", 3, 4)
    cassette.store("k2", "value two", 5, 6)
    cassette.store("k1", "ignored duplicate", 9, 9)
    reloaded = Cassette(path)
    assert len(reloaded) == 2
    assert reloaded.lookup("k1")["response"] == "value one"
    assert reloaded.lookup("k2")["completion_tokens"] == 6


def test_cassette_rewrite_sorted(tmp_path):
    path = tmp_path / "c.cassette"
    cassette = Cassette(path)
    cassette.store("k2", "value two", 5, 6)
    cassette.store("k1", "value one", 3, 4)
    appended = path.read_text(encoding="utf-8").splitlines()

    # an instance that stored nothing leaves the file as it is
    Cassette(path).rewrite_sorted()
    assert path.read_text(encoding="utf-8").splitlines() == appended

    cassette.rewrite_sorted()
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == appended[0]
    assert [json.loads(line)["key"] for line in lines[1:]] == ["k1", "k2"]
    assert sorted(lines) == sorted(appended)
    assert not list(tmp_path.glob("*.tmp"))
    assert Cassette(path).lookup("k2")["response"] == "value two"


def test_cassette_rejects_foreign_file(tmp_path):
    path = tmp_path / "bogus.cassette"
    path.write_text('{"format": "other", "version": 1}\n')
    with pytest.raises(ValueError):
        Cassette(path)


def test_retry_then_success():
    attempts = []

    def flaky(prompt, cfg, api_key=None):
        attempts.append(1)
        if len(attempts) < 3:
            raise ConnectionError("transient")
        return "ok", 1, 1

    gateway = LlmGateway(config(retries=2), transport=flaky)
    assert gateway.complete("p") == "ok"
    assert len(attempts) == 3


def test_transport_error_after_retries_records_usage():
    def broken(prompt, cfg, api_key=None):
        raise ConnectionError("down")

    gateway = LlmGateway(config(retries=1), transport=broken)
    with pytest.raises(TransportError):
        gateway.complete("some prompt here", stage="probe")
    totals = gateway.ledger.totals("probe")
    assert totals["calls"] == 1
    assert totals["completion_tokens"] == 0
    assert totals["prompt_tokens"] > 0


def test_ledger_conserved_under_concurrency():
    def transport(prompt, cfg, api_key=None):
        return "r", 2, 3

    gateway = LlmGateway(config(), transport=transport)
    with ThreadPoolExecutor(max_workers=16) as pool:
        list(pool.map(lambda i: gateway.complete(f"p{i}", stage="load"),
                      range(200)))
    totals = gateway.ledger.totals("load")
    assert totals["calls"] == 200
    assert totals["prompt_tokens"] == 400
    assert totals["completion_tokens"] == 600
    assert len(gateway.ledger.entries) == 200


def test_concurrency_cap_enforced():
    active = []
    peak = []
    lock = threading.Lock()

    def transport(prompt, cfg, api_key=None):
        with lock:
            active.append(1)
            peak.append(len(active))
        threading.Event().wait(0.01)
        with lock:
            active.pop()
        return "r", 1, 1

    gateway = LlmGateway(config(concurrency=4), transport=transport)
    with ThreadPoolExecutor(max_workers=16) as pool:
        list(pool.map(lambda i: gateway.complete(f"q{i}"), range(32)))
    assert max(peak) <= 4


def test_ledger_stage_split():
    ledger = UsageLedger()

    def transport(prompt, cfg, api_key=None):
        return "r", 1, 1

    gateway = LlmGateway(config(), transport=transport, ledger=ledger)
    gateway.complete("a", stage="formulate")
    gateway.complete("b", stage="evaluate")
    gateway.complete("c", stage="evaluate")
    assert ledger.totals("formulate")["calls"] == 1
    assert ledger.totals("evaluate")["calls"] == 2
    assert ledger.totals()["calls"] == 3
    assert ledger.stages() == ["formulate", "evaluate"]


def test_mode_validation(tmp_path):
    with pytest.raises(ValueError):
        LlmGateway(config(), "stream")
    with pytest.raises(ValueError):
        LlmGateway(config(), "replay")
