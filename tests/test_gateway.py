"""Gateway behavior: cassettes, retries, ledger conservation, hermetic replay."""

import datetime
import ipaddress
import json
import os
import socket
import ssl
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

import skelsearch
from conftest import gateway_pool_threads
from skelsearch.gateway import (
    POOL_SIZE,
    Cassette,
    CassetteMiss,
    GatewayConfig,
    HTTPStatusError,
    LlmGateway,
    PermanentError,
    TransportError,
    http_transport,
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
        config(timeout=0)
    assert config().temperature == 0.0


def test_record_then_replay(tmp_path):
    path = tmp_path / "run.cassette"
    calls = []

    def transport(prompt, cfg, api_key=None):
        calls.append(prompt)
        return f"reply to {prompt}", 10, 5

    recorder = LlmGateway(config(), "record", Cassette(path),
                          transport=transport)
    first = recorder.complete("hello")
    second = recorder.complete("hello")
    recorder.close()
    assert first == second == "reply to hello"
    assert calls == ["hello"]
    assert len(Cassette(path)) == 1

    player = LlmGateway(config(), "replay", Cassette(path),
                        transport=sentinel_transport)
    assert player.complete("hello") == "reply to hello"
    assert player.ledger.by_stage() == {"default": {
        "calls": 1, "prompt_tokens": 10, "completion_tokens": 5}}


def test_replay_miss_is_strict(tmp_path):
    path = tmp_path / "empty.cassette"
    with Cassette(path) as cassette:
        cassette.store(prompt_key("known"), "ok", 1, 1)
    player = LlmGateway(config(), "replay", Cassette(path),
                        transport=sentinel_transport)
    with pytest.raises(CassetteMiss):
        player.complete("unknown")


def test_cassette_reload_roundtrip(tmp_path):
    path = tmp_path / "c.cassette"
    cassette = Cassette(path)
    cassette.store("k1", "value one", 3, 4)
    cassette.store("k2", "value two", 5, 6)
    cassette.store("k1", "ignored duplicate", 9, 9)
    cassette.close()
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


def cassette_lines(path):
    return path.read_text(encoding="utf-8").splitlines()


def test_store_into_empty_file_writes_header(tmp_path):
    # an empty file is what a crash between creating it and the first
    # write leaves behind
    path = tmp_path / "c.cassette"
    path.touch()
    with Cassette(path) as cassette:
        cassette.store("k1", "value one", 3, 4)
    assert json.loads(cassette_lines(path)[0])["format"] == "cassette"
    assert Cassette(path).lookup("k1")["response"] == "value one"


def test_open_writer_shows_every_entry_to_a_reader(tmp_path):
    path = tmp_path / "c.cassette"
    with Cassette(path) as writer:
        for index in range(5):
            writer.store(f"k{index}", f"value {index}", 1, 1)
            reader = Cassette(path)
            assert len(reader) == index + 1
            assert reader.lookup(f"k{index}")["response"] == f"value {index}"


def test_store_after_rewrite_sorted_lands_in_rewritten_file(tmp_path):
    path = tmp_path / "c.cassette"
    with Cassette(path) as cassette:
        cassette.store("k2", "value two", 5, 6)
        cassette.rewrite_sorted()
        cassette.store("k1", "value one", 3, 4)
        cassette.store("k3", "value three", 7, 8)
    assert len(cassette_lines(path)) == 4
    reloaded = Cassette(path)
    assert len(reloaded) == 3
    assert reloaded.lookup("k3")["completion_tokens"] == 8


def test_close_is_idempotent_and_store_reopens(tmp_path):
    path = tmp_path / "c.cassette"
    cassette = Cassette(path)
    cassette.close()
    cassette.store("k1", "value one", 3, 4)
    cassette.close()
    cassette.close()
    cassette.store("k2", "value two", 5, 6)
    cassette.close()
    lines = cassette_lines(path)
    assert json.loads(lines[0])["format"] == "cassette"
    assert [json.loads(line)["key"] for line in lines[1:]] == ["k1", "k2"]


def test_gateway_close_closes_cassette_handle(tmp_path):
    path = tmp_path / "c.cassette"
    recorder = LlmGateway(config(), "record", Cassette(path),
                          transport=lambda prompt, cfg, key: ("r", 1, 1))
    recorder.complete("hello")
    assert recorder.cassette._handle is not None
    recorder.close()
    recorder.close()
    assert recorder.cassette._handle is None
    LlmGateway(config()).close()


def test_concurrent_stores_write_one_line_per_key(tmp_path):
    path = tmp_path / "c.cassette"
    workers = (os.cpu_count() or 1) + 4
    keys = [f"k{index:03d}" for index in range(120)]

    def store_all(offset):
        for index in range(len(keys)):
            key = keys[(index + offset) % len(keys)]
            cassette.store(key, f"value of {key}", 1, 2)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with Cassette(path) as cassette:
            threads = [threading.Thread(target=store_all, args=(7 * n,))
                       for n in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    lines = cassette_lines(path)
    assert json.loads(lines[0])["format"] == "cassette"
    entries = [json.loads(line) for line in lines[1:]]
    assert sorted(entry["key"] for entry in entries) == keys
    assert all(entry["response"] == f"value of {entry['key']}"
               for entry in entries)


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
    totals = gateway.ledger.by_stage()["probe"]
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
    assert gateway.ledger.by_stage() == {"load": {
        "calls": 200, "prompt_tokens": 400, "completion_tokens": 600}}


def test_ledger_stage_split():
    def transport(prompt, cfg, api_key=None):
        return "r", 1, 1

    gateway = LlmGateway(config(), transport=transport)
    gateway.complete("a", stage="formulate")
    gateway.complete("b", stage="evaluate")
    gateway.complete("c", stage="evaluate")
    by_stage = gateway.ledger.by_stage()
    assert list(by_stage) == ["formulate", "evaluate"]
    assert by_stage["formulate"]["calls"] == 1
    assert by_stage["evaluate"]["calls"] == 2


def test_mode_validation(tmp_path):
    with pytest.raises(ValueError):
        LlmGateway(config(), "stream")
    with pytest.raises(ValueError):
        LlmGateway(config(), "replay")


def test_concurrent_misses_of_one_prompt_share_one_transport_call(tmp_path):
    path = tmp_path / "c.cassette"
    calls = []
    lock = threading.Lock()

    def transport(prompt, cfg, api_key=None):
        with lock:  # a live model: each call answers differently
            calls.append(prompt)
            answer = f"answer {len(calls)}"
        time.sleep(0.05)
        return answer, 4, 2

    recorder = LlmGateway(config(), "record", Cassette(path),
                          transport=transport)
    workers = 8
    barrier = threading.Barrier(workers)

    def ask(_):
        barrier.wait(timeout=30)
        return recorder.complete("the same prompt", stage="evaluate")

    with ThreadPoolExecutor(max_workers=workers) as pool:
        answers = list(pool.map(ask, range(workers)))
    recorder.close()
    stored = Cassette(path).lookup(prompt_key("the same prompt"))
    assert answers == [stored["response"]] * workers
    assert calls == ["the same prompt"]
    totals = recorder.ledger.by_stage()["evaluate"]
    assert totals["calls"] == workers
    assert totals["prompt_tokens"] == 4 * workers


def test_waiters_lead_the_next_call_when_the_first_fails(tmp_path):
    attempts = []
    lock = threading.Lock()

    def transport(prompt, cfg, api_key=None):
        with lock:
            attempts.append(prompt)
            first = len(attempts) == 1
        time.sleep(0.05)
        if first:
            raise ConnectionError("down")
        return "recovered", 1, 1

    recorder = LlmGateway(config(retries=0), "record",
                          Cassette(tmp_path / "c.cassette"),
                          transport=transport)
    barrier = threading.Barrier(2)

    def ask(_):
        barrier.wait(timeout=30)
        try:
            return recorder.complete("p")
        except TransportError:
            return "failed"

    with ThreadPoolExecutor(max_workers=2) as pool:
        answers = sorted(pool.map(ask, range(2)))
    recorder.close()
    assert answers == ["failed", "recovered"]
    assert len(attempts) == 2
    assert recorder.cassette.lookup(prompt_key("p"))["response"] == \
        "recovered"


def test_record_run_keeps_no_lock_once_every_response_is_stored(tmp_path):
    failed_once = set()
    lock = threading.Lock()

    def transport(prompt, cfg, api_key=None):
        with lock:  # every third prompt fails on its first attempt
            fail = int(prompt.split()[1]) % 3 == 0 and \
                prompt not in failed_once
            failed_once.add(prompt)
        time.sleep(0.001)
        if fail:
            raise ConnectionError("down")
        return f"reply to {prompt}", 1, 1

    recorder = LlmGateway(config(retries=0), "record",
                          Cassette(tmp_path / "c.cassette"),
                          transport=transport)

    def ask(n):
        prompt = f"prompt {n % 40}"  # each prompt asked by two workers
        try:
            return recorder.complete(prompt)
        except TransportError:
            return recorder.complete(prompt)

    with ThreadPoolExecutor(max_workers=4) as pool:
        answers = list(pool.map(ask, range(80)))
    recorder.close()
    assert answers == [f"reply to prompt {n % 40}" for n in range(80)]
    assert recorder._key_locks == {}


@pytest.mark.parametrize("mode", ["live", "record"])
def test_map_runs_calls_side_by_side_and_yields_in_order(tmp_path, mode):
    gateway = LlmGateway(config(), mode, Cassette(tmp_path / "c.cassette"),
                         transport=sentinel_transport)
    threads, workers = {}, set()

    def slow_square(n):
        threads[n] = threading.current_thread()
        time.sleep(0.002 * (5 - n))  # later items finish first
        return n * n

    try:
        assert list(gateway.map(slow_square, range(5))) == \
            [0, 1, 4, 9, 16]
        assert threads[0] is threading.current_thread()
        workers = {threads[n] for n in range(1, 5)}
        assert threading.current_thread() not in workers
        assert len(workers) <= POOL_SIZE
        assert list(gateway.map(slow_square, [])) == []
    finally:
        gateway.close()
    assert not gateway_pool_threads() & workers


def test_batches_of_concurrent_items_run_side_by_side():
    items, calls = 2, 4
    # Every call waits until all of them are in flight; short of that the
    # barrier breaks and each call fails, so a regression cannot hang.
    barrier = threading.Barrier(items * calls, timeout=2)

    def transport(prompt, cfg, api_key=None):
        barrier.wait()
        return f"reply to {prompt}", 1, 1

    gateway = LlmGateway(config(retries=0), transport=transport)

    def run_item(i):
        prompts = [f"item {i} call {j}" for j in range(calls)]
        return list(gateway.map(gateway.complete, prompts))

    try:
        with ThreadPoolExecutor(max_workers=items) as pool:
            answers = list(pool.map(run_item, range(items)))
    finally:
        gateway.close()
    assert answers == [[f"reply to item {i} call {j}" for j in range(calls)]
                       for i in range(items)]


def test_a_batch_larger_than_the_cap_starts_cap_threads():
    lock, running, released = threading.Lock(), [0], threading.Event()
    threads = set()

    def transport(prompt, cfg, api_key=None):
        with lock:
            threads.add(threading.current_thread())
            running[0] += 1
            if running[0] == POOL_SIZE + 1:  # the pool and the caller
                released.set()
        released.wait(timeout=2)
        return prompt, 1, 1

    gateway = LlmGateway(config(), transport=transport)
    prompts = [f"call {j}" for j in range(2 * POOL_SIZE + 1)]
    try:
        assert list(gateway.map(gateway.complete, prompts)) == prompts
    finally:
        gateway.close()
    assert released.is_set()
    assert len(gateway_pool_threads(threads)) == POOL_SIZE


def test_replay_map_runs_inline(tmp_path):
    path = tmp_path / "c.cassette"
    Cassette(path).close()
    player = LlmGateway(config(), "replay", Cassette(path),
                        transport=sentinel_transport)
    names = list(player.map(lambda n: threading.current_thread(), range(4)))
    assert names == [threading.current_thread()] * 4
    assert player._pool is None


def test_map_raises_the_first_error_in_input_order():
    gateway = LlmGateway(config(), transport=sentinel_transport)
    finished = []

    def judge(n):
        time.sleep(0.002 * (4 - n))
        if n in (1, 3):
            raise KeyError(n)
        finished.append(n)
        return n

    results = gateway.map(judge, range(4))
    try:
        assert next(results) == 0
        with pytest.raises(KeyError) as info:
            next(results)
        assert info.value.args == (1,)
        done = sorted(finished)
        time.sleep(0.02)
        assert sorted(finished) == done, "a call outlived the batch"
    finally:
        gateway.close()


def test_close_stops_the_pool_before_closing_the_cassette(tmp_path):
    path = tmp_path / "c.cassette"
    release = threading.Event()

    def transport(prompt, cfg, api_key=None):
        release.wait(timeout=30)
        return f"reply to {prompt}", 1, 1

    recorder = LlmGateway(config(), "record", Cassette(path),
                          transport=transport)
    # the first call of a batch runs when its result is read: never here
    pending = recorder.map(recorder.complete, ["a", "b", "c"])
    timer = threading.Timer(0.05, release.set)
    timer.start()
    recorder.close()
    timer.join(timeout=10)
    assert recorder.cassette._handle is None
    assert not gateway_pool_threads()
    assert sorted(e["response"] for e in Cassette(path).values()) == \
        ["reply to b", "reply to c"]
    del pending


COMPLETION = {"choices": [{"message": {"content": "VERDICT: True"}}],
              "usage": {"prompt_tokens": 7, "completion_tokens": 3}}


class Endpoint:
    """A chat-completion endpoint on localhost, over TLS when given a
    server `context`. The n-th POST gets the n-th of `replies`, the last
    one once they run out: a (status, body) pair, or a function that
    writes the whole response to the handler. `posts` holds each POST's
    payload and Authorization header. Asked to CONNECT, the endpoint
    plays a proxy: it notes the target in `tunnels`, answers 200 and
    then serves the tunnelled request itself."""

    def __init__(self, context=None):
        self.replies, self.posts, self.tunnels = [], [], []
        endpoint = self

        class Handler(BaseHTTPRequestHandler):
            def do_CONNECT(self):
                endpoint.tunnels.append(self.path)
                self.send_response(200)
                self.end_headers()
                self.close_connection = False

            def do_POST(self):
                length = int(self.headers["Content-Length"])
                endpoint.posts.append((json.loads(self.rfile.read(length)),
                                       self.headers.get("Authorization")))
                reply = endpoint.replies[
                    min(len(endpoint.posts), len(endpoint.replies)) - 1]
                try:
                    if callable(reply):
                        reply(self)
                    else:
                        status, body = reply
                        body = body.encode()
                        self.send_response(status)
                        if 300 <= status < 400:
                            self.send_header("Location", "/elsewhere")
                        self.send_header("Content-Length", str(len(body)))
                        self.end_headers()
                        self.wfile.write(body)
                except OSError:  # the client hung up
                    pass

            def log_message(self, *args):
                pass

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        if context is not None:
            self.server.socket = context.wrap_socket(self.server.socket,
                                                     server_side=True)
        self.url = (f"{'https' if context else 'http'}://127.0.0.1:"
                    f"{self.server.server_port}/v1")
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       kwargs={"poll_interval": 0.02})

    def __enter__(self):
        self.thread.start()
        return self

    def __exit__(self, *exc):
        self.server.shutdown()
        self.server.server_close()  # joins the handler threads
        self.thread.join(timeout=10)
        assert not self.thread.is_alive()


@pytest.fixture
def direct(monkeypatch):
    """No proxy for 127.0.0.1, whatever the environment names."""
    for name in ("HTTP_PROXY", "HTTPS_PROXY", "ALL_PROXY", "http_proxy",
                 "https_proxy", "all_proxy"):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("NO_PROXY", "127.0.0.1")
    monkeypatch.setenv("no_proxy", "127.0.0.1")


@pytest.fixture
def endpoint(direct):
    with Endpoint() as server:
        yield server


def test_imports_load_no_http_module_and_a_call_loads_no_requests(
        endpoint):
    """Importing the command line, the runner and the gateway loads no
    HTTP, TLS or YAML module; a live call then loads `requests` neither."""
    endpoint.replies.append((200, json.dumps(COMPLETION)))
    src = str(Path(skelsearch.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    script = f"""
import sys
import skelsearch.cli, skelsearch.bench, skelsearch.gateway as gateway
print(sorted(name for name in sys.modules if name in
             ("requests", "http.client", "urllib.request", "ssl", "yaml")))
print(gateway.http_transport(
    "p", gateway.GatewayConfig(endpoint={endpoint.url!r})))
print("requests" in sys.modules)
"""
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=60,
                         check=True)
    assert out.stdout.splitlines() == ["[]", "('VERDICT: True', 7, 3)",
                                       "False"]


def test_http_transport_posts_one_chat_completion(endpoint):
    endpoint.replies.append((200, json.dumps(COMPLETION)))
    cfg = config(endpoint=endpoint.url, timeout=10)
    assert http_transport("judge this", cfg, "secret") == \
        ("VERDICT: True", 7, 3)
    payload, authorization = endpoint.posts[0]
    assert payload["messages"] == [{"role": "user", "content": "judge this"}]
    assert payload["model"] == "test-model"
    assert authorization == "Bearer secret"


def drip_body(handler):
    """A whole 200 whose 51-byte body arrives one byte per 50 ms."""
    body = json.dumps({"choices": [{"message": {"content": "dripped"}}]})
    body = body.ljust(51).encode()
    handler.send_response(200)
    handler.send_header("Content-Length", str(len(body)))
    handler.end_headers()
    for byte in body:
        handler.wfile.write(bytes([byte]))
        handler.wfile.flush()
        time.sleep(0.05)


def drip_headers(handler):
    """A status line, then 400 header lines 10 ms apart."""
    handler.wfile.write(b"HTTP/1.1 200 OK\r\n")
    for n in range(400):
        handler.wfile.flush()
        time.sleep(0.01)
        handler.wfile.write(b"X-Drip-%d: 1\r\n" % n)


# What an attempt may take past its timeout: the timer's thread waking,
# the socket being shut down and the response being dropped.
SLACK_S = 0.15


@pytest.mark.parametrize("drip", [drip_body, drip_headers])
def test_a_drip_ends_each_attempt_at_its_timeout(endpoint, drip):
    """`timeout` bounds an attempt from the connect to the last byte, so
    a response that keeps trickling in is a timeout, and a timeout is
    tried again."""
    endpoint.replies.append(drip)
    gateway = LlmGateway(config(endpoint=endpoint.url, timeout=0.25,
                                retries=1))
    start = time.monotonic()
    with pytest.raises(TransportError) as info:
        gateway.complete("p")
    elapsed = time.monotonic() - start
    assert not isinstance(info.value, PermanentError)
    assert isinstance(info.value.__cause__, TimeoutError)
    assert len(endpoint.posts) == 2
    assert 2 * 0.25 <= elapsed <= 2 * (0.25 + SLACK_S)


@pytest.mark.parametrize("reply,cause", [
    ((400, "{}"), HTTPStatusError),
    ((200, "{}"), KeyError),
])
def test_a_failure_no_retry_can_mend_costs_one_post(endpoint, reply, cause):
    endpoint.replies.append(reply)
    gateway = LlmGateway(config(endpoint=endpoint.url, retries=2))
    with pytest.raises(PermanentError) as info:
        gateway.complete("p", stage="probe")
    assert isinstance(info.value.__cause__, cause)
    assert cause.__name__ in str(info.value)
    assert len(endpoint.posts) == 1
    assert gateway.ledger.by_stage()["probe"]["calls"] == 1


def test_a_503_then_a_200_costs_two_posts(endpoint):
    endpoint.replies += [(503, "busy"), (200, json.dumps(COMPLETION))]
    gateway = LlmGateway(config(endpoint=endpoint.url, retries=2))
    assert gateway.complete("p") == "VERDICT: True"
    assert len(endpoint.posts) == 2


@pytest.mark.parametrize("failure,retried", [
    (ConnectionError("reset"), True),
    (TimeoutError("timed out"), True),
    (408, True),
    (429, True),
    (500, True),
    (503, True),
    (301, False),
    (400, False),
    (401, False),
    (404, False),
    (KeyError("choices"), False),
    (ValueError("bad"), False),
    (json.JSONDecodeError("Expecting value", "<html>", 0), False),
])
def test_only_transient_failures_are_retried(endpoint, failure, retried):
    """The retry rule: an OSError, or HTTP 408, 429 or 5xx, is tried
    again; any other failure raises PermanentError at its first attempt.
    Statuses come from the localhost endpoint, and its 301 is not
    followed."""
    attempts = []
    if isinstance(failure, int):
        endpoint.replies += [(failure, "{}")]
        transport = None
    else:
        def transport(prompt, cfg, api_key=None):
            attempts.append(prompt)
            raise failure
    gateway = LlmGateway(config(endpoint=endpoint.url, retries=2),
                         transport=transport)
    with pytest.raises(TransportError) as info:
        gateway.complete("p")
    assert isinstance(info.value, PermanentError) is not retried
    assert len(attempts or endpoint.posts) == (3 if retried else 1)


def test_a_proxy_is_reached_through_a_connect_tunnel(endpoint, monkeypatch):
    """`http_proxy` routes a call through a CONNECT tunnel to the
    endpoint's host; the localhost endpoint plays the proxy."""
    endpoint.replies.append((200, json.dumps(COMPLETION)))
    monkeypatch.delenv("NO_PROXY")
    monkeypatch.delenv("no_proxy")
    monkeypatch.setenv("http_proxy", endpoint.url.removesuffix("/v1"))
    cfg = config(endpoint="http://model.example:8080/v1/chat")
    assert http_transport("p", cfg) == ("VERDICT: True", 7, 3)
    assert endpoint.tunnels == ["model.example:8080"]


def test_no_proxy_skips_the_proxy(endpoint, monkeypatch):
    endpoint.replies.append((200, json.dumps(COMPLETION)))
    with socket.socket() as unused:  # a port that nothing listens on
        unused.bind(("127.0.0.1", 0))
        monkeypatch.setenv("http_proxy",
                           f"http://127.0.0.1:{unused.getsockname()[1]}")
    assert http_transport("p", config(endpoint=endpoint.url)) == \
        ("VERDICT: True", 7, 3)
    assert endpoint.tunnels == []


@pytest.fixture
def tls_context(tmp_path, monkeypatch):
    """A server context with a fresh self-signed certificate for
    127.0.0.1, which `SSL_CERT_FILE` makes the client trust."""
    pytest.importorskip("cryptography")
    from cryptography import x509
    from cryptography.hazmat.primitives import hashes, serialization
    from cryptography.hazmat.primitives.asymmetric import ec
    from cryptography.x509.oid import NameOID

    key = ec.generate_private_key(ec.SECP256R1())
    name = x509.Name([x509.NameAttribute(NameOID.COMMON_NAME, "127.0.0.1")])
    now = datetime.datetime.now(datetime.timezone.utc)
    cert = (
        x509.CertificateBuilder().subject_name(name).issuer_name(name)
        .public_key(key.public_key())
        .serial_number(x509.random_serial_number())
        .not_valid_before(now - datetime.timedelta(minutes=5))
        .not_valid_after(now + datetime.timedelta(days=1))
        .add_extension(x509.SubjectAlternativeName(
            [x509.IPAddress(ipaddress.ip_address("127.0.0.1"))]), False)
        .add_extension(x509.BasicConstraints(ca=True, path_length=None),
                       True)
        .add_extension(x509.SubjectKeyIdentifier.from_public_key(
            key.public_key()), False)
        .add_extension(x509.AuthorityKeyIdentifier.from_issuer_public_key(
            key.public_key()), False)
        .sign(key, hashes.SHA256()))
    cert_file, key_file = tmp_path / "cert.pem", tmp_path / "key.pem"
    cert_file.write_bytes(cert.public_bytes(serialization.Encoding.PEM))
    key_file.write_bytes(key.private_bytes(
        serialization.Encoding.PEM, serialization.PrivateFormat.PKCS8,
        serialization.NoEncryption()))
    monkeypatch.setenv("SSL_CERT_FILE", str(cert_file))
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(cert_file, key_file)
    return context


def test_https_posts_one_chat_completion(direct, tls_context):
    """An https endpoint is verified against the CA store, which
    `SSL_CERT_FILE` names here."""
    with Endpoint(tls_context) as tls_endpoint:
        tls_endpoint.replies.append((200, json.dumps(COMPLETION)))
        cfg = config(endpoint=tls_endpoint.url, timeout=10)
        assert http_transport("p", cfg, "secret") == ("VERDICT: True", 7, 3)
    assert tls_endpoint.posts[0][1] == "Bearer secret"


def test_a_dripping_tls_handshake_ends_at_the_timeout(direct):
    """A server that answers the TLS hello one byte per 20 ms is cut off
    at the deadline, as a dripping response is."""
    def drip(listener):
        conn, _ = listener.accept()
        with conn:
            try:  # a handshake record of 16 kB, of which few bytes come
                conn.sendall(b"\x16\x03\x03\x40\x00")
                for _ in range(100):
                    time.sleep(0.02)
                    conn.sendall(b"\x00")
            except OSError:  # the client hung up
                pass

    with socket.create_server(("127.0.0.1", 0)) as listener:
        server = threading.Thread(target=drip, args=(listener,))
        server.start()
        port = listener.getsockname()[1]
        gateway = LlmGateway(config(endpoint=f"https://127.0.0.1:{port}/v1",
                                    timeout=0.25, retries=0))
        start = time.monotonic()
        with pytest.raises(TransportError) as info:
            gateway.complete("p")
        elapsed = time.monotonic() - start
        server.join(timeout=10)
    assert isinstance(info.value.__cause__, TimeoutError)
    assert 0.25 <= elapsed <= 0.25 + SLACK_S
