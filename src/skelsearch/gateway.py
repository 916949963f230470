"""Chat-completion gateway with deterministic replay.

One client fronts every model call in the pipeline. It enforces greedy
decoding defaults, retries transient transport failures, meters calls and
tokens, and can record live responses into a cassette file or replay them
hermetically (no network) later.

Cassette entries are keyed by the sha256 of the raw prompt bytes. Hashing
the exact bytes keeps template drift visible: any prompt change misses the
cassette instead of silently replaying a stale response.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import threading
import time
import urllib.parse
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from pathlib import Path

from .journal import Journal

CASSETTE_FORMAT = "cassette"
CASSETTE_VERSION = 1
# Most threads of a gateway's call pool (`LlmGateway.map`), which all of
# a run's item threads share. The sweep by `items_concurrency` in
# README.md ("Run configuration") sets the number.
POOL_SIZE = 12


class TransportError(RuntimeError):
    """A completion could not be had from the endpoint."""


class HTTPStatusError(TransportError):
    """The endpoint answered with a status other than 2xx."""

    def __init__(self, status: int, reason: str):
        super().__init__(f"HTTP {status} {reason}")
        self.status = status


class PermanentError(TransportError):
    """A failure that another attempt cannot mend, raised at the first."""


class CassetteMiss(KeyError):
    """Strict replay was asked for a prompt the cassette never saw."""


@dataclass
class GatewayConfig:
    """Connection and decoding settings for one model endpoint."""

    endpoint: str = ""
    model: str = ""
    temperature: float = 0.0
    max_tokens: int = 2048
    timeout: float = 60.0  # seconds of one attempt, connect to last byte
    retries: int = 2
    backoff_base: float = 0.5
    api_key_env: str = "LLM_API_KEY"

    def __post_init__(self):
        if type(self.temperature) not in (int, float) or \
                not 0 <= self.temperature < math.inf:
            raise ValueError("temperature must be a finite number >= 0")
        if type(self.timeout) not in (int, float) or \
                not 0 < self.timeout < math.inf:
            raise ValueError("timeout must be a positive finite number")
        if type(self.max_tokens) is not int or self.max_tokens < 1:
            raise ValueError("max_tokens must be an integer of at least 1")
        if type(self.retries) is not int or self.retries < 0:
            raise ValueError("retries must be an integer >= 0")
        if type(self.backoff_base) not in (int, float) or \
                not 0 <= self.backoff_base < math.inf:
            raise ValueError("backoff_base must be a finite number >= 0")
        for name in ("endpoint", "model", "api_key_env"):
            if not isinstance(getattr(self, name), str):
                raise ValueError(f"{name} must be a string")


class UsageLedger:
    """Thread-safe per-stage sums of calls, prompt tokens and completion
    tokens, with stages in the order of their first call."""

    def __init__(self):
        self._lock = threading.Lock()
        # stage -> (calls, prompt tokens, completion tokens)
        self._sums: dict[str, tuple[int, int, int]] = {}

    def record(self, stage: str, prompt_tokens: int,
               completion_tokens: int) -> None:
        with self._lock:
            calls, prompt, completion = self._sums.get(stage, (0, 0, 0))
            self._sums[stage] = (calls + 1, prompt + prompt_tokens,
                                 completion + completion_tokens)

    def by_stage(self) -> dict[str, dict]:
        """Each stage's sums, in the order of the stages' first calls."""
        with self._lock:
            return {stage: {"calls": calls, "prompt_tokens": prompt,
                            "completion_tokens": completion}
                    for stage, (calls, prompt, completion)
                    in self._sums.items()}


def prompt_key(prompt: str) -> str:
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


def estimate_tokens(text: str) -> int:
    """Deterministic fallback when the provider reports no usage."""
    return len(text.split())


class Cassette(Journal):
    """Prompt hash -> response journal. Arrival order depends on thread
    timing, so the owner of a recording run calls `rewrite_sorted` at its
    end to give the file the same bytes in any order of completion."""

    def __init__(self, path: str | Path):
        super().__init__(path, CASSETTE_FORMAT, CASSETTE_VERSION)

    def lookup(self, key: str) -> dict:
        entry = self.get(key)
        if entry is None:
            raise CassetteMiss(key)
        return dict(entry)

    def store(self, key: str, response: str, prompt_tokens: int,
              completion_tokens: int) -> None:
        """Keep the first response stored under `key`."""
        self.put({"key": key, "response": response,
                  "prompt_tokens": prompt_tokens,
                  "completion_tokens": completion_tokens}, replace=False)

    def rewrite_sorted(self) -> None:
        """Rewrite the file in key order, unless nothing was stored since
        the cassette was opened or last sorted."""
        if self.appended:
            self.rewrite()


def endpoint_url(endpoint: str) -> urllib.parse.SplitResult:
    """`endpoint` split; ValueError unless it is an absolute http or https
    URL with a host (`port` raises it for a port that is not a number)."""
    url = urllib.parse.urlsplit(endpoint)
    if url.scheme not in ("http", "https") or not url.hostname or \
            url.port == 0:
        raise ValueError(f"{endpoint!r} is not an absolute http or https "
                         f"URL with a host")
    return url


def is_transient(exc: Exception) -> bool:
    """Whether a retry can help: any OSError, or HTTP 408, 429 or 5xx."""
    if isinstance(exc, HTTPStatusError):
        return exc.status in (408, 429) or 500 <= exc.status < 600
    return isinstance(exc, OSError)


def http_transport(prompt: str, config: GatewayConfig,
                   api_key: str | None = None) -> tuple[str, int, int]:
    """POST one chat completion in the common provider wire format.

    `config.timeout` bounds the attempt from the connect to the last byte:
    a timer shuts the socket down at the deadline, and once it has fired
    the attempt is a TimeoutError, whatever was read. Any status but 2xx,
    a redirect too, raises HTTPStatusError. A proxy that `urllib.request`
    finds for the endpoint is reached through a CONNECT tunnel, with the
    credentials of its URL, if any, as Basic proxy authorization."""
    import base64
    import http.client  # only runs that reach the network pay for these
    import json
    import socket
    import ssl
    import urllib.request

    url = endpoint_url(config.endpoint)
    port = url.port or (443 if url.scheme == "https" else 80)
    target = urllib.parse.urlunsplit(("", "", url.path or "/", url.query, ""))
    headers = {"Host": url.netloc.rpartition("@")[2],
               "Content-Type": "application/json"}
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"
    payload = {
        "model": config.model,
        "messages": [{"role": "user", "content": prompt}],
        "temperature": config.temperature,
        "max_tokens": config.max_tokens,
    }
    proxy = None if urllib.request.proxy_bypass(url.hostname) \
        else urllib.request.getproxies().get(url.scheme)
    via = urllib.parse.urlsplit(proxy) if proxy else url
    conn = http.client.HTTPConnection(
        via.hostname, via.port if proxy else port, timeout=config.timeout)
    if proxy:
        tunnel_headers = {}
        if via.username is not None:  # as percent-encoded in the URL
            credentials = (f"{urllib.parse.unquote(via.username)}:"
                           f"{urllib.parse.unquote(via.password or '')}")
            tunnel_headers["Proxy-Authorization"] = "Basic " + \
                base64.b64encode(credentials.encode()).decode("ascii")
        conn.set_tunnel(url.hostname, port, headers=tunnel_headers)
    fired, sock = threading.Event(), None

    def expire():
        fired.set()
        with contextlib.suppress(AttributeError, OSError):  # none yet, or gone
            (sock or conn.sock).shutdown(socket.SHUT_RDWR)

    timer = threading.Timer(config.timeout, expire)
    timer.start()
    try:
        conn.connect()
        if url.scheme == "https":  # handshake where the timer can cut it
            conn.sock = ssl.create_default_context().wrap_socket(
                conn.sock, server_hostname=url.hostname,
                do_handshake_on_connect=False)
        sock = conn.sock  # `getresponse` drops `conn.sock` on a closing reply
        if fired.is_set():  # before there was a socket to shut down
            raise TimeoutError
        if url.scheme == "https":
            conn.sock.do_handshake()
        conn.request("POST", target, json.dumps(payload).encode(), headers)
        response = conn.getresponse()
        try:
            raw = response.read()
        except http.client.IncompleteRead as exc:  # a retry may get it whole
            raise ConnectionError(f"response cut short: {exc!r}") from exc
    except Exception:  # a cut socket fails in many ways; the timer decides
        if not fired.is_set():
            raise
    finally:
        timer.cancel()
        timer.join()  # so that `fired` no longer changes
        conn.close()
    if fired.is_set():
        raise TimeoutError(f"no whole response within {config.timeout} s")
    if not 200 <= response.status < 300:
        raise HTTPStatusError(response.status, response.reason)
    body = json.loads(raw)
    text = body["choices"][0]["message"]["content"]
    usage = body.get("usage") or {}
    return (
        text,
        int(usage.get("prompt_tokens", estimate_tokens(prompt))),
        int(usage.get("completion_tokens", estimate_tokens(text))),
    )


class LlmGateway:
    """Completion client in one of three modes: live, record, replay.

    Record mode consults the cassette before the network, so repeated
    prompts resolve to one stored entry and identical responses. A prompt
    the cassette lacks takes its key's lock, made on the first such call;
    the holder calls the transport only while the cassette still lacks
    the key, and otherwise reads the stored entry. A holder that leaves
    with the response stored removes the key's lock from the gateway, if
    it is still the one kept for the key; after a failed call the lock
    stays, and the next holder tries again. So callers of one prompt make
    one transport call between them, every caller gets the response that
    replay will return, and the gateway keeps locks only for prompts
    whose calls are in flight or failed. Replay mode never touches the
    transport; unknown prompts raise CassetteMiss. `close` stops the call
    pool and then closes the cassette's append handle.
    """

    def __init__(self, config: GatewayConfig, mode: str = "live",
                 cassette: Cassette | None = None,
                 transport=None, api_key: str | None = None):
        if mode not in ("live", "record", "replay"):
            raise ValueError(f"unknown gateway mode {mode!r}")
        if mode in ("record", "replay") and cassette is None:
            raise ValueError(f"{mode} mode requires a cassette")
        self.config = config
        self.mode = mode
        self.cassette = cassette
        self.transport = transport or http_transport
        self.ledger = UsageLedger()
        self.api_key = api_key
        self._lock = threading.Lock()
        self._pool: ThreadPoolExecutor | None = None
        self._key_locks: dict[str, threading.Lock] = {}

    def map(self, fn, items):
        """Apply `fn` to each of `items`; yield the results in input order.

        In live and record mode the calls run side by side: all but the
        first go to the gateway's pool, created on first use, and the
        calling thread runs the first. The pool starts a thread for a call
        only when every thread it has started is busy, up to `POOL_SIZE`;
        a call past that waits for a thread. The first exception in input
        order is raised where its result would be, once the calls still
        running have finished and those not started are cancelled. Replay
        runs the calls inline, as the builtin `map` does: a cassette hit
        never waits, so a pool would only add hand-off cost.
        """
        items = list(items)
        if self.mode == "replay" or len(items) < 2:
            return map(fn, items)
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    POOL_SIZE, thread_name_prefix="skelsearch-gateway")
            futures = [self._pool.submit(fn, item) for item in items[1:]]
        return _in_order(fn, items[0], futures)

    def close(self) -> None:
        """Shut the call pool down, then close the cassette's append
        handle: a call still in flight may yet store its response."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(cancel_futures=True)
        if self.cassette is not None:
            self.cassette.close()

    def complete(self, prompt: str, stage: str = "default") -> str:
        key = prompt_key(prompt)
        if self.mode == "live":
            return self._call(key, prompt, stage)
        if self.mode == "record" and key not in self.cassette:
            with self._lock:
                key_lock = self._key_locks.setdefault(key, threading.Lock())
            with key_lock:
                called = key not in self.cassette
                if called:
                    text = self._call(key, prompt, stage)
                # The response is stored, so no later caller needs the
                # lock; a failed call raised above and left it in place.
                with self._lock:
                    if self._key_locks.get(key) is key_lock:
                        del self._key_locks[key]
            if called:
                return text
        entry = self.cassette.lookup(key)
        self.ledger.record(stage, entry["prompt_tokens"],
                           entry["completion_tokens"])
        return entry["response"]

    def _call(self, key: str, prompt: str, stage: str) -> str:
        """One completion through the transport; record mode stores the
        response. A transient failure (`is_transient`) is tried again, up
        to `config.retries` times after backoff; any other raises
        PermanentError at its first attempt."""
        last_error: Exception | None = None
        for attempt in range(self.config.retries + 1):
            if attempt and self.config.backoff_base > 0:
                time.sleep(min(self.config.backoff_base * 2 ** (attempt - 1),
                               8.0))
            try:
                text, p_tokens, c_tokens = self.transport(
                    prompt, self.config, self.api_key)
            except Exception as exc:
                last_error = exc
                if is_transient(exc):
                    continue
                break
            self.ledger.record(stage, p_tokens, c_tokens)
            if self.mode == "record":
                self.cassette.store(key, text, p_tokens, c_tokens)
            return text

        self.ledger.record(stage, estimate_tokens(prompt), 0)
        if not is_transient(last_error):
            raise PermanentError(
                f"completion failed, not retried: "
                f"{type(last_error).__name__}: {last_error}") from last_error
        raise TransportError(
            f"completion failed after {self.config.retries + 1} attempts: "
            f"{last_error}") from last_error


def _in_order(fn, first, futures):
    """Yield fn(first), then each future's result. On an exception, or
    when the consumer stops early, cancel the calls not yet started and
    wait for those running, so no call outlives the batch."""
    try:
        yield fn(first)
        for future in futures:
            yield future.result()
    finally:
        for future in futures:
            future.cancel()
        wait(futures)
