"""Chat-completion gateway with deterministic replay.

One client fronts every model call in the pipeline. It enforces greedy
decoding defaults, retries transient transport failures, meters token and
latency usage, and can record live responses into a cassette file or
replay them hermetically (no network) later.

Cassette entries are keyed by the sha256 of the raw prompt bytes. Hashing
the exact bytes keeps template drift visible: any prompt change misses the
cassette instead of silently replaying a stale response.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import requests

CASSETTE_FORMAT = "cassette"
CASSETTE_VERSION = 1
_HEADER_LINE = json.dumps({"format": CASSETTE_FORMAT,
                           "version": CASSETTE_VERSION}) + "\n"


class TransportError(RuntimeError):
    """All attempts to reach the completion endpoint failed."""


class CassetteMiss(KeyError):
    """Strict replay was asked for a prompt the cassette never saw."""


@dataclass
class GatewayConfig:
    """Connection and decoding settings for one model endpoint."""

    endpoint: str = ""
    model: str = ""
    temperature: float = 0.0
    max_tokens: int = 2048
    timeout: float = 60.0
    retries: int = 2
    concurrency: int = 50
    backoff_base: float = 0.5
    api_key_env: str = "LLM_API_KEY"

    def __post_init__(self):
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if self.concurrency < 1:
            raise ValueError("concurrency cap must be >= 1")
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")


@dataclass
class UsageEntry:
    stage: str
    prompt_tokens: int
    completion_tokens: int
    latency: float


class UsageLedger:
    """Thread-safe accumulator of per-call usage."""

    def __init__(self):
        self._lock = threading.Lock()
        self.entries: list[UsageEntry] = []

    def record(self, entry: UsageEntry) -> None:
        with self._lock:
            self.entries.append(entry)

    def totals(self, stage: str | None = None) -> dict:
        with self._lock:
            rows = [e for e in self.entries
                    if stage is None or e.stage == stage]
        return {
            "calls": len(rows),
            "prompt_tokens": sum(e.prompt_tokens for e in rows),
            "completion_tokens": sum(e.completion_tokens for e in rows),
            "latency": sum(e.latency for e in rows),
        }

    def stages(self) -> list[str]:
        with self._lock:
            seen = []
            for e in self.entries:
                if e.stage not in seen:
                    seen.append(e.stage)
        return seen


def prompt_key(prompt: str) -> str:
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


def estimate_tokens(text: str) -> int:
    """Deterministic fallback when the provider reports no usage."""
    return len(text.split())


class Cassette:
    """Line-delimited (prompt hash -> response) store with a header.

    `store` appends each new entry as it arrives, so a run that stops
    midway keeps what it recorded. Arrival order depends on thread timing,
    so the owner of a run calls `rewrite_sorted` at its end to give the
    file the same bytes whatever order the calls completed in.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._entries: dict[str, dict] = {}
        self._appended = False
        if self.path.exists():
            self._load()

    def _load(self) -> None:
        lines = self.path.read_text(encoding="utf-8").splitlines()
        if not lines:
            return
        header = json.loads(lines[0])
        if header.get("format") != CASSETTE_FORMAT:
            raise ValueError(f"{self.path}: not a cassette file")
        if header.get("version") != CASSETTE_VERSION:
            raise ValueError(
                f"{self.path}: unsupported cassette version "
                f"{header.get('version')!r}")
        for line in lines[1:]:
            if not line.strip():
                continue
            entry = json.loads(line)
            self._entries[entry["key"]] = entry

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def lookup(self, key: str) -> dict:
        with self._lock:
            if key not in self._entries:
                raise CassetteMiss(key)
            return dict(self._entries[key])

    def store(self, key: str, response: str, prompt_tokens: int,
              completion_tokens: int) -> None:
        entry = {
            "key": key,
            "response": response,
            "prompt_tokens": prompt_tokens,
            "completion_tokens": completion_tokens,
        }
        with self._lock:
            if key in self._entries:
                return
            self._entries[key] = entry
            self._appended = True
            new_file = not self.path.exists()
            with self.path.open("a", encoding="utf-8") as fh:
                if new_file:
                    fh.write(_HEADER_LINE)
                fh.write(json.dumps(entry, ensure_ascii=False) + "\n")

    def rewrite_sorted(self) -> None:
        """Rewrite the file as the header and then every entry sorted by
        key, through a temporary file and `os.replace`. Does nothing when
        nothing was stored since the cassette was opened or last sorted.
        """
        with self._lock:
            if not self._appended:
                return
            tmp = self.path.with_name(self.path.name + ".tmp")
            with tmp.open("w", encoding="utf-8") as fh:
                fh.write(_HEADER_LINE)
                for key in sorted(self._entries):
                    fh.write(json.dumps(self._entries[key],
                                        ensure_ascii=False) + "\n")
            os.replace(tmp, self.path)
            self._appended = False


def http_transport(prompt: str, config: GatewayConfig,
                   api_key: str | None = None) -> tuple[str, int, int]:
    """POST one chat completion in the common provider wire format."""
    headers = {"Content-Type": "application/json"}
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"
    payload = {
        "model": config.model,
        "messages": [{"role": "user", "content": prompt}],
        "temperature": config.temperature,
        "max_tokens": config.max_tokens,
    }
    resp = requests.post(config.endpoint, json=payload, headers=headers,
                         timeout=config.timeout)
    resp.raise_for_status()
    body = resp.json()
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
    prompts resolve to one stored entry and identical responses. Replay
    mode never touches the transport; unknown prompts raise CassetteMiss.
    """

    def __init__(self, config: GatewayConfig, mode: str = "live",
                 cassette: Cassette | str | Path | None = None,
                 transport=None, ledger: UsageLedger | None = None,
                 api_key: str | None = None):
        if mode not in ("live", "record", "replay"):
            raise ValueError(f"unknown gateway mode {mode!r}")
        if mode in ("record", "replay") and cassette is None:
            raise ValueError(f"{mode} mode requires a cassette")
        self.config = config
        self.mode = mode
        self.cassette = (cassette if isinstance(cassette, Cassette)
                         or cassette is None else Cassette(cassette))
        self.transport = transport or http_transport
        self.ledger = ledger or UsageLedger()
        self.api_key = api_key
        self._semaphore = threading.BoundedSemaphore(config.concurrency)

    def complete(self, prompt: str, stage: str = "default") -> str:
        key = prompt_key(prompt)
        if self.mode == "replay":
            entry = self.cassette.lookup(key)
            self.ledger.record(UsageEntry(
                stage, entry["prompt_tokens"], entry["completion_tokens"],
                0.0))
            return entry["response"]

        if self.mode == "record" and key in self.cassette:
            entry = self.cassette.lookup(key)
            self.ledger.record(UsageEntry(
                stage, entry["prompt_tokens"], entry["completion_tokens"],
                0.0))
            return entry["response"]

        started = time.monotonic()
        last_error: Exception | None = None
        for attempt in range(self.config.retries + 1):
            if attempt and self.config.backoff_base > 0:
                time.sleep(min(self.config.backoff_base * 2 ** (attempt - 1),
                               8.0))
            try:
                with self._semaphore:
                    text, p_tokens, c_tokens = self.transport(
                        prompt, self.config, self.api_key)
            except Exception as exc:
                last_error = exc
                continue
            latency = time.monotonic() - started
            self.ledger.record(UsageEntry(stage, p_tokens, c_tokens,
                                          latency))
            if self.mode == "record":
                self.cassette.store(key, text, p_tokens, c_tokens)
            return text

        latency = time.monotonic() - started
        self.ledger.record(UsageEntry(stage, estimate_tokens(prompt), 0,
                                      latency))
        raise TransportError(
            f"completion failed after {self.config.retries + 1} attempts: "
            f"{last_error}") from last_error
