"""Chat-completion client shared by the inserter and the editing judge:
request shaping, retry with exponential backoff, an in-flight limiter,
and append-only response caching for reproducible runs.

With a warm cache a whole pipeline run is deterministic and offline. API
keys come only from the environment variable named in the profile (never
from config files).
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from . import FintagError
from .jsonl import read_jsonl

MAX_ATTEMPTS = 5
BACKOFF_BASE = 1.0
BACKOFF_FACTOR = 2.0

DEFAULT_API_KEY_ENV = "FRED_API_KEY"


class ClientErrorKind(Enum):
    TRANSPORT = "transport"
    AUTH = "auth"
    RATE_LIMITED = "rate_limited"
    TIMEOUT = "timeout"
    BAD_REPLY = "bad_reply"


class ClientError(FintagError):
    def __init__(self, kind: ClientErrorKind, message: str):
        super().__init__(f"{kind.value}: {message}")
        self.kind = kind


@dataclass(frozen=True)
class ClientProfile:
    name: str
    endpoint: str
    model: str
    temperature: float = 0.0
    timeout: float = 30.0
    max_in_flight: int = 4
    cache_path: str | None = None
    api_key_env: str = DEFAULT_API_KEY_ENV

    def __post_init__(self) -> None:
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")


@dataclass(frozen=True)
class CompletionRequest:
    system: str
    user: str
    seed_tag: str = ""


@dataclass(frozen=True)
class CompletionReply:
    text: str  # recorded verbatim, never trimmed
    model: str
    latency: float  # measured on a live call; 0.0 when replayed from the cache


def _default_transport(profile: ClientProfile, payload: dict, headers: dict) -> tuple[int, str]:
    # Imported here, not at module level: the HTTP stack costs more start-up
    # time than the rest of the package, and only a cache miss against a
    # live endpoint needs it.
    import requests

    try:
        response = requests.post(
            profile.endpoint, json=payload, headers=headers, timeout=profile.timeout
        )
    except requests.Timeout as exc:
        raise ClientError(ClientErrorKind.TIMEOUT, str(exc)) from exc
    except requests.RequestException as exc:
        raise ClientError(ClientErrorKind.TRANSPORT, str(exc)) from exc
    return response.status_code, response.text


def _parse_reply_text(body: str) -> str:
    try:
        obj = json.loads(body)
    except json.JSONDecodeError as exc:
        raise ClientError(ClientErrorKind.BAD_REPLY, "reply is not JSON") from exc
    if isinstance(obj, dict):
        choices = obj.get("choices")
        if isinstance(choices, list) and choices:
            message = choices[0].get("message", {})
            content = message.get("content")
            if isinstance(content, str):
                return content
            content = choices[0].get("text")
            if isinstance(content, str):
                return content
        for key in ("text", "content", "output"):
            value = obj.get(key)
            if isinstance(value, str):
                return value
    raise ClientError(ClientErrorKind.BAD_REPLY, "no completion text in reply")


class LlmClient:
    """Thread-safe client for one profile.

    `transport` and `sleeper` are injectable for testing; the default
    transport speaks the JSON chat-completion protocol over HTTP.
    """

    def __init__(self, profile: ClientProfile, transport=None, sleeper=time.sleep):
        self.profile = profile
        self.name = profile.name
        self._transport = transport or _default_transport
        self._sleeper = sleeper
        self._inflight = threading.BoundedSemaphore(profile.max_in_flight)
        self._cache: dict[str, CompletionReply] | None = None
        self._cache_lock = threading.Lock()

    def call(self, request: CompletionRequest) -> CompletionReply:
        """One completion: through the replay cache when the profile sets a
        `cache_path`, else a plain `complete`. Every LLM call of the
        pipeline goes through here."""
        if self.profile.cache_path:
            return self.cached_complete(request)
        return self.complete(request)

    def complete(self, request: CompletionRequest) -> CompletionReply:
        """One chat completion with retry on transport/429/5xx failures
        (exponential backoff, up to MAX_ATTEMPTS attempts)."""
        payload = {
            "model": self.profile.model,
            "temperature": self.profile.temperature,
            "messages": [
                {"role": "system", "content": request.system},
                {"role": "user", "content": request.user},
            ],
        }
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(self.profile.api_key_env)
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"

        last_error: ClientError | None = None
        for attempt in range(MAX_ATTEMPTS):
            if attempt:
                self._sleeper(BACKOFF_BASE * BACKOFF_FACTOR ** (attempt - 1))
            try:
                with self._inflight:
                    started = time.monotonic()
                    status, body = self._transport(self.profile, payload, headers)
                    latency = time.monotonic() - started
            except ClientError as exc:
                if exc.kind in (ClientErrorKind.AUTH, ClientErrorKind.BAD_REPLY):
                    raise
                last_error = exc
                continue
            if status in (401, 403):
                raise ClientError(ClientErrorKind.AUTH, f"HTTP {status}")
            if status == 429:
                last_error = ClientError(ClientErrorKind.RATE_LIMITED, "HTTP 429")
                continue
            if status >= 500:
                last_error = ClientError(ClientErrorKind.TRANSPORT, f"HTTP {status}")
                continue
            if status != 200:
                raise ClientError(ClientErrorKind.BAD_REPLY, f"HTTP {status}")
            return CompletionReply(_parse_reply_text(body), self.profile.model, latency)
        assert last_error is not None
        raise last_error

    def cached_complete(self, request: CompletionRequest) -> CompletionReply:
        """Cache-through completion keyed on the full request identity; a
        hit performs no network operations."""
        if not self.profile.cache_path:
            raise ValueError("profile has no cache_path configured")
        key = self._cache_key(request)
        with self._cache_lock:
            cache = self._load_cache()
            hit = cache.get(key)
        if hit is not None:
            return hit
        reply = self.complete(request)
        with self._cache_lock:
            # A hit replays text and model only: the measured latency varies
            # between runs, and the cache's bytes must not.
            self._cache[key] = CompletionReply(reply.text, reply.model, 0.0)
            entry = {"key": key, "reply": {"text": reply.text, "model": reply.model}}
            with open(self.profile.cache_path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(entry, ensure_ascii=False) + "\n")
        return reply

    def _cache_key(self, request: CompletionRequest) -> str:
        material = json.dumps(
            [
                self.profile.endpoint,
                self.profile.model,
                self.profile.temperature,
                request.system,
                request.user,
                request.seed_tag,
            ],
            ensure_ascii=False,
            separators=(",", ":"),
        )
        return hashlib.sha256(material.encode("utf-8")).hexdigest()

    def _load_cache(self) -> dict:
        if self._cache is None:
            self._cache = {}
            path = self.profile.cache_path
            if Path(path).exists():
                # Corrupt or wrong-shaped cache lines degrade to misses.
                rows = read_jsonl(path, skip=lambda *_: None, fields={"key": str, "reply": dict})
                for _, entry, _ in rows:
                    text, model = entry["reply"].get("text"), entry["reply"].get("model")
                    if isinstance(text, str) and isinstance(model, str):
                        self._cache[entry["key"]] = CompletionReply(text, model, 0.0)
        return self._cache

