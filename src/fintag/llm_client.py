"""Chat-completion client shared by the inserter and the editing judge:
request shaping, retry with exponential backoff, an in-flight limiter,
and append-only response caching for reproducible runs.

With a warm cache a whole pipeline run is deterministic and offline. The
client keeps an index of each cached key to the span of its line, not the
replies: a hit reads its line back from the file, so a cache file may only
be appended to while a run uses it, and a line read back that no longer
carries the key is a miss. Concurrent misses on one key share one call.
The index, the descriptor and the misses being called are used only under
one lock, so `close()` may be called while calls run. API keys come only
from the environment variable named in the profile (never from config
files).
"""

from __future__ import annotations

import json
import os
import threading
import time
import weakref
from enum import Enum
from pathlib import Path
from typing import NamedTuple

from . import FintagError, Validated
from .jsonl import read_jsonl

# The interpreter's builtin SHA-256 gives the same digests as `hashlib`'s,
# which loads OpenSSL's libcrypto: about 3.5 MB more peak memory for every
# llm-mode stage, against a few milliseconds of slower hashing per run. The
# builtin module is `_sha2` from Python 3.12 and `_sha256` before; a build
# without either falls back to `hashlib`.
try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

MAX_ATTEMPTS = 5
BACKOFF_BASE = 1.0
BACKOFF_FACTOR = 2.0

DEFAULT_API_KEY_ENV = "FRED_API_KEY"

# One encoder for every cache key; `json.dumps` with `separators` builds a
# new encoder per call.
_KEY_ENCODE = json.JSONEncoder(ensure_ascii=False, separators=(",", ":")).encode


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


class _ProfileFields(NamedTuple):
    name: str
    endpoint: str
    model: str
    temperature: float = 0.0
    timeout: float = 30.0
    max_in_flight: int = 4
    cache_path: str | None = None
    api_key_env: str = DEFAULT_API_KEY_ENV


class ClientProfile(Validated, _ProfileFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")
        return self


class CompletionRequest(NamedTuple):
    system: str
    user: str
    seed_tag: str = ""


class CompletionReply(NamedTuple):
    text: str  # recorded verbatim, never trimmed
    model: str
    latency: float  # measured on a live call; 0.0 when replayed from the cache


def _default_transport(profile: ClientProfile, payload: dict, headers: dict) -> tuple[int, str]:
    # Imported here, not at module level: the HTTP stack costs a stage
    # process more start-up time and memory than the rest of the package,
    # and only a cache miss against a live endpoint needs it.
    import http.client
    import urllib.error
    import urllib.parse
    import urllib.request

    try:
        # urllib would open an `ftp:` or `file:` URL, and reports a missing
        # host as it reports a refused connection, which is retried.
        url = urllib.parse.urlsplit(profile.endpoint)
        url.port  # raises on a port that is no number
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError("an http or https URL with a host is required")
        request = urllib.request.Request(profile.endpoint, json.dumps(payload).encode("utf-8"),
                                         headers, method="POST")
        # A refused redirect surfaces as its 3xx status; followed, urllib
        # would send the POST on as a GET.
        refuse = urllib.request.HTTPRedirectHandler()
        refuse.redirect_request = lambda *args: None
        try:
            response = urllib.request.build_opener(refuse).open(request, timeout=profile.timeout)
        except urllib.error.HTTPError as exc:
            response = exc  # a status other than 2xx is read, not raised
        with response:
            status, data = response.status, response.read()
            charset = response.headers.get_content_charset() or "utf-8"
    except (ValueError, http.client.InvalidURL) as exc:
        # A malformed URL or header: a fault of the request that no retry mends.
        raise ValueError(
            f"client profile {profile.name!r}: endpoint {profile.endpoint!r} rejected: {exc}"
        ) from exc
    except (OSError, http.client.HTTPException) as exc:
        # A `URLError` wraps a failure to connect or to send; a garbage
        # status line raises `BadStatusLine`, which is no OSError.
        cause = exc.reason if isinstance(exc, urllib.error.URLError) else exc
        kind = ClientErrorKind.TIMEOUT if isinstance(cause, TimeoutError) else ClientErrorKind.TRANSPORT
        raise ClientError(kind, str(exc)) from exc
    try:
        return status, data.decode(charset, errors="replace")
    except LookupError:  # a charset Python does not know
        return status, data.decode("utf-8", errors="replace")


def _parse_reply_text(body: str) -> str:
    try:
        obj = json.loads(body)
    except json.JSONDecodeError as exc:
        raise ClientError(ClientErrorKind.BAD_REPLY, "reply is not JSON") from exc
    if isinstance(obj, dict):
        choices = obj.get("choices")
        if isinstance(choices, list) and choices and isinstance(choices[0], dict):
            message = choices[0].get("message")
            if isinstance(message, dict) and isinstance(message.get("content"), str):
                return message["content"]
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
        # The replay cache: each key's 32-byte digest maps to the span of
        # its last valid line, packed `offset << 32 | length`. A dict of
        # hex keys to (offset, length) tuples held about twice the bytes.
        self._index: dict[bytes, int] | None = None
        self._fd: int | None = None  # read-only, opened at the first hit
        self._closer = None  # weakref.finalize closing `_fd`
        self._flights: dict[bytes, threading.Event] = {}  # misses being called
        self._cache_lock = threading.Lock()

    def close(self) -> None:
        """Close the cache file's descriptor; a later hit opens it again.
        It may be called while calls of this client run: the descriptor is
        used only under the cache lock. A client that is never closed
        closes it when it is collected."""
        with self._cache_lock:
            if self._closer is not None:
                self._closer()
                self._fd = self._closer = None

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

    def cached_complete(self, request: CompletionRequest,
                        replay_only: bool = False) -> CompletionReply | None:
        """Cache-through completion keyed on the full request identity; a
        hit performs no network operations. A miss on a key that another
        thread is already calling waits for that call and replays its
        reply, or makes its own call when that one raised. With
        `replay_only`, a miss returns None instead."""
        if not self.profile.cache_path:
            raise ValueError("profile has no cache_path configured")
        key = self._cache_key(request)
        digest = bytes.fromhex(key)
        while True:
            with self._cache_lock:
                hit = self._hit(digest, key)
                if hit is not None or replay_only:
                    return hit
                flight = self._flights.get(digest)
                if flight is None:
                    flight = self._flights[digest] = threading.Event()
                    break
            flight.wait()
        try:
            reply = self.complete(request)
            with self._cache_lock:
                self._append(digest, key, reply)
        finally:
            with self._cache_lock:
                del self._flights[digest]
            flight.set()
        return reply

    def _cache_key(self, request: CompletionRequest) -> str:
        material = _KEY_ENCODE([
            self.profile.endpoint,
            self.profile.model,
            self.profile.temperature,
            request.system,
            request.user,
            request.seed_tag,
        ])
        return sha256(material.encode("utf-8")).hexdigest()

    def _hit(self, digest: bytes, key: str) -> CompletionReply | None:
        """The cached reply of `key`, or None when no indexed line holds it
        (a line rewritten since it was indexed reads as a miss); called with
        the lock held."""
        if self._index is None:
            self._index = self._load_index()
        span = self._index.get(digest)
        if span is None:
            return None
        if self._fd is None:
            self._fd = os.open(self.profile.cache_path, os.O_RDONLY)
            self._closer = weakref.finalize(self, os.close, self._fd)
        line = os.pread(self._fd, span & 0xFFFFFFFF, span >> 32)
        try:
            entry = json.loads(line.decode("utf-8"))
            found, text, model = entry["key"], entry["reply"]["text"], entry["reply"]["model"]
        except (ValueError, TypeError, KeyError):
            return None
        if found != key or not isinstance(text, str) or not isinstance(model, str):
            return None
        return CompletionReply(text, model, 0.0)

    def _load_index(self) -> dict[bytes, int]:
        index: dict[bytes, int] = {}
        path = self.profile.cache_path
        if Path(path).exists():
            # Corrupt or wrong-shaped cache lines degrade to misses, and of
            # the lines of one key the last valid one wins.
            rows = read_jsonl(path, skip=lambda *_: None, fields={"key": str, "reply": dict})
            for _, entry, (offset, length) in rows:
                reply, key = entry["reply"], entry["key"]
                if isinstance(reply.get("text"), str) and isinstance(reply.get("model"), str):
                    digest = _digest(key)
                    if digest is not None:
                        index[digest] = offset << 32 | length
        return index

    def _append(self, digest: bytes, key: str, reply: CompletionReply) -> None:
        # A hit replays text and model only: the measured latency varies
        # between runs, and the cache's bytes must not.
        entry = {"key": key, "reply": {"text": reply.text, "model": reply.model}}
        line = json.dumps(entry, ensure_ascii=False).encode("utf-8")
        with open(self.profile.cache_path, "a+b") as fh:
            offset = os.fstat(fh.fileno()).st_size
            # A file cut short inside its last line (a run killed mid-append)
            # gets a line break first, so the new line is not joined to it.
            if offset and os.pread(fh.fileno(), 1, offset - 1) not in (b"\n", b"\r"):
                fh.write(b"\n")
                offset += 1
            fh.write(line + b"\n")
        self._index[digest] = offset << 32 | len(line)


def _digest(key: str) -> bytes | None:
    """The 32 bytes of a key written as 64 lowercase hex digits, the form
    `_cache_key` gives; None for any other string."""
    try:
        digest = bytes.fromhex(key)
    except ValueError:
        return None
    return digest if len(digest) == 32 and digest.hex() == key else None
