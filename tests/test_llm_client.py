"""Client tests with injected transports: retry/backoff, caching, and the
in-flight limiter."""

from __future__ import annotations

import itertools
import json
import threading
import time

import pytest

from fintag import llm_client
from fintag.llm_client import (
    ClientError,
    ClientErrorKind,
    ClientProfile,
    CompletionRequest,
    LlmClient,
)


def _reply_body(text: str) -> str:
    return json.dumps({"choices": [{"message": {"content": text}}]})


def _profile(**kwargs) -> ClientProfile:
    defaults = dict(name="test", endpoint="http://unit.test/v1/chat", model="unit-model")
    defaults.update(kwargs)
    return ClientProfile(**defaults)


def _request(user="hello", seed_tag="s0"):
    return CompletionRequest(system="sys", user=user, seed_tag=seed_tag)


class SequenceTransport:
    """Yields scripted (status, text) outcomes and records calls."""

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.calls = 0

    def __call__(self, profile, payload, headers):
        outcome = self.outcomes[min(self.calls, len(self.outcomes) - 1)]
        self.calls += 1
        if isinstance(outcome, Exception):
            raise outcome
        status, text = outcome
        return status, text


class TestComplete:
    def test_echo(self):
        transport = SequenceTransport([(200, _reply_body("canned text"))])
        client = LlmClient(_profile(), transport, sleeper=lambda s: None)
        reply = client.complete(_request())
        assert reply.text == "canned text"
        assert reply.model == "unit-model"
        assert transport.calls == 1

    def test_retry_on_429_then_success(self):
        transport = SequenceTransport(
            [(429, ""), (429, ""), (200, _reply_body("ok"))]
        )
        delays = []
        client = LlmClient(_profile(), transport, sleeper=delays.append)
        reply = client.complete(_request())
        assert reply.text == "ok"
        assert transport.calls == 3
        assert delays == [1.0, 2.0]  # exponential backoff, base 1s, factor 2

    def test_persistent_500_exhausts_attempts(self):
        transport = SequenceTransport([(500, "")])
        client = LlmClient(_profile(), transport, sleeper=lambda s: None)
        with pytest.raises(ClientError) as err:
            client.complete(_request())
        assert transport.calls == 5
        assert err.value.kind is ClientErrorKind.TRANSPORT

    def test_auth_failure_does_not_retry(self):
        transport = SequenceTransport([(401, "")])
        client = LlmClient(_profile(), transport, sleeper=lambda s: None)
        with pytest.raises(ClientError) as err:
            client.complete(_request())
        assert err.value.kind is ClientErrorKind.AUTH
        assert transport.calls == 1

    def test_bad_reply_shape(self):
        transport = SequenceTransport([(200, json.dumps({"weird": True}))])
        client = LlmClient(_profile(), transport, sleeper=lambda s: None)
        with pytest.raises(ClientError) as err:
            client.complete(_request())
        assert err.value.kind is ClientErrorKind.BAD_REPLY

    def test_api_key_header_from_environment(self, monkeypatch):
        seen = {}

        def transport(profile, payload, headers):
            seen.update(headers)
            return 200, _reply_body("x")

        monkeypatch.setenv("FRED_API_KEY", "secret-key")
        LlmClient(_profile(), transport, sleeper=lambda s: None).complete(_request())
        assert seen["Authorization"] == "Bearer secret-key"

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            _profile(max_in_flight=0)
        with pytest.raises(ValueError):
            _profile(timeout=0)


class TestCache:
    def test_hit_performs_no_network(self, tmp_path):
        transport = SequenceTransport([(200, _reply_body("cached once"))])
        profile = _profile(cache_path=str(tmp_path / "cache.jsonl"))
        client = LlmClient(profile, transport, sleeper=lambda s: None)
        first = client.cached_complete(_request())
        second = client.cached_complete(_request())
        assert transport.calls == 1
        assert first.text == second.text == "cached once"

    def test_changed_seed_tag_misses(self, tmp_path):
        transport = SequenceTransport([(200, _reply_body("x"))])
        profile = _profile(cache_path=str(tmp_path / "cache.jsonl"))
        client = LlmClient(profile, transport, sleeper=lambda s: None)
        client.cached_complete(_request(seed_tag="a"))
        client.cached_complete(_request(seed_tag="b"))
        assert transport.calls == 2

    def test_cache_survives_client_restart_verbatim(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        text = "verbatim \n  text with  spaces\tand tabs "
        transport = SequenceTransport([(200, _reply_body(text))])
        profile = _profile(cache_path=path)
        LlmClient(profile, transport, sleeper=lambda s: None).cached_complete(_request())

        fresh = LlmClient(
            profile, SequenceTransport([(500, "")]), sleeper=lambda s: None
        )
        reply = fresh.cached_complete(_request())  # must not touch network
        assert reply.text == text

    def test_corrupt_cache_line_degrades_to_miss(self, tmp_path):
        # KEY stands for the request's own key, so a row read as a hit
        # would replay "stale".
        rows = [
            "{broken json",
            '{"key": ["KEY"], "reply": {"text": "stale", "model": "unit-model"}}',
            '{"key": "KEY", "reply": ["stale", "unit-model"]}',
            '{"key": "KEY", "reply": {"text": 5, "model": "unit-model"}}',
        ]
        for i, row in enumerate(rows):
            path = tmp_path / f"cache-{i}.jsonl"
            transport = SequenceTransport([(200, _reply_body("fresh"))])
            client = LlmClient(_profile(cache_path=str(path)), transport, sleeper=lambda s: None)
            path.write_text(row.replace("KEY", client._cache_key(_request())) + "\n", encoding="utf-8")
            assert client.cached_complete(_request()).text == "fresh", row
            assert transport.calls == 1

    def test_cache_bytes_do_not_depend_on_timing(self, tmp_path, monkeypatch):
        caches = []
        for step in (0.25, 7.5):
            clock = itertools.count(0.0, step)
            monkeypatch.setattr(llm_client.time, "monotonic", lambda clock=clock: next(clock))
            path = tmp_path / f"cache-{step}.jsonl"
            transport = SequenceTransport([(200, _reply_body("a")), (200, _reply_body("b"))])
            client = LlmClient(_profile(cache_path=str(path)), transport, sleeper=lambda s: None)
            live = [client.cached_complete(_request(seed_tag=tag)) for tag in ("a", "b")]
            assert [reply.latency for reply in live] == [step, step]
            assert client.cached_complete(_request(seed_tag="a")).latency == 0.0
            assert transport.calls == 2
            caches.append(path.read_bytes())
        assert caches[0] == caches[1]

    def test_a_cache_row_with_latency_still_replays(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        transport = SequenceTransport([(500, "")])
        client = LlmClient(_profile(cache_path=str(path)), transport, sleeper=lambda s: None)
        row = {
            "key": client._cache_key(_request()),
            "reply": {"text": "replayed", "model": "unit-model", "latency": 0.42},
        }
        path.write_text(json.dumps(row) + "\n", encoding="utf-8")
        reply = client.cached_complete(_request())
        assert (reply.text, reply.model, reply.latency) == ("replayed", "unit-model", 0.0)
        assert transport.calls == 0

    def test_cached_complete_requires_cache_path(self):
        client = LlmClient(_profile(), SequenceTransport([(200, _reply_body("x"))]))
        with pytest.raises(ValueError):
            client.cached_complete(_request())

    def test_call_goes_through_the_cache_only_with_a_cache_path(self, tmp_path):
        transport = SequenceTransport([(200, _reply_body("x"))])
        cached = LlmClient(_profile(cache_path=str(tmp_path / "cache.jsonl")), transport)
        assert cached.call(_request()).text == cached.call(_request()).text == "x"
        assert transport.calls == 1
        plain = LlmClient(_profile(), transport)
        plain.call(_request())
        plain.call(_request())
        assert transport.calls == 3


def test_in_flight_never_exceeds_limit():
    lock = threading.Lock()
    state = {"now": 0, "peak": 0}

    def slow_transport(profile, payload, headers):
        with lock:
            state["now"] += 1
            state["peak"] = max(state["peak"], state["now"])
        time.sleep(0.01)
        with lock:
            state["now"] -= 1
        return 200, _reply_body("ok")

    client = LlmClient(_profile(max_in_flight=3), slow_transport, sleeper=lambda s: None)
    threads = [
        threading.Thread(target=client.complete, args=(_request(user=f"u{i}"),))
        for i in range(12)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert state["peak"] <= 3


def test_default_transport_maps_refused_connection_to_transport_error():
    # Nothing listens on the discard port; the refusal must surface as a
    # counted TRANSPORT failure after the retries, not as a raw exception.
    profile = _profile(endpoint="http://127.0.0.1:9/v1/chat/completions", timeout=0.5)
    client = LlmClient(profile, sleeper=lambda s: None)
    with pytest.raises(ClientError) as info:
        client.complete(_request())
    assert info.value.kind is ClientErrorKind.TRANSPORT
