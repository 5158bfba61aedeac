"""Client tests with injected transports: retry/backoff, caching, and the
in-flight limiter."""

from __future__ import annotations

import contextlib
import gc
import itertools
import json
import os
import re
import socket
import subprocess
import sys
import threading
import time
import tracemalloc
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fintag import llm_client
from fintag.jsonl import read_jsonl
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
        # A choice or a message that is no object is a bad reply too.
        for body in ({"weird": True}, {"choices": ["x"]}, {"choices": [None]},
                     {"choices": [{"message": "hi"}]}, {"choices": [{"message": None}]}):
            transport = SequenceTransport([(200, json.dumps(body))])
            client = LlmClient(_profile(), transport, sleeper=lambda s: None)
            with pytest.raises(ClientError) as err:
                client.complete(_request())
            assert err.value.kind is ClientErrorKind.BAD_REPLY, body
            assert transport.calls == 1

    @pytest.mark.parametrize("body", [
        {"choices": [{"text": "done"}]},
        {"text": "done"},
        {"content": "done"},
        {"output": "done"},
    ])
    def test_other_reply_shapes_give_their_text(self, body):
        transport = SequenceTransport([(200, json.dumps(body))])
        client = LlmClient(_profile(), transport, sleeper=lambda s: None)
        assert client.complete(_request()).text == "done"

    def test_a_body_that_is_not_json_is_a_bad_reply(self):
        transport = SequenceTransport([(200, "<html>busy</html>")])
        client = LlmClient(_profile(), transport, sleeper=lambda s: None)
        with pytest.raises(ClientError, match="reply is not JSON") as err:
            client.complete(_request())
        assert err.value.kind is ClientErrorKind.BAD_REPLY
        assert transport.calls == 1

    def test_a_status_no_retry_mends_is_a_bad_reply_at_once(self):
        transport = SequenceTransport([(404, ""), (200, _reply_body("late"))])
        client = LlmClient(_profile(), transport, sleeper=lambda s: None)
        with pytest.raises(ClientError, match="HTTP 404") as err:
            client.complete(_request())
        assert err.value.kind is ClientErrorKind.BAD_REPLY
        assert transport.calls == 1

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
        with pytest.raises(ValueError):
            client.cached_complete(_request(), replay_only=True)

    def test_replay_runs_as_a_call_of_cached_complete(self, tmp_path, monkeypatch):
        # A profile that wraps `cached_complete` on the class sees every
        # lookup of the cache, also those of `insert`'s replay-only units.
        from fintag.cli import _Miss, _Replayed

        seen = []
        real = LlmClient.cached_complete

        def counted(self, request, *args, **kwargs):
            seen.append(request.seed_tag)
            return real(self, request, *args, **kwargs)

        monkeypatch.setattr(LlmClient, "cached_complete", counted)
        transport = SequenceTransport([(200, _reply_body("x"))])
        client = LlmClient(_profile(cache_path=str(tmp_path / "cache.jsonl")), transport)
        replayed = _Replayed(client)
        with pytest.raises(_Miss):
            replayed.call(_request(seed_tag="a"))
        assert client.call(_request(seed_tag="a")).text == "x"
        assert replayed.call(_request(seed_tag="a")).text == "x"
        assert (seen, transport.calls) == (["a", "a", "a"], 1)

    def test_call_goes_through_the_cache_only_with_a_cache_path(self, tmp_path):
        transport = SequenceTransport([(200, _reply_body("x"))])
        cached = LlmClient(_profile(cache_path=str(tmp_path / "cache.jsonl")), transport)
        assert cached.call(_request()).text == cached.call(_request()).text == "x"
        assert transport.calls == 1
        plain = LlmClient(_profile(), transport)
        plain.call(_request())
        plain.call(_request())
        assert transport.calls == 3

    def test_an_append_after_a_cut_short_line_starts_a_new_line(self, tmp_path):
        # A run killed mid-append leaves a last line with no line break.
        for tail, sep in ((b'{"key": "0123', b"\n"), (b'{"key": "0123"}\r', b"")):
            path = tmp_path / "cache.jsonl"
            path.write_bytes(tail)
            transport = SequenceTransport([(200, _reply_body("paid once"))])
            profile = _profile(cache_path=str(path))
            LlmClient(profile, transport, sleeper=lambda s: None).cached_complete(_request())
            fresh = LlmClient(profile, transport, sleeper=lambda s: None)
            assert fresh.cached_complete(_request()).text == "paid once"
            assert transport.calls == 1
            entry = {"key": fresh._cache_key(_request()), "reply": {"text": "paid once", "model": "unit-model"}}
            assert path.read_bytes() == tail + sep + json.dumps(entry).encode() + b"\n"

    def test_a_line_that_no_longer_holds_its_key_reads_as_a_miss(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        texts = ("first", "second", "third", "fourth")
        transport = SequenceTransport([(200, _reply_body(text)) for text in texts])
        client = LlmClient(_profile(cache_path=str(path)), transport, sleeper=lambda s: None)
        key = client._cache_key(_request())
        assert client.cached_complete(_request()).text == "first"
        # Rewritten in place: another key at the indexed span.
        path.write_bytes(path.read_bytes().replace(key.encode(), key[::-1].encode()))
        assert client.cached_complete(_request()).text == "second"
        assert client.cached_complete(_request()).text == "second"  # the appended line hits
        # Rewritten in place: a reply and no key at the indexed span.
        path.write_bytes(path.read_bytes().replace(b'"key"', b'"kez"'))
        assert client.cached_complete(_request()).text == "third"
        # Cut short: the indexed span reads nothing.
        path.write_bytes(b"")
        assert client.cached_complete(_request()).text == "fourth"
        assert transport.calls == 4
        client.close()

    def test_a_key_in_upper_case_hex_reads_as_a_miss(self, tmp_path):
        # Keys are written as lower-case hex; any other spelling of the same
        # digest is no key the client wrote.
        path = tmp_path / "cache.jsonl"
        transport = SequenceTransport([(200, _reply_body("fresh"))])
        client = LlmClient(_profile(cache_path=str(path)), transport, sleeper=lambda s: None)
        key = client._cache_key(_request())
        entry = {"key": key.upper(), "reply": {"text": "stale", "model": "unit-model"}}
        path.write_text(json.dumps(entry) + "\n", encoding="utf-8")
        assert client.cached_complete(_request()).text == "fresh"
        assert transport.calls == 1
        client.close()

    def test_cache_key_bytes_are_pinned(self):
        # Every replay cache written so far is keyed on these bytes.
        client = LlmClient(_profile(), SequenceTransport([]))
        request = CompletionRequest(system="sys", user="héllo", seed_tag="s0")
        assert client._cache_key(request) == "50b19908d9703f2bfc12c3c612bf1a0243d02384a6254ebc9edc64e96caf5f89"


class _Gate:
    """A transport that holds its first call until `release` is set, then
    answers it with `first` (a body, or an exception to raise) and every
    later call with "later"."""

    def __init__(self, first):
        self.first = first
        self.entered, self.release = threading.Event(), threading.Event()
        self.calls = 0

    def __call__(self, profile, payload, headers):
        self.calls += 1
        if self.calls > 1:
            return 200, _reply_body("later")
        self.entered.set()
        assert self.release.wait(10)
        if isinstance(self.first, Exception):
            raise self.first
        return 200, self.first


def _two_threads_miss_on_one_key(tmp_path, gate):
    """The outcomes of two threads asking one client for one key, the
    second after the first has reached the transport."""
    client = LlmClient(_profile(cache_path=str(tmp_path / "cache.jsonl")), gate, sleeper=lambda s: None)
    outcomes = {}

    def ask(name):
        try:
            outcomes[name] = client.cached_complete(_request()).text
        except ClientError as exc:
            outcomes[name] = exc.kind

    first = threading.Thread(target=ask, args=("first",))
    first.start()
    assert gate.entered.wait(10)
    second = threading.Thread(target=ask, args=("second",))
    second.start()
    time.sleep(0.1)  # the second thread reaches the miss and waits
    gate.release.set()
    for thread in (first, second):
        thread.join(10)
        assert not thread.is_alive()
    return outcomes, (tmp_path / "cache.jsonl").read_text(encoding="utf-8").splitlines()


def test_concurrent_misses_on_one_key_share_one_call(tmp_path):
    gate = _Gate(_reply_body("shared"))
    outcomes, lines = _two_threads_miss_on_one_key(tmp_path, gate)
    assert outcomes == {"first": "shared", "second": "shared"}
    assert gate.calls == 1
    assert len(lines) == 1


def test_a_waiter_makes_its_own_call_when_the_shared_one_fails(tmp_path):
    gate = _Gate(ClientError(ClientErrorKind.AUTH, "HTTP 401"))
    outcomes, lines = _two_threads_miss_on_one_key(tmp_path, gate)
    assert outcomes == {"first": ClientErrorKind.AUTH, "second": "later"}
    assert gate.calls == 2
    assert len(lines) == 1


def test_many_threads_on_few_keys_call_each_key_once(tmp_path):
    # More threads than cores, switching often: every key is called once,
    # cached once, and every thread gets its key's reply.
    calls, lock = {}, threading.Lock()

    def transport(profile, payload, headers):
        user = payload["messages"][1]["content"]
        with lock:
            calls[user] = calls.get(user, 0) + 1
        time.sleep(0.001)
        return 200, _reply_body(f"reply to {user}")

    client = LlmClient(_profile(cache_path=str(tmp_path / "cache.jsonl")), transport, sleeper=lambda s: None)
    wrong = []

    def worker(n):
        for i in range(60):
            user = f"u{(n + i) % 12}"
            if client.cached_complete(_request(user=user)).text != f"reply to {user}":
                wrong.append(user)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(n,)) for n in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    client.close()
    assert wrong == []
    assert calls == {f"u{k}": 1 for k in range(12)}
    assert len((tmp_path / "cache.jsonl").read_text(encoding="utf-8").splitlines()) == 12


def _whole_file_load(path) -> dict:
    """The replay cache as a load of the whole file reads it: the text and
    model of each key's last valid line, corrupt and wrong-shaped lines
    skipped. The indexed cache must answer every key as this does."""
    cache = {}
    if path.exists():
        rows = read_jsonl(path, skip=lambda *_: None, fields={"key": str, "reply": dict})
        for _, entry, _ in rows:
            text, model = entry["reply"].get("text"), entry["reply"].get("model")
            if isinstance(text, str) and isinstance(model, str):
                cache[entry["key"]] = (text, model)
    return cache


_KEYS = 4  # requests `_request(seed_tag=str(i))` for i < _KEYS
_REPLY_TEXT = st.text(st.sampled_from(["a", " ", "\n", "\r", "\u2028", "\x85", '"', "\\", "é", "数"]), max_size=6)


def _line(key: str, kind: str, text: str) -> bytes:
    """A cache line of `kind` for `key`, without its line break."""
    valid = {"key": key, "reply": {"text": text, "model": "unit-model"}}
    line = {
        "valid": valid,
        "latency": {"key": key, "reply": {"text": text, "model": "m2", "latency": 0.5}},
        "upper key": {**valid, "key": key.upper()},
        "spaced key": {**valid, "key": key[:32] + " " + key[32:]},
        "short key": {**valid, "key": key[:62]},
        "list key": {**valid, "key": [key]},
        "list reply": {"key": key, "reply": [text, "unit-model"]},
        "int text": {"key": key, "reply": {"text": 5, "model": "unit-model"}},
        "no model": {"key": key, "reply": {"text": text}},
        "meta": {"_meta": valid},
    }.get(kind)
    if line is not None:
        return json.dumps(line, ensure_ascii=kind == "latency").encode("utf-8")
    return {
        "blank": b"   ",
        "broken": b'{"key": "' + key.encode() + b'", "reply": {"text"',
        "not utf-8": b'{"key": "' + key.encode() + b'", "reply": {"text": "\xff", "model": "m"}}',
        "surrogate": b'{"key": "' + key.encode() + b'", "reply": {"text": "\\ud800", "model": "m"}}',
        "array": b"[1, 2]",
    }[kind]


_KINDS = ["valid", "valid", "valid", "latency", "upper key", "spaced key", "short key", "list key",
          "list reply", "int text", "no model", "meta", "blank", "broken", "not utf-8", "surrogate", "array"]


@settings(max_examples=150, deadline=None)
@given(
    lines=st.lists(st.tuples(st.integers(0, _KEYS - 1), st.sampled_from(_KINDS), _REPLY_TEXT,
                             st.sampled_from([b"\n", b"\r\n", b"\r"])), max_size=10),
    last_break=st.booleans(),
)
def test_the_indexed_cache_answers_every_key_as_a_whole_file_load(tmp_path_factory, lines, last_break):
    path = tmp_path_factory.getbasetemp() / "property-cache.jsonl"
    transport = SequenceTransport([(200, _reply_body("fresh"))])
    client = LlmClient(_profile(cache_path=str(path)), transport, sleeper=lambda s: None)
    requests = [_request(seed_tag=str(i)) for i in range(_KEYS)]
    keys = [client._cache_key(request) for request in requests]
    data = b"".join(_line(keys[i], kind, text) + brk for i, kind, text, brk in lines)
    if lines and not last_break:
        data = data.rstrip(b"\r\n")
    path.write_bytes(data)
    expected = _whole_file_load(path)

    appended = []
    for key, request in zip(keys, requests):
        calls = transport.calls
        replayed = client.cached_complete(request, replay_only=True)  # never calls the model
        assert transport.calls == calls
        reply = client.cached_complete(request)
        if key in expected:
            assert (reply.text, reply.model, reply.latency, transport.calls) == (*expected[key], 0.0, calls)
            assert replayed == reply
        else:
            assert replayed is None
            assert (reply.text, transport.calls) == ("fresh", calls + 1)
            entry = {"key": key, "reply": {"text": "fresh", "model": "unit-model"}}
            appended.append(json.dumps(entry).encode("utf-8") + b"\n")
    # An append after a cut-short last line starts a new line.
    cut_short = appended and data[-1:] not in b"\r\n"
    assert path.read_bytes() == data + b"\n" * bool(cut_short) + b"".join(appended)
    # Every key now hits, in this client and in a fresh one.
    fresh = LlmClient(_profile(cache_path=str(path)), SequenceTransport([(500, "")]), sleeper=lambda s: None)
    for reader in (client, fresh):
        calls = transport.calls
        assert [reader.cached_complete(r).text for r in requests] == [
            expected.get(k, ("fresh",))[0] for k in keys]
        assert transport.calls == calls
    client.close()
    fresh.close()


def _held_after_loading(tmp_path, entries: int) -> int:
    """The traced heap a client holds once it has loaded a cache of
    `entries` replies of 1 KB each and replayed one of them, in bytes."""
    path = tmp_path / f"cache-{entries}.jsonl"
    client = LlmClient(_profile(cache_path=str(path)), SequenceTransport([(500, "")]), sleeper=lambda s: None)
    filler = "Net revenue rose on the segment's higher volumes. " * 20
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(entries):
            entry = {"key": client._cache_key(_request(seed_tag=str(i))),
                     "reply": {"text": f"{i}: {filler}", "model": "unit-model"}}
            fh.write(json.dumps(entry) + "\n")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert client.cached_complete(_request(seed_tag="0")).text.startswith("0: ")
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        client.close()
    return held


def test_a_loaded_cache_holds_no_reply_text(tmp_path):
    _held_after_loading(tmp_path, 5)  # imports and one-time tables
    small, large = _held_after_loading(tmp_path, 100), _held_after_loading(tmp_path, 1000)
    assert (tmp_path / "cache-1000.jsonl").stat().st_size > 1000 * 1024
    assert (large - small) / 900 < 300, (small, large)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd to count descriptors")
def test_close_leaves_no_descriptor_open(tmp_path):
    def open_descriptors() -> int:
        return len(os.listdir("/proc/self/fd"))

    transport = SequenceTransport([(200, _reply_body("x"))])
    client = LlmClient(_profile(cache_path=str(tmp_path / "cache.jsonl")), transport, sleeper=lambda s: None)
    gc.collect()  # clients of earlier tests close their descriptors now, not below
    before = open_descriptors()
    client.cached_complete(_request())  # a miss appends and holds no descriptor
    assert open_descriptors() == before
    client.cached_complete(_request())  # the first hit opens one
    assert open_descriptors() == before + 1
    client.close()
    client.close()
    assert open_descriptors() == before
    # A hit after close() opens it again; collecting the client closes it.
    assert client.cached_complete(_request()).text == "x"
    assert open_descriptors() == before + 1
    del client
    gc.collect()
    assert open_descriptors() == before
    assert transport.calls == 1


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd to count descriptors")
def test_close_may_run_while_hits_replay(tmp_path):
    # Four threads replay hits, switching often, while a fifth closes the
    # client over and over: no hit meets a closed descriptor, every hit
    # replays its key's reply, and the last close leaves none open.
    def echo(profile, payload, headers):
        return 200, _reply_body(f"reply to {payload['messages'][1]['content']}")

    profile = _profile(cache_path=str(tmp_path / "cache.jsonl"))
    warm = LlmClient(profile, echo, sleeper=lambda s: None)
    for k in range(20):
        warm.cached_complete(_request(user=f"u{k}"))
    warm.close()
    transport = SequenceTransport([(200, _reply_body("called"))])
    client = LlmClient(profile, transport, sleeper=lambda s: None)
    gc.collect()  # clients of earlier tests close their descriptors now, not below
    before = len(os.listdir("/proc/self/fd"))
    failures, replayed, done = [], [], threading.Event()

    def reader(n):
        try:
            for i in range(500):
                user = f"u{(n + i) % 20}"
                if client.cached_complete(_request(user=user)).text == f"reply to {user}":
                    replayed.append(user)
        except Exception as exc:
            failures.append(exc)

    def closer():
        while not done.is_set():
            client.close()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        readers = [threading.Thread(target=reader, args=(n,)) for n in range(4)]
        closing = threading.Thread(target=closer)
        for thread in [*readers, closing]:
            thread.start()
        for thread in readers:
            thread.join(60)
            assert not thread.is_alive()
    finally:
        done.set()
        sys.setswitchinterval(interval)
    closing.join(10)
    assert not closing.is_alive()
    client.close()
    assert failures == []
    assert len(replayed) == 2000
    assert transport.calls == 0
    assert len(os.listdir("/proc/self/fd")) == before


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


def test_default_transport_fails_at_once_on_an_endpoint_the_http_stack_rejects():
    # An empty or malformed endpoint is a fault of the request, not of the
    # network: no attempt is retried, so nothing sleeps.
    for endpoint in ("", "unit.test/v1/chat", "http://", "http://127.0.0.1:abc/v1", "http://[::1/v1",
                     "ftp://unit.test/chat", "file:///dev/null", "http://a b/v1"):
        slept = []
        client = LlmClient(_profile(endpoint=endpoint), sleeper=slept.append)
        with pytest.raises(ValueError, match=re.escape(f"'test': endpoint {endpoint!r} rejected")):
            client.complete(_request())
        assert slept == []


class _Endpoint(BaseHTTPRequestHandler):
    """A local endpoint that answers the n-th POST with the raw bytes of
    `replies[n]` (the last one once they run out) and a GET with 200 "GOT",
    and records the method of every request."""

    replies: tuple
    methods: list

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        self.wfile.write(self.replies[min(len(self.methods), len(self.replies) - 1)])
        self.methods.append("POST")

    def do_GET(self):
        self.methods.append("GET")
        self.wfile.write(b"HTTP/1.0 200 OK\r\nContent-Length: 3\r\n\r\nGOT")

    def log_message(self, *args):
        pass


@contextlib.contextmanager
def _endpoint(*replies: bytes):
    """The URL of an `_Endpoint` that answers with `replies`, and the list
    of the methods it has seen."""
    handler = type("Handler", (_Endpoint,), {"replies": replies, "methods": []})
    server = HTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}/v1/chat", handler.methods
    finally:
        server.shutdown()
        server.server_close()
        thread.join(10)


def _http_reply(status: str, body: bytes = b"", *headers: str) -> bytes:
    head = [f"HTTP/1.0 {status}", f"Content-Length: {len(body)}", *headers]
    return "\r\n".join(head).encode("ascii") + b"\r\n\r\n" + body


def _complete_at(url, **profile):
    """The reply, or the `ClientError`, of one `complete` through the
    default transport, and the delays it slept."""
    slept = []
    client = LlmClient(_profile(endpoint=url, **profile), sleeper=slept.append)
    try:
        return client.complete(_request()), slept
    except ClientError as exc:
        return exc, slept


def test_default_transport_refuses_a_redirect():
    # urllib would follow a 302 on a POST with a GET; refused, the 3xx is a
    # status no retry mends.
    with _endpoint(_http_reply("302 Found", b"", "Location: /v1/elsewhere")) as (url, methods):
        error, slept = _complete_at(url, timeout=5)
    assert (error.kind, str(error), slept) == (ClientErrorKind.BAD_REPLY, "bad_reply: HTTP 302", [])
    assert methods == ["POST"]


def test_default_transport_counts_a_garbage_status_line_as_a_transport_error():
    with _endpoint(b"garbage\r\n\r\n") as (url, methods):
        error, slept = _complete_at(url, timeout=5)
    assert error.kind is ClientErrorKind.TRANSPORT
    assert methods == ["POST"] * llm_client.MAX_ATTEMPTS
    assert len(slept) == llm_client.MAX_ATTEMPTS - 1


@pytest.mark.parametrize("charset, encoding", [("latin-1", "latin-1"), ("no-such-charset", "utf-8")])
def test_default_transport_reads_an_error_status_and_decodes_by_the_charset(charset, encoding):
    # A 500 is read as its status and retried; the body of the 200 is decoded
    # by its declared charset, or as UTF-8 when Python knows no such charset.
    body = json.dumps({"choices": [{"message": {"content": "café £"}}]}, ensure_ascii=False).encode(encoding)
    with _endpoint(_http_reply("500 Internal Server Error", b"down"),
                   _http_reply("200 OK", body, f"Content-Type: application/json; charset={charset}")) as (url, _):
        reply, slept = _complete_at(url, timeout=5)
    assert (reply.text, slept) == ("café £", [llm_client.BACKOFF_BASE])


def test_default_transport_maps_an_endpoint_that_never_answers_to_timeout():
    # The socket listens, so the kernel accepts each connection, but nothing
    # ever reads the request or answers it.
    with socket.create_server(("127.0.0.1", 0)) as server:
        error, slept = _complete_at(f"http://127.0.0.1:{server.getsockname()[1]}/v1/chat", timeout=0.2)
    assert error.kind is ClientErrorKind.TIMEOUT
    assert slept == [1.0, 2.0, 4.0, 8.0]


def test_default_transport_needs_only_the_standard_library(tmp_path):
    # With site-packages off, a live call still goes through.
    probe = ("import sys\n"
             "from fintag.llm_client import ClientProfile, CompletionRequest, LlmClient\n"
             "profile = ClientProfile(name='stdlib', endpoint=sys.argv[1], model='m', timeout=5)\n"
             "print(LlmClient(profile).complete(CompletionRequest('sys', 'hello')).text)\n")
    src = os.path.dirname(os.path.dirname(llm_client.__file__))
    with _endpoint(_http_reply("200 OK", _reply_body("from the stub").encode())) as (url, methods):
        out = subprocess.run([sys.executable, "-S", "-c", probe, url], env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, encoding="utf-8", cwd=tmp_path)
    assert (out.returncode, out.stdout, methods) == (0, "from the stub\n", ["POST"]), out.stderr
