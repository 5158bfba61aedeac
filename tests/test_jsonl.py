"""The shared JSONL envelope: one reader, one writer."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import checkout_env
from fintag.jsonl import line_at, read_jsonl, row_at, write_jsonl

# Characters that split a line for some reader or another: file iteration
# splits on "\n" and "\r", str.splitlines also on "\x85" and "\u2028".
# Lone surrogates are left out: UTF-8 cannot encode them.
_TRICKY = st.sampled_from(["\n", "\r", "\x85", "\u2028", "\u2029", "\x1c", "é", "€", "数"])
_TEXT = st.text(_TRICKY | st.characters(exclude_categories=("Cs",)), max_size=12)
_SCALARS = st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | _TEXT


def _objects(keys, values, max_size):
    return st.lists(st.tuples(keys, values), max_size=max_size).map(dict)


_VALUES = st.recursive(
    _SCALARS, lambda inner: st.lists(inner, max_size=3) | _objects(_TEXT, inner, 3), max_leaves=6
)
_ROWS = _objects(_TEXT.filter(lambda k: k != "_meta"), _VALUES, 4)


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(_ROWS, max_size=5), meta=st.none() | _objects(_TEXT, _VALUES, 3))
def test_read_gives_back_what_write_wrote(tmp_path_factory, rows, meta):
    path = tmp_path_factory.getbasetemp() / "round-trip.jsonl"
    assert write_jsonl(path, rows, meta) == len(rows)
    assert [obj for _, obj, _ in read_jsonl(path)] == rows


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(_ROWS, max_size=5), breaks=st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=6,
                                                         max_size=6))
def test_spans_read_back_each_line_as_text_mode_splits_it(tmp_path_factory, rows, breaks):
    # Line numbers and texts are those of a file read in text mode, which
    # breaks lines at "\n", "\r" and "\r\n"; each span reads its line back.
    path = tmp_path_factory.getbasetemp() / "spans.jsonl"
    lines = ["", *(json.dumps(row, ensure_ascii=False) for row in rows)]
    path.write_bytes("".join(line + brk for line, brk in zip(lines, breaks)).encode("utf-8"))
    with open(path, encoding="utf-8") as fh:
        expected = [(no, line.rstrip("\n")) for no, line in enumerate(fh, start=1) if line.strip()]
    with open(path, "rb") as fh:
        read = list(read_jsonl(path))
        assert [(no, line_at(fh, span)) for no, _, span in read] == expected
        assert [row_at(fh, span) for _, _, span in read] == [obj for _, obj, _ in read] == rows


def test_meta_and_blank_lines_are_skipped_anywhere(tmp_path):
    path = tmp_path / "rows.jsonl"
    header = json.dumps({"_meta": {"command": "x"}})
    path.write_text(
        "\n".join(["", header, '{"id": 1}', "   ", header, '{"id": 2}', "\t", header]) + "\n",
        encoding="utf-8",
    )
    assert [(no, obj) for no, obj, _ in read_jsonl(path)] == [(3, {"id": 1}), (6, {"id": 2})]


def test_text_is_the_line_as_read(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_text(' {"id":1}  \n{"id": "\\u00e9"}', encoding="utf-8")
    with open(path, "rb") as fh:
        texts = [line_at(fh, span) for _, _, span in read_jsonl(path)]
    assert texts == [' {"id":1}  ', '{"id": "\\u00e9"}']


def test_escaped_surrogate_pair_reads_as_one_character(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_text('{"id": "\\ud83d\\ude00 \\u00e9"}\n', encoding="utf-8")
    assert [obj for _, obj, _ in read_jsonl(path)] == [{"id": "\U0001f600 é"}]


def test_str_rows_are_written_as_given(tmp_path):
    path = tmp_path / "rows.jsonl"
    write_jsonl(path, ['{"id":1}', {"id": "é"}], meta={"command": "split"})
    assert path.read_text(encoding="utf-8") == (
        '{"_meta": {"command": "split"}}\n{"id":1}\n{"id": "é"}\n'
    )


@pytest.mark.parametrize(
    "line, reason",
    [
        ("{oops", "bad JSON (Expecting property name enclosed in double quotes)"),
        ("5", "not a JSON object"),
        ('"a string with _meta in it"', "not a JSON object"),
        ("[1, 2]", "not a JSON object"),
        ('{"id": "x\\ud800"}', "lone surrogate in a string (UTF-8 cannot encode it)"),
        ('{"\\udfff": 1}', "lone surrogate in a string (UTF-8 cannot encode it)"),
        (b'{"id": "\xff"}', "not UTF-8"),
        (b"\xef\xbb", "not UTF-8"),
    ],
)
def test_bad_line_raises_with_path_and_line(tmp_path, line, reason):
    path = tmp_path / "rows.jsonl"
    line = line if isinstance(line, bytes) else line.encode("utf-8")
    path.write_bytes(b'{"id": 1}\n\n' + line + b"\n")
    with pytest.raises(ValueError) as info:
        list(read_jsonl(path))
    assert str(info.value) == f"{path}:3: {reason}"


def test_skip_callback_gets_line_numbers_and_reading_goes_on(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_text(
        '{"id": 1}\n5\n\n{oops\n{"_meta": {}}\n"x _meta y"\n{"id": 2}\n', encoding="utf-8"
    )
    skipped = []
    rows = [obj for _, obj, _ in read_jsonl(path, skip=lambda no, why: skipped.append((no, why)))]
    assert rows == [{"id": 1}, {"id": 2}]
    assert skipped == [
        (2, "not a JSON object"),
        (4, "bad JSON (Expecting property name enclosed in double quotes)"),
        (6, "not a JSON object"),
    ]


def test_write_to_stdout_when_path_is_none(capsys):
    assert write_jsonl(None, [{"id": 1}], meta={"command": "derive"}) == 1
    assert capsys.readouterr().out == '{"_meta": {"command": "derive"}}\n{"id": 1}\n'


def test_stdout_gets_utf8_whatever_the_io_encoding():
    # Every output file holds UTF-8, so standard output does too, also
    # outside a stage and under a locale that cannot encode the row.
    probe = "from fintag.jsonl import write_jsonl; write_jsonl(None, [{'id': '\u00e9\u20ac'}])"
    out = subprocess.run([sys.executable, "-c", probe], env=checkout_env(PYTHONIOENCODING="ascii"),
                         capture_output=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout == '{"id": "\u00e9\u20ac"}\n'.encode("utf-8")


def test_a_write_that_raises_leaves_a_fifo_reader_nothing(tmp_path):
    # The rows raise after two 64-row batches are written: none of them
    # may reach the reader, and no temporary file may stay behind.
    def rows():
        for i in range(130):
            yield {"id": i, "text": "Sales rose."}
        raise RuntimeError("the rows failed")

    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        with pytest.raises(RuntimeError, match="the rows failed"):
            write_jsonl(str(fifo), rows())
        assert os.read(reader, 1 << 20) == b""
    finally:
        os.close(reader)
    assert [p.name for p in tmp_path.iterdir()] == ["out.fifo"]


_TABLE = {"id": (str, int), "text": str, "note": (str, type(None)), "any": object}


@pytest.mark.parametrize(
    "row, reason",
    [
        ({"text": "t", "any": 0}, "missing field 'id'"),
        ({"id": 1, "any": 0}, "missing field 'text'"),
        ({"id": 1, "text": "t"}, "missing field 'any'"),
        ({"id": 1.5, "text": "t", "any": 0}, "field 'id' is float, expected str or int"),
        ({"id": 1, "text": None, "any": 0}, "field 'text' is NoneType, expected str"),
        ({"id": 1, "text": "t", "note": 5, "any": 0}, "field 'note' is int, expected str or NoneType"),
    ],
)
def test_a_row_that_breaks_the_field_table_names_path_and_line(tmp_path, row, reason):
    path = tmp_path / "rows.jsonl"
    path.write_text(json.dumps({"id": "a", "text": "t", "any": []}) + "\n" + json.dumps(row) + "\n",
                    encoding="utf-8")
    with pytest.raises(ValueError) as info:
        list(read_jsonl(path, fields=_TABLE))
    assert str(info.value) == f"{path}:2: {reason}"
    skipped = []
    rows = [obj for _, obj, _ in read_jsonl(path, skip=lambda *args: skipped.append(args), fields=_TABLE)]
    assert rows == [{"id": "a", "text": "t", "any": []}]
    assert skipped == [(2, reason)]


def test_optional_fields_may_be_absent_or_null(tmp_path):
    path = tmp_path / "rows.jsonl"
    rows = [{"id": "a", "text": "t", "any": None}, {"id": 2, "text": "", "note": None, "any": {}}]
    write_jsonl(path, rows, meta={"command": "x"})
    assert [obj for _, obj, _ in read_jsonl(path, fields=_TABLE)] == rows


# One entry per typed reader: its field names, and a call that reads `path`
# whole (editing rows also go to the scorer, as `eval-edit` sends them).
# `ingest` and the replay cache skip a bad row instead of raising.
def _read_cache(path):
    from fintag.llm_client import ClientProfile, LlmClient

    # Every indexed line reads back as a hit.
    client = LlmClient(ClientProfile("p", "", "", cache_path=str(path)))
    replies = []
    for digest in client._load_index():
        with client._cache_lock:
            replies.append(client._hit(digest, digest.hex()))
    client.close()
    assert all(r is not None and isinstance(r.text, str) and isinstance(r.model, str)
               for r in replies)


def _readers():
    from conftest import read_pairs
    from fintag.corpus import ingest
    from fintag.detect_eval import read_gold_documents, read_predictions
    from fintag.edit_eval import containment_judge, read_editing_rows, score_editing
    from fintag.insertion import load_exemplars
    from fintag.records import read_records
    from fintag.taxonomy import FAVA_LABELS

    def score_rows(path):
        return [score_editing(r["edited"], r["reference"], containment_judge)
                for r in read_editing_rows(path)]

    return {
        "records": (("id", "original", "tagged", "provenance", "seed"), lambda p: list(read_records(p))),
        "qa": (("id", "documents", "question", "response"), lambda p: list(ingest(p))),
        "pairs": (("id", "prompt", "target", "meta"), read_pairs),
        "gold": (("id", "target"), lambda p: list(read_gold_documents(p, FAVA_LABELS))),
        "predictions": (("id", "raw"), read_predictions),
        "editing": (("id", "edited", "reference"), score_rows),
        "exemplars": (("kind", "passage", "tagged"), load_exemplars),
        "cache": (("key", "reply"), _read_cache),
    }


_MARKUP = _TEXT | st.sampled_from(
    ["a <numerical><delete>1</delete><mark>2</mark></numerical>", "<unverifiable>b", "<bogus>c</x>"]
)
# A value of the field's own type (text unless named here) for about half
# the draws, so that a fair share of rows read through.
_RIGHT = {
    "seed": st.integers() | st.none(),
    "provenance": _TEXT | st.none(),
    "meta": st.none() | _objects(st.sampled_from(["kinds", "source"]), _VALUES, 2),
    "documents": _TEXT | st.lists(_TEXT, max_size=2),
    "kind": st.sampled_from(["numerical", "unverifiable", "numerica"]),
    "key": st.binary(min_size=32, max_size=32).map(bytes.hex),
    "reply": st.fixed_dictionaries({"text": _TEXT, "model": _TEXT})
    | _objects(st.sampled_from(["text", "model"]), _TEXT | _VALUES, 2),
    "tagged": _MARKUP,
    "target": _MARKUP,
    "raw": _MARKUP,
}


def _rows(fields):
    """Objects that hold some of `fields` and maybe other keys."""
    return st.tuples(
        st.fixed_dictionaries({name: _RIGHT.get(name, _TEXT) | _VALUES for name in fields}),
        st.sets(st.sampled_from(fields)),
        _objects(_TEXT.filter(lambda k: k != "_meta"), _VALUES, 2),
    ).map(lambda t: t[2] | {k: v for k, v in t[0].items() if k not in t[1]})


@pytest.mark.parametrize("reader", sorted(_readers()))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_every_reader_reads_a_row_or_names_its_line(tmp_path_factory, reader, data):
    fields, read = _readers()[reader]
    path = tmp_path_factory.getbasetemp() / f"{reader}.jsonl"
    write_jsonl(path, [data.draw(_rows(fields))])
    try:
        read(path)
    except ValueError as exc:
        assert str(exc).startswith(f"{path}:1: ")


@pytest.mark.parametrize("reader", sorted(_readers()))
@settings(max_examples=60, deadline=None)
@given(raw=st.binary(max_size=24) | st.sampled_from([b'{"id": "\xff"}', b"\x80", b'{"id": 1}\r\x85']))
def test_every_reader_reads_raw_bytes_or_names_their_line(tmp_path_factory, reader, raw):
    # Raw bytes may break into several lines ("\n", "\r") or not be UTF-8.
    _, read = _readers()[reader]
    path = tmp_path_factory.getbasetemp() / f"{reader}-raw.jsonl"
    path.write_bytes(raw + b"\n")
    try:
        read(path)
    except ValueError as exc:
        where = re.match(rf"{re.escape(str(path))}:(\d+): ", str(exc))
        assert where and 1 <= int(where.group(1)) <= len(raw.splitlines()), str(exc)
