"""The shared JSONL envelope: one reader, one writer."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fintag.jsonl import read_jsonl, write_jsonl

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
    assert [text for _, _, text in read_jsonl(path)] == [' {"id":1}  ', '{"id": "\\u00e9"}']


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
    ],
)
def test_bad_line_raises_with_path_and_line(tmp_path, line, reason):
    path = tmp_path / "rows.jsonl"
    path.write_text('{"id": 1}\n\n' + line + "\n", encoding="utf-8")
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
