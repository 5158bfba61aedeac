"""The JSONL envelope every stage reads and writes: one JSON object per
line, blank lines ignored, and an optional `{"_meta": {...}}` header line
that carries the writing command's config and is skipped on reading.
"""

from __future__ import annotations

import json
import sys
from contextlib import nullcontext
from pathlib import Path
from typing import Callable, Iterable, Iterator

_META = "_meta"


def read_jsonl(
    path: str | Path, skip: Callable[[int, str], None] | None = None, fields: dict | None = None
) -> Iterator[tuple[int, dict, str]]:
    """Yield `(line_no, obj, text)` for each data line of a JSONL file.

    `line_no` counts from 1 over every line, blank ones included; `text`
    is the line as read, without its line break. Blank lines and `_meta`
    header lines are skipped. A line that is not valid JSON, not a JSON
    object, or holds a string UTF-8 cannot encode (a lone-surrogate escape
    such as "\\ud800") raises `ValueError("<path>:<line_no>: <reason>")`,
    or, when `skip` is given, is passed to `skip(line_no, reason)` and
    reading goes on. A string no writer can encode is thus rejected where
    it is read, not halfway through writing an output. So is a row that
    breaks `fields`, its record type's field table, which maps each field
    name to a type or tuple of types (`object` takes any value; a field
    that takes `NoneType` may be absent).
    """
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                obj = json.loads(stripped)
            except json.JSONDecodeError as exc:
                reason = f"bad JSON ({exc.msg})"
            else:
                if not isinstance(obj, dict):
                    reason = "not a JSON object"
                elif "\\u" in stripped and not _encodes_as_utf8(obj):
                    reason = "lone surrogate in a string (UTF-8 cannot encode it)"
                elif _META in obj:
                    continue
                elif not fields or (reason := _field_error(obj, fields)) is None:
                    yield line_no, obj, line.rstrip("\n")
                    continue
            if skip is None:
                raise ValueError(f"{path}:{line_no}: {reason}")
            skip(line_no, reason)


def index_by_id(path: str | Path, rows: Iterable[tuple[int, object, object]]) -> dict:
    """Map `str(id)` to `value` for the `(line_no, id, value)` rows read
    from `path`, for a join on id. An id that repeats, also as another JSON
    type (5 and "5"), raises `ValueError("<path>:<line_no>: duplicate id
    '5' (first at line 1)")` rather than replacing the earlier row.
    """
    index: dict = {}
    # The line of each id, in the order of `index`, packed eight bytes a
    # line: only an error reads it, and a dict of ints would cost about 80
    # bytes a row, enough to raise a stage's peak RSS.
    lines = bytearray()
    for line_no, rid, value in rows:
        key = str(rid)
        if key in index:
            at = 8 * list(index).index(key)
            first = int.from_bytes(lines[at:at + 8], "little")
            raise ValueError(f"{path}:{line_no}: duplicate id {key!r} (first at line {first})")
        index[key] = value
        lines += line_no.to_bytes(8, "little")
    return index


def _field_error(obj: dict, fields: dict) -> str | None:
    for name, types in fields.items():
        types = types if isinstance(types, tuple) else (types,)
        if name not in obj:
            if type(None) not in types:
                return f"missing field {name!r}"
        elif not isinstance(obj[name], types):
            expected = " or ".join(t.__name__ for t in types)
            return f"field {name!r} is {type(obj[name]).__name__}, expected {expected}"
    return None


def _encodes_as_utf8(obj: dict) -> bool:
    # The file decoded as UTF-8, so only a "\\u" escape can yield a string
    # that does not encode back; callers test for one first.
    try:
        json.dumps(obj, ensure_ascii=False).encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def write_jsonl(
    path: str | Path | None, rows: Iterable[dict | str], meta: dict | None = None
) -> int:
    """Write the `{"_meta": meta}` header (when `meta` is given), then one
    line per row, to `path` or, when it is None, to standard output.

    A dict row is encoded with `json.dumps(row, ensure_ascii=False)`; a
    str row is a line already in JSON, written as is. Returns the number
    of rows written.
    """
    count = 0
    target = open(path, "w", encoding="utf-8") if path is not None else nullcontext(sys.stdout)
    with target as fh:
        if meta is not None:
            fh.write(json.dumps({_META: meta}, ensure_ascii=False) + "\n")
        for row in rows:
            fh.write((row if isinstance(row, str) else json.dumps(row, ensure_ascii=False)) + "\n")
            count += 1
    return count
