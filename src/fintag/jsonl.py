"""The JSONL envelope every stage reads and writes: one JSON object per
line, blank lines ignored, and an optional `{"_meta": {...}}` header line
that carries the writing command's config and is skipped on reading.

Stages stream: the reader decodes one line at a time and can give each
row's byte span, so a stage keeps only small per-row indexes and reads a
row again by its span; the writer writes into a sibling temporary file
that replaces the output only once every row is written.
"""

from __future__ import annotations

import itertools
import json
import os
import stat
import sys
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Callable, Iterable, Iterator

_META = "_meta"
# `json.dumps(row, ensure_ascii=False)` without building an encoder a row.
_ENCODE = json.JSONEncoder(ensure_ascii=False).encode
_BATCH = 64  # rows drawn at a time by `write_jsonl`


def read_jsonl(
    path: str | Path,
    skip: Callable[[int, str], None] | None = None,
    fields: dict | None = None,
    spans: bool = False,
) -> Iterator[tuple[int, dict, str]]:
    """Yield `(line_no, obj, text)` for each data line of a JSONL file.

    `line_no` counts from 1 over every line, blank ones included, with
    lines broken at "\\n", "\\r" and "\\r\\n"; `text` is the line as read,
    without its line break. With `spans=True`, `text` is replaced by the
    line's `(offset, length)` in bytes, which `line_at` reads back.
    Blank lines and `_meta` header lines are skipped. A line that is not
    UTF-8, not valid JSON, not a JSON object, or holds a string UTF-8
    cannot encode (a lone-surrogate escape such as "\\ud800") raises
    `ValueError("<path>:<line_no>: <reason>")`, or, when `skip` is given,
    is passed to `skip(line_no, reason)` and reading goes on. A string no
    writer can encode is thus rejected where it is read, not halfway
    through writing an output. So is a row that breaks `fields`, its record
    type's field table, which maps each field name to a type or tuple of
    types (`object` takes any value; a field that takes `NoneType` may be
    absent).
    """
    line_no = offset = 0
    # Undecodable bytes read as lone surrogates, and lines end at "\n" only
    # (text mode would also break them at "\r"), so each line's size in
    # bytes is known.
    with open(path, encoding="utf-8", errors="surrogateescape", newline="\n") as fh:
        for chunk in fh:
            for line in _split_at_cr(chunk) if "\r" in chunk else (chunk,):
                line_no += 1
                start = offset
                text = line.rstrip("\r\n")
                try:
                    offset += len(line) if line.isascii() else len(line.encode("utf-8"))
                except UnicodeEncodeError:
                    offset += len(line.encode("utf-8", "surrogateescape"))
                    reason = "not UTF-8"
                else:
                    stripped = text.strip()
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
                            size = offset - start - (len(line) - len(text))  # without the break
                            yield line_no, obj, (start, size) if spans else text
                            continue
                if skip is None:
                    raise ValueError(f"{path}:{line_no}: {reason}")
                skip(line_no, reason)


def _split_at_cr(line: str) -> list:
    """`line` split after each "\\r" as text mode splits it, keeping the breaks."""
    raw = line.encode("utf-8", "surrogateescape")
    return [piece.decode("utf-8", "surrogateescape") for piece in raw.splitlines(True)]


def line_at(fh, span: tuple[int, int]) -> str:
    """The line that `read_jsonl(..., spans=True)` gave `span` for, read
    back with one read from `fh`, the same file open in binary mode."""
    offset, length = span
    return os.pread(fh.fileno(), length, offset).decode("utf-8")


def row_at(fh, span: tuple[int, int]) -> dict:
    """The object of the line at `span` (see `line_at`), decoded again."""
    return json.loads(line_at(fh, span).strip())


def unique_ids(path: str | Path, rows: Iterable[tuple[int, object, object]], index: dict | None = None):
    """Yield each `(line_no, id, value)` row read from `path` in turn, the
    id as `str(id)`, after checking that no earlier row had it. An id that
    repeats, also as another JSON type (5 and "5"), raises
    `ValueError("<path>:<line_no>: duplicate id '5' (first at line 1)")`.
    Each row's value is kept as `index[id]`; only the ids are kept when
    `index` is not given.
    """
    seen = {} if index is None else index
    # The line of each id, in the order of `seen`, packed eight bytes a
    # line: only an error reads it, and a dict of ints would cost about 80
    # bytes a row, enough to raise a stage's peak RSS.
    lines = bytearray()
    for line_no, rid, value in rows:
        key = str(rid)
        if key in seen:
            at = 8 * list(seen).index(key)
            first = int.from_bytes(lines[at:at + 8], "little")
            raise ValueError(f"{path}:{line_no}: duplicate id {key!r} (first at line {first})")
        seen[key] = None if index is None else value
        lines += line_no.to_bytes(8, "little")
        yield line_no, key, value


def index_by_id(path: str | Path, rows: Iterable[tuple[int, object, object]]) -> dict:
    """Map `str(id)` to `value` for the `(line_no, id, value)` rows read
    from `path`, for a join on id; a repeated id raises as `unique_ids`
    says, rather than replacing the earlier row."""
    index: dict = {}
    for _ in unique_ids(path, rows, index):
        pass
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
    # The line decoded as UTF-8, so only a "\\u" escape can yield a string
    # that does not encode back; callers test for one first.
    try:
        json.dumps(obj, ensure_ascii=False).encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


_staged = None  # (temp, target) of each file written inside `outputs_together`
_temps = itertools.count()  # two outputs of one stage may name one path


@contextmanager
def outputs_together():
    """A block inside which each file `open_output` writes replaces its
    path only when the whole block ends without raising; when it raises,
    every one is removed. A stage with several outputs thus writes all of
    them or none, also when one output is its own input.
    """
    global _staged
    _staged = staged = []
    try:
        yield
        while staged:
            os.replace(*staged[0])
            del staged[0]
    finally:
        _staged = None
        for temp, _ in staged:  # the block raised, or a rename did
            os.unlink(temp)


@contextmanager
def open_output(path: str | Path):
    """A text file to write `path` through: a temporary file beside it that
    replaces `path` when the block ends, or, inside `outputs_together`,
    when that block ends; it is removed when either block raises. A stage
    that fails part-way thus leaves no output, an existing output keeps
    its bytes, and a stage may write the file it reads. A path that names
    something other than a regular file (a FIFO, /dev/stdout) is written
    in place.
    """
    try:
        regular = stat.S_ISREG(os.stat(path).st_mode)
    except FileNotFoundError:
        regular = bool(os.fspath(path))  # "" names no file: open() says so
    if not regular:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
        return
    target = os.path.realpath(path)  # replace a symlink's target, not the link
    head, tail = os.path.split(target)
    temp = os.path.join(head, f".{tail}.{os.getpid()}.{next(_temps)}.tmp")
    try:
        fh = open(temp, "w", encoding="utf-8")
    except OSError as exc:
        raise type(exc)(exc.errno, exc.strerror, os.fspath(path)) from None
    try:
        with fh:
            yield fh
    except BaseException:
        os.unlink(temp)
        raise
    if _staged is None:
        os.replace(temp, target)
    else:
        _staged.append((temp, target))


def write_jsonl(
    path: str | Path | None, rows: Iterable[dict | str], meta: dict | None = None
) -> int:
    """Write the `{"_meta": meta}` header (when `meta` is given), then one
    line per row, to `path` through `open_output` or, when it is None, to
    standard output. `rows` may be a generator that does a stage's work:
    rows are drawn `_BATCH` at a time, each batch written before the next
    is drawn, so memory holds one batch.

    A dict row is encoded with `json.dumps(row, ensure_ascii=False)`; a
    str row is a line already in JSON, written as is. Returns the number
    of rows written.
    """
    count = 0
    target = open_output(path) if path is not None else nullcontext(sys.stdout)
    with target as fh:
        if meta is not None:
            fh.write(_ENCODE({_META: meta}) + "\n")
        # A stage's work and the encoding each run for a batch at a time:
        # `pairs` took about 10% less CPU than when they took turns every row.
        rows = iter(rows)
        while batch := list(itertools.islice(rows, _BATCH)):
            for row in batch:
                fh.write((row if isinstance(row, str) else _ENCODE(row)) + "\n")
            count += len(batch)
    return count
