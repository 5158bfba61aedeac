"""The JSONL envelope every stage reads and writes: one JSON object per
line, blank lines ignored, and an optional `{"_meta": {...}}` header line
that carries the writing command's config and is skipped on reading.

Stages stream: the reader decodes one line at a time and gives each row's
byte span, so a stage keeps only small per-row indexes and reads a row
again by its span; the writer writes into a sibling temporary file that
replaces the output only once every row is written. A stage that reads an
input twice takes it through `rereadable`, so the input may also be a FIFO
or /dev/stdin: such an input is copied once to a temporary file.
"""

from __future__ import annotations

import itertools
import json
import os
import stat
import sys
from contextlib import contextmanager, nullcontext
from functools import partial
from pathlib import Path
from typing import Callable, Iterable, Iterator

_META = "_meta"
# `json.dumps(row, ensure_ascii=False)` without building an encoder a row.
_ENCODE = json.JSONEncoder(ensure_ascii=False).encode
_BATCH = 64  # items in each list `batches` yields


def read_jsonl(
    path: str | Path,
    skip: Callable[[int, str], None] | None = None,
    fields: dict | None = None,
) -> Iterator[tuple[int, dict, tuple[int, int]]]:
    """Yield `(line_no, obj, span)` for each data line of a JSONL file.

    `line_no` counts from 1 over every line, blank ones included, with
    lines broken at "\\n", "\\r" and "\\r\\n"; `span` is the line's
    `(offset, length)` in bytes, without its line break, which `line_at`
    reads back. Blank lines and `_meta` header lines are skipped. A line
    that is not UTF-8, not valid JSON, not a JSON object, or holds a string
    UTF-8 cannot encode (a lone-surrogate escape such as "\\ud800") raises
    `ValueError("<path>:<line_no>: <reason>")`, or, when `skip` is given,
    is passed to `skip(line_no, reason)` and reading goes on. A string no
    writer can encode is thus rejected where it is read, not halfway
    through writing an output. So is a row that breaks `fields`, its record
    type's field table, which maps each field name to a type or tuple of
    types (`object` takes any value; a field that takes `NoneType` may be
    absent).
    """
    line_no = offset = 0
    # Read as bytes, broken at "\n" and also at "\r" as text mode breaks
    # them, so a line's span is the bytes read and its text those decoded.
    # A 64 KiB buffer: with the default 8 KiB, iterating the lines of a
    # training-pair file (a few KiB each) took three times as long.
    with open(path, "rb", buffering=1 << 16) as fh:
        for chunk in fh:
            for line in chunk.splitlines(True) if b"\r" in chunk else (chunk,):
                line_no += 1
                start, offset = offset, offset + len(line)
                line = line.rstrip(b"\r\n")
                try:
                    text = line.decode("utf-8")
                except UnicodeDecodeError:
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
                            yield line_no, obj, (start, len(line))
                            continue
                if skip is None:
                    raise ValueError(f"{path}:{line_no}: {reason}")
                skip(line_no, reason)


@contextmanager
def rereadable(path: str | Path):
    """`path` itself when it names a regular file; otherwise (a FIFO,
    /dev/stdin) a copy of its bytes in a temporary file, removed when the
    block ends, so that a stage can read its input twice. The copy's `str`
    is `path`, so messages name the input as given."""
    if stat.S_ISREG(os.stat(path).st_mode):
        yield path
        return
    import shutil
    import tempfile

    with open(path, "rb") as fh, tempfile.NamedTemporaryFile(prefix="fintag-") as copy:
        shutil.copyfileobj(fh, copy, 1 << 16)
        copy.flush()
        yield _Copy(copy.name, path)


class _Copy(os.PathLike):
    def __init__(self, copy: str, given) -> None:
        self.copy, self.given = copy, given

    def __fspath__(self) -> str:
        return self.copy

    def __str__(self) -> str:
        return str(self.given)


def line_at(fh, span: tuple[int, int]) -> str:
    """The line that `read_jsonl` gave `span` for, read back with one read
    from `fh`, the same file open in binary mode."""
    offset, length = span
    return os.pread(fh.fileno(), length, offset).decode("utf-8")


def row_at(fh, span: tuple[int, int]) -> dict:
    """The object of the line at `span` (see `line_at`), decoded again."""
    return json.loads(line_at(fh, span).strip())


def unique_ids(path: str | Path, rows: Iterable[tuple[int, object, object]], seen: dict | None = None):
    """Yield each `(line_no, id, value)` row read from `path` in turn, the
    id as `str(id)`, after checking that no earlier row had it. An id that
    repeats, also as another JSON type (5 and "5"), raises
    `ValueError("<path>:<line_no>: duplicate id '5' (first at line 1)")`.
    The ids are kept as the keys of `seen`, in file order, each with the
    value None until the caller sets one; so one dict serves as both the
    check and a join index on id.
    """
    seen = {} if seen is None else seen
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
        seen[key] = None
        lines += line_no.to_bytes(8, "little")
        yield line_no, key, value


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


_staged = None  # (commit, discard) of each output written inside `outputs_together`
_temps = itertools.count()  # two outputs of one stage may name one path


@contextmanager
def outputs_together():
    """A block inside which each file `open_output` writes replaces its
    path only when the whole block ends without raising; when it raises,
    every one is removed. What it writes to standard output is held in an
    unnamed temporary file and copied out only then, too. A stage with
    several outputs thus writes all of them or none, also when one output
    is its own input.
    """
    global _staged
    _staged = staged = []
    try:
        yield
        while staged:
            staged[0][0]()
            del staged[0]
    finally:
        _staged = None
        for _, discard in staged:  # the block raised, or a commit did
            discard()


@contextmanager
def open_output(path: str | Path):
    """A text file to write `path` through, committed when the block ends,
    or, inside `outputs_together`, when that block ends; when either block
    raises, it is discarded. A stage that fails part-way thus leaves no
    output, an existing output keeps its bytes, and a stage may write the
    file it reads. A regular file is written into a temporary file beside
    it, which replaces it on commit. Standard output (when `path` is None)
    and a path that names something other than a regular file (a FIFO,
    /dev/stdout) cannot be replaced: the block gets an unnamed temporary
    file, whose UTF-8 bytes are copied to them on commit.
    """
    regular = False
    if path is not None:
        try:
            regular = stat.S_ISREG(os.stat(path).st_mode)
        except FileNotFoundError:
            regular = bool(os.fspath(path))  # "" names no file: open() says so
    if regular:
        target = os.path.realpath(path)  # replace a symlink's target, not the link
        head, tail = os.path.split(target)
        temp = os.path.join(head, f".{tail}.{os.getpid()}.{next(_temps)}.tmp")
        try:
            fh = open(temp, "w", encoding="utf-8")
        except OSError as exc:
            raise type(exc)(exc.errno, exc.strerror, os.fspath(path)) from None
        commit, discard = partial(os.replace, temp, target), partial(os.unlink, temp)
    else:
        import tempfile

        # Opened now: a path that cannot be opened fails before the work.
        out = None if path is None else open(path, "wb")
        # No newline translation, so the copy gives the bytes a direct write would.
        fh = tempfile.TemporaryFile("w+", encoding="utf-8", newline="")
        commit, discard = partial(_copy_out, fh, out), partial(_close, fh, out)
    try:
        with fh if regular else nullcontext():  # the held copy stays open for its commit
            yield fh
        if _staged is None:
            commit()
        else:
            _staged.append((commit, discard))
    except BaseException:
        discard()
        raise


def _copy_out(fh, out=None) -> None:
    """Copy `fh`, a held output, to `out`, the binary file it is held for,
    or else to standard output: its UTF-8 bytes, as every output file holds
    them, whatever the locale's encoding. A standard output with no binary
    buffer gets the text."""
    import shutil

    fh.seek(0)
    sys.stdout.flush()  # what was printed before goes first
    binary = out or getattr(sys.stdout, "buffer", None)
    if binary is None:
        shutil.copyfileobj(fh, sys.stdout, 1 << 16)
    else:
        shutil.copyfileobj(fh.buffer, binary, 1 << 16)
    _close(fh, out)


def _close(*files) -> None:
    for fh in files:
        if fh is not None:
            fh.close()


def batches(items: Iterable) -> Iterator[list]:
    """Lists of `_BATCH` consecutive items of `items`, the last maybe
    shorter. A stage whose steps each run for a batch at a time, rather
    than taking turns every row, takes less CPU: `pairs` about 10% less
    (its work, then the encoding), `eval-detect` and `eval-edit` 6–8%
    (reading, then scoring, then writing). A caller that drops its batch,
    and the batch's last item, before it asks for the next holds one batch
    at a time."""
    items = iter(items)
    while batch := list(itertools.islice(items, _BATCH)):
        yield batch
        del batch


@contextmanager
def jsonl_output(path: str | Path | None, meta: dict | None = None):
    """A JSONL file written through `open_output(path)`: the
    `{"_meta": meta}` header (when `meta` is given), then one line for each
    row passed to the function the block gets. A dict row is encoded with
    `json.dumps(row, ensure_ascii=False)`; a str row is a line already in
    JSON, written as is."""
    with open_output(path) as fh:
        if meta is not None:
            fh.write(_ENCODE({_META: meta}) + "\n")
        yield lambda row: fh.write((row if isinstance(row, str) else _ENCODE(row)) + "\n")


def write_jsonl(
    path: str | Path | None, rows: Iterable[dict | str], meta: dict | None = None
) -> int:
    """Write `rows` through `jsonl_output(path, meta)`. `rows` may be a
    generator that does a stage's work: rows are drawn a batch at a time
    (`batches`), each batch written before the next is drawn, so what
    memory holds does not grow with the rows. Returns the number of rows
    written.
    """
    count = 0
    with jsonl_output(path, meta) as write:
        for batch in batches(rows):
            for row in batch:
                write(row)
            count += len(batch)
            del batch, row  # before the next batch is drawn
    return count
