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
    path: str | Path, skip: Callable[[int, str], None] | None = None
) -> Iterator[tuple[int, dict, str]]:
    """Yield `(line_no, obj, text)` for each data line of a JSONL file.

    `line_no` counts from 1 over every line, blank ones included; `text`
    is the line as read, without its line break. Blank lines and `_meta`
    header lines are skipped. A line that is not valid JSON or not a JSON
    object raises `ValueError("<path>:<line_no>: <reason>")`, or, when
    `skip` is given, is passed to `skip(line_no, reason)` and reading goes
    on.
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
                if isinstance(obj, dict):
                    if _META not in obj:
                        yield line_no, obj, line.rstrip("\n")
                    continue
                reason = "not a JSON object"
            if skip is None:
                raise ValueError(f"{path}:{line_no}: {reason}")
            skip(line_no, reason)


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
