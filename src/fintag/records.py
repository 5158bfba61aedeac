"""The tagged record and its JSONL form; reading records loads no quality gate."""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

from .jsonl import read_jsonl, write_jsonl
from .markup import Form, TaggedDocument, parse, serialize


class TaggedRecord(NamedTuple):
    """One corrupted passage: the clean source plus its tagged document."""

    id: str
    original: str
    doc: TaggedDocument
    provenance: str = ""
    seed: int | None = None


def record_to_json(record: TaggedRecord) -> dict:
    if record.doc.form is not Form.TAGGED_PASSAGE:
        raise ValueError("records are stored in tagged-passage form")
    return {
        "id": record.id,
        "original": record.original,
        "tagged": serialize(record.doc),
        "provenance": record.provenance,
        "seed": record.seed,
    }


def write_records(path: str | Path, records: Iterable[TaggedRecord], meta: dict | None = None) -> int:
    """Write records as JSONL; returns the number written."""
    return write_jsonl(path, (record_to_json(r) for r in records), meta)


def read_records(path: str | Path) -> Iterator[tuple[TaggedRecord, tuple]]:
    """Yield (record, parse_warnings) pairs from a records JSONL file.

    The tagged text is re-parsed leniently so downstream checks see format
    defects.
    """
    fields = {"id": (str, int), "original": str, "tagged": str,
              "provenance": (str, type(None)), "seed": (int, type(None))}
    for _, obj, _ in read_jsonl(path, fields=fields):
        doc, warnings = parse(obj["tagged"], Form.TAGGED_PASSAGE)
        yield (
            TaggedRecord(
                id=str(obj["id"]),
                original=obj["original"],
                doc=doc,
                provenance=obj.get("provenance", ""),
                seed=obj.get("seed"),
            ),
            warnings,
        )
