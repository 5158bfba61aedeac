"""Corpus pipeline: ingest financial QA records, filter for grounded
responses, emit training pairs, and report error-type distributions.

Insertion is `insertion`'s, which `cli` calls between ingest and the
gate; the train/validation split is `partition.split`, re-exported here
as `corpus.split`.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

from . import Tally
from .jsonl import read_jsonl, rereadable, row_at, unique_ids, write_jsonl
from .markup import derive_erroneous, label_of, serialize, to_target_output
from .partition import split  # noqa: F401  (corpus.split stays importable)
from .patterns import numbers_within
from .prompts import build_detection_prompt
from .records import TaggedRecord
from .taxonomy import KINDS

__all__ = [
    "QARecord", "IngestStats", "TrainingPair", "DistributionReport",
    "SourceDistribution", "ingest", "join_qa", "qa_at", "filter_grounded",
    "split", "emit_training_pair", "distribution_report", "write_pairs",
]


class QARecord(NamedTuple):
    """One retrieval-augmented QA example: evidence, question, response."""

    id: str
    documents: tuple
    question: str
    response: str
    source: str = ""

    @property
    def reference(self) -> str:
        """Evidence strings joined with blank lines, table rows as given."""
        return "\n\n".join(self.documents)


class IngestStats(Tally):
    """Lines kept and skipped, and the reasons for the first five skips,
    which `insert` prints."""

    __slots__ = ("kept", "skipped", "reasons")

    def __init__(self, kept: int = 0, skipped: int = 0, reasons: list | None = None) -> None:
        self.kept, self.skipped = kept, skipped
        self.reasons = [] if reasons is None else reasons

    @property
    def read(self) -> int:
        """Data lines read: every one is either kept or skipped."""
        return self.kept + self.skipped

    def skip(self, line_no: int, reason: str) -> None:
        self.skipped += 1
        if len(self.reasons) < 5:
            self.reasons.append(f"line {line_no}: {reason}")


_QA_FIELDS = {"id": (str, int), "documents": (str, list), "question": object, "response": str}


def _qa_record(obj: dict, source_label: str) -> QARecord:
    documents = obj["documents"]
    documents = (documents,) if isinstance(documents, str) else tuple(documents)
    return QARecord(str(obj["id"]), documents, str(obj["question"]), obj["response"], source_label)


def ingest(
    path: str | Path,
    source_label: str = "",
    stats: IngestStats | None = None,
    seen: dict | None = None,
) -> Iterator[tuple[int, tuple[int, int], QARecord]]:
    """Yield `(line_no, span, qa)` for each valid QA record of a JSONL
    file, in file order: its line, its `(offset, length)` in bytes, which
    `qa_at` reads back, and the record.

    Malformed lines (not UTF-8, bad JSON, not an object, a missing or
    wrong-typed field, empty response, no documents) are skipped and
    counted in `stats`. A repeated id raises `ValueError` naming both
    lines; the ids are kept in `seen`, which the caller may give to set a
    value per id (see `unique_ids`).
    """
    stats = stats if stats is not None else IngestStats()
    rows = read_jsonl(path, skip=stats.skip, fields=_QA_FIELDS)
    for line_no, _, (span, qa) in unique_ids(path, _valid_qa(rows, source_label, stats), seen):
        yield line_no, span, qa


def _valid_qa(rows, source_label: str, stats: IngestStats):
    """`(line_no, id, (span, qa))` for each row that makes a valid record."""
    for line_no, obj, span in rows:
        qa = _qa_record(obj, source_label)
        if not qa.documents or not all(isinstance(d, str) for d in qa.documents):
            stats.skip(line_no, "documents must be a nonempty list of strings")
        elif not qa.response.strip():
            stats.skip(line_no, "response must be a nonempty string")
        else:
            stats.kept += 1
            yield line_no, qa.id, (span, qa)


def join_qa(
    path: str | Path,
    keyed: Iterable[tuple[str, object]],
    source_label: str = "",
    stats: IngestStats | None = None,
) -> Iterator[tuple[object, QARecord | None]]:
    """Yield `(item, qa)` for each `(id, item)` of `keyed`, where `qa` is
    the valid QA record of `path` with that id, or None. `path` (a pipe
    through its copy, see `rereadable`) is read once up front, its
    malformed lines counted in `stats`, for the byte span of each valid
    record, so a repeated QA id raises `ValueError` naming both lines
    before any item is joined; each record joined is then read again at
    its span (`qa_at`)."""
    spans: dict = {}
    with rereadable(path) as path, open(path, "rb") as fh:
        for _, span, qa in ingest(path, source_label, stats, spans):
            spans[qa.id] = span  # the id check's own dict, so ids are kept once
        for key, item in keyed:
            span = spans.get(key)
            yield item, None if span is None else qa_at(fh, span, source_label)


def qa_at(fh, span: tuple[int, int], source_label: str = "") -> QARecord:
    """The QA record `ingest` gave `span` for, read from the QA file open
    in binary mode as `fh`."""
    return _qa_record(row_at(fh, span), source_label)


def filter_grounded(record: QARecord) -> bool:
    """Retain a record iff its response is grounded in its documents:
    every number and year token in the response appears (normalized) in
    the concatenated documents."""
    return numbers_within(record.response, record.reference)


class TrainingPair(NamedTuple):
    """Aligned input/output: structured prompt and tagged target output."""

    id: str
    prompt: str
    target: str
    meta: dict


def emit_training_pair(record: TaggedRecord, qa: QARecord) -> TrainingPair:
    """Build the training pair for a gate-passing record: the prompt embeds
    the reference and the erroneous rendering; the target is the
    target-output serialization (tag-free passages pass through as-is)."""
    erroneous, _ = derive_erroneous(record.doc)
    prompt = build_detection_prompt(erroneous, qa.reference)
    target = serialize(to_target_output(record.doc))
    kinds = [label_of(k) for k in record.doc.kinds()]
    return TrainingPair(
        id=record.id,
        prompt=prompt,
        target=target,
        meta={"kinds": kinds, "source": qa.source},
    )


def write_pairs(path: str | Path, pairs: Iterable[TrainingPair], meta: dict | None = None) -> int:
    return write_jsonl(
        path,
        ({"id": p.id, "prompt": p.prompt, "target": p.target, "meta": p.meta} for p in pairs),
        meta,
    )


class SourceDistribution(NamedTuple):
    passages: int
    tags: int
    hallucinated_pct: float
    non_hallucinated_pct: float
    kind_pct: dict


class DistributionReport(NamedTuple):
    sources: dict
    total: SourceDistribution

    def to_json(self) -> dict:
        def row(d: SourceDistribution) -> dict:
            return {
                "passages": d.passages,
                "tags": d.tags,
                "hallucinated_pct": round(d.hallucinated_pct, 1),
                "non_hallucinated_pct": round(d.non_hallucinated_pct, 1),
                "kind_pct": {k: round(v, 1) for k, v in d.kind_pct.items()},
            }

        return {
            "sources": {label: row(d) for label, d in sorted(self.sources.items())},
            "total": row(self.total),
        }

    def format_table(self) -> str:
        labels = sorted(self.sources)
        columns = labels + ["Total"]
        dists = [self.sources[label] for label in labels] + [self.total]
        width = max(24, max((len(c) for c in columns), default=5) + 2)
        lines = ["Type".ljust(width) + "".join(c.rjust(12) for c in columns)]

        def emit(name: str, values: list) -> None:
            lines.append(name.ljust(width) + "".join(f"{v:11.1f}%" for v in values))

        emit("Hallucinated", [d.hallucinated_pct for d in dists])
        emit("Non-hallucinated", [d.non_hallucinated_pct for d in dists])
        for row in KINDS:
            label = row.kind.value
            title = f"{label.title()} {'Errors' if row.editable else 'Statements'}"
            emit(title, [d.kind_pct.get(label, 0.0) for d in dists])
        return "\n".join(lines)


def _distribution(passages: int, tagged: int, kind_counts: dict) -> SourceDistribution:
    tags = sum(kind_counts.values())
    return SourceDistribution(
        passages=passages,
        tags=tags,
        hallucinated_pct=100.0 * tagged / passages if passages else 0.0,
        non_hallucinated_pct=100.0 * (passages - tagged) / passages if passages else 0.0,
        kind_pct={k: 100.0 * v / tags for k, v in kind_counts.items()} if tags else {},
    )


def distribution_report(
    records: Iterable[TaggedRecord], source_of: dict | None = None
) -> DistributionReport:
    """Passage-level hallucinated share and tag-level kind shares, per
    source and in total, counted in one pass over `records`."""
    source_of = source_of or {}
    # Per source, then in total: [passages, tagged passages, tags per kind].
    counts: dict[str, list] = {}
    total = [0, 0, {}]
    for r in records:
        label = source_of.get(r.id, "all")
        row = counts.get(label) or counts.setdefault(label, [0, 0, {}])
        tagged = r.doc.has_tags
        kinds = [label_of(kind) for kind in r.doc.kinds()]
        for tally in (row, total):
            tally[0] += 1
            tally[1] += tagged
            for kind in kinds:
                tally[2][kind] = tally[2].get(kind, 0) + 1
    return DistributionReport(
        sources={label: _distribution(*row) for label, row in counts.items()},
        total=_distribution(*total),
    )
