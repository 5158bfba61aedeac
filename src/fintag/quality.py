"""Quality gate for tagged records: detect the four defect classes, repair
the two fixable ones, discard the rest.

Defect classes:

* IncorrectType -- an editable tag whose label disagrees with what its
  spans look like (fixable: relabel when the classifier is confident);
* IdenticalText -- delete and mark hold the same span (fixable: unwrap the
  tag into plain text, the edit was a no-op);
* InvalidFormat -- the markup violates the grammar (parse demotions, tag
  tokens trapped inside contents, empty spans); unfixable;
* InconsistentContent -- reconstructing the original from the tagged text
  does not reproduce the source passage; unfixable.
"""

from __future__ import annotations

from collections import Counter
from enum import Enum
from typing import Iterable, NamedTuple

from .markup import (
    Edit,
    ParseWarning,
    Statement,
    TaggedDocument,
    Text,
    contains_tag_token,
    derive_original,
)
from .patterns import ANTONYMS, is_numeric_span, is_temporal_span, squash_ws
# The benchmark's tracer wraps `quality.read_records`/`write_records` by
# name and its checks import them from here.
from .records import TaggedRecord, read_records, write_records  # noqa: F401
from .taxonomy import ErrorType

# An IncorrectType finding is acted on only at or above this confidence;
# the rule cascade returns 0.95 for shape matches, 0.5 for the fallback.
CONFIDENCE_THRESHOLD = 0.9


class IssueKind(Enum):
    INCORRECT_TYPE = "incorrect_type"
    IDENTICAL_TEXT = "identical_text"
    INVALID_FORMAT = "invalid_format"
    INCONSISTENT_CONTENT = "inconsistent_content"


_FIXABLE = frozenset({IssueKind.INCORRECT_TYPE, IssueKind.IDENTICAL_TEXT})


class QualityIssue(NamedTuple):
    kind: IssueKind
    segment_index: int | None
    detail: str

    @property
    def fixable(self) -> bool:
        return self.kind in _FIXABLE


class FixOutcome(NamedTuple):
    """Result of `fix`: a repaired record, or the reasons it was discarded.

    `issues` holds everything `check` found on the input, fixable or not,
    whether the record was kept or discarded.
    """

    record: TaggedRecord | None
    applied: tuple
    reasons: tuple
    issues: tuple = ()

    @property
    def fixed(self) -> bool:
        return self.record is not None


def classify_span_type(original_text: str, error_text: str) -> tuple[ErrorType, float]:
    """Best-guess error kind for an edited span pair, with confidence.

    Rule cascade: both spans date/quarter/fiscal-year shaped -> Temporal;
    both number/currency/percent shaped -> Numerical; an antonym pair from
    the relation lexicon -> Relation; otherwise Entity at low confidence.
    """
    a, b = original_text.strip(), error_text.strip()
    if is_temporal_span(a) and is_temporal_span(b):
        return ErrorType.TEMPORAL, 0.95
    if is_numeric_span(a) and is_numeric_span(b):
        return ErrorType.NUMERICAL, 0.95
    if ANTONYMS.get(a.lower()) == b.lower():
        return ErrorType.RELATION, 0.95
    return ErrorType.ENTITY, 0.5


def check(record: TaggedRecord, parse_warnings: Iterable[ParseWarning] = ()) -> list[QualityIssue]:
    """All quality issues for a record; an empty list means it passes.

    Demotion warnings from a lenient parse should be passed through so they
    surface as InvalidFormat; a structural scan additionally catches tag
    tokens trapped in contents even when warnings are unavailable.
    """
    issues: list[QualityIssue] = []
    for w in parse_warnings:
        if w.category == "demoted":
            issues.append(QualityIssue(IssueKind.INVALID_FORMAT, None, w.message))

    for idx, seg in enumerate(record.doc.segments):
        if isinstance(seg, Text):
            if contains_tag_token(seg.content):
                issues.append(
                    QualityIssue(
                        IssueKind.INVALID_FORMAT, idx, "tag tokens embedded in plain text"
                    )
                )
        elif isinstance(seg, Statement):
            if not seg.content.strip():
                issues.append(
                    QualityIssue(IssueKind.INVALID_FORMAT, idx, "empty statement tag")
                )
            elif contains_tag_token(seg.content):
                issues.append(
                    QualityIssue(
                        IssueKind.INVALID_FORMAT, idx, "tag tokens inside statement content"
                    )
                )
        else:
            issues.extend(_check_edit(idx, seg))

    # Reconstruction is only meaningful for structurally valid markup.
    if not any(i.kind is IssueKind.INVALID_FORMAT for i in issues):
        derived = derive_original(record.doc)
        if derived != record.original and squash_ws(derived) != squash_ws(record.original):
            issues.append(
                QualityIssue(
                    IssueKind.INCONSISTENT_CONTENT,
                    None,
                    "original passage is not recoverable from the tagged text",
                )
            )
    return issues


def _check_edit(idx: int, seg: Edit) -> list[QualityIssue]:
    issues: list[QualityIssue] = []
    if not seg.original_text.strip() or not seg.error_text.strip():
        issues.append(
            QualityIssue(IssueKind.INVALID_FORMAT, idx, "empty delete/mark span")
        )
        return issues
    if contains_tag_token(seg.original_text) or contains_tag_token(seg.error_text):
        issues.append(
            QualityIssue(IssueKind.INVALID_FORMAT, idx, "tag tokens inside edit spans")
        )
        return issues
    if seg.original_text.strip() == seg.error_text.strip():
        # Identical spans carry no type signal; skip classification.
        issues.append(
            QualityIssue(
                IssueKind.IDENTICAL_TEXT,
                idx,
                f"marked and deleted spans are both {seg.original_text.strip()!r}",
            )
        )
        return issues
    guessed, confidence = classify_span_type(seg.original_text, seg.error_text)
    if guessed is not seg.kind and confidence >= CONFIDENCE_THRESHOLD:
        issues.append(
            QualityIssue(
                IssueKind.INCORRECT_TYPE,
                idx,
                f"tag says {seg.kind.value}, spans look {guessed.value}",
            )
        )
    return issues


def fix(
    record: TaggedRecord, parse_warnings: Iterable[ParseWarning] = ()
) -> FixOutcome:
    """Repair fixable issues or discard the record.

    Total function: a discard is a value, not an error. Fixed records
    re-pass `check` with zero issues.
    """
    issues = tuple(check(record, parse_warnings))
    unfixable = tuple(i for i in issues if not i.fixable)
    if unfixable:
        return FixOutcome(None, (), unfixable, issues)
    if not issues:
        return FixOutcome(record, (), ())

    by_index: dict[int, QualityIssue] = {}
    for issue in issues:
        if issue.segment_index is not None:
            # IdenticalText wins over IncorrectType on the same segment.
            prior = by_index.get(issue.segment_index)
            if prior is None or issue.kind is IssueKind.IDENTICAL_TEXT:
                by_index[issue.segment_index] = issue

    new_segments: list = []
    for idx, seg in enumerate(record.doc.segments):
        issue = by_index.get(idx)
        if issue is None:
            new_segments.append(seg)
        elif issue.kind is IssueKind.IDENTICAL_TEXT:
            new_segments.append(Text(seg.original_text))
        else:
            guessed, _ = classify_span_type(seg.original_text, seg.error_text)
            new_segments.append(seg._replace(kind=guessed))

    fixed = record._replace(doc=TaggedDocument(tuple(new_segments), record.doc.form))
    residue = check(fixed)
    if residue:  # repairs must converge; bail out rather than loop
        return FixOutcome(None, (), tuple(residue), issues)
    return FixOutcome(fixed, issues, (), issues)


class QualityTally:
    """Issue counts per provenance, in the shape of a fixable/unfixable
    error-insertion audit table."""

    _COLUMNS = (
        IssueKind.INCORRECT_TYPE,
        IssueKind.IDENTICAL_TEXT,
        IssueKind.INVALID_FORMAT,
        IssueKind.INCONSISTENT_CONTENT,
    )
    _HEADERS = ("Inc. Typ.", "Ide. Tex.", "Inv. For.", "Inc. Con.", "Tot. Unf.")

    def __init__(self) -> None:
        self.counts: dict[str, Counter] = {}
        self.records: Counter = Counter()
        self.discarded: Counter = Counter()

    def add(self, provenance: str, issues: Iterable[QualityIssue], discarded: bool) -> None:
        bucket = self.counts.setdefault(provenance, Counter())
        for issue in issues:
            bucket[issue.kind] += 1
        self.records[provenance] += 1
        if discarded:
            self.discarded[provenance] += 1

    def to_json(self) -> dict:
        return {
            prov: {
                "records": self.records[prov],
                "discarded": self.discarded[prov],
                **{kind.value: bucket.get(kind, 0) for kind in self._COLUMNS},
            }
            for prov, bucket in sorted(self.counts.items())
        }

    def format_table(self) -> str:
        width = max([len("Model")] + [len(p) for p in self.counts]) + 2
        lines = ["Model".ljust(width) + "  ".join(h.rjust(9) for h in self._HEADERS)]
        for prov in sorted(self.counts):
            bucket = self.counts[prov]
            unfixable = bucket.get(IssueKind.INVALID_FORMAT, 0) + bucket.get(
                IssueKind.INCONSISTENT_CONTENT, 0
            )
            cells = [bucket.get(kind, 0) for kind in self._COLUMNS] + [unfixable]
            lines.append(prov.ljust(width) + "  ".join(str(c).rjust(9) for c in cells))
        return "\n".join(lines)
