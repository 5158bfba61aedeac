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
    issues = [
        QualityIssue(IssueKind.INVALID_FORMAT, None, w.message)
        for w in parse_warnings
        if w.category == "demoted"
    ]
    for idx, seg in enumerate(record.doc.segments):
        found = _segment_issue(seg)
        if found is not None:
            issues.append(QualityIssue(found[0], idx, found[1]))

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


def _segment_issue(seg: Text | Statement | Edit) -> tuple[IssueKind, str] | None:
    """The kind and detail of a segment's first issue, or None: a segment
    carries at most one issue, which `fix` relies on."""
    if isinstance(seg, Text):
        if contains_tag_token(seg.content):
            return IssueKind.INVALID_FORMAT, "tag tokens embedded in plain text"
        return None
    if isinstance(seg, Statement):
        if not seg.content.strip():
            return IssueKind.INVALID_FORMAT, "empty statement tag"
        if contains_tag_token(seg.content):
            return IssueKind.INVALID_FORMAT, "tag tokens inside statement content"
        return None
    original, error = seg.original_text.strip(), seg.error_text.strip()
    if not original or not error:
        return IssueKind.INVALID_FORMAT, "empty delete/mark span"
    if contains_tag_token(seg.original_text) or contains_tag_token(seg.error_text):
        return IssueKind.INVALID_FORMAT, "tag tokens inside edit spans"
    if original == error:
        # Identical spans carry no type signal; skip classification.
        return IssueKind.IDENTICAL_TEXT, f"marked and deleted spans are both {original!r}"
    guessed, confidence = classify_span_type(seg.original_text, seg.error_text)
    if guessed is not seg.kind and confidence >= CONFIDENCE_THRESHOLD:
        return IssueKind.INCORRECT_TYPE, f"tag says {seg.kind.value}, spans look {guessed.value}"
    return None


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

    # Every issue left is fixable, and names its segment.
    segments = list(record.doc.segments)
    for issue in issues:
        seg = segments[issue.segment_index]
        if issue.kind is IssueKind.IDENTICAL_TEXT:
            segments[issue.segment_index] = Text(seg.original_text)
        else:
            guessed, _ = classify_span_type(seg.original_text, seg.error_text)
            segments[issue.segment_index] = seg._replace(kind=guessed)

    fixed = record._replace(doc=TaggedDocument(tuple(segments), record.doc.form))
    residue = check(fixed)
    if residue:  # repairs must converge; bail out rather than loop
        return FixOutcome(None, (), tuple(residue), issues)
    return FixOutcome(fixed, issues, (), issues)


class QualityTally:
    """Issue counts per provenance, in the shape of a fixable/unfixable
    error-insertion audit table."""

    _COLUMNS = tuple(IssueKind)
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
            unfixable = sum(bucket[kind] for kind in self._COLUMNS if kind not in _FIXABLE)
            cells = [bucket[kind] for kind in self._COLUMNS] + [unfixable]
            lines.append(prov.ljust(width) + "  ".join(str(c).rjust(9) for c in cells))
        return "\n".join(lines)
