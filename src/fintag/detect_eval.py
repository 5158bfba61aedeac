"""Span-level detection scoring: align predicted tags against gold tags and
compute per-kind, overall (micro) and passage-level binary precision,
recall and F1.

Alignment works on character offsets into the erroneous rendering, with
greedy one-to-one matching: exact span-and-type matches first, then by
overlap length descending, then leftmost. A pair with mismatched kinds
counts as a false positive for the predicted kind and a false negative for
the gold kind, keeping per-kind columns independent.
"""

from __future__ import annotations

from collections import defaultdict
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

from . import Tally
from .jsonl import batches, read_jsonl, row_at, unique_ids
from .markup import (
    Form,
    ParseResult,
    TaggedDocument,
    TagSpan,
    Text,
    check_labels,
    derive_erroneous,
    label_of,
    parse,
)
from .prompts import strip_reply_envelope
from .taxonomy import DEFAULT_LABELS


def parse_prediction(raw: str, labels: tuple = DEFAULT_LABELS) -> ParseResult:
    """Lenient parse of a raw model reply in target-output form, under the
    label set `labels` (see `parse`).

    Never fails: the worst case is an all-text document plus warnings.
    """
    return parse(strip_reply_envelope(raw), Form.TARGET_OUTPUT, labels=labels)


class MatchSet(NamedTuple):
    """One-to-one span alignment between a gold and a predicted document."""

    pairs: tuple  # (gold TagSpan, pred TagSpan, type_equal)
    unmatched_gold: tuple
    unmatched_pred: tuple


def align_spans(
    gold_spans: Sequence[TagSpan],
    pred_spans: Sequence[TagSpan],
    mode: str = "overlap",
) -> MatchSet:
    """Greedy one-to-one matching over candidate pairs with >=1 character
    overlap or identical spans, so that an empty span can match its twin
    (mode "exact" restricts candidates to identical spans)."""
    if mode not in ("overlap", "exact"):
        raise ValueError(f"unknown match mode {mode!r}")
    candidates = []
    for gi, g in enumerate(gold_spans):
        for pi, p in enumerate(pred_spans):
            overlap = min(g.end, p.end) - max(g.start, p.start)
            exact = g.start == p.start and g.end == p.end
            if not exact and (overlap <= 0 or mode == "exact"):
                continue
            exact_typed = exact and label_of(g.kind) == label_of(p.kind)
            # Tie-breaks use min/max so the ordering is invariant under
            # swapping gold and pred; that makes P and R swap exactly.
            key = (
                0 if exact_typed else 1,
                -overlap,
                min(g.start, p.start),
                max(g.start, p.start),
                min(gi, pi),
                max(gi, pi),
            )
            candidates.append((key, gi, pi))
    candidates.sort()
    used_g: set[int] = set()
    used_p: set[int] = set()
    pairs = []
    for _, gi, pi in candidates:
        if gi in used_g or pi in used_p:
            continue
        used_g.add(gi)
        used_p.add(pi)
        g, p = gold_spans[gi], pred_spans[pi]
        pairs.append((g, p, label_of(g.kind) == label_of(p.kind)))
    unmatched_gold = tuple(g for i, g in enumerate(gold_spans) if i not in used_g)
    unmatched_pred = tuple(p for i, p in enumerate(pred_spans) if i not in used_p)
    return MatchSet(tuple(pairs), unmatched_gold, unmatched_pred)


def _leading_space(doc: TaggedDocument) -> int:
    first = doc.segments[0] if doc.segments else None
    return len(first.content) - len(first.content.lstrip()) if isinstance(first, Text) else 0


def align(gold: TaggedDocument, pred: TaggedDocument, mode: str = "overlap") -> MatchSet:
    """Align two documents on their erroneous renderings.

    Offsets count from the end of the whitespace that leads each document
    outside its tags, since a reply is stripped of it before it is parsed
    and a gold passage is not. Renderings that differ are aligned all the
    same, each on its own offsets.
    """
    _, gold_spans = derive_erroneous(gold)
    _, pred_spans = derive_erroneous(pred)
    shift = _leading_space(gold) - _leading_space(pred)
    if shift:
        pred_spans = [TagSpan(p.kind, p.start + shift, p.end + shift, p.error_text, p.correction)
                      for p in pred_spans]
    return align_spans(gold_spans, pred_spans, mode)


def _rate(numer: int, denom: int) -> float:
    return 100.0 * numer / denom if denom else 0.0


def _f1(precision: float, recall: float) -> float:
    return 2 * precision * recall / (precision + recall) if precision + recall else 0.0


class KindCounts(Tally):
    __slots__ = ("tp", "fp", "fn")

    def __init__(self, tp: int = 0, fp: int = 0, fn: int = 0) -> None:
        self.tp, self.fp, self.fn = tp, fp, fn

    @property
    def precision(self) -> float:
        return _rate(self.tp, self.tp + self.fp)

    @property
    def recall(self) -> float:
        return _rate(self.tp, self.tp + self.fn)

    @property
    def f1(self) -> float:
        return _f1(self.precision, self.recall)


class BinaryCounts(KindCounts):
    __slots__ = ("tn",)

    def __init__(self, tp: int = 0, fp: int = 0, fn: int = 0, tn: int = 0) -> None:
        super().__init__(tp, fp, fn)
        self.tn = tn


class DetectionReport(Tally):
    """Detection counts under the label set `labels`, all zero at first."""

    __slots__ = ("per_kind", "binary", "unparseable", "labels")

    def __init__(self, labels: tuple = DEFAULT_LABELS) -> None:
        self.per_kind = defaultdict(KindCounts, {label: KindCounts() for label in labels})
        self.binary, self.unparseable, self.labels = BinaryCounts(), 0, labels

    @property
    def overall(self) -> KindCounts:
        """The micro aggregate: every `per_kind` column summed, a label
        outside `labels` included."""
        cols = self.per_kind.values()
        return KindCounts(sum(c.tp for c in cols), sum(c.fp for c in cols), sum(c.fn for c in cols))

    def macro_overall(self) -> tuple[float, float, float]:
        """Unweighted mean of per-kind precision/recall, F1 from those.

        `overall` is the micro aggregate; `to_json` reports this macro one
        beside it as `overall_macro`, for corpora where kind imbalance
        should not dominate.
        """
        labels = self.labels
        precision = sum(self.per_kind[l].precision for l in labels) / len(labels)
        recall = sum(self.per_kind[l].recall for l in labels) / len(labels)
        return precision, recall, _f1(precision, recall)

    def to_json(self) -> dict:
        def counts(c):
            return {
                "tp": c.tp, "fp": c.fp, "fn": c.fn,
                "precision": round(c.precision, 1),
                "recall": round(c.recall, 1),
                "f1": round(c.f1, 1),
            }

        macro_p, macro_r, macro_f1 = self.macro_overall()
        payload = {
            "per_kind": {label: counts(self.per_kind[label]) for label in self.labels},
            "overall": counts(self.overall),
            "overall_macro": {
                "precision": round(macro_p, 1),
                "recall": round(macro_r, 1),
                "f1": round(macro_f1, 1),
            },
            "binary": {**counts(self.binary), "tn": self.binary.tn},
            "unparseable_predictions": self.unparseable,
        }
        return payload

    def format_table(self) -> str:
        columns = [label[:3].title() + "." for label in self.labels]
        header = "Metric  " + "".join(c.rjust(8) for c in columns + ["Ov.", "Bi."])
        rows = []
        for name in ("precision", "recall", "f1"):
            cells = [getattr(self.per_kind[label], name) for label in self.labels]
            cells.append(getattr(self.overall, name))
            cells.append(getattr(self.binary, name))
            label = {"precision": "P", "recall": "R", "f1": "F1"}[name]
            rows.append(label.ljust(8) + "".join(f"{c:8.1f}" for c in cells))
        return "\n".join([header] + rows)


def score(match: MatchSet, report: DetectionReport) -> DetectionReport:
    """Add the counts of one aligned document pair to `report`; return it.

    Per-kind: a type-equal pair is a TP of that kind; a type-unequal pair
    contributes FP to the predicted kind and FN to the gold kind; unmatched
    spans are FP/FN of their own kind. Overall micro-aggregates the kinds.
    Binary is passage-level: a side is positive iff it has a span, matched
    or not, so iff its document has a tag (each tag gives one span).
    """
    per_kind, binary = report.per_kind, report.binary
    for g, p, type_equal in match.pairs:
        if type_equal:
            per_kind[label_of(g.kind)].tp += 1
        else:
            per_kind[label_of(p.kind)].fp += 1
            per_kind[label_of(g.kind)].fn += 1
    for g in match.unmatched_gold:
        per_kind[label_of(g.kind)].fn += 1
    for p in match.unmatched_pred:
        per_kind[label_of(p.kind)].fp += 1

    gold_pos = match.pairs or match.unmatched_gold
    pred_pos = match.pairs or match.unmatched_pred
    if gold_pos and pred_pos:
        binary.tp += 1
    elif gold_pos:
        binary.fn += 1
    elif pred_pos:
        binary.fp += 1
    else:
        binary.tn += 1
    return report


def evaluate_corpus(
    gold_docs: Iterable[tuple[str, TaggedDocument]],
    raw_predictions: dict,
    labels: tuple = DEFAULT_LABELS,
    mode: str = "overlap",
) -> DetectionReport:
    """Score a corpus of raw predictions against gold documents by id.

    `gold_docs` is an iterable of `(id, document)` pairs, which is read
    once, in order, a batch at a time (see `jsonl.batches`).
    `raw_predictions` maps ids to raw replies; only its `get` is called,
    once per gold id. Gold ids with no prediction are scored against an
    empty reply; replies with demoted parse structure count toward
    `unparseable` but are still scored on whatever survived. A label set
    that cannot score (see `check_labels`) raises `ValueError` before any
    row is read.
    """
    check_labels(labels)
    report = DetectionReport(labels)
    # Gold rows are read, their replies fetched, then both scored into the
    # running totals, a batch at a time.
    for batch in batches(gold_docs):
        replies = [raw_predictions.get(rid, "") for rid, _ in batch]
        for (_, gold), raw in zip(batch, replies):
            pred, warnings = parse_prediction(raw, labels)
            score(align(gold, pred, mode), report)
            report.unparseable += any(w.category == "demoted" for w in warnings)
        del batch, replies, gold, raw, pred, warnings  # before the next batch is drawn
    return report


def f1_from_pr(precision: float, recall: float) -> float:
    """Harmonic mean of percentage precision/recall, rounded to one decimal
    (the convention used in reported result tables)."""
    if not (0 <= precision <= 100 and 0 <= recall <= 100):
        raise ValueError("precision and recall must be percentages in [0, 100]")
    return round(_f1(precision, recall), 1)


def read_gold_documents(
    path: str | Path, labels: tuple = DEFAULT_LABELS
) -> Iterator[tuple[str, TaggedDocument]]:
    """Yield `(id, document)` for each row of a training-pair JSONL, in
    file order, parsing its target in target-output form under the label
    set `labels` (see `parse`). A repeated id raises `ValueError` naming
    both lines (see `unique_ids`); a label set that cannot score (see
    `check_labels`), before any row is read."""
    check_labels(labels)
    rows = read_jsonl(path, fields={"id": (str, int), "target": str})
    for _, rid, target in unique_ids(path, ((n, obj["id"], obj["target"]) for n, obj, _ in rows)):
        yield rid, parse(target, Form.TARGET_OUTPUT, labels=labels).document


def read_predictions(path: str | Path) -> dict:
    """Map each id of a JSONL of {"id", "raw"} to its line's byte span,
    which `Replies` reads the reply back at. A repeated id raises
    `ValueError` naming both lines (see `unique_ids`)."""
    index: dict = {}
    rows = read_jsonl(path, fields={"id": (str, int), "raw": str})
    for _, rid, span in unique_ids(path, ((n, obj["id"], span) for n, obj, span in rows), index):
        index[rid] = span  # the id check's own dict, so ids are kept once
    return index


class Replies:
    """The raw replies of a `read_predictions` index, as `evaluate_corpus`
    asks for them by gold id, each read back from `fh`, the predictions
    file open in binary mode. Each reply is taken out of the index when
    asked for, so that the index ends with only the ids no gold row asked
    for, in file order. The ids asked for and not found are counted, and
    the first five kept."""

    def __init__(self, index: dict, fh) -> None:
        self.index, self.fh = index, fh
        self.missed, self.first_missed = 0, []

    def get(self, rid: str, default: str = "") -> str:
        span = self.index.pop(rid, None)
        if span is not None:
            return row_at(self.fh, span)["raw"]
        self.missed += 1
        if len(self.first_missed) < 5:
            self.first_missed.append(rid)
        return default
