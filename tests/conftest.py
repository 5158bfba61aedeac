"""Shared fixtures: the worked-example passage quartet, the quality-gate
defect exemplars, a synthetic financial passage generator, and the
exhaustive brute-force matching oracle used to validate the scorer."""

from __future__ import annotations

import os
import random

import fintag
from fintag.corpus import TrainingPair
from fintag.insertion import InserterConfig
from fintag.jsonl import read_jsonl, write_jsonl
from fintag.markup import TagSpan, label_of

# --- the worked-example quartet (one passage in all four renderings) -------

WORKED_ORIGINAL = (
    "The annual interest expense for entergy louisiana incurred from the "
    "series first mortgage bonds due September 2018 is $19.5 million."
)

WORKED_TAGGED = (
    "The annual interest expense for entergy louisiana incurred from the "
    "series first mortgage bonds due <temporal><delete>September 2018"
    "</delete><mark>August 2008</mark></temporal> is $19.5 million. "
    "<unverifiable>The bond proceeds were primarily used to fund "
    "confidential environmental initiatives.</unverifiable>"
)

WORKED_ERRONEOUS = (
    "The annual interest expense for entergy louisiana incurred from the "
    "series first mortgage bonds due August 2008 is $19.5 million. The "
    "bond proceeds were primarily used to fund confidential environmental "
    "initiatives."
)

WORKED_TARGET = (
    "The annual interest expense for entergy louisiana incurred from the "
    "series first mortgage bonds due <temporal><mark>September 2018</mark>"
    "<delete>August 2008</delete></temporal> is $19.5 million. "
    "<unverifiable>The bond proceeds were primarily used to fund "
    "confidential environmental initiatives.</unverifiable>"
)

# --- quality-gate defect exemplars (original, tagged) -----------------------

INCORRECT_TYPE_ORIGINAL = "Total Net Cost in 2018 = $3,495 million"
INCORRECT_TYPE_TAGGED = (
    "Total Net Cost in <entity><delete>2018</delete><mark>2017</mark>"
    "</entity> = <numerical><delete>$3,495 million</delete><mark>"
    "$3,395 million</mark></numerical>"
)

IDENTICAL_TEXT_ORIGINAL = "The net income as at June 30, 2019 is $271,885"
IDENTICAL_TEXT_TAGGED = (
    "The net income as at June 30, 2019 is <relation><delete>$271,885"
    "</delete><mark>$271,885</mark></relation>"
)

INVALID_FORMAT_ORIGINAL = (
    "The depreciation and amortization expense included as a charge to "
    "income was the same for the years ended December 31, 2019 and 2018."
)
INVALID_FORMAT_TAGGED = (
    "<contradictory>The depreciation and amortization expense included as "
    "a charge to income was the same for the years ended <temporal>"
    "<delete>December 31, 2019</delete><mark>June 30, 2018</mark>"
    "</temporal> and 2018.</contradictory>"
)

INCONSISTENT_CONTENT_ORIGINAL = (
    "Therefore, 2018 has a higher total value of property and equipment."
)
INCONSISTENT_CONTENT_TAGGED = (
    "Therefore, <contradictory>2019</contradictory> <relation><delete>has"
    "</delete><mark>does not have</mark></relation> a higher total value "
    "of property and equipment."
)

# --- synthetic financial passages -------------------------------------------

_ENTITIES = (
    "Meridian Holdings", "Crestline Capital", "Harbor Financial",
    "Pacific Bancorp", "Summit Industrial", "Northbrook Partners",
    "Atlas Energy", "Beacon Insurance Group",
)

_REL = ("increased", "decreased", "rose", "fell", "improved", "declined",
        "climbed", "dropped")

_MONTHS = ("January", "February", "March", "April", "June", "July",
           "August", "September", "October", "November", "December")

_QUARTERS = ("first", "second", "third", "fourth")


def _amount(rng: random.Random) -> str:
    style = rng.randrange(3)
    if style == 0:
        return f"{rng.uniform(1, 999):.1f}"
    if style == 1:
        return f"{rng.randint(1000, 99999):,}"
    return f"{rng.uniform(0.5, 99):.2f}"


def make_passage(rng: random.Random) -> str:
    """A clean multi-sentence financial passage with sites for every error
    kind: entities, numbers, dates, years and relation verbs, including
    integers followed directly by a comma ("1,000, up from 900,")."""
    e1 = rng.choice(_ENTITIES)
    e2 = rng.choice([e for e in _ENTITIES if e != e1])
    y1 = rng.randint(2008, 2024)
    y2 = y1 - rng.randint(1, 4)
    month = rng.choice(_MONTHS)
    sents = [
        f"In {month} {y1}, {e1} reported revenue of ${_amount(rng)} million, "
        f"which {rng.choice(_REL)} from ${_amount(rng)} million in {y2}."
    ]
    pool = (
        lambda: (
            f"Net income attributable to {e1} was ${_amount(rng)} million, "
            f"compared with ${_amount(rng)} million in {y2}."
        ),
        lambda: (
            f"Operating expenses {rng.choice(_REL)} by {rng.uniform(1, 40):.1f}% "
            f"during the {rng.choice(_QUARTERS)} quarter of {y1}."
        ),
        lambda: f"The total amount outstanding in {y1} was ${rng.randint(100, 9999):,} million.",
        lambda: (
            f"{e2} holds cash and equivalents of ${_amount(rng)} million as of "
            f"{month} {rng.randint(1, 28)}, {y1}."
        ),
        lambda: f"Gross margin {rng.choice(_REL)} to {rng.uniform(10, 60):.1f}% in fiscal {y1}.",
        lambda: f"Interest expense on the notes due {month} {y1} was ${_amount(rng)} million.",
        lambda: (
            f"Sales were {rng.randint(1000, 99999):,}, up from {rng.randint(100, 999)}, "
            f"in fiscal {y2}."
        ),
    )
    for _ in range(rng.randint(2, 5)):
        sents.append(rng.choice(pool)())
    parts = [sents[0]]
    for sent in sents[1:]:
        parts.append("\n" if rng.random() < 0.1 else " ")
        parts.append(sent)
    return "".join(parts)


def make_long_passage(rng: random.Random) -> str:
    """Paragraphs of `make_passage`, separated by blank lines, until the
    passage is long enough that every plan of an `InserterConfig()` that is
    not clean has `max_errors` errors."""
    config = InserterConfig()
    paragraphs = [make_passage(rng)]
    while len(" ".join(paragraphs).split()) < config.tokens_per_error * (config.max_errors + 0.5):
        paragraphs.append(make_passage(rng))
    return "\n\n".join(paragraphs)


def make_context(rng: random.Random, passage: str) -> str:
    """Reference context containing the passage facts plus extra entity
    mentions for the entity inserter to harvest."""
    extra = rng.sample(_ENTITIES, 2)
    return (
        passage
        + "\n\n"
        + f"{extra[0]} and {extra[1]} are referenced elsewhere in the same filing. "
        + "Additional table rows omitted."
    )


# --- QA and training-pair files ---------------------------------------------


def write_qa_records(path, records) -> int:
    """Write each QARecord as a row of the QA JSONL that `ingest` reads."""
    return write_jsonl(path, (
        {"id": r.id, "documents": list(r.documents), "question": r.question, "response": r.response}
        for r in records
    ))


def read_pairs(path) -> list:
    """The training pairs of a JSONL that `write_pairs` wrote."""
    fields = {"id": (str, int), "prompt": str, "target": str, "meta": (dict, type(None))}
    return [
        TrainingPair(str(obj["id"]), obj["prompt"], obj["target"], obj.get("meta", {}))
        for _, obj, _ in read_jsonl(path, fields=fields)
    ]


# --- exhaustive matching oracle ---------------------------------------------


def _priority_candidates(gold_spans, pred_spans):
    candidates = []
    for gi, g in enumerate(gold_spans):
        for pi, p in enumerate(pred_spans):
            overlap = min(g.end, p.end) - max(g.start, p.start)
            same_span = g.start == p.start and g.end == p.end
            if overlap <= 0 and not same_span:
                continue
            exact = same_span and label_of(g.kind) == label_of(p.kind)
            key = (
                0 if exact else 1,
                -overlap,
                min(g.start, p.start),
                max(g.start, p.start),
                min(gi, pi),
                max(gi, pi),
            )
            candidates.append((key, gi, pi))
    candidates.sort()
    return candidates


def _all_matchings(n_gold: int, overlaps: dict):
    """Yield every one-to-one matching as a tuple of (gi, pi) pairs."""

    def rec(gi: int, used_p: set, acc: list):
        if gi == n_gold:
            yield tuple(acc)
            return
        yield from rec(gi + 1, used_p, acc)
        for pi in overlaps.get(gi, ()):
            if pi not in used_p:
                acc.append((gi, pi))
                used_p.add(pi)
                yield from rec(gi + 1, used_p, acc)
                used_p.remove(pi)
                acc.pop()

    yield from rec(0, set(), [])


def oracle_counts(gold_spans, pred_spans) -> dict:
    """Reference scorer: enumerate all one-to-one matchings over
    overlapping span pairs, keep the maximal ones, choose the matching the
    priority order ranks first, and count TP/FP/FN per kind.

    Independent of the production aligner: shares only the stated rule.
    """
    candidates = _priority_candidates(gold_spans, pred_spans)
    pair_rank = {(gi, pi): rank for rank, (_, gi, pi) in enumerate(candidates)}
    overlaps: dict[int, list] = {}
    for _, gi, pi in candidates:
        overlaps.setdefault(gi, []).append(pi)

    best_key: tuple | None = None
    best: tuple = ()
    for matching in _all_matchings(len(gold_spans), overlaps):
        chosen = set(matching)
        maximal = True
        used_g = {gi for gi, _ in chosen}
        used_p = {pi for _, pi in chosen}
        for _, gi, pi in candidates:
            if gi not in used_g and pi not in used_p:
                maximal = False
                break
        if not maximal:
            continue
        key = tuple(sorted(pair_rank[pair] for pair in matching))
        if best_key is None or key < best_key:
            best_key = key
            best = matching

    counts: dict[str, dict[str, int]] = {}

    def bucket(kind):
        return counts.setdefault(label_of(kind), {"tp": 0, "fp": 0, "fn": 0})

    matched_g = {gi for gi, _ in best}
    matched_p = {pi for _, pi in best}
    for gi, pi in best:
        g, p = gold_spans[gi], pred_spans[pi]
        if label_of(g.kind) == label_of(p.kind):
            bucket(g.kind)["tp"] += 1
        else:
            bucket(p.kind)["fp"] += 1
            bucket(g.kind)["fn"] += 1
    for gi, g in enumerate(gold_spans):
        if gi not in matched_g:
            bucket(g.kind)["fn"] += 1
    for pi, p in enumerate(pred_spans):
        if pi not in matched_p:
            bucket(p.kind)["fp"] += 1
    return counts


def random_spans(rng: random.Random, labels, max_tags: int = 6, length: int = 120):
    """Random span set for matcher stress tests."""
    spans = []
    for _ in range(rng.randint(0, max_tags)):
        start = rng.randrange(0, length - 1)
        end = min(length, start + rng.randint(1, 18))
        spans.append(TagSpan(rng.choice(labels), start, end, "x" * (end - start), None))
    return spans


def checkout_env(**extra) -> dict:
    """The environment of a fresh process that imports this checkout's fintag."""
    src = os.path.dirname(os.path.dirname(fintag.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)
