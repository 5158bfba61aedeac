"""Controlled error insertion: turn clean QA responses into tagged passages.

Two inserters share one planning layer:

* a deterministic rule-based inserter whose output always passes the
  quality gate and reconstructs its input exactly (the offline oracle);
* an LLM-backed inserter that prompts a model with few-shot exemplars,
  gates the reply, and retries on unfixable defects.

Planning scales the error count with passage length and samples error
kinds from configured weights, with a configured share of passages left
clean.
"""

from __future__ import annotations

import math
import random
import re
from functools import cached_property
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from . import FintagError, Validated
from .jsonl import read_jsonl
from .markup import Edit, Form, Statement, TaggedDocument, Text, parse
from .patterns import (
    DAY_OF_MONTH_RE,
    MONTH_NAMES,
    MONTH_RE,
    NUMBER_TOKEN_RE,
    ORDINAL_QUARTER_RE,
    QUARTER_NUM_RE,
    QUARTER_ORDINALS,
    RELATION_WORD_RE,
    TEMPORAL_SITE_RE,
    YEAR_RE,
    flip_relation_word,
    sentence_spans,
)
from .prompts import INSERTION_PROMPT_TEMPLATE, INSERTION_SYSTEM_PROMPT, strip_reply_envelope
from .records import TaggedRecord
from .taxonomy import KINDS, ErrorType

# The target fraction of untouched passages.
DEFAULT_CLEAN_PROBABILITY = 0.325


class _ConfigFields(NamedTuple):
    clean_probability: float = DEFAULT_CLEAN_PROBABILITY
    type_weights: dict | None = None
    tokens_per_error: int = 60
    max_errors: int = 6


class InserterConfig(Validated, _ConfigFields):
    """Planning settings. `type_weights` maps each kind to its sampling
    weight; when it is not given (or None), each config gets a fresh dict
    of every kind's default weight."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.type_weights is None:
            weights = {row.kind: row.default_weight for row in KINDS}
            self = super().__new__(cls, self.clean_probability, weights, *self[2:])
        if not 0.0 <= self.clean_probability <= 1.0:
            raise ValueError("clean_probability must be in [0, 1]")
        if not self.type_weights or any(w <= 0 for w in self.type_weights.values()):
            raise ValueError("type weights must be positive")
        for kind, weight in self.type_weights.items():
            if not math.isfinite(weight):
                raise ValueError(f"the type weight of {kind.value} must be finite, not {weight}")
        if self.tokens_per_error < 1 or self.max_errors < 1:
            raise ValueError("tokens_per_error and max_errors must be >= 1")
        return self


class _PlanFields(NamedTuple):
    clean: bool
    count: int
    kinds: tuple
    seed: int


class InsertionPlan(Validated, _PlanFields):
    """How many errors of which kinds one passage receives. Each kind is
    coerced to an ErrorType, so an unknown kind raises ValueError."""

    __slots__ = ()

    def __new__(cls, clean: bool, count: int, kinds: tuple, seed: int):
        kinds = tuple(ErrorType(k) for k in kinds)
        if clean and (count != 0 or kinds):
            raise ValueError("a clean plan carries no errors")
        if count != len(kinds):
            raise ValueError("count must equal the number of planned kinds")
        return tuple.__new__(cls, (clean, count, kinds, seed))


class InsertionSkip(NamedTuple):
    kind: ErrorType
    reason: str


class InsertionResult(NamedTuple):
    record: TaggedRecord
    plan: InsertionPlan
    applied: tuple
    skipped: tuple


def plan_errors(passage: str, config: InserterConfig | None = None, seed: int = 0) -> InsertionPlan:
    """Deterministic insertion plan for a passage.

    The error count grows with whitespace token length (one error per
    `tokens_per_error` tokens, clamped to [1, max_errors]); kinds are
    sampled i.i.d. from the configured weights.
    """
    if not passage.strip():
        raise ValueError("passage must be nonempty")
    config = config or InserterConfig()
    rng = random.Random(f"plan:{seed}:{passage}")
    if rng.random() < config.clean_probability:
        return InsertionPlan(True, 0, (), seed)
    tokens = len(passage.split())
    count = max(1, min(config.max_errors, round(tokens / config.tokens_per_error)))
    kinds = tuple(
        rng.choices(
            list(config.type_weights), weights=list(config.type_weights.values()), k=count
        )
    )
    return InsertionPlan(False, count, kinds, seed)


# --- rule-based insertion -------------------------------------------------

# A run of capitalized words. The word boundary is checked behind the first
# capital, not before it, so the engine can skip ahead to each capital.
_CAP_SPAN_RE = re.compile(r"[A-Z](?<!\w.)[A-Za-z&'-]*(?:\s+[A-Z][A-Za-z&'-]*)+\b")

_LEADING_STOPWORDS = {
    "The", "A", "An", "In", "On", "At", "As", "By", "For", "To", "Of",
    "Our", "We", "This", "That", "These", "Those", "It", "Its", "During",
    "From", "With", "After", "Before", "Since", "While", "However",
    "Therefore", "Additionally", "Meanwhile", "Overall",
}

FALLBACK_ENTITIES = (
    "Meridian Holdings",
    "Crestline Capital",
    "Harbor Financial",
    "Pacific Bancorp",
    "Summit Industrial",
    "Northbrook Partners",
    "Atlas Energy",
    "Beacon Insurance Group",
    "Lakeshore Trust",
    "Granite Peak Mining",
)

_SPECULATIVE_SENTENCES = (
    "The proceeds are rumored to be earmarked for undisclosed future projects.",
    "Management privately expects these figures to double within two years.",
    "The company is said to be preparing an unannounced acquisition.",
    "Several board members reportedly favor a far more aggressive expansion.",
    "Internal forecasts allegedly project much stronger growth next year.",
    "The firm is believed to hold significant undisclosed offshore assets.",
    "Executives have quietly discussed relocating headquarters next quarter.",
    "People close to the matter anticipate an imminent special dividend.",
)


def _overlaps(start: int, end: int, placed: list) -> bool:
    """Whether passage[start:end] overlaps an edit among `placed`."""
    return any(edit and start < e and s < end for s, edit, _, e, _ in placed)


def _format_like(value: float, decimals: int, grouped: bool) -> str:
    if decimals:
        text = f"{value:,.{decimals}f}" if grouped else f"{value:.{decimals}f}"
    else:
        text = f"{round(value):,}" if grouped else str(round(value))
    return text


def _perturb_number_token(token: str, rng: random.Random) -> str | None:
    """Shift a number token's value by a nonzero +/-10..50% factor while
    preserving its formatting (currency sigil, separators, precision)."""
    m = NUMBER_TOKEN_RE.fullmatch(token)
    if m is None:
        return None
    prefix, core, suffix = m.groups()
    grouped = "," in core
    decimals = len(core.split(".")[1]) if "." in core else 0
    value = float(core.replace(",", ""))
    if value * 2 == math.inf:  # no float holds the shifted value
        return None
    for _ in range(8):
        factor = rng.choice((-1, 1)) * rng.uniform(0.1, 0.5)
        candidate = value * (1 + factor) if value else rng.uniform(1, 9)
        formatted = _format_like(candidate, decimals, grouped)
        if formatted != core:
            return prefix + formatted + suffix
    return prefix + _format_like(value + 10 ** -decimals, decimals, grouped) + suffix


def _shift_year(year: str, rng: random.Random) -> str:
    """Move a year by 1..5 either way, staying inside the year grammar."""
    value = int(year)
    shifts = [d for d in (-5, -4, -3, -2, -1, 1, 2, 3, 4, 5) if YEAR_RE.fullmatch(str(value + d))]
    return str(value + rng.choice(shifts))


def _perturb_temporal(span: str, rng: random.Random) -> str | None:
    """Shift a year by +/-1..5, or swap the month or the quarter for another
    one, title-cased when the old one starts with a capital."""
    moves = []  # (start, end, the words to swap in; None for a year)
    if year := YEAR_RE.search(span):
        moves.append((*year.span(), None))
    if month := MONTH_RE.search(span):
        moves.append((*month.span(), MONTH_NAMES))
    if quarter := ORDINAL_QUARTER_RE.search(span):  # an ordinal wins over a Q digit
        moves.append((*quarter.span(), QUARTER_ORDINALS))
    elif quarter := QUARTER_NUM_RE.search(span):
        moves.append((quarter.end() - 1, quarter.end(), "1234"))  # the quarter's digit
    if not moves:
        return None
    start, end, words = rng.choice(moves)
    old = span[start:end]
    if words is None:
        new = _shift_year(old, rng)
    else:
        new = rng.choice([w for w in words if w != old.lower()])
        if old[0].isupper():
            new = new.title()
    return span[:start] + new + span[end:]


def _temporal_sites(text: str) -> list:
    return [(m.start(), m.end(), m.group()) for m in TEMPORAL_SITE_RE.finditer(text)]


def _inside_a_word(text: str, start: int, end: int) -> bool:
    """Whether text[start:end] touches a letter or digit on its left, or a
    letter or "-letter" on its right."""
    after = text[end:end + 2]
    return (
        text[start - 1:start].isalnum()
        or after[:1].isalpha()
        or (after[:1] == "-" and after[1:].isalpha())
    )


def _numeric_sites(text: str, temporal_spans: list) -> list:
    """Number tokens outside every date site. Both scans run left to right
    over non-overlapping matches, so one cursor walks the date sites."""
    sites = []
    spans = iter(temporal_spans)
    past_the_end = (len(text), len(text), "")
    span_start, span_end, _ = next(spans, past_the_end)
    for m in NUMBER_TOKEN_RE.finditer(text):
        if YEAR_RE.fullmatch(m.group()):
            continue  # bare years belong to the temporal inserter
        if _inside_a_word(text, m.start(), m.end()):
            continue  # "Q1", "10-K": a label, not a quantity
        while span_end <= m.start():
            span_start, span_end, _ = next(spans, past_the_end)
        if span_start < m.end():
            continue  # inside a date site
        sites.append((m.start(), m.end(), m.group()))
    return sites


def _relation_sites(text: str) -> list:
    return [(m.start(), m.end(), m.group()) for m in RELATION_WORD_RE.finditer(text)]


def _entity_sites(text: str) -> list:
    sites = []
    for m in _CAP_SPAN_RE.finditer(text):
        tokens = [
            (w.start() + m.start(), w.group()) for w in re.finditer(r"\S+", m.group())
        ]
        while tokens and tokens[0][1] in _LEADING_STOPWORDS:
            tokens.pop(0)
        if len(tokens) < 2:
            continue
        if any(tok.lower().strip(".,") in MONTH_NAMES for _, tok in tokens):
            continue
        start = tokens[0][0]
        end = tokens[-1][0] + len(tokens[-1][1])
        sites.append((start, end, text[start:end]))
    return sites


def _flip_sentence(sentence: str, rng: random.Random) -> str | None:
    """One contradictory rewrite of a sentence: flip a relation word, else
    perturb a number or shift a year. The day of a date is left alone, so
    a copy never names "March 41"."""
    relations = list(RELATION_WORD_RE.finditer(sentence))
    if relations:
        m = rng.choice(relations)
        flipped = flip_relation_word(m.group())
        if flipped is not None:
            return sentence[: m.start()] + flipped + sentence[m.end():]
    days = {m.span(1) for m in DAY_OF_MONTH_RE.finditer(sentence)}
    for m in sorted(NUMBER_TOKEN_RE.finditer(sentence), key=lambda x: rng.random()):
        if m.span() in days:
            continue
        token = m.group()
        if YEAR_RE.fullmatch(token):
            replacement = _shift_year(token, rng)
        else:
            replacement = _perturb_number_token(token, rng)
        if replacement is not None and replacement != token:
            return sentence[: m.start()] + replacement + sentence[m.end():]
    return None


class _Sites:
    """The sites of one passage that the placers read, each scanned on first
    use, so a record pays only for the scans its plan needs. The scans draw
    nothing from the rng, so one that is never run changes no output."""

    def __init__(self, passage: str, context: str):
        self.passage = passage
        self.context = context
        self.end_ok = bool(passage) and not passage[-1].isspace()

    @cached_property
    def temporal(self) -> list:
        return _temporal_sites(self.passage)

    @cached_property
    def numeric(self) -> list:
        return _numeric_sites(self.passage, self.temporal)

    @cached_property
    def entity(self) -> list:
        return _entity_sites(self.passage)

    @cached_property
    def context_entities(self) -> list:
        return [cand for _, _, cand in _entity_sites(self.context)]

    @cached_property
    def relation(self) -> list:
        return _relation_sites(self.passage)

    @cached_property
    def sentences(self) -> list:
        return sentence_spans(self.passage)

    @cached_property
    def mid_points(self) -> list:
        """Sentence starts that follow a single space."""
        sents, passage = self.sentences, self.passage
        return [s2 for (s, e), (s2, e2) in zip(sents, sents[1:]) if passage[e:s2] == " "]


def insert_rule_based(
    passage: str,
    context: str,
    plan: InsertionPlan,
    seed: int = 0,
    record_id: str | None = None,
) -> InsertionResult:
    """Apply a plan to a passage with deterministic rule-based edits.

    Every output passes the quality gate, and `derive_original` of the
    resulting document reproduces `passage` exactly; planned kinds with no
    applicable site are reported in `skipped`, never silently absorbed.
    """
    rng = random.Random(f"insert:{seed}:{passage}")
    rid = record_id if record_id is not None else f"rule-{seed}"
    # One (point, order, seq, end, segments) per placed error, woven in by
    # sorting. An edit is (start, 1, 0, end, (Edit,)); a statement is
    # (point, 0, n, point, pieces), placed n-th, so at one point statements
    # come first, in the order they were placed. Edits never overlap, so no
    # two share a start, and n is unique: no two keys tie, and sorting never
    # compares the segments.
    placed: list = []
    applied: list = []
    skipped: list = []

    sites = _Sites(passage, context)

    def place_edit(kind: ErrorType, candidates: list, perturb) -> str | None:
        free = [site for site in candidates if not _overlaps(site[0], site[1], placed)]
        rng.shuffle(free)
        for start, end, span in free:
            error = perturb(span)
            if error is not None and error != span:
                placed.append((start, 1, 0, end, (Edit(kind, span, error),)))
                return None
        return "no applicable site"

    for kind in plan.kinds:
        reason: str | None
        if kind is ErrorType.NUMERICAL:
            reason = place_edit(kind, sites.numeric, lambda s: _perturb_number_token(s, rng))
        elif kind is ErrorType.TEMPORAL:
            reason = place_edit(kind, sites.temporal, lambda s: _perturb_temporal(s, rng))
        elif kind is ErrorType.ENTITY:
            reason = _place_entity(sites, placed, rng)
        elif kind is ErrorType.RELATION:
            reason = place_edit(kind, sites.relation, flip_relation_word)
        elif kind is ErrorType.CONTRADICTORY:
            reason = _place_contradictory(sites, placed, rng)
        else:
            reason = _place_unverifiable(sites, placed, rng)
        if reason is None:
            applied.append(kind)
        else:
            skipped.append(InsertionSkip(kind, reason))

    segments: list = []
    cursor = 0
    for point, _, _, end, pieces in sorted(placed):
        segments.append(Text(passage[cursor:point]))
        segments.extend(pieces)
        cursor = end
    segments.append(Text(passage[cursor:]))
    doc = TaggedDocument(tuple(segments), Form.TAGGED_PASSAGE)
    record = TaggedRecord(rid, passage, doc, "rule-based", seed)
    return InsertionResult(record, plan, tuple(applied), tuple(skipped))


def _place_statement(placed: list, point: int, is_end: bool, kind: ErrorType, content: str) -> None:
    """Place a statement at a sentence start, or at the passage end, with
    the single space that joins it to the passage: before it at the end,
    after it elsewhere. `derive_original` folds that space away, which is
    what makes the reconstruction exact."""
    statement = Statement(kind, content)
    pieces = (Text(" "), statement) if is_end else (statement, Text(" "))
    placed.append((point, 0, len(placed), point, pieces))


def _place_entity(sites, placed, rng) -> str | None:
    free = [site for site in sites.entity if not _overlaps(site[0], site[1], placed)]
    if not free:
        return "no capitalized multi-word span"
    start, end, span = rng.choice(free)
    harvested = [cand for cand in sites.context_entities if cand.lower() != span.lower()]
    pool = harvested or [e for e in FALLBACK_ENTITIES if e.lower() != span.lower()]
    placed.append((start, 1, 0, end, (Edit(ErrorType.ENTITY, span, rng.choice(pool)),)))
    return None


def _place_contradictory(sites, placed, rng) -> str | None:
    passage, sents, mid_points = sites.passage, sites.sentences, sites.mid_points
    candidates = []
    for idx, (s, e) in enumerate(sents):
        if idx + 1 < len(sents):
            point = sents[idx + 1][0]
            if point not in mid_points:
                continue
            is_end = False
        else:
            if not sites.end_ok:
                continue
            point, is_end = len(passage), True
        has_edit = _overlaps(s, e, placed)
        candidates.append((idx, s, e, point, is_end, has_edit))
    if not candidates:
        return "no sentence with an insertable boundary"
    # Prefer sentences untouched by span edits so the copy contradicts
    # what the passage actually says.
    untouched = [c for c in candidates if not c[5]]
    order = untouched or candidates
    for _, s, e, point, is_end, _ in sorted(order, key=lambda c: rng.random()):
        flipped = _flip_sentence(passage[s:e], rng)
        if flipped is not None:
            _place_statement(placed, point, is_end, ErrorType.CONTRADICTORY, flipped)
            return None
    return "no flippable sentence"


def _place_unverifiable(sites, placed, rng) -> str | None:
    content = rng.choice(_SPECULATIVE_SENTENCES)
    if sites.end_ok:
        point, is_end = len(sites.passage), True
    elif sites.mid_points:
        point, is_end = rng.choice(sites.mid_points), False
    else:
        return "no insertable boundary"
    _place_statement(placed, point, is_end, ErrorType.UNVERIFIABLE, content)
    return None


# --- few-shot prompting and the LLM inserter ------------------------------


class Exemplar(NamedTuple):
    kind: ErrorType
    passage: str
    tagged: str


class MissingExemplar(FintagError):
    """A planned kind has no exemplar in the pool."""


DEFAULT_EXEMPLARS = (
    Exemplar(
        ErrorType.TEMPORAL,
        "The total amount outstanding in 2019 was $412.6 million.",
        "The total amount outstanding in <temporal><delete>2019</delete><mark>2014</mark></temporal> was $412.6 million.",
    ),
    Exemplar(
        ErrorType.TEMPORAL,
        "Crestline Capital repaid the loan in March 2021.",
        "Crestline Capital repaid the loan in <temporal><delete>March 2021</delete><mark>July 2021</mark></temporal>.",
    ),
    Exemplar(
        ErrorType.NUMERICAL,
        "The charge related to the restructuring was $25 million.",
        "The charge related to the restructuring was <numerical><delete>$25</delete><mark>$34</mark></numerical> million.",
    ),
    Exemplar(
        ErrorType.NUMERICAL,
        "Gross margin came in at 41.2% for the period.",
        "Gross margin came in at <numerical><delete>41.2%</delete><mark>28.9%</mark></numerical> for the period.",
    ),
    Exemplar(
        ErrorType.ENTITY,
        "In 2014, the net change in tax positions at Harbor Financial was an increase of $17,290.",
        "In 2014, the net change in tax positions at <entity><delete>Harbor Financial</delete><mark>Summit Industrial</mark></entity> was an increase of $17,290.",
    ),
    Exemplar(
        ErrorType.ENTITY,
        "Atlas Energy completed the divestiture during the second quarter.",
        "<entity><delete>Atlas Energy</delete><mark>Pacific Bancorp</mark></entity> completed the divestiture during the second quarter.",
    ),
    Exemplar(
        ErrorType.RELATION,
        "Earnings from service operations decreased from $32.8 million in 2000 to $35.1 million in 2001.",
        "Earnings from service operations <relation><delete>decreased</delete><mark>increased</mark></relation> from $32.8 million in 2000 to $35.1 million in 2001.",
    ),
    Exemplar(
        ErrorType.RELATION,
        "Operating cash flow was higher than in the prior year.",
        "Operating cash flow was <relation><delete>higher</delete><mark>lower</mark></relation> than in the prior year.",
    ),
    Exemplar(
        ErrorType.CONTRADICTORY,
        "Net revenue rose 8% in the fourth quarter. The company remained profitable.",
        "Net revenue rose 8% in the fourth quarter. <contradictory>Net revenue fell 8% in the fourth quarter.</contradictory> The company remained profitable.",
    ),
    Exemplar(
        ErrorType.CONTRADICTORY,
        "Cash and equivalents increased to $88.1 million at year end.",
        "Cash and equivalents increased to $88.1 million at year end. <contradictory>Cash and equivalents decreased to $88.1 million at year end.</contradictory>",
    ),
    Exemplar(
        ErrorType.UNVERIFIABLE,
        "The notes bear interest at 5.25% and mature in 2027.",
        "The notes bear interest at 5.25% and mature in 2027. <unverifiable>Management privately expects to refinance them on far better terms.</unverifiable>",
    ),
    Exemplar(
        ErrorType.UNVERIFIABLE,
        "Segment revenue was flat compared with the prior period.",
        "Segment revenue was flat compared with the prior period. <unverifiable>Insiders attribute the plateau to an unannounced product delay.</unverifiable>",
    ),
)


def load_exemplars(path: str | Path, kinds: Iterable[ErrorType] = ()) -> tuple:
    """Read an exemplar pool from JSONL of {"kind", "passage", "tagged"}.
    Each of `kinds` must have an exemplar in the pool."""
    pool = []
    for line_no, obj, _ in read_jsonl(path, fields={"kind": str, "passage": str, "tagged": str}):
        if obj["kind"] not in {kind.value for kind in ErrorType}:
            raise ValueError(f"{path}:{line_no}: unknown kind {obj['kind']!r}")
        pool.append(Exemplar(ErrorType(obj["kind"]), obj["passage"], obj["tagged"]))
    for kind in kinds:
        if all(ex.kind is not kind for ex in pool):
            raise ValueError(f"{path}: no exemplar for kind {kind.value!r}")
    return tuple(pool)


def _by_kind(pool: Iterable[Exemplar]) -> dict[ErrorType, list[Exemplar]]:
    grouped: dict[ErrorType, list[Exemplar]] = {}
    for ex in pool:
        grouped.setdefault(ex.kind, []).append(ex)
    return grouped


_DEFAULT_POOL = _by_kind(DEFAULT_EXEMPLARS)


def build_insertion_prompt(
    passage: str,
    context: str,
    plan: InsertionPlan,
    exemplar_pool: Sequence[Exemplar] | None = None,
    seed: int = 0,
) -> str:
    """Assemble the few-shot insertion prompt for one plan.

    Contains the definition and exactly one seed-chosen exemplar for every
    planned kind; deterministic given its inputs.
    """
    pool = _DEFAULT_POOL if exemplar_pool is None else _by_kind(exemplar_pool)
    rng = random.Random(f"prompt:{seed}")
    # Enum order, not display order: replay cache keys hash this prompt.
    kinds = set(plan.kinds)
    planned = [t for t in ErrorType if t in kinds]
    blocks = []
    for kind in planned:
        candidates = pool.get(kind)
        if not candidates:
            raise MissingExemplar(f"no exemplar for kind {kind.value!r}")
        ex = rng.choice(candidates)
        blocks.append(f"[{kind.value}]\nPassage: {ex.passage}\nTagged: {ex.tagged}")
    definitions = "\n".join(f"- {kind.row.definition}" for kind in planned)
    kinds_label = ", ".join(kind.value for kind in plan.kinds)
    return INSERTION_PROMPT_TEMPLATE.format(
        count=plan.count,
        kinds=kinds_label,
        definitions=definitions,
        exemplars="\n\n".join(blocks),
        context=context,
        passage=passage,
    )


class InsertionFailure(FintagError):
    """The LLM inserter exhausted its retries on unfixable defects."""

    def __init__(self, issues: Iterable):
        self.issues = tuple(issues)
        detail = "; ".join(i.detail for i in self.issues) or "no reply parsed"
        super().__init__(f"insertion failed quality gate: {detail}")


def insert_llm(
    passage: str,
    context: str,
    plan: InsertionPlan,
    client,
    max_retries: int = 2,
    exemplar_pool: Sequence[Exemplar] | None = None,
    record_id: str | None = None,
) -> TaggedRecord:
    """Insert errors via a chat-completion client, gated for quality.

    The reply is parsed leniently and passed through the quality gate;
    fixable issues are repaired in place, unfixable ones trigger a retry
    with a fresh prompt seed. Raises InsertionFailure after `max_retries`
    extra attempts, or ClientError on transport failure.
    """
    from .llm_client import CompletionRequest
    from .quality import fix

    rid = record_id if record_id is not None else f"llm-{plan.seed}"
    provenance = client.name or "llm"
    if plan.clean:
        doc = TaggedDocument((Text(passage),), Form.TAGGED_PASSAGE)
        return TaggedRecord(rid, passage, doc, provenance, plan.seed)

    last_issues: tuple = ()
    for attempt in range(1 + max(0, max_retries)):
        prompt = build_insertion_prompt(
            passage, context, plan, exemplar_pool, seed=plan.seed + attempt
        )
        reply = client.call(
            CompletionRequest(
                system=INSERTION_SYSTEM_PROMPT,
                user=prompt,
                seed_tag=f"insert:{plan.seed}:{attempt}",
            )
        )
        payload = strip_reply_envelope(reply.text, keys=("Tagged", "Edited"))
        doc, warnings = parse(payload, Form.TAGGED_PASSAGE)
        record = TaggedRecord(rid, passage, doc, provenance, plan.seed)
        outcome = fix(record, warnings)
        if outcome.fixed:
            return outcome.record
        last_issues = outcome.reasons
    raise InsertionFailure(last_issues)
