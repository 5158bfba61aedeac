"""Editing evaluation: decompose an edited passage into sentence-level
units and score the fraction a judge finds supported by the reference.

The judge is pluggable: the built-in containment judge is deterministic
and offline (number/year containment plus relation-antonym contradiction),
and an LLM judge can be built over any chat-completion client. Abstentions
are excluded from the denominator so transport flakiness cannot silently
deflate scores.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from math import fsum
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple

from . import Validated
from .jsonl import batches, read_jsonl
from .markup import Form, derive_original, parse
from .patterns import (
    ANTONYMS,
    RELATION_WORD_RE,
    absent_values,
    number_cores,
    number_values,
    sentence_spans,
)


class VerdictLabel(Enum):
    SUPPORTED = "supported"
    UNSUPPORTED = "unsupported"
    ABSTAIN = "abstain"


class JudgeVerdict(NamedTuple):
    label: VerdictLabel
    rationale: str | None = None


Judge = Callable[[str, str], JudgeVerdict]


class _FactScoreFields(NamedTuple):
    supported: int
    total: int
    abstained: int
    failed: int = 0


class FactScore(Validated, _FactScoreFields):
    """Units of a passage by verdict; `failed` counts the abstentions that
    came from a judge exception."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.supported + self.abstained > self.total:
            raise ValueError("supported + abstained cannot exceed total")
        if self.failed > self.abstained:
            raise ValueError("failed cannot exceed abstained")
        return self

    @property
    def score(self) -> float:
        denom = self.total - self.abstained
        return self.supported / denom if denom else 0.0


def split_facts(passage: str) -> list[str]:
    """Deterministic sentence segmentation with abbreviation and decimal
    guards; the atomic units of the editing score."""
    return [passage[s:e] for s, e in sentence_spans(passage)]


_STOPWORDS = frozenset(
    "a an and are as at be by for from in is it its of on or that the this "
    "to was were with".split()
)


def _content_words(text: str) -> frozenset[str]:
    words = {t.strip(".,;:()%$") for t in set(text.lower().split())}
    return frozenset(filter(str.isalpha, words - _STOPWORDS))


@lru_cache(maxsize=1)
def _reference_index(reference: str) -> tuple[frozenset[str], str]:
    """The reference's number cores as spelled, and the reference lower-cased.

    One entry suffices: `score_editing` judges every unit of a passage
    against the same reference. The values of the number cores are read
    only when some fact spells a number otherwise (`_reference_values`),
    the sentences and their content words only when some fact's relation
    word has its antonym in the reference (`_reference_sentences`), and
    relation words only in a sentence that some fact picks as its
    counterpart, once per sentence (`_relation_words`).
    """
    return frozenset(number_cores(reference)), reference.lower()


@lru_cache(maxsize=1)
def _reference_sentences(reference: str) -> tuple[tuple[str, ...], tuple[frozenset[str], ...]]:
    """The reference's sentences, and each sentence's content words."""
    sentences = tuple(split_facts(reference) or [reference])
    return sentences, tuple(map(_content_words, sentences))


@lru_cache(maxsize=1)
def _reference_values(cores: frozenset[str]) -> frozenset[str]:
    return frozenset(number_values(cores))


@lru_cache(maxsize=256)
def _relation_words(sentence: str) -> frozenset[str]:
    return frozenset(m.group().lower() for m in RELATION_WORD_RE.finditer(sentence.lower()))


_SUPPORTED = JudgeVerdict(VerdictLabel.SUPPORTED)


def containment_judge(fact: str, reference: str) -> JudgeVerdict:
    """Deterministic offline judge; never abstains.

    Supported iff every number/percent/currency/year token of the fact
    appears (normalized) in the reference, and no relation word in the fact
    is contradicted by its antonym in the reference sentence sharing the
    most content words with the fact. That sentence is looked for only
    when the lower-cased reference holds some such antonym, so a reference
    is split into sentences at most once, and only for such a fact.
    """
    ref_cores, ref_lower = _reference_index(reference)
    missing = absent_values(number_cores(fact), ref_cores, _reference_values)
    if missing:
        return JudgeVerdict(
            VerdictLabel.UNSUPPORTED,
            f"values absent from reference: {sorted(missing)}",
        )

    # Relation words in order of first appearance, so the rationale names
    # the first contradicted one. A word the regex matches only under
    # Unicode case folding ("loſs") has no lexicon entry and is skipped.
    relation_words = {
        word: ANTONYMS[word]
        for word in (m.group().lower() for m in RELATION_WORD_RE.finditer(fact))
        if word in ANTONYMS
    }
    # A contradiction needs the antonym among the counterpart's relation
    # words, which are matches in the lower-cased sentence: with no antonym
    # in the lower-cased reference, no sentence can contradict the fact.
    if any(antonym in ref_lower for antonym in relation_words.values()):
        ref_sentences, ref_words = _reference_sentences(reference)
        fact_words = _content_words(fact)
        shared = [len(words & fact_words) for words in ref_words]
        counterpart_words = _relation_words(ref_sentences[shared.index(max(shared))])
        for word, antonym in relation_words.items():
            if antonym in counterpart_words and word not in counterpart_words:
                return JudgeVerdict(
                    VerdictLabel.UNSUPPORTED,
                    f"{word!r} contradicts {antonym!r} in the reference",
                )
    return _SUPPORTED


def score_editing(edited: str, reference: str, judge: Judge) -> FactScore:
    """FactScore of an edited passage against a reference.

    Residual tags are stripped first (lenient parse in target-output form,
    rendering corrections and dropping statement-level tags). A judge
    exception abstains that unit and is counted in `failed`; it never fails
    the whole evaluation. The passage's first failure is logged with its
    traceback.
    """
    doc, _ = parse(edited, Form.TARGET_OUTPUT)
    final_text = derive_original(doc)
    units = split_facts(final_text)
    supported = abstained = failed = 0
    for unit in units:
        try:
            verdict = judge(unit, reference)
        except Exception:
            if not failed:
                import logging

                logging.getLogger(__name__).warning(
                    "judge failed on a unit; failed units count as abstentions", exc_info=True)
            failed += 1
            verdict = JudgeVerdict(VerdictLabel.ABSTAIN, "judge failure")
        if verdict.label is VerdictLabel.SUPPORTED:
            supported += 1
        elif verdict.label is VerdictLabel.ABSTAIN:
            abstained += 1
    return FactScore(supported, len(units), abstained, failed)


# Minimal supported/unsupported template for LLM judging; recorded here so
# runs are reproducible from config alone.
JUDGE_SYSTEM_PROMPT = (
    "You check whether a statement is supported by a reference document. "
    "Answer with exactly one word: Supported or Unsupported."
)

JUDGE_PROMPT_TEMPLATE = """\
Reference:
{reference}

Statement: {fact}

Is the statement fully supported by the reference? Answer Supported or \
Unsupported."""


def llm_judge(client) -> Judge:
    """Wrap a chat-completion client as a judge callable; with a cached
    profile its calls replay from the cache."""
    import re

    from .llm_client import CompletionRequest

    # "supported" right after "not" or "n't" is a denial, not a verdict.
    negated = re.compile(r"(?:\bnot|n['’]t)\s+supported\b")

    def judge(fact: str, reference: str) -> JudgeVerdict:
        reply = client.call(
            CompletionRequest(
                system=JUDGE_SYSTEM_PROMPT,
                user=JUDGE_PROMPT_TEMPLATE.format(reference=reference, fact=fact),
                seed_tag="judge",
            )
        )
        text = reply.text.strip().lower()
        if "unsupported" in text or negated.search(text):
            return JudgeVerdict(VerdictLabel.UNSUPPORTED, reply.text.strip())
        if " supported" in f" {text}":
            return JudgeVerdict(VerdictLabel.SUPPORTED, reply.text.strip())
        return JudgeVerdict(VerdictLabel.ABSTAIN, reply.text.strip())

    return judge


def score_corpus(rows: Iterable[dict], judge: Judge, results=None) -> tuple[list[dict], float, int]:
    """Score {"id", "edited", "reference"} rows, a batch at a time (see
    `jsonl.batches`); returns the per-record results, the corpus mean
    score and the number of units the judge failed on. Each result is
    appended to `results` once its batch is scored: a new list, or any
    object with `append`, such as a writer that keeps none of them."""
    results = [] if results is None else results
    count = failed = 0

    def scores():
        nonlocal count, failed
        # Rows are read, then scored, then handed to `results`, a batch at
        # a time.
        for batch in batches(rows):
            scored = [(row, score_editing(row["edited"], row["reference"], judge)) for row in batch]
            for row, fs in scored:
                result = {"id": str(row["id"]), "supported": fs.supported, "total": fs.total,
                          "abstained": fs.abstained, "score": round(fs.score, 4)}
                results.append(result)
                count += 1
                failed += fs.failed
                yield result["score"]
            del batch, scored, row, fs, result  # before the next batch is drawn

    # fsum: a plain float sum's last bit depends on the row order.
    total = fsum(scores())
    return results, total / count if count else 0.0, failed


def read_editing_rows(path: str | Path) -> Iterator[dict]:
    """Yield each {"id", "edited", "reference"} row of a JSONL file in turn."""
    fields = {"id": (str, int), "edited": str, "reference": str}
    for _, obj, _ in read_jsonl(path, fields=fields):
        yield obj
