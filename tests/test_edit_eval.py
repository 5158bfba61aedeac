"""Editing-evaluation tests: sentence segmentation, the containment judge,
and FactScore aggregation."""

from __future__ import annotations

import json
import logging
import os
import random
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import WORKED_ERRONEOUS, WORKED_ORIGINAL, make_context, make_passage
from fintag import edit_eval
from fintag.edit_eval import (
    FactScore,
    JudgeVerdict,
    VerdictLabel,
    containment_judge,
    llm_judge,
    score_corpus,
    score_editing,
    split_facts,
)
from fintag.insertion import InsertionPlan, insert_rule_based
from fintag.llm_client import ClientProfile, CompletionReply, LlmClient
from fintag.markup import derive_erroneous, serialize, to_target_output
from fintag.patterns import ANTONYMS, RELATION_WORD_RE, extract_numbers
from fintag.taxonomy import ErrorType


class TestSplitFacts:
    def test_worked_erroneous_passage_has_two_units(self):
        units = split_facts(WORKED_ERRONEOUS)
        assert len(units) == 2
        assert units[0].endswith("$19.5 million.")
        assert units[1].startswith("The bond proceeds")

    def test_empty_string(self):
        assert split_facts("") == []

    def test_decimal_guard(self):
        units = split_facts("Revenue was $2.4 billion. Net income rose.")
        assert units == ["Revenue was $2.4 billion.", "Net income rose."]

    def test_abbreviation_guard(self):
        units = split_facts("Shares of Acme Inc. fell after the update. Volume rose.")
        assert len(units) == 2
        assert units[0].startswith("Shares")

    def test_units_cover_text_without_separators(self):
        text = "One is 1. Two is 2.\nThree is 3."
        units = split_facts(text)
        assert units == ["One is 1.", "Two is 2.", "Three is 3."]


class TestContainmentJudge:
    def test_contained_amount_supported(self):
        verdict = containment_judge(
            "The interest expense is $19.5 million.",
            "filings show the interest expense is $19.5 million for the bonds",
        )
        assert verdict.label is VerdictLabel.SUPPORTED

    def test_wrong_date_unsupported(self):
        verdict = containment_judge(
            "The bonds are due August 2008.",
            "the series first mortgage bonds due September 2018",
        )
        assert verdict.label is VerdictLabel.UNSUPPORTED
        assert "2008" in (verdict.rationale or "")

    def test_no_checkable_tokens_vacuously_supported(self):
        verdict = containment_judge(
            "The outlook remains broadly unchanged.", "anything at all"
        )
        assert verdict.label is VerdictLabel.SUPPORTED

    def test_relation_contradiction_unsupported(self):
        verdict = containment_judge(
            "Operating earnings decreased during the year.",
            "Operating earnings increased during the year. Other text here.",
        )
        assert verdict.label is VerdictLabel.UNSUPPORTED

    def test_same_relation_word_supported(self):
        verdict = containment_judge(
            "Operating earnings increased during the year.",
            "Operating earnings increased during the year.",
        )
        assert verdict.label is VerdictLabel.SUPPORTED

    def test_relation_word_without_lexicon_entry_is_skipped(self):
        # "loſs" and "RİSE" match the relation regex only under Unicode case
        # folding; lower-cased, neither is a lexicon key.
        assert containment_judge("The loſs was small.", "x").label is VerdictLabel.SUPPORTED
        assert containment_judge("Sales RİSE.", "Sales fell.").label is VerdictLabel.SUPPORTED
        verdict = containment_judge("The loſs rose.", "The loss fell.")
        assert verdict.rationale == "'rose' contradicts 'fell' in the reference"

    def test_rationale_names_the_first_contradicted_word_under_any_hash_seed(self):
        src = os.path.dirname(os.path.dirname(edit_eval.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        probe = (
            "from fintag.edit_eval import containment_judge\n"
            "print(containment_judge('Sales rose and margin increased.',"
            " 'Sales fell and margin decreased.').rationale)\n"
        )
        for seed in range(7):
            env = dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=str(seed))
            out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                                 encoding="utf-8", check=True)
            assert out.stdout.strip() == "'rose' contradicts 'fell' in the reference", seed

    def test_never_abstains(self):
        rng = random.Random(2)
        for _ in range(50):
            fact = make_passage(rng).split(". ")[0]
            verdict = containment_judge(fact, make_passage(rng))
            assert verdict.label is not VerdictLabel.ABSTAIN


_ORACLE_STOPWORDS = frozenset(
    "a an and are as at be by for from in is it its of on or that the this "
    "to was were with".split()
)


def _oracle_content_words(text: str) -> set[str]:
    return {
        w
        for w in (t.strip(".,;:()%$").lower() for t in text.split())
        if w and w not in _ORACLE_STOPWORDS and w.isalpha()
    }


def per_fact_containment_judge(fact: str, reference: str) -> JudgeVerdict:
    """The containment judge as it was before the reference index: it
    normalizes every number and analyses the whole reference for every
    fact, with its own copy of the content-word rule. Kept as the oracle
    for the indexed judge, with the judge's two later fixes: relation
    words are checked in order of first appearance, and one without a
    lexicon entry is skipped."""
    fact_numbers = extract_numbers(fact)
    missing = fact_numbers - extract_numbers(reference)
    if missing:
        return JudgeVerdict(
            VerdictLabel.UNSUPPORTED,
            f"values absent from reference: {sorted(missing)}",
        )

    relation_words = [
        word
        for word in dict.fromkeys(m.group().lower() for m in RELATION_WORD_RE.finditer(fact))
        if word in ANTONYMS
    ]
    if relation_words:
        ref_sentences = split_facts(reference) or [reference]
        fact_words = _oracle_content_words(fact)
        counterpart = max(
            ref_sentences, key=lambda s: len(_oracle_content_words(s) & fact_words)
        )
        counterpart_lower = counterpart.lower()
        counterpart_words = {
            m.group().lower() for m in RELATION_WORD_RE.finditer(counterpart_lower)
        }
        for word in relation_words:
            antonym = ANTONYMS[word]
            if antonym in counterpart_words and word not in counterpart_words:
                return JudgeVerdict(
                    VerdictLabel.UNSUPPORTED,
                    f"{word!r} contradicts {antonym!r} in the reference",
                )
    return JudgeVerdict(VerdictLabel.SUPPORTED)


_RELATION_PAIRS = (("rose", "fell"), ("increased", "decreased"), ("up", "down"),
                   ("has", "does not have"))
# A small vocabulary so that facts and reference sentences often tie on
# shared content words. "loſs" and "RİSE" match the relation regex under
# IGNORECASE but lower-case to no lexicon entry. "upside" and "downturn"
# hold an antonym inside a word, "FELL" and "Has" in other cases.
_WORDS = ("sales", "costs", "margin", "the", "of", "loſs", "RİSE", "upside", "downturn", "FELL",
          "Has", "ſ")
# Spellings of one value with different cores ("1,200", "1200" and the
# Arabic-Indic "١٢٠٠"; "19.5" and "19.500"; "012" and "12%"), so that the
# judge's raw-core path and its normalizing fallback both run.
_NUMBERS = ("$1,200", "1,200", "1200", "١٢٠٠", "19.5", "19.50", "19.500", "2018", "12%", "012",
            "7", "3,")


@st.composite
def _token(draw):
    kind = draw(st.sampled_from(("word", "relation", "number")))
    if kind == "word":
        return draw(st.sampled_from(_WORDS))
    if kind == "number":
        return draw(st.sampled_from(_NUMBERS))
    word = draw(st.sampled_from(_RELATION_PAIRS))[draw(st.integers(0, 1))]
    upper = draw(st.lists(st.booleans(), min_size=len(word), max_size=len(word)))
    return "".join(c.upper() if up else c for c, up in zip(word, upper))


_SENTENCE = st.lists(_token(), min_size=1, max_size=4)
_SEPARATOR = st.sampled_from((". ", ".\n", "! ", " ", ", "))


def _join(sentences, separators):
    return "".join(" ".join(words).capitalize() + sep for words, sep in zip(sentences, separators))


@st.composite
def _reference_and_facts(draw):
    """A reference and facts built mostly from its own words, some with a
    relation word flipped, so overlaps tie and contradictions are common."""
    sentences = draw(st.lists(_SENTENCE, max_size=4))
    separators = draw(st.lists(_SEPARATOR, min_size=len(sentences), max_size=len(sentences)))
    reference = _join(sentences, separators) or draw(st.sampled_from(("", " ", "\n\t ")))
    pool = [w for words in sentences for w in words]
    flips = {a: b for pair in _RELATION_PAIRS for a, b in (pair, pair[::-1])}
    facts = []
    for _ in range(draw(st.integers(1, 4))):
        own = st.sampled_from(pool) if pool else _token()
        words = draw(st.lists(st.one_of(own, _token()), min_size=1, max_size=5))
        if draw(st.booleans()):
            words = [flips.get(w.lower(), w) for w in words]
        facts.append(_join([words], ["."]))
    return reference, facts


def _outcome(judge, fact, reference):
    try:
        verdict = judge(fact, reference)
    except Exception as exc:  # the oracle's failures must be reproduced too
        return type(exc).__name__
    return verdict.label, verdict.rationale


class TestReferenceIndex:
    @settings(max_examples=400, deadline=None)
    @given(_reference_and_facts())
    # The reference holds a fact's antonym only inside a word, only in
    # upper case, or split across two sentences.
    @example(("The upside of sales. Costs downturn.", ["Sales down.", "Costs up."]))
    @example(("SALES FELL. Costs ROSE.", ["Sales rose.", "Costs fell."]))
    @example(("Sales does not. Have costs.", ["Sales has costs."]))
    def test_indexed_judge_matches_per_fact_oracle(self, case):
        reference, facts = case
        for fact in facts:
            assert _outcome(containment_judge, fact, reference) == _outcome(
                per_fact_containment_judge, fact, reference
            )

    def test_tie_picks_first_sentence(self):
        # Both sentences share one content word with the fact; only the
        # first contradicts it.
        fact = "Sales and costs rose."
        verdict = containment_judge(fact, "Sales fell. Costs increased.")
        assert verdict.label is VerdictLabel.UNSUPPORTED
        assert containment_judge(fact, "Costs increased. Sales fell.").label is VerdictLabel.SUPPORTED

    def test_whitespace_reference_is_its_own_sentence(self):
        assert containment_judge("Sales rose.", "  ").label is VerdictLabel.SUPPORTED
        assert containment_judge("Sales rose 7.", "  ").label is VerdictLabel.UNSUPPORTED

    def test_reference_numbers_are_extracted_once_per_passage(self, monkeypatch):
        calls = {"cores": [], "sentences": [], "relations": [], "values": []}

        def counting(name, fn):
            def wrapped(text):
                calls[name].append(text)
                return fn(text)

            return wrapped

        monkeypatch.setattr(edit_eval, "number_cores", counting("cores", edit_eval.number_cores))
        monkeypatch.setattr(edit_eval, "sentence_spans", counting("sentences", edit_eval.sentence_spans))
        monkeypatch.setattr(edit_eval, "number_values", counting("values", edit_eval.number_values))
        edit_eval._reference_index.cache_clear()
        edit_eval._reference_sentences.cache_clear()
        edit_eval._reference_values.cache_clear()
        edit_eval._relation_words.cache_clear()
        scan = RELATION_WORD_RE.finditer
        monkeypatch.setattr(edit_eval, "RELATION_WORD_RE", type("Scanner", (), {
            "finditer": staticmethod(lambda text: calls["relations"].append(text) or scan(text))}))
        reference = "Sales rose to $1,200 in 2018. Costs fell to 19.5. Margin was 12%."
        edited = ("Sales rose to $1,200 in 2018. Costs fell to 19.5. Margin was 7%. Sales rose. "
                  "Sales rose again. Costs were 20. Costs fell.")
        fs = score_editing(edited, reference, containment_judge)
        assert (fs.total, fs.supported) == (7, 5)
        # Each fact is read once, the reference once, however many facts;
        # the reference's values once, for the two facts that spell a
        # number it does not.
        assert calls["cores"].count(reference) == 1
        assert len(calls["cores"]) == fs.total + 1
        assert calls["sentences"].count(reference) == 1
        assert calls["values"] == [frozenset({"1,200", "2018", "19.5", "12"})]
        # Relation words: once in each of the five facts that reach the
        # relation check, and once in each of the two reference sentences
        # picked as a counterpart, lower-cased.
        counterparts = [text for text in calls["relations"] if text.islower()]
        assert sorted(counterparts) == ["costs fell to 19.5.", "sales rose to $1,200 in 2018."]
        assert len(calls["relations"]) == 5 + 2
        # A reference that holds no antonym of any fact's relation word
        # ("fell", "down", "decreased") is never split into sentences, and
        # no sentence of it is scanned for relation words.
        calls["relations"].clear()
        reference = "Sales rose to $1,200. Margin was up 12%."
        fs = score_editing("Sales rose. Margin was up. Costs increased.", reference, containment_judge)
        assert (fs.total, fs.supported) == (3, 3)
        assert calls["sentences"].count(reference) == 0
        assert len(calls["relations"]) == 3

    def test_index_holds_only_immutable_values(self):
        reference = "Sales rose 1,200. Costs FELL."
        cores, lower = edit_eval._reference_index(reference)
        assert cores == frozenset({"1,200"})
        assert lower == reference.lower()
        assert edit_eval._reference_values(cores) == frozenset({"1200"})
        sentences, words = edit_eval._reference_sentences(reference)
        assert isinstance(sentences, tuple) and all(isinstance(s, str) for s in sentences)
        assert isinstance(words, tuple) and len(words) == len(sentences)
        assert all(isinstance(w, frozenset) for w in words)
        assert isinstance(edit_eval._relation_words(sentences[0]), frozenset)


class TestFactScore:
    def test_score_definition(self):
        assert FactScore(3, 4, 0).score == 0.75
        assert FactScore(2, 4, 2).score == 1.0  # abstentions excluded
        assert FactScore(0, 0, 0).score == 0.0
        assert FactScore(0, 3, 3).score == 0.0

    def test_invariant_enforced(self):
        with pytest.raises(ValueError):
            FactScore(3, 2, 0)
        with pytest.raises(ValueError):
            FactScore(0, 2, 1, failed=2)

    def test_failed_leaves_score_unchanged(self):
        assert FactScore(2, 4, 2, failed=2).score == FactScore(2, 4, 2).score
        assert FactScore(0, 3, 3).failed == 0


class TestScoreEditing:
    def test_reference_scores_one(self):
        assert score_editing(WORKED_ORIGINAL, WORKED_ORIGINAL, containment_judge).score == 1.0

    def test_tagged_target_renders_corrections_before_judging(self):
        # A target-output document should be judged on its corrected text.
        from fintag.markup import parse, Form

        doc, _ = parse(WORKED_ERRONEOUS)  # plain text
        score_plain = score_editing(WORKED_ERRONEOUS, WORKED_ORIGINAL, containment_judge)
        # The first sentence carries the wrong date, the appended sentence
        # has no checkable tokens.
        assert score_plain.total == 2
        assert score_plain.score == 0.5

    def test_all_abstain(self):
        def refuses(fact, reference):
            return JudgeVerdict(VerdictLabel.ABSTAIN, "no idea")

        fs = score_editing("First point. Second point. Third point.", "ref", refuses)
        assert fs.abstained == fs.total == 3
        assert fs.score == 0.0

    def test_judge_exception_abstains_single_unit(self):
        calls = []

        def flaky(fact, reference):
            calls.append(fact)
            if len(calls) == 1:
                raise RuntimeError("boom")
            return JudgeVerdict(VerdictLabel.SUPPORTED)

        fs = score_editing("One is fine. Two is fine.", "ref", flaky)
        assert fs.total == 2 and fs.abstained == 1 and fs.supported == 1
        assert fs.failed == 1

    def test_refusals_are_not_failures(self):
        def refuses(fact, reference):
            return JudgeVerdict(VerdictLabel.ABSTAIN, "no idea")

        assert score_editing("One. Two.", "ref", refuses).failed == 0

    def test_first_failure_of_a_passage_is_logged_with_traceback(self, caplog):
        def broken(fact, reference):
            raise RuntimeError("endpoint unreachable")

        with caplog.at_level(logging.WARNING, logger="fintag.edit_eval"):
            fs = score_editing("One. Two. Three.", "ref", broken)
        assert fs.failed == fs.abstained == fs.total == 3
        assert len(caplog.records) == 1
        assert "endpoint unreachable" in caplog.text
        assert "Traceback" in caplog.text

    def test_summary_leaves_failed_out_of_records(self):
        def fails_on_costs(fact, reference):
            if "Costs" in fact:
                raise RuntimeError("endpoint unreachable")
            return JudgeVerdict(VerdictLabel.SUPPORTED)

        rows = [{"id": 7, "edited": "Sales rose. Costs fell.", "reference": "ref"}]
        results, mean, failed = score_corpus(rows, fails_on_costs)
        assert results == [{"id": "7", "supported": 1, "total": 2, "abstained": 1, "score": 1.0}]
        assert mean == 1.0
        assert failed == 1

    def test_unit_order_invariance(self):
        a = "Revenue was $5 million. Costs were $9 million."
        b = "Costs were $9 million. Revenue was $5 million."
        ref = "Revenue was $5 million and costs were $9 million."
        assert (
            score_editing(a, ref, containment_judge).score
            == score_editing(b, ref, containment_judge).score
        )

    def test_derendering_idempotence(self):
        text = "Plain passage with $5 million. Second sentence."
        ref = "It was $5 million."
        direct = score_editing(text, ref, containment_judge)
        from fintag.markup import parse, Form, derive_original

        rendered = derive_original(parse(text, Form.TARGET_OUTPUT).document)
        assert direct == score_editing(rendered, ref, containment_judge)


class TestEditOrdering:
    """No-edit text scores strictly below toolkit-corrected text on a
    corrupted corpus; perfect correction scores 1.0."""

    def _corpus(self, n=25):
        rng = random.Random(55)
        rows = []
        for i in range(n):
            passage = make_passage(rng)
            context = make_context(rng, passage)
            plan = InsertionPlan(
                False, 2, (ErrorType.NUMERICAL, ErrorType.TEMPORAL), i
            )
            result = insert_rule_based(passage, context, plan, seed=i)
            erroneous, _ = derive_erroneous(result.record.doc)
            corrected = serialize(to_target_output(result.record.doc))
            rows.append((passage, erroneous, corrected))
        return rows

    def test_no_edit_scores_below_corrected(self):
        rows = self._corpus()
        no_edit = [
            score_editing(err, passage, containment_judge).score
            for passage, err, _ in rows
        ]
        corrected = [
            score_editing(target, passage, containment_judge).score
            for passage, _, target in rows
        ]
        assert sum(no_edit) / len(no_edit) < sum(corrected) / len(corrected)
        assert all(score == 1.0 for score in corrected)

    def test_replacing_unsupported_unit_never_decreases_score(self):
        passage, erroneous, _ = self._corpus(1)[0]
        reference_sentences = split_facts(passage)
        units = split_facts(erroneous)
        base = score_editing(erroneous, passage, containment_judge)
        for i, unit in enumerate(units):
            if containment_judge(unit, passage).label is VerdictLabel.UNSUPPORTED:
                patched = units[:]
                patched[i] = reference_sentences[0]
                improved = score_editing(" ".join(patched), passage, containment_judge)
                assert improved.score >= base.score


def test_llm_judge_parses_verdicts():
    class StubClient:
        def __init__(self, text):
            self.text = text

        def call(self, request):
            return CompletionReply(self.text, "stub", 0.0)

    assert llm_judge(StubClient("Supported"))("f", "r").label is VerdictLabel.SUPPORTED
    assert llm_judge(StubClient("Unsupported."))("f", "r").label is VerdictLabel.UNSUPPORTED
    assert llm_judge(StubClient("cannot say"))("f", "r").label is VerdictLabel.ABSTAIN
    # "supported" right after "not" or "n't" is a denial.
    for denial in ("Not supported.", "The statement is not supported by the reference.",
                   "No, it is not supported", "It isn't supported.", "It isn’t\nsupported"):
        assert llm_judge(StubClient(denial))("f", "r").label is VerdictLabel.UNSUPPORTED, denial


def test_llm_judge_replays_from_cache(tmp_path):
    rows = [
        {"id": "e1", "edited": WORKED_ORIGINAL, "reference": WORKED_ORIGINAL},
        {"id": "e2", "edited": WORKED_ERRONEOUS, "reference": WORKED_ORIGINAL},
    ]
    profile = ClientProfile(name="judge", endpoint="http://unit.test/v1/chat",
                            model="judge-model", cache_path=str(tmp_path / "judge.jsonl"))
    calls = []

    def recording(profile, payload, headers):
        user = payload["messages"][1]["content"]
        fact = user.split("Statement: ", 1)[1].split("\n", 1)[0]
        calls.append(fact)
        verdict = "Supported" if fact in WORKED_ORIGINAL else "Unsupported"
        return 200, json.dumps({"choices": [{"message": {"content": verdict}}]})

    def offline(profile, payload, headers):
        calls.append(None)
        raise AssertionError("replay must not reach the transport")

    first = score_corpus(rows, llm_judge(LlmClient(profile, recording, sleeper=lambda s: None)))
    assert calls and first[1] < 1.0 and first[2] == 0
    calls.clear()
    second = score_corpus(rows, llm_judge(LlmClient(profile, offline, sleeper=lambda s: None)))
    assert second == first
    assert calls == []


@st.composite
def _editing_rows(draw):
    """Rows of a corrupted corpus, each edited passage left as it was,
    corrected with residual tags, or the clean reference itself."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for i in range(draw(st.integers(0, 8))):
        reference = make_passage(rng)
        plan = InsertionPlan(False, 2, (ErrorType.NUMERICAL, ErrorType.RELATION), i)
        doc = insert_rule_based(reference, make_context(rng, reference), plan, seed=i).record.doc
        forms = (reference, derive_erroneous(doc)[0], serialize(to_target_output(doc)))
        rows.append({"id": f"e{i}", "edited": draw(st.sampled_from(forms)), "reference": reference})
    return rows


@settings(max_examples=150, deadline=None)
@given(_editing_rows(), st.frozensets(st.integers(0, 4)), st.data())
def test_corpus_score_does_not_depend_on_row_order(rows, failing, data):
    def flaky(fact, reference):
        if len(fact) % 5 in failing:
            raise RuntimeError("endpoint unreachable")
        return containment_judge(fact, reference)

    results, mean, failed = score_corpus(rows, flaky)
    assert failed == sum(score_editing(r["edited"], r["reference"], flaky).failed for r in rows)
    shuffled = data.draw(st.permutations(rows))
    again, mean_again, failed_again = score_corpus(shuffled, flaky)
    by_id = lambda result: result["id"]
    assert sorted(again, key=by_id) == sorted(results, key=by_id)
    assert (mean_again, failed_again) == (mean, failed)
