"""Editing-evaluation tests: sentence segmentation, the containment judge,
and FactScore aggregation."""

from __future__ import annotations

import json
import random

import pytest

from conftest import WORKED_ERRONEOUS, WORKED_ORIGINAL, make_context, make_passage
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
from fintag.markup import ErrorType, derive_erroneous, serialize, to_target_output


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

    def test_never_abstains(self):
        rng = random.Random(2)
        for _ in range(50):
            fact = make_passage(rng).split(". ")[0]
            verdict = containment_judge(fact, make_passage(rng))
            assert verdict.label is not VerdictLabel.ABSTAIN


class TestFactScore:
    def test_score_definition(self):
        assert FactScore(3, 4, 0).score == 0.75
        assert FactScore(2, 4, 2).score == 1.0  # abstentions excluded
        assert FactScore(0, 0, 0).score == 0.0
        assert FactScore(0, 3, 3).score == 0.0

    def test_invariant_enforced(self):
        with pytest.raises(ValueError):
            FactScore(3, 2, 0)


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

        def complete(self, request):
            return CompletionReply(self.text, "stub", 0.0)

    assert llm_judge(StubClient("Supported"))("f", "r").label is VerdictLabel.SUPPORTED
    assert llm_judge(StubClient("Unsupported."))("f", "r").label is VerdictLabel.UNSUPPORTED
    assert llm_judge(StubClient("cannot say"))("f", "r").label is VerdictLabel.ABSTAIN


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
    assert calls and first[1] < 1.0
    calls.clear()
    second = score_corpus(rows, llm_judge(LlmClient(profile, offline, sleeper=lambda s: None)))
    assert second == first
    assert calls == []
