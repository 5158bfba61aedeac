"""Acceptance criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion. Tolerances and runtime budgets are pinned here and nowhere
else. Absolute published model scores are out of scope by design: trained
14B models and a proprietary judge are not reproducible at desk scale, so
criteria 7 and 8 pin the orderings and trivial bounds instead.
"""

from __future__ import annotations

import json
import random
import time
from contextlib import contextmanager

from conftest import (
    IDENTICAL_TEXT_ORIGINAL,
    IDENTICAL_TEXT_TAGGED,
    INCONSISTENT_CONTENT_ORIGINAL,
    INCONSISTENT_CONTENT_TAGGED,
    INCORRECT_TYPE_ORIGINAL,
    INCORRECT_TYPE_TAGGED,
    INVALID_FORMAT_ORIGINAL,
    INVALID_FORMAT_TAGGED,
    WORKED_ERRONEOUS,
    WORKED_ORIGINAL,
    WORKED_TAGGED,
    WORKED_TARGET,
    make_context,
    make_passage,
    oracle_counts,
    random_spans,
    write_qa_records,
)
from fintag.cli import dispatch
from fintag.corpus import QARecord, distribution_report
from fintag.detect_eval import (
    MatchSet,
    align_spans,
    evaluate_corpus,
    f1_from_pr,
    score,
)
from fintag.edit_eval import containment_judge, score_editing
from fintag.insertion import (
    InsertionPlan,
    insert_llm,
    insert_rule_based,
    plan_errors,
)
from fintag.llm_client import ClientProfile, LlmClient
from fintag.markup import (
    Form,
    TagSpan,
    Text,
    derive_erroneous,
    derive_original,
    parse,
    serialize,
    to_target_output,
)
from fintag.quality import IssueKind, check, fix
from fintag.records import TaggedRecord, write_records
from fintag.taxonomy import KINDS, ErrorType


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except Exception:
        print(f"[FAIL] criterion {number}: {description}", flush=True)
        raise
    print(f"[PASS] criterion {number}: {description}", flush=True)


def test_criterion_1_worked_example_golden():
    with criterion(1, "worked-example quartet reproduced exactly (< 1s)"):
        started = time.monotonic()

        doc, warnings = parse(WORKED_TAGGED, strict=True)
        assert warnings == ()
        assert serialize(doc) == WORKED_TAGGED
        rendering, spans = derive_erroneous(doc)
        assert rendering == WORKED_ERRONEOUS
        assert derive_original(doc) == WORKED_ORIGINAL
        target = to_target_output(doc)
        assert serialize(target) == WORKED_TARGET

        reparsed, warnings = parse(WORKED_TARGET, Form.TARGET_OUTPUT, strict=True)
        assert warnings == ()
        assert reparsed.segments == doc.segments
        assert derive_erroneous(reparsed)[0] == WORKED_ERRONEOUS
        assert derive_original(reparsed) == WORKED_ORIGINAL

        assert time.monotonic() - started < 1.0


def test_criterion_2_f1_consistency_with_published_tables():
    with criterion(2, "f1_from_pr matches published P/R/F1 triplets to one decimal"):
        assert f1_from_pr(81.3, 100.0) == 89.7
        assert f1_from_pr(86.1, 99.0) == 92.1
        assert f1_from_pr(86.5, 94.5) == 90.3


def test_criterion_3_quality_gate_fixtures():
    with criterion(3, "defect exemplars: relabel, unwrap, discard, discard"):
        doc, warnings = parse(INCORRECT_TYPE_TAGGED)
        record = TaggedRecord("a", INCORRECT_TYPE_ORIGINAL, doc)
        issues = check(record, warnings)
        assert [i.kind for i in issues] == [IssueKind.INCORRECT_TYPE]
        outcome = fix(record, warnings)
        assert outcome.fixed
        assert outcome.record.doc.segments[1].kind is ErrorType.TEMPORAL
        assert "<temporal>" in serialize(outcome.record.doc)

        doc, warnings = parse(IDENTICAL_TEXT_TAGGED)
        record = TaggedRecord("b", IDENTICAL_TEXT_ORIGINAL, doc)
        issues = check(record, warnings)
        assert [i.kind for i in issues] == [IssueKind.IDENTICAL_TEXT]
        outcome = fix(record, warnings)
        assert outcome.fixed
        assert outcome.record.doc.segments == (Text(IDENTICAL_TEXT_ORIGINAL),)

        doc, warnings = parse(INVALID_FORMAT_TAGGED)
        record = TaggedRecord("c", INVALID_FORMAT_ORIGINAL, doc)
        issues = check(record, warnings)
        assert issues and {i.kind for i in issues} == {IssueKind.INVALID_FORMAT}
        assert not fix(record, warnings).fixed

        doc, warnings = parse(INCONSISTENT_CONTENT_TAGGED)
        record = TaggedRecord("d", INCONSISTENT_CONTENT_ORIGINAL, doc)
        issues = check(record, warnings)
        assert [i.kind for i in issues] == [IssueKind.INCONSISTENT_CONTENT]
        assert not fix(record, warnings).fixed


def test_criterion_4_round_trip_property_suite():
    with criterion(4, "1,000 seeded insertions: exact reconstruction, clean gate, parse identity (< 30s)"):
        started = time.monotonic()
        rng = random.Random(1004)
        for i in range(1000):
            passage = make_passage(rng)
            context = make_context(rng, passage)
            plan = plan_errors(passage, seed=i)
            result = insert_rule_based(passage, context, plan, seed=i, record_id=f"a{i}")
            doc = result.record.doc

            assert derive_original(doc) == passage
            assert check(result.record) == []

            text = serialize(doc)
            reparsed, warnings = parse(text, Form.TAGGED_PASSAGE, strict=True)
            assert warnings == () and reparsed == doc
            target = to_target_output(doc)
            target_text = serialize(target)
            reparsed, warnings = parse(target_text, Form.TARGET_OUTPUT, strict=True)
            assert warnings == () and reparsed == target
        elapsed = time.monotonic() - started
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_5_scorer_equals_brute_force_oracle():
    with criterion(5, "scorer equals exhaustive matcher on 10,000 instances (< 2 min)"):
        started = time.monotonic()
        rng = random.Random(1005)
        labels = list(ErrorType)
        doc_any, _ = parse("x")
        for case in range(10_000):
            if case % 20 == 0:
                # dense adversarial layout: everything overlaps
                gold = [
                    TagSpan(rng.choice(labels), rng.randrange(0, 4), rng.randrange(5, 9), "x", None)
                    for _ in range(rng.randint(1, 6))
                ]
                pred = [
                    TagSpan(rng.choice(labels), rng.randrange(0, 4), rng.randrange(5, 9), "x", None)
                    for _ in range(rng.randint(1, 6))
                ]
            else:
                gold = random_spans(rng, labels)
                pred = random_spans(rng, labels)
            pairs, ug, up = align_spans(gold, pred)
            report = score(MatchSet(pairs, ug, up), doc_any, doc_any)
            got = {
                label: {"tp": c.tp, "fp": c.fp, "fn": c.fn}
                for label, c in report.per_kind.items()
                if c.tp or c.fp or c.fn
            }
            assert got == oracle_counts(gold, pred), f"case {case}"
            assert report.overall.tp == sum(v["tp"] for v in got.values())
        elapsed = time.monotonic() - started
        assert elapsed < 120.0, f"took {elapsed:.1f}s"


def test_criterion_6_distribution_reproduction():
    with criterion(6, "10,000-passage run matches configured distribution within ±2%"):
        rng = random.Random(1006)
        records = []
        source_of = {}
        clean_plans = 0
        for i in range(10_000):
            passage = make_passage(rng)
            plan = plan_errors(passage, seed=i)
            if plan.clean:
                clean_plans += 1
            result = insert_rule_based(
                passage, make_context(rng, passage), plan, seed=i, record_id=f"d{i}"
            )
            records.append(result.record)
            source_of[result.record.id] = "finqa" if i % 2 else "tatqa"

        report = distribution_report(records, source_of)
        total = report.total
        assert abs(total.non_hallucinated_pct - 32.5) <= 2.0
        assert total.hallucinated_pct + total.non_hallucinated_pct == 100.0
        assert abs(sum(total.kind_pct.values()) - 100.0) <= 0.5

        weights = {row.kind: row.default_weight for row in KINDS}
        weight_sum = sum(weights.values())
        for kind, weight in weights.items():
            target = 100.0 * weight / weight_sum
            got = total.kind_pct.get(kind.value, 0.0)
            assert abs(got - target) <= 2.0, (kind.value, got, target)


def test_criterion_7_editing_score_ordering():
    with criterion(7, "containment FactScore: No Edit < corrected, perfect == 1.0"):
        rng = random.Random(1007)
        no_edit_scores = []
        corrected_scores = []
        for i in range(60):
            passage = make_passage(rng)
            plan = InsertionPlan(False, 2, (ErrorType.NUMERICAL, ErrorType.TEMPORAL), i)
            result = insert_rule_based(passage, make_context(rng, passage), plan, seed=i)
            erroneous, _ = derive_erroneous(result.record.doc)
            corrected = serialize(to_target_output(result.record.doc))
            no_edit_scores.append(score_editing(erroneous, passage, containment_judge).score)
            corrected_scores.append(score_editing(corrected, passage, containment_judge).score)
            assert score_editing(passage, passage, containment_judge).score == 1.0
        mean_no_edit = sum(no_edit_scores) / len(no_edit_scores)
        mean_corrected = sum(corrected_scores) / len(corrected_scores)
        assert mean_no_edit < mean_corrected
        assert mean_corrected == 1.0


def test_criterion_8_trivial_detection_bounds():
    with criterion(8, "gold-as-prediction scores 100; empty predictions score recall 0"):
        rng = random.Random(1008)
        gold_docs = {}
        raw_gold = {}
        for i in range(50):
            passage = make_passage(rng)
            plan = plan_errors(passage, seed=i)
            result = insert_rule_based(
                passage, make_context(rng, passage), plan, seed=i, record_id=f"t{i}"
            )
            target_text = serialize(to_target_output(result.record.doc))
            doc, _ = parse(target_text, Form.TARGET_OUTPUT)
            gold_docs[f"t{i}"] = doc
            raw_gold[f"t{i}"] = target_text

        perfect = evaluate_corpus(gold_docs, raw_gold)
        assert perfect.overall.precision == 100.0
        assert perfect.overall.recall == 100.0
        assert perfect.overall.f1 == 100.0
        assert perfect.binary.f1 == 100.0
        for counts in perfect.per_kind.values():
            if counts.tp:
                assert counts.f1 == 100.0
        assert perfect.unparseable == 0

        empty = evaluate_corpus(gold_docs, {})
        assert empty.overall.recall == 0.0
        assert empty.binary.recall == 0.0
        for counts in empty.per_kind.values():
            assert counts.recall == 0.0


class _ReplayTransport:
    """Deterministic stand-in endpoint: corrupts the prompt's passage with
    the rule-based inserter and replies in the chat-completion shape."""

    def __init__(self, fail: bool = False):
        self.fail = fail
        self.calls = 0

    def __call__(self, profile, payload, headers):
        self.calls += 1
        if self.fail:
            raise AssertionError("network touched despite warm cache")
        prompt = payload["messages"][1]["content"]
        # The passage slot is the last one; exemplar blocks also say
        # "Passage:".
        start = prompt.rfind("Passage: ") + len("Passage: ")
        end = prompt.rfind("\n\nReturn only")
        passage = prompt[start:end]
        plan = InsertionPlan(False, 1, (ErrorType.NUMERICAL,), 0)
        tagged = serialize(insert_rule_based(passage, "", plan, seed=99).record.doc)
        return 200, json.dumps({"choices": [{"message": {"content": tagged}}]})


def test_criterion_9_determinism(tmp_path, capsys):
    with criterion(9, "identical seeds + warm cache give byte-identical outputs"):
        # Rule-based pipeline through the CLI, run twice.
        qa = tmp_path / "qa.jsonl"
        rng = random.Random(1009)
        write_qa_records(
            qa,
            [
                QARecord(f"q{i}", (make_context(rng, p),), "What?", p)
                for i, p in ((i, make_passage(rng)) for i in range(50))
            ],
        )
        snapshots = []
        for run in ("one", "two"):
            records = tmp_path / f"records-{run}.jsonl"
            fixed = tmp_path / f"fixed-{run}.jsonl"
            pairs = tmp_path / f"pairs-{run}.jsonl"
            assert dispatch(["insert", "--input", str(qa), "--output", str(records), "--seed", "21"]) == 0
            assert dispatch(["fix", "--input", str(records), "--output", str(fixed)]) == 0
            assert dispatch(["pairs", "--records", str(fixed), "--qa", str(qa), "--output", str(pairs)]) == 0
            snapshots.append((records.read_bytes(), fixed.read_bytes(), pairs.read_bytes()))
        capsys.readouterr()
        assert snapshots[0] == snapshots[1]

        # LLM pipeline: first run fills the cache, second run must be able
        # to produce identical bytes with the network unplugged.
        cache = tmp_path / "cache.jsonl"
        profile = ClientProfile(
            name="replay", endpoint="http://unit.test/chat", model="replay-model",
            cache_path=str(cache),
        )
        passages = [make_passage(random.Random(2000 + i)) for i in range(10)]
        outputs = []
        for fail_network in (False, True):
            client = LlmClient(profile, _ReplayTransport(fail=fail_network), sleeper=lambda s: None)
            records = []
            for i, passage in enumerate(passages):
                plan = plan_errors(passage, seed=i) if i % 3 else InsertionPlan(
                    False, 1, (ErrorType.NUMERICAL,), i
                )
                if plan.clean:
                    plan = InsertionPlan(False, 1, (ErrorType.NUMERICAL,), i)
                records.append(
                    insert_llm(passage, "", plan, client, record_id=f"llm{i}")
                )
            out = tmp_path / f"llm-{fail_network}.jsonl"
            write_records(out, records, meta={"seed": 21})
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
