"""Corpus pipeline tests: ingest, grounding filter, split, training pairs
and distribution reporting."""

from __future__ import annotations

import json
import random

import pytest

from conftest import (
    WORKED_ERRONEOUS,
    WORKED_ORIGINAL,
    WORKED_TAGGED,
    WORKED_TARGET,
    make_context,
    make_passage,
)
from fintag.corpus import (
    IngestStats,
    QARecord,
    distribution_report,
    emit_training_pair,
    filter_grounded,
    ingest,
    passage_of_prompt,
    join_qa,
    read_pairs,
    split,
    write_pairs,
    write_qa_records,
)
from fintag.insertion import InserterConfig, insert_rule_based, plan_errors
from fintag.markup import Form, label_of, parse
from fintag.quality import TaggedRecord


def _qa(rid="q1", docs=("evidence",), question="What?", response="Answer."):
    return QARecord(rid, tuple(docs), question, response, source="test")


class TestIngest:
    def test_well_formed_lines(self, tmp_path):
        path = tmp_path / "qa.jsonl"
        rows = [
            {"id": f"r{i}", "documents": ["doc"], "question": "q", "response": "a"}
            for i in range(3)
        ]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
        stats = IngestStats()
        records = list(ingest(path, "finqa", stats=stats))
        assert len(records) == 3
        assert stats.kept == 3 and stats.skipped == 0
        assert all(r.source == "finqa" for r in records)

    def test_missing_response_is_skipped_with_warning(self, tmp_path):
        path = tmp_path / "qa.jsonl"
        rows = [
            {"id": "ok", "documents": ["d"], "question": "q", "response": "a"},
            {"id": "bad", "documents": ["d"], "question": "q"},
        ]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
        stats = IngestStats()
        records = list(ingest(path, stats=stats))
        assert [r.id for r in records] == ["ok"]
        assert stats.skipped == 1
        assert "response" in stats.reasons[0]

    def test_bad_json_and_empty_documents_skipped(self, tmp_path):
        path = tmp_path / "qa.jsonl"
        good = {"id": "ok", "documents": ["d"], "question": "q", "response": "a"}
        path.write_text(
            "not json\n"
            + json.dumps({"id": "x", "documents": [], "question": "q", "response": "a"})
            + "\n"
            + json.dumps(good)
            + "\n",
            encoding="utf-8",
        )
        stats = IngestStats()
        records = list(ingest(path, stats=stats))
        assert len(records) == 1 and stats.skipped == 2

    def test_non_object_lines_are_skipped_not_taken_for_headers(self, tmp_path):
        path = tmp_path / "qa.jsonl"
        good = {"id": "ok", "documents": ["d"], "question": "q", "response": "a"}
        path.write_text(
            "5\n" + json.dumps("a string with _meta in it") + "\n" + json.dumps(good) + "\n",
            encoding="utf-8",
        )
        stats = IngestStats()
        assert [r.id for r in ingest(path, stats=stats)] == ["ok"]
        assert (stats.read, stats.kept, stats.skipped) == (3, 1, 2)
        assert stats.reasons == ["line 1: not a JSON object", "line 2: not a JSON object"]

    def test_lone_surrogate_line_is_skipped(self, tmp_path):
        path = tmp_path / "qa.jsonl"
        good = '{"id": "ok", "documents": ["d \\ud83d\\ude00"], "question": "q", "response": "a"}'
        bad = '{"id": "x", "documents": ["d"], "question": "q", "response": "a\\ud800"}'
        path.write_text(f"{bad}\n{good}\n", encoding="utf-8")
        stats = IngestStats()
        assert [r.id for r in ingest(path, stats=stats)] == ["ok"]
        assert (stats.read, stats.kept, stats.skipped) == (2, 1, 1)
        assert stats.reasons == ["line 1: lone surrogate in a string (UTF-8 cannot encode it)"]

    def test_wrong_typed_field_is_skipped_with_its_reason(self, tmp_path):
        path = tmp_path / "qa.jsonl"
        rows = [
            {"id": "ok", "context": ["d"], "question": "q", "response": "a"},
            {"id": "r", "context": ["d"], "question": "q", "response": 5},
            {"id": "d", "context": 7, "question": "q", "response": "a"},
            {"id": 1.5, "context": ["d"], "question": "q", "response": "a"},
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        stats = IngestStats()
        records = list(ingest(path, field_map={"documents": "context"}, stats=stats))
        assert [r.id for r in records] == ["ok"]
        assert (stats.read, stats.kept, stats.skipped) == (4, 1, 3)
        assert stats.reasons == [
            "line 2: field 'response' is int, expected str",
            "line 3: field 'context' is int, expected str or list",
            "line 4: field 'id' is float, expected str or int",
        ]

    def test_field_map(self, tmp_path):
        path = tmp_path / "qa.jsonl"
        path.write_text(
            json.dumps({"id": "r", "context": ["d"], "question": "q", "answer": "a"}) + "\n",
            encoding="utf-8",
        )
        records = list(
            ingest(path, field_map={"documents": "context", "response": "answer"})
        )
        assert records[0].documents == ("d",)
        assert records[0].response == "a"

    def test_write_ingest_round_trip(self, tmp_path):
        rng = random.Random(4)
        originals = [
            QARecord(
                f"rt{i}",
                (make_passage(rng), "extra row"),
                "What changed?",
                make_passage(rng),
            )
            for i in range(8)
        ]
        first = tmp_path / "first.jsonl"
        write_qa_records(first, originals)
        loaded = list(ingest(first))
        second = tmp_path / "second.jsonl"
        write_qa_records(second, loaded)
        assert first.read_text(encoding="utf-8") == second.read_text(encoding="utf-8")


    @pytest.mark.parametrize("ids", [["1", "b"], ["b", "1"], ["x", "1", "b", "1"], []])
    def test_join_gives_the_record_ingest_read_in_any_order(self, tmp_path, ids):
        path = tmp_path / "qa.jsonl"
        rows = [
            json.dumps({"id": 1, "documents": "Sales were €5.", "question": 2, "response": "Up €5."}),
            '{"id": "bad", "documents": []}',
            "",
            "\u2028" + json.dumps({"id": "b", "documents": ["d", "e"], "question": "q", "response": "r"}),
        ]
        path.write_bytes("\r\n".join(rows).encode("utf-8") + b"\r")
        by_id = {qa.id: qa for qa in ingest(path, "finqa")}
        joined = list(join_qa(path, ((rid, n) for n, rid in enumerate(ids)), "finqa"))
        assert joined == [(n, by_id.get(rid)) for n, rid in enumerate(ids)]

    def test_join_checks_ids_past_the_last_one_asked_for(self, tmp_path):
        path = tmp_path / "qa.jsonl"
        row = {"documents": ["d"], "question": "q", "response": "r"}
        path.write_text("".join(json.dumps(row | {"id": rid}) + "\n" for rid in ("a", "b", "a")),
                        encoding="utf-8")
        with pytest.raises(ValueError, match=r"qa.jsonl:3: duplicate id 'a' \(first at line 1\)"):
            list(join_qa(path, [("a", 0)]))


class TestGroundingFilter:
    def test_grounded_numbers_retained(self):
        qa = _qa(docs=("the expense is $19.5 million",), response="It is $19.5 million.")
        assert filter_grounded(qa) is True

    def test_ungrounded_number_rejected(self):
        qa = _qa(docs=("the expense is $19.5 million",), response="It is $99.9 billion.")
        assert filter_grounded(qa) is False

    def test_no_numbers_vacuously_true(self):
        qa = _qa(docs=("anything",), response="Costs were broadly flat.")
        assert filter_grounded(qa) is True

    def test_normalization_across_formats(self):
        qa = _qa(docs=("value was 1,204",), response="The value was $1204.")
        assert filter_grounded(qa) is True

    def test_hook_overrides_heuristic(self):
        qa = _qa(docs=("no numbers here",), response="It is $5.")
        assert filter_grounded(qa, hook=lambda r: True) is True
        assert filter_grounded(qa, hook=lambda r: False) is False

    def test_hook_failure_retains_with_flag(self):
        def broken(record):
            raise RuntimeError("transport down")

        stats = IngestStats()
        assert filter_grounded(_qa(), hook=broken, stats=stats) is True
        assert stats.hook_failures == 1


class TestSplit:
    def test_95_5(self):
        train, val = split(list(range(100)), 0.95, seed=1)
        assert len(train) == 95 and len(val) == 5

    def test_single_record_floors_validation(self):
        train, val = split([1], 0.95, seed=1)
        assert len(train) == 1 and len(val) == 0

    def test_deterministic(self):
        data = list(range(57))
        assert split(data, 0.9, seed=7) == split(data, 0.9, seed=7)

    def test_disjoint_exhaustive(self):
        data = list(range(201))
        train, val = split(data, 0.95, seed=3)
        assert sorted(train + val) == data
        assert not set(train) & set(val)
        assert abs(len(val) - 201 * 0.05) < 1

    def test_rejects_bad_ratio(self):
        with pytest.raises(ValueError):
            split([1, 2], 1.0, seed=0)


class TestTrainingPairs:
    def test_worked_example_pair(self):
        doc, _ = parse(WORKED_TAGGED)
        record = TaggedRecord("w1", WORKED_ORIGINAL, doc, "rule-based")
        qa = QARecord("w1", ("evidence table", WORKED_ORIGINAL), "q", WORKED_ORIGINAL, "finqa")
        pair = emit_training_pair(record, qa)
        assert pair.target == WORKED_TARGET
        assert WORKED_ERRONEOUS in pair.prompt
        assert passage_of_prompt(pair.prompt) == WORKED_ERRONEOUS
        assert "evidence table" in pair.prompt
        assert pair.meta == {"kinds": ["temporal", "unverifiable"], "source": "finqa"}

    def test_clean_record_target_equals_passage(self):
        doc, _ = parse("No problems here.")
        record = TaggedRecord("c1", "No problems here.", doc)
        pair = emit_training_pair(record, _qa("c1"))
        assert pair.target == "No problems here."
        assert passage_of_prompt(pair.prompt) == "No problems here."

    def test_pair_metadata_matches_parsed_target_on_seeded_corpus(self):
        rng = random.Random(77)
        for i in range(120):
            passage = make_passage(rng)
            context = make_context(rng, passage)
            result = insert_rule_based(
                passage, context, plan_errors(passage, seed=i), seed=i, record_id=f"m{i}"
            )
            qa = QARecord(f"m{i}", (context,), "q", passage, "tatqa")
            pair = emit_training_pair(result.record, qa)
            reparsed, warnings = parse(pair.target, Form.TARGET_OUTPUT)
            assert warnings == ()
            assert [label_of(k) for k in reparsed.kinds()] == pair.meta["kinds"]
            from fintag.markup import derive_erroneous

            assert derive_erroneous(reparsed)[0] == passage_of_prompt(pair.prompt)

    def test_pairs_jsonl_round_trip(self, tmp_path):
        doc, _ = parse(WORKED_TAGGED)
        record = TaggedRecord("w1", WORKED_ORIGINAL, doc)
        pair = emit_training_pair(record, _qa("w1"))
        path = tmp_path / "pairs.jsonl"
        write_pairs(path, [pair], meta={"seed": 0})
        loaded = read_pairs(path)
        assert loaded == [pair]


def _record_with_kinds(rid, passage, kinds, seed):
    from fintag.insertion import InsertionPlan

    plan = InsertionPlan(False, len(kinds), tuple(kinds), seed)
    return insert_rule_based(passage, "", plan, seed=seed, record_id=rid).record


class TestDistributionReport:
    def test_all_clean_corpus(self):
        doc, _ = parse("Nothing wrong.")
        records = [TaggedRecord(f"r{i}", "Nothing wrong.", doc) for i in range(4)]
        report = distribution_report(records)
        assert report.total.non_hallucinated_pct == 100.0
        assert report.total.hallucinated_pct == 0.0
        assert report.total.kind_pct == {}

    def test_two_sources_mix_to_size_weighted_total(self):
        rng = random.Random(15)
        records = []
        source_of = {}
        for i in range(40):
            passage = make_passage(rng)
            plan = plan_errors(passage, seed=i)
            record = insert_rule_based(passage, "", plan, seed=i, record_id=f"a{i}").record
            records.append(record)
            source_of[record.id] = "finqa" if i % 3 else "tatqa"
        report = distribution_report(records, source_of)
        fin, tat, total = (
            report.sources["finqa"], report.sources["tatqa"], report.total,
        )
        n = fin.passages + tat.passages
        assert n == 40
        mixed = (fin.hallucinated_pct * fin.passages + tat.hallucinated_pct * tat.passages) / n
        assert total.hallucinated_pct == pytest.approx(mixed)
        for kind, pct in total.kind_pct.items():
            mixed_tags = (
                fin.kind_pct.get(kind, 0.0) * fin.tags + tat.kind_pct.get(kind, 0.0) * tat.tags
            ) / (fin.tags + tat.tags)
            assert pct == pytest.approx(mixed_tags)

    def test_column_invariants(self):
        rng = random.Random(8)
        records = []
        for i in range(60):
            passage = make_passage(rng)
            config = InserterConfig(clean_probability=0.3)
            record = insert_rule_based(
                passage, make_context(rng, passage),
                plan_errors(passage, config, seed=i), seed=i, record_id=f"c{i}",
            ).record
            records.append(record)
        report = distribution_report(records)
        assert report.total.hallucinated_pct + report.total.non_hallucinated_pct == pytest.approx(100.0, abs=0.1)
        assert sum(report.total.kind_pct.values()) == pytest.approx(100.0, abs=0.5)

    def test_table_layout(self):
        record = _record_with_kinds(
            "t", "Revenue rose to $5 million in 2019.",
            [],  # clean
            seed=0,
        )
        report = distribution_report([record], {"t": "finqa"})
        table = report.format_table()
        lines = table.splitlines()
        assert lines[0].split() == ["Type", "finqa", "Total"]
        assert lines[1].startswith("Hallucinated")
        assert lines[2].startswith("Non-hallucinated")
        assert any(l.startswith("Contradictory Statements") for l in lines)
