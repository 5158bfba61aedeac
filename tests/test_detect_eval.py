"""Detection-scoring tests: reply envelope handling, alignment, the
counting rule, F1 consistency, and brute-force oracle equivalence."""

from __future__ import annotations

import contextlib
import io
import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import WORKED_TARGET, oracle_counts, random_spans
from fintag.cli import dispatch
from fintag.detect_eval import (
    align,
    align_spans,
    evaluate_corpus,
    f1_from_pr,
    parse_prediction,
    read_gold_documents,
    score,
    strip_reply_envelope,
)
from fintag.markup import Form, Statement, TaggedDocument, TagSpan, Text, parse
from fintag.taxonomy import DEFAULT_LABELS, FAVA_LABELS, KINDS, ErrorType


class TestParsePrediction:
    def test_json_envelope(self):
        raw = '{"Edited": "<numerical><delete>$1.4</delete><mark>$2.4</mark></numerical> billion"}'
        doc, warnings = parse_prediction(raw)
        # Baseline replies put delete first even in target-output position;
        # that is an advisory order warning, never a demotion.
        assert all(w.category == "order" for w in warnings)
        edits = doc.kinds()
        assert edits == [ErrorType.NUMERICAL]
        # Target-output form: mark holds the correction, delete the error.
        assert doc.segments[0].original_text == "$2.4"
        assert doc.segments[0].error_text == "$1.4"

    def test_single_quoted_key_with_raw_newlines(self):
        raw = "{'Edited': 'line one.\nline two.'}"
        doc, warnings = parse_prediction(raw)
        assert doc.segments[0].content == "line one.\nline two."

    def test_code_fenced_envelope(self):
        raw = '```json\n{"Edited": "plain passage"}\n```'
        doc, _ = parse_prediction(raw)
        assert doc.segments[0].content == "plain passage"

    def test_bare_passage_without_envelope(self):
        doc, warnings = parse_prediction("no envelope, no tags")
        assert warnings == ()
        assert not doc.has_tags

    def test_truncated_closer_is_demoted_not_fatal(self):
        raw = "<numerical><delete>$1.4</delete><mark>$2.4</mark></numeri"
        doc, warnings = parse_prediction(raw)
        assert any(w.category == "demoted" for w in warnings)
        assert not doc.has_tags

    def test_strip_envelope_passthrough(self):
        assert strip_reply_envelope("just text") == "just text"
        assert strip_reply_envelope('{"Other": "x"}') == '{"Other": "x"}'


def _span(kind, start, end):
    return TagSpan(kind, start, end, "x" * (end - start), None)


def _span_lists(labels):
    """Span lists over `labels` on a short line, so spans often overlap and
    sometimes coincide (the only candidates in exact mode)."""
    kinds = [ErrorType(label) if label in DEFAULT_LABELS else label for label in labels]
    span = st.builds(
        lambda kind, start, size: _span(kind, start, start + size),
        st.sampled_from(kinds),
        st.integers(0, 20),
        st.integers(1, 6),
    )
    return st.lists(span, max_size=6)


class TestAlign:
    def test_identical_documents_fully_matched(self):
        gold, _ = parse(WORKED_TARGET, Form.TARGET_OUTPUT)
        match = align(gold, gold)
        assert len(match.pairs) == 2
        assert all(type_equal for *_, type_equal in match.pairs)
        assert match.unmatched_gold == () and match.unmatched_pred == ()

    def test_shifted_overlapping_span_still_matches(self):
        # Hand enumeration: one gold [10,24), one pred [13,29): overlap 11,
        # so the only candidate pair is chosen.
        gold = [_span(ErrorType.TEMPORAL, 10, 24)]
        pred = [_span(ErrorType.TEMPORAL, 13, 29)]
        pairs, ug, up = align_spans(gold, pred)
        assert len(pairs) == 1 and ug == () and up == ()
        assert pairs[0][2] is True

    def test_extra_prediction_is_unmatched(self):
        gold = [_span(ErrorType.ENTITY, 0, 5)]
        pred = [_span(ErrorType.ENTITY, 0, 5), _span(ErrorType.RELATION, 40, 44)]
        pairs, ug, up = align_spans(gold, pred)
        assert len(pairs) == 1 and len(up) == 1
        assert up[0].kind is ErrorType.RELATION

    def test_exact_match_preferred_over_longer_overlap(self):
        gold = [_span(ErrorType.ENTITY, 10, 14)]
        pred = [
            _span(ErrorType.ENTITY, 0, 30),   # overlap 4, not exact
            _span(ErrorType.ENTITY, 10, 14),  # exact span and type
        ]
        pairs, _, up = align_spans(gold, pred)
        assert pairs[0][1].start == 10 and pairs[0][1].end == 14
        assert up[0].end == 30

    def test_exact_mode_requires_identical_spans(self):
        gold = [_span(ErrorType.ENTITY, 10, 14)]
        pred = [_span(ErrorType.ENTITY, 11, 14)]
        pairs, ug, up = align_spans(gold, pred, mode="exact")
        assert pairs == () and len(ug) == 1 and len(up) == 1

    def test_an_unknown_mode_is_rejected(self):
        with pytest.raises(ValueError, match="unknown match mode 'fuzzy'"):
            align_spans([_span(ErrorType.ENTITY, 0, 5)], [_span(ErrorType.ENTITY, 0, 5)], mode="fuzzy")

    @pytest.mark.parametrize("mode", ["overlap", "exact"])
    def test_an_empty_span_matches_only_its_twin(self, mode):
        gold = [_span(ErrorType.ENTITY, 7, 7), _span(ErrorType.TEMPORAL, 9, 9)]
        pred = [_span(ErrorType.ENTITY, 7, 7), _span(ErrorType.TEMPORAL, 8, 12)]
        pairs, ug, up = align_spans(gold, pred, mode)
        assert [(g.start, p.start, same) for g, p, same in pairs] == [(7, 7, True)]
        assert [g.start for g in ug] == [9] and [p.start for p in up] == [8]

    @pytest.mark.parametrize("mode", ["overlap", "exact"])
    def test_whitespace_before_the_first_tag_or_word_does_not_shift_offsets(self, mode):
        # A reply is stripped before it is parsed; the gold is not.
        target = "\n <numerical><mark>5</mark><delete>6</delete></numerical> rose"
        gold, _ = parse(target, Form.TARGET_OUTPUT)
        match = align(gold, parse_prediction(target)[0], mode)
        assert len(match.pairs) == 1 and match.pairs[0][2]
        # Whitespace inside a leading tag is kept on both sides.
        target = "<unverifiable> Costs fell.</unverifiable>\n"
        gold, _ = parse(target, Form.TARGET_OUTPUT)
        match = align(gold, parse_prediction(target)[0], mode)
        assert len(match.pairs) == 1 and match.pairs[0][2]


class TestScore:
    def test_perfect_prediction_scores_100_everywhere(self):
        gold, _ = parse(WORKED_TARGET, Form.TARGET_OUTPUT)
        report = score(align(gold, gold), gold, gold)
        assert report.binary.tp == 1
        for label in ("temporal", "unverifiable"):
            assert report.per_kind[label].f1 == 100.0
        assert report.overall.f1 == 100.0

    def test_empty_prediction_scores_zero_recall(self):
        gold, _ = parse(WORKED_TARGET, Form.TARGET_OUTPUT)
        empty, _ = parse("", Form.TARGET_OUTPUT)
        report = score(align(gold, empty), gold, empty)
        assert report.overall.recall == 0.0
        assert report.binary.fn == 1
        assert report.per_kind["temporal"].fn == 1

    def test_type_confusion_counts_fp_and_fn(self):
        gold = [_span(ErrorType.ENTITY, 0, 6)]
        pred = [_span(ErrorType.RELATION, 0, 6)]
        pairs, ug, up = align_spans(gold, pred)
        gold_doc, _ = parse("<entity><delete>a</delete><mark>b</mark></entity>")
        from fintag.detect_eval import MatchSet

        report = score(MatchSet(pairs, ug, up), gold_doc, gold_doc)
        assert report.per_kind["relation"].fp == 1
        assert report.per_kind["entity"].fn == 1
        assert report.overall.tp == 0

    def test_overall_is_sum_of_kinds(self):
        rng = random.Random(3)
        labels = list(ErrorType)
        for _ in range(200):
            gold = random_spans(rng, labels)
            pred = random_spans(rng, labels)
            pairs, ug, up = align_spans(gold, pred)
            from fintag.detect_eval import MatchSet

            doc, _ = parse("x")
            report = score(MatchSet(pairs, ug, up), doc, doc)
            assert report.overall.tp == sum(c.tp for c in report.per_kind.values())
            assert report.overall.fp == sum(c.fp for c in report.per_kind.values())
            assert report.overall.fn == sum(c.fn for c in report.per_kind.values())

    @settings(max_examples=400, deadline=None)
    @given(
        labels=st.sampled_from([DEFAULT_LABELS, FAVA_LABELS]),
        mode=st.sampled_from(["overlap", "exact"]),
        data=st.data(),
    )
    def test_symmetry_swapping_gold_and_pred_swaps_p_and_r(self, labels, mode, data):
        from fintag.detect_eval import MatchSet

        spans = _span_lists(labels)
        gold, pred = data.draw(spans), data.draw(spans)
        doc, _ = parse("x")
        fwd = score(MatchSet(*align_spans(gold, pred, mode)), doc, doc, labels)
        rev = score(MatchSet(*align_spans(pred, gold, mode)), doc, doc, labels)
        # Swapping the sides keeps every true positive and exchanges the
        # false positives with the false negatives, so P and R swap exactly.
        assert {label: (c.tp, c.fp, c.fn) for label, c in fwd.per_kind.items()} == {
            label: (c.tp, c.fn, c.fp) for label, c in rev.per_kind.items()
        }
        assert (fwd.overall.tp, fwd.overall.fp, fwd.overall.fn) == (
            rev.overall.tp, rev.overall.fn, rev.overall.fp
        )

    def test_adding_exact_correct_prediction_never_hurts(self):
        rng = random.Random(29)
        labels = list(ErrorType)
        doc, _ = parse("x")
        from fintag.detect_eval import MatchSet

        for _ in range(300):
            gold = random_spans(rng, labels, max_tags=4)
            pred = random_spans(rng, labels, max_tags=3)
            if not gold:
                continue
            target = rng.choice(gold)
            before = score(MatchSet(*align_spans(gold, pred)), doc, doc)
            pred_plus = pred + [target]
            after = score(MatchSet(*align_spans(gold, pred_plus)), doc, doc)
            assert after.overall.tp >= before.overall.tp
            for label in before.per_kind:
                assert after.per_kind[label].recall >= before.per_kind[label].recall - 1e-9

    def test_binary_aggregation_is_order_invariant(self):
        gold_a, _ = parse(WORKED_TARGET, Form.TARGET_OUTPUT)
        gold_b, _ = parse("clean text", Form.TARGET_OUTPUT)
        pred = {"a": WORKED_TARGET, "b": "clean text"}
        fwd = evaluate_corpus({"a": gold_a, "b": gold_b}, pred)
        rev = evaluate_corpus({"b": gold_b, "a": gold_a}, pred)
        assert fwd.binary == rev.binary
        assert fwd.to_json() == rev.to_json()


class TestOracleEquivalence:
    def _check(self, gold, pred):
        pairs, ug, up = align_spans(gold, pred)
        got: dict = {}

        def bucket(kind):
            from fintag.markup import label_of

            return got.setdefault(label_of(kind), {"tp": 0, "fp": 0, "fn": 0})

        for g, p, type_equal in pairs:
            if type_equal:
                bucket(g.kind)["tp"] += 1
            else:
                bucket(p.kind)["fp"] += 1
                bucket(g.kind)["fn"] += 1
        for g in ug:
            bucket(g.kind)["fn"] += 1
        for p in up:
            bucket(p.kind)["fp"] += 1
        assert got == oracle_counts(gold, pred)

    def test_random_instances(self):
        rng = random.Random(101)
        labels = list(ErrorType)
        for _ in range(1500):
            self._check(random_spans(rng, labels), random_spans(rng, labels))

    def test_instances_with_empty_spans(self):
        rng = random.Random(303)
        labels = list(ErrorType)

        def spans():
            # Starts in a tiny window, a third of them empty.
            drawn = []
            for _ in range(rng.randint(0, 5)):
                start = rng.randrange(0, 6)
                end = start + rng.choice((0, 1, 3))
                drawn.append(TagSpan(rng.choice(labels), start, end, "x" * (end - start), None))
            return drawn

        for _ in range(300):
            self._check(spans(), spans())

    def test_dense_adversarial_instances(self):
        rng = random.Random(202)
        labels = list(ErrorType)
        for _ in range(60):
            # All spans overlap: offsets drawn from a tiny window.
            gold = [
                TagSpan(rng.choice(labels), rng.randrange(0, 4), rng.randrange(5, 9), "x", None)
                for _ in range(rng.randint(1, 6))
            ]
            pred = [
                TagSpan(rng.choice(labels), rng.randrange(0, 4), rng.randrange(5, 9), "x", None)
                for _ in range(rng.randint(1, 6))
            ]
            self._check(gold, pred)


class TestF1:
    @pytest.mark.parametrize(
        "precision,recall,expected",
        [(81.3, 100.0, 89.7), (86.1, 99.0, 92.1), (86.5, 94.5, 90.3)],
    )
    def test_published_consistency_triplets(self, precision, recall, expected):
        assert f1_from_pr(precision, recall) == expected

    def test_zero_denominator(self):
        assert f1_from_pr(0.0, 0.0) == 0.0

    def test_fixed_point(self):
        for i in range(0, 1001, 7):
            x = round(i / 10, 1)
            assert f1_from_pr(x, x) == x

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            f1_from_pr(101.0, 50.0)


_EDITABLE = [row.kind.value for row in KINDS if row.editable]
_STATEMENTS = [row.kind.value for row in KINDS if not row.editable] + [
    label for label in FAVA_LABELS if label not in DEFAULT_LABELS]
_WORDS = st.lists(st.sampled_from(["Revenue ", "rose ", "$5.2 ", "2020", ". ", "\n", "<", "é"]),
                  max_size=4).map("".join)
_TAGGED = (
    st.tuples(st.sampled_from(_EDITABLE), _WORDS, _WORDS).map(
        lambda t: f"<{t[0]}><mark>{t[1]}</mark><delete>{t[2]}</delete></{t[0]}>")
    | st.tuples(st.sampled_from(_STATEMENTS), _WORDS).map(lambda t: f"<{t[0]}>{t[1]}</{t[0]}>")
)
# Target-output passages: plain text and tags of every label, FAVA's too.
_TARGETS = st.lists(_WORDS | _TAGGED, max_size=4).map("".join)


# A label set with a label that neither taxonomy has.
_CUSTOM_LABELS = DEFAULT_LABELS + ("speculative",)


class TestCorpus:
    def test_gold_as_prediction_scores_100(self):
        gold, _ = parse(WORKED_TARGET, Form.TARGET_OUTPUT)
        report = evaluate_corpus({"a": gold}, {"a": WORKED_TARGET})
        assert report.overall.f1 == 100.0
        assert report.binary.f1 == 100.0
        assert report.unparseable == 0

    @settings(max_examples=300, deadline=None)
    @given(
        labels=st.sampled_from([DEFAULT_LABELS, FAVA_LABELS]),
        mode=st.sampled_from(["overlap", "exact"]),
        targets=st.lists(_TARGETS, min_size=1, max_size=6),
    )
    def test_gold_as_its_own_reply_scores_100(self, labels, mode, targets):
        parsed = [parse(t, Form.TARGET_OUTPUT, labels=labels) for t in targets]
        gold = {f"d{i}": doc for i, (doc, _) in enumerate(parsed)}
        report = evaluate_corpus(gold, {f"d{i}": t for i, t in enumerate(targets)}, labels, mode)
        # A gold row whose own parse demoted a tag (FAVA's tags under the
        # default label set) is still a perfect reply, but an unparseable one.
        assert report.unparseable == sum(any(w.category == "demoted" for w in ws) for _, ws in parsed)
        if labels == FAVA_LABELS:
            assert report.unparseable == 0
        tagged = any(doc.has_tags for doc in gold.values())
        for counts in (report.overall, report.binary):
            assert counts.fp == counts.fn == 0
            assert counts.f1 == (100.0 if tagged else 0.0)
        assert report.binary.tn == sum(not doc.has_tags for doc in gold.values())

    def test_unparseable_prediction_counted_but_scored(self):
        gold, _ = parse(WORKED_TARGET, Form.TARGET_OUTPUT)
        report = evaluate_corpus({"a": gold}, {"a": "<temporal><mark>x</mark>"})
        assert report.unparseable == 1
        assert report.binary.fn == 1

    @settings(max_examples=150, deadline=None)
    @given(
        labels=st.sampled_from([DEFAULT_LABELS, FAVA_LABELS]),
        mode=st.sampled_from(["overlap", "exact"]),
        data=st.data(),
    )
    def test_report_does_not_depend_on_row_order(self, labels, mode, data):
        rows = []
        for target in data.draw(st.lists(_TARGETS, min_size=1, max_size=6)):
            # No reply, the gold itself (maybe in a JSON envelope), another
            # passage, or the gold cut short.
            reply = data.draw(st.none() | st.sampled_from([
                target, json.dumps({"Edited": target}), target[: len(target) // 2]]) | _TARGETS)
            rows.append((parse(target, Form.TARGET_OUTPUT, labels=labels).document, reply))

        def corpus(order):
            gold = {f"d{i}": rows[i][0] for i in order}
            return gold, {f"d{i}": rows[i][1] for i in order if rows[i][1] is not None}

        listed = evaluate_corpus(*corpus(range(len(rows))), labels, mode)
        gold, _ = corpus(data.draw(st.permutations(range(len(rows)))))
        _, preds = corpus(data.draw(st.permutations(range(len(rows)))))
        assert evaluate_corpus(gold, preds, labels, mode).to_json() == listed.to_json()

    @settings(max_examples=100, deadline=None)
    @given(
        labels=st.sampled_from([DEFAULT_LABELS, FAVA_LABELS]),
        mode=st.sampled_from(["overlap", "exact"]),
        data=st.data(),
    )
    def test_cli_report_is_the_library_report(self, tmp_path_factory, labels, mode, data):
        # Gold rows with replies missing, replies no gold row has, the
        # replies in another order, and ids written as numbers or strings.
        gold, replies, gold_rows = {}, {}, []
        for i, target in enumerate(data.draw(st.lists(_TARGETS, max_size=7))):
            gold_rows.append({"id": data.draw(st.sampled_from([i, str(i)])), "target": target})
            gold[str(i)] = parse(target, Form.TARGET_OUTPUT, labels=labels).document
            reply = data.draw(st.none() | st.sampled_from([target, json.dumps({"Edited": target})]) | _TARGETS)
            if reply is not None:
                replies[str(i)] = reply
        for k in range(data.draw(st.integers(0, 6))):
            replies[f"x{k}"] = data.draw(_TARGETS)
        order = data.draw(st.permutations(list(replies)))
        pred_rows = [
            {"id": int(rid) if rid.isdigit() and data.draw(st.booleans()) else rid, "raw": replies[rid]}
            for rid in order
        ]
        base = tmp_path_factory.getbasetemp()
        files = {name: base / f"cli-report-{name}.jsonl" for name in ("gold", "pred")}
        for name, rows in (("gold", gold_rows), ("pred", pred_rows)):
            files[name].write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        out = base / "cli-report.json"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert dispatch(["eval-detect", "--gold", str(files["gold"]), "--pred", str(files["pred"]),
                             "--label-set", "fava" if labels == FAVA_LABELS else "default",
                             "--match-mode", mode, "--format", "json", "--output", str(out)]) == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        del payload["meta"]
        assert payload == evaluate_corpus(gold, replies, labels, mode).to_json()

        def unpaired(ids, what):
            return f"{len(ids)} {what}" + (f" (e.g. {', '.join(ids[:5])})" if ids else "")

        assert err.getvalue() == (
            f"eval-detect: {unpaired([r for r in gold if r not in replies], 'gold ids without a prediction')}; "
            f"{unpaired([r for r in order if r not in gold], 'prediction ids without gold')}\n"
        )

    def test_fava_label_set_accepts_its_own_statement_tags(self):
        raw = "ok. <invented>Entirely made-up fact.</invented> <subjective>A matter of taste.</subjective>"
        gold, warnings = parse(raw, Form.TARGET_OUTPUT, labels=FAVA_LABELS)
        assert warnings == ()
        report = evaluate_corpus({"a": gold}, {"a": raw}, labels=FAVA_LABELS)
        assert report.per_kind["invented"].f1 == 100.0
        assert report.per_kind["subjective"].f1 == 100.0

    def test_a_label_no_taxonomy_has_scores_in_its_own_column(self):
        # Gold used as its own reply under a label set of neither taxonomy.
        gold = TaggedDocument(
            parse(WORKED_TARGET, Form.TARGET_OUTPUT).document.segments
            + (Text(" "), Statement("speculative", "Rates may fall.")),
            Form.TARGET_OUTPUT,
        )
        raw = WORKED_TARGET + " <speculative>Rates may fall.</speculative>"
        report = evaluate_corpus({"a": gold}, {"a": raw}, labels=_CUSTOM_LABELS)
        assert report.unparseable == 0
        counts = report.per_kind["speculative"]
        assert (counts.tp, counts.fp, counts.fn) == (1, 0, 0)
        assert counts.f1 == 100.0
        assert report.overall.f1 == 100.0

    def test_gold_file_parses_a_custom_label_as_a_statement(self, tmp_path):
        target = "Sales rose. <speculative>Rates may fall.</speculative>"
        path = tmp_path / "gold.jsonl"
        path.write_text(json.dumps({"id": "a", "target": target}) + "\n", encoding="utf-8")
        [(rid, doc)] = read_gold_documents(path, _CUSTOM_LABELS)
        assert rid == "a"
        assert doc.segments == (Text("Sales rose. "), Statement("speculative", "Rates may fall."))
        # The label is a tag only under a label set that has it.
        [(_, plain)] = read_gold_documents(path)
        assert not plain.has_tags

    @pytest.mark.parametrize("extra", [("made_up",), ("",), ("spéculatif", "made_up")])
    def test_a_label_that_is_no_tag_name_is_refused_before_any_row(self, tmp_path, extra):
        # Such a label parses as plain text: its column could never score.
        labels = DEFAULT_LABELS + extra
        named = ", ".join(map(repr, extra))
        with pytest.raises(ValueError, match=re.escape(named)):
            evaluate_corpus({"a": parse("A. B.").document}, {"a": "A. <made_up>B.</made_up>"}, labels)
        # No file is opened: the check comes before the first row is read.
        with pytest.raises(ValueError, match=re.escape(named)):
            next(read_gold_documents(tmp_path / "absent.jsonl", labels))

    def test_macro_overall_flag(self):
        gold, _ = parse(WORKED_TARGET, Form.TARGET_OUTPUT)
        report = evaluate_corpus({"a": gold}, {"a": WORKED_TARGET})
        # Two of six kinds have perfect scores, the rest have no support:
        # macro averages over the whole label set.
        p, r, f1 = report.macro_overall()
        assert p == r == pytest.approx(100.0 * 2 / 6)
        assert report.to_json()["overall_macro"]["f1"] == round(f1, 1)

    def test_table_layout(self):
        gold, _ = parse(WORKED_TARGET, Form.TARGET_OUTPUT)
        report = evaluate_corpus({"a": gold}, {"a": WORKED_TARGET})
        table = report.format_table()
        header = table.splitlines()[0]
        for abbrev in ("Num.", "Tem.", "Ent.", "Rel.", "Con.", "Unv.", "Ov.", "Bi."):
            assert abbrev in header
        tp = report.overall.tp
        assert score(align(gold, gold), gold, gold, into=report) is report
        assert report.overall.tp == 2 * tp
        assert set(report.to_json()["per_kind"]) == set(DEFAULT_LABELS)
