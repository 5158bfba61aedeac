"""Quality-gate tests: the four defect exemplars, the span classifier, and
fix/discard behavior."""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    IDENTICAL_TEXT_ORIGINAL,
    IDENTICAL_TEXT_TAGGED,
    INCONSISTENT_CONTENT_ORIGINAL,
    INCONSISTENT_CONTENT_TAGGED,
    INCORRECT_TYPE_ORIGINAL,
    INCORRECT_TYPE_TAGGED,
    INVALID_FORMAT_ORIGINAL,
    INVALID_FORMAT_TAGGED,
    make_context,
    make_long_passage,
    make_passage,
)
from fintag.markup import Edit, Statement, TaggedDocument, Text, derive_erroneous, derive_original, parse, serialize
from fintag.quality import (
    CONFIDENCE_THRESHOLD,
    IssueKind,
    QualityTally,
    TaggedRecord,
    check,
    classify_span_type,
    fix,
    read_records,
    write_records,
)
from fintag.taxonomy import KINDS, ErrorType


def _record(tagged: str, original: str, rid: str = "r1", provenance: str = "test"):
    doc, warnings = parse(tagged)
    return TaggedRecord(rid, original, doc, provenance), warnings


class TestDefectExemplars:
    def test_incorrect_type_detected_and_relabeled(self):
        record, warnings = _record(INCORRECT_TYPE_TAGGED, INCORRECT_TYPE_ORIGINAL)
        issues = check(record, warnings)
        assert [i.kind for i in issues] == [IssueKind.INCORRECT_TYPE]
        assert issues[0].fixable
        assert "temporal" in issues[0].detail

        outcome = fix(record, warnings)
        assert outcome.fixed
        edit = outcome.record.doc.segments[1]
        assert edit.kind is ErrorType.TEMPORAL  # relabeled from entity
        assert check(outcome.record) == []

    def test_identical_text_detected_and_unwrapped(self):
        record, warnings = _record(IDENTICAL_TEXT_TAGGED, IDENTICAL_TEXT_ORIGINAL)
        issues = check(record, warnings)
        assert [i.kind for i in issues] == [IssueKind.IDENTICAL_TEXT]
        assert issues[0].fixable

        outcome = fix(record, warnings)
        assert outcome.fixed
        assert outcome.record.doc.segments == (Text(IDENTICAL_TEXT_ORIGINAL),)
        assert serialize(outcome.record.doc) == IDENTICAL_TEXT_ORIGINAL
        assert check(outcome.record) == []

    def test_invalid_format_detected_and_discarded(self):
        record, warnings = _record(INVALID_FORMAT_TAGGED, INVALID_FORMAT_ORIGINAL)
        issues = check(record, warnings)
        assert issues
        assert {i.kind for i in issues} == {IssueKind.INVALID_FORMAT}
        assert not any(i.fixable for i in issues)

        outcome = fix(record, warnings)
        assert not outcome.fixed
        assert {i.kind for i in outcome.reasons} == {IssueKind.INVALID_FORMAT}

    def test_inconsistent_content_detected_and_discarded(self):
        record, warnings = _record(
            INCONSISTENT_CONTENT_TAGGED, INCONSISTENT_CONTENT_ORIGINAL
        )
        issues = check(record, warnings)
        assert [i.kind for i in issues] == [IssueKind.INCONSISTENT_CONTENT]
        assert not issues[0].fixable

        outcome = fix(record, warnings)
        assert not outcome.fixed
        assert [i.kind for i in outcome.reasons] == [IssueKind.INCONSISTENT_CONTENT]


@pytest.mark.parametrize(
    "tagged,original",
    [
        (INCORRECT_TYPE_TAGGED, INCORRECT_TYPE_ORIGINAL),
        (IDENTICAL_TEXT_TAGGED, IDENTICAL_TEXT_ORIGINAL),
        (INVALID_FORMAT_TAGGED, INVALID_FORMAT_ORIGINAL),
        (INCONSISTENT_CONTENT_TAGGED, INCONSISTENT_CONTENT_ORIGINAL),
        (IDENTICAL_TEXT_ORIGINAL, IDENTICAL_TEXT_ORIGINAL),
    ],
    ids=["incorrect_type", "identical_text", "invalid_format", "inconsistent_content", "clean"],
)
def test_fix_outcome_carries_every_checked_issue(tagged, original):
    record, warnings = _record(tagged, original)
    outcome = fix(record, warnings)
    assert list(outcome.issues) == check(record, warnings)
    if not outcome.fixed:
        assert set(outcome.reasons) <= set(outcome.issues)


def test_discarded_record_keeps_its_fixable_issues():
    record, warnings = _record(IDENTICAL_TEXT_TAGGED, "Not the tagged passage.")
    outcome = fix(record, warnings)
    assert not outcome.fixed
    assert [i.kind for i in outcome.reasons] == [IssueKind.INCONSISTENT_CONTENT]
    assert [i.kind for i in outcome.issues] == [
        IssueKind.IDENTICAL_TEXT,
        IssueKind.INCONSISTENT_CONTENT,
    ]


def test_tag_tokens_inside_an_edit_span_discard_the_record():
    record, warnings = _record(
        "Sales were <numerical><delete>1<entity>x</delete><mark>2</mark></numerical> units.",
        "Sales were 1<entity>x units.",
    )
    outcome = fix(record, warnings)
    assert not outcome.fixed
    # The one construct is also reported as a parse demotion; how many
    # issues it counts as is left open here.
    assert "tag tokens inside edit spans" in {issue.detail for issue in outcome.reasons}


_SPAN_TEXTS = st.sampled_from(["", " ", "1", " 2019", "$1,204", "41.2%", "Q3 2019", "March 2020", "fiscal 2019",
                               "increased", "decreased", "rose", "fell", "Apple", "Atlas Energy", "1<entity>x",
                               "y> up"])
_PIECES = st.one_of(
    st.sampled_from(["Sales were ", "Revenue rose. ", " in ", ".", "\n", " ", "up 3% ", "Q3 2019 ", "<mark>",
                     "Sales <entit"]),
    st.builds(lambda kind, a, b: f"<{kind}><delete>{a}</delete><mark>{b}</mark></{kind}>",
              st.sampled_from([row.kind.value for row in KINDS if row.editable]), _SPAN_TEXTS, _SPAN_TEXTS),
    st.builds(lambda kind, text: f"<{kind}>{text}</{kind}>",
              st.sampled_from([row.kind.value for row in KINDS if not row.editable]),
              st.sampled_from(["", " ", "Sales fell.", "It may rise."])),
)


def _repaired(record: TaggedRecord, issues) -> TaggedRecord:
    """`record` with each fixable issue's repair made: an identical edit
    unwrapped to its original text, a mistyped one relabelled as its spans
    classify."""
    repairs = {issue.segment_index: issue.kind for issue in issues}
    segments = []
    for idx, seg in enumerate(record.doc.segments):
        if repairs.get(idx) is IssueKind.IDENTICAL_TEXT:
            seg = Text(seg.original_text)
        elif repairs.get(idx) is IssueKind.INCORRECT_TYPE:
            seg = seg._replace(kind=classify_span_type(seg.original_text, seg.error_text)[0])
        segments.append(seg)
    return record._replace(doc=TaggedDocument(tuple(segments), record.doc.form))


@settings(max_examples=300, deadline=None)
@given(pieces=st.lists(_PIECES, min_size=1, max_size=8),
       original=st.sampled_from([None, "Sales were 1 units.", ""]))
@example(pieces=["Sales <entit", "<numerical><delete>y> up</delete><mark>y> up</mark></numerical>"],
         original=None)
def test_fix_keeps_a_passing_record_or_discards_it_for_its_unfixable_issues(pieces, original):
    # A record with an unfixable issue is discarded for those issues. One
    # whose issues are all fixable is discarded only when its repaired
    # record still fails `check`, for the unfixable issues found there.
    doc, warnings = parse("".join(pieces))
    record = TaggedRecord("r", derive_original(doc) if original is None else original, doc, "test")
    outcome = fix(record, warnings)
    unfixable = tuple(issue for issue in outcome.issues if not issue.fixable)
    if outcome.fixed:
        assert check(outcome.record) == []
    elif unfixable:
        assert outcome.reasons == unfixable
    else:
        assert outcome.reasons and not any(issue.fixable for issue in outcome.reasons)
        assert list(outcome.reasons) == check(_repaired(record, outcome.issues))


def test_a_repair_that_merges_text_into_a_tag_token_discards_the_record():
    # Unwrapping the identical edit joins "Sales <entit" and "y> up" into a
    # text that holds "<entity>", which the re-check of the repair finds.
    tagged = "Sales <entit<numerical><delete>y> up</delete><mark>y> up</mark></numerical> today."
    doc, warnings = parse(tagged)
    outcome = fix(TaggedRecord("r", derive_original(doc), doc, "test"), warnings)
    assert not outcome.fixed
    assert [issue.kind for issue in outcome.issues] == [IssueKind.IDENTICAL_TEXT]
    assert [(issue.kind, issue.detail) for issue in outcome.reasons] == [
        (IssueKind.INVALID_FORMAT, "tag tokens embedded in plain text")
    ]


class TestClassifier:
    @pytest.mark.parametrize(
        "original,error,expected",
        [
            ("2018", "2017", ErrorType.TEMPORAL),
            ("September 2018", "August 2008", ErrorType.TEMPORAL),
            ("December 31, 2019", "June 30, 2018", ErrorType.TEMPORAL),
            ("fiscal 2019", "fiscal 2016", ErrorType.TEMPORAL),
            ("fourth quarter of 2019", "first quarter of 2019", ErrorType.TEMPORAL),
            ("$3,495 million", "$3,395 million", ErrorType.NUMERICAL),
            ("19.5", "24.1", ErrorType.NUMERICAL),
            ("18%", "23%", ErrorType.NUMERICAL),
            ("$271,885", "$198,340", ErrorType.NUMERICAL),
            ("decreased", "increased", ErrorType.RELATION),
            ("has", "does not have", ErrorType.RELATION),
            ("higher", "lower", ErrorType.RELATION),
        ],
    )
    def test_high_confidence_rules(self, original, error, expected):
        kind, confidence = classify_span_type(original, error)
        assert kind is expected
        assert confidence >= 0.9

    def test_fallback_is_low_confidence_entity(self):
        kind, confidence = classify_span_type("Harbor Financial", "Atlas Energy")
        assert kind is ErrorType.ENTITY
        assert confidence == 0.5


class TestCheck:
    def test_clean_record_has_no_issues(self):
        record, warnings = _record(
            "Revenue <relation><delete>rose</delete><mark>fell</mark></relation> in 2020.",
            "Revenue rose in 2020.",
        )
        assert check(record, warnings) == []

    def test_parse_warnings_become_invalid_format(self):
        record, warnings = _record("a <mark>x</mark> b", "a x b")
        kinds = {i.kind for i in check(record, warnings)}
        assert IssueKind.INVALID_FORMAT in kinds

    def test_structural_scan_catches_embedded_tokens_without_warnings(self):
        doc, _ = parse("a <mark>x</mark> b")  # demoted to text
        record = TaggedRecord("r", "a x b", doc)
        kinds = {i.kind for i in check(record)}  # warnings not passed
        assert IssueKind.INVALID_FORMAT in kinds

    def test_empty_edit_span_is_invalid_format(self):
        record, warnings = _record(
            "x <temporal><delete>2018</delete><mark></mark></temporal> y",
            "x 2018 y",
        )
        kinds = [i.kind for i in check(record, warnings)]
        assert kinds == [IssueKind.INVALID_FORMAT]

    def test_inconsistent_content_is_whitespace_insensitive(self):
        record, warnings = _record(
            "Revenue  rose\nin 2020.", "Revenue rose in 2020."
        )
        assert check(record, warnings) == []


_WORDS = st.lists(st.text("ab$1,.%Z", min_size=1, max_size=5), min_size=1, max_size=8)
_SPACES = st.text(" \t\n", min_size=1, max_size=3)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), words=_WORDS, at=st.integers(0, 7))
def test_reconstruction_compares_everything_but_whitespace(data, words, at):
    def spaced(words, lead="", tail=""):
        gaps = data.draw(st.lists(_SPACES, min_size=len(words) - 1, max_size=len(words) - 1))
        return lead + "".join(g + w for g, w in zip(["", *gaps], words)) + tail

    def ends():
        return data.draw(st.sampled_from(["", " ", "\n "]))

    at %= len(words)
    before, edited, after = words[:at], words[at], words[at + 1:]
    segments = (
        Text(spaced(before, ends(), data.draw(_SPACES)) if before else ends()),
        Edit(ErrorType.ENTITY, edited, edited + "Z"),
        Text(data.draw(_SPACES) + spaced(after, tail=ends()) if after else ends()),
    )
    doc = TaggedDocument(segments)
    original = spaced(words, ends(), ends())
    assert derive_original(doc).split() == original.split()  # whitespace apart, equal

    def inconsistent(original):
        issues = check(TaggedRecord("r1", original, doc, "test"))
        return [i for i in issues if i.kind is IssueKind.INCONSISTENT_CONTENT]

    assert inconsistent(original) == []
    where = data.draw(st.sampled_from([i for i, ch in enumerate(original) if not ch.isspace()]))
    assert len(inconsistent(original[:where] + "#" + original[where + 1:])) == 1


def test_a_statement_first_in_the_passage_folds_away():
    record, warnings = _record("<unverifiable>Rumor.</unverifiable> Revenue rose.", "Revenue rose.")
    assert derive_original(record.doc) == "Revenue rose."
    assert check(record, warnings) == []


_STATEMENT = "<unverifiable>Rumor has it.</unverifiable>"


@settings(max_examples=200, deadline=None)
@given(
    sentences=st.lists(st.sampled_from(["Revenue rose.", "Costs fell 3%.", "Q3 was flat!"]), min_size=1, max_size=4),
    at=st.lists(st.integers(0, 4), max_size=3),
)
@example(sentences=["Revenue rose."], at=[0])  # a statement first in the passage
def test_statements_at_any_sentence_boundary_fold_away(sentences, at):
    # A statement joined to the passage by one space, as the inserters
    # place it, leaves the passage as it was, wherever it stands.
    pieces = list(sentences)
    for i in sorted(at, reverse=True):
        pieces.insert(min(i, len(pieces)), _STATEMENT)
    passage = " ".join(sentences)
    record, warnings = _record(" ".join(pieces), passage)
    assert derive_original(record.doc) == passage
    assert check(record, warnings) == []


class TestFix:
    def test_record_with_only_fixable_issues_is_never_discarded(self):
        tagged = (
            "Total <entity><delete>2018</delete><mark>2016</mark></entity> cost was "
            "<relation><delete>$10</delete><mark>$10</mark></relation>."
        )
        record, warnings = _record(tagged, "Total 2018 cost was $10.")
        issues = check(record, warnings)
        assert {i.kind for i in issues} == {
            IssueKind.INCORRECT_TYPE, IssueKind.IDENTICAL_TEXT
        }
        outcome = fix(record, warnings)
        assert outcome.fixed
        assert len(outcome.applied) == 2
        assert check(outcome.record) == []

    def test_fix_is_idempotent(self):
        record, warnings = _record(INCORRECT_TYPE_TAGGED, INCORRECT_TYPE_ORIGINAL)
        once = fix(record, warnings)
        twice = fix(once.record)
        assert twice.fixed
        assert twice.applied == ()
        assert twice.record.doc == once.record.doc

    def test_unwrap_leaves_renderings_identical_over_segment(self):
        record, warnings = _record(IDENTICAL_TEXT_TAGGED, IDENTICAL_TEXT_ORIGINAL)
        outcome = fix(record, warnings)
        erroneous, spans = derive_erroneous(outcome.record.doc)
        assert spans == []
        assert erroneous == derive_original(outcome.record.doc)

    def test_discard_reasons_only_unfixable(self):
        tagged = (
            "Therefore, <contradictory>2019</contradictory> "
            "<relation><delete>$5</delete><mark>$5</mark></relation> x."
        )
        record, warnings = _record(tagged, "Therefore, 2018 has x.")
        outcome = fix(record, warnings)
        assert not outcome.fixed
        assert all(not i.fixable for i in outcome.reasons)


class TestSweep:
    def test_rule_based_corpus_passes_gate_and_fix_is_identity(self):
        from fintag.insertion import insert_rule_based, plan_errors

        rng = random.Random(23)
        for i in range(200):
            passage = make_passage(rng)
            context = make_context(rng, passage)
            result = insert_rule_based(
                passage, context, plan_errors(passage, seed=i), seed=i, record_id=f"s{i}"
            )
            assert check(result.record) == []
            outcome = fix(result.record)
            assert outcome.fixed and outcome.applied == ()
            assert outcome.record.doc == result.record.doc


_EDITABLE = [row.kind for row in KINDS if row.editable]


@settings(max_examples=200, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**16),
       kinds=st.lists(st.sampled_from(list(ErrorType)), min_size=1, max_size=6),
       unfixable=st.sampled_from([None, IssueKind.INVALID_FORMAT, IssueKind.INCONSISTENT_CONTENT]))
def test_fix_and_tally_account_for_exactly_the_injected_defects(data, seed, kinds, unfixable):
    from fintag.insertion import InsertionPlan, insert_rule_based

    rng = random.Random(seed)
    passage = make_long_passage(rng)
    plan = InsertionPlan(False, len(kinds), tuple(kinds), seed)
    built = insert_rule_based(passage, make_context(rng, passage), plan, seed=seed).record
    # Into each edit, maybe inject a fixable defect: its error set to its
    # original (IdenticalText), or, when its spans classify confidently, a
    # wrong label (IncorrectType). When the record draws InvalidFormat, any
    # segment may instead get a defect of that class: an empty mark, an
    # empty statement, or a tag token in plain text. Each segment gets at
    # most one defect, so each is found once.
    segments = list(built.doc.segments)
    injected = Counter()
    for idx, seg in enumerate(segments):
        defects = [None]
        if isinstance(seg, Edit):
            guessed, confidence = classify_span_type(seg.original_text, seg.error_text)
            defects.append(IssueKind.IDENTICAL_TEXT)
            if confidence >= CONFIDENCE_THRESHOLD:
                defects.append(IssueKind.INCORRECT_TYPE)
        if unfixable is IssueKind.INVALID_FORMAT:
            defects.append(unfixable)
        defect = data.draw(st.sampled_from(defects))
        if defect is IssueKind.IDENTICAL_TEXT:
            segments[idx] = seg._replace(error_text=seg.original_text)
        elif defect is IssueKind.INCORRECT_TYPE:
            wrong = data.draw(st.sampled_from([k for k in _EDITABLE if k is not guessed]))
            segments[idx] = seg._replace(kind=wrong)
        elif defect is IssueKind.INVALID_FORMAT:
            if isinstance(seg, Edit):
                segments[idx] = seg._replace(error_text="")
            elif isinstance(seg, Statement):
                segments[idx] = seg._replace(content="")
            else:
                at = data.draw(st.integers(0, len(seg.content)))
                tag = data.draw(st.sampled_from(["<numerical>", "</entity>", "<mark>", "</delete>"]))
                segments[idx] = Text(seg.content[:at] + tag + seg.content[at:])
        if defect is not None:
            injected[defect] += 1
    # InconsistentContent: a word character that the original lacks, put
    # into the plain text at a drawn point.
    if unfixable is IssueKind.INCONSISTENT_CONTENT:
        idx = data.draw(st.sampled_from([i for i, seg in enumerate(segments) if isinstance(seg, Text)]))
        at = data.draw(st.integers(0, len(segments[idx].content)))
        segments[idx] = Text(segments[idx].content[:at] + "Z" + segments[idx].content[at:])
        injected[unfixable] += 1
    record = built._replace(doc=TaggedDocument(tuple(segments), built.doc.form))

    outcome = fix(record)
    tally = QualityTally()
    tally.add(record.provenance, outcome.issues, discarded=not outcome.fixed)
    unfixed = Counter({kind: n for kind, n in injected.items()
                       if kind in (IssueKind.INVALID_FORMAT, IssueKind.INCONSISTENT_CONTENT)})
    assert outcome.fixed is not bool(unfixed)
    assert Counter(issue.kind for issue in outcome.issues) == injected
    assert tally.to_json() == {record.provenance: {
        "records": 1, "discarded": int(bool(unfixed)), **{kind.value: injected[kind] for kind in IssueKind}}}
    if unfixed:
        assert outcome.applied == ()
        assert Counter(issue.kind for issue in outcome.reasons) == unfixed
        return
    assert check(outcome.record) == []
    again = fix(outcome.record)
    assert (again.record, again.applied) == (outcome.record, ())
    assert derive_original(outcome.record.doc) == passage
    assert Counter(issue.kind for issue in outcome.applied) == injected


_SEGMENTS = st.one_of(
    st.builds(Text, st.sampled_from(["Sales were ", " ", "up <mark> 3%", "a </entity> b", "<foo>"])),
    st.builds(Statement, st.sampled_from([row.kind for row in KINDS if not row.editable]),
              st.sampled_from(["", " ", "Sales fell.", "It <numerical>may rise."])),
    st.builds(Edit, st.sampled_from(_EDITABLE), _SPAN_TEXTS, _SPAN_TEXTS),
)
_DOCUMENTS = st.one_of(
    st.lists(_PIECES, min_size=1, max_size=8).map(lambda pieces: parse("".join(pieces))),
    st.lists(_SEGMENTS, max_size=8).map(lambda segments: (TaggedDocument(tuple(segments)), ())),
)


@settings(max_examples=300, deadline=None)
@given(parsed=_DOCUMENTS, original=st.sampled_from([None, "Sales were 1 units."]))
def test_check_gives_each_segment_at_most_one_issue(parsed, original):
    # `fix` repairs a segment by the one issue that names it.
    doc, warnings = parsed
    record = TaggedRecord("r", derive_original(doc) if original is None else original, doc, "test")
    issues = check(record, warnings)
    named = [issue.segment_index for issue in issues if issue.segment_index is not None]
    assert len(named) == len(set(named))
    assert all(issue.segment_index is not None for issue in issues if issue.fixable)


def test_quality_tally_shapes():
    tally = QualityTally()
    record, warnings = _record(INCORRECT_TYPE_TAGGED, INCORRECT_TYPE_ORIGINAL, provenance="model-a")
    tally.add("model-a", check(record, warnings), discarded=False)
    record, warnings = _record(INVALID_FORMAT_TAGGED, INVALID_FORMAT_ORIGINAL, provenance="model-b")
    tally.add("model-b", check(record, warnings), discarded=True)
    # model-a also gets one record of each other kind: the unclosed opener
    # counts twice, as a demotion and as tag tokens in plain text.
    for tagged, original, discarded in [
        (IDENTICAL_TEXT_TAGGED, IDENTICAL_TEXT_ORIGINAL, False),
        ("Revenue <numerical>rose in 2020.", "Revenue rose in 2020.", True),
        (INCONSISTENT_CONTENT_TAGGED, INCONSISTENT_CONTENT_ORIGINAL, True),
    ]:
        record, warnings = _record(tagged, original, provenance="model-a")
        tally.add("model-a", check(record, warnings), discarded=discarded)
    payload = tally.to_json()
    assert payload["model-a"]["incorrect_type"] == 1
    assert payload["model-b"]["records"] == 1
    assert payload["model-b"]["discarded"] == 1
    table = tally.format_table()
    assert "Tot. Unf." in table and "model-b" in table
    # The statement exemplar has six demoted tag tokens and its content.
    assert table == (
        "Model    Inc. Typ.  Ide. Tex.  Inv. For.  Inc. Con.  Tot. Unf.\n"
        "model-a          1          1          2          1          3\n"
        "model-b          0          0          7          0          7"
    )
    for row in table.splitlines()[1:]:
        provenance, *cells = row.split()
        counts = payload[provenance]
        assert int(cells[-1]) == counts["invalid_format"] + counts["inconsistent_content"]


def test_record_jsonl_round_trip(tmp_path):
    rng = random.Random(5)
    from fintag.insertion import insert_rule_based, plan_errors

    records = []
    for i in range(10):
        passage = make_passage(rng)
        result = insert_rule_based(
            passage, make_context(rng, passage), plan_errors(passage, seed=i), seed=i,
            record_id=f"rt{i}",
        )
        records.append(result.record)
    path = tmp_path / "records.jsonl"
    assert write_records(path, records, meta={"run": 1}) == 10
    loaded = list(read_records(path))
    assert [r.id for r, _ in loaded] == [r.id for r in records]
    for (got, warnings), want in zip(loaded, records):
        assert warnings == ()
        assert got.doc == want.doc
        assert got.original == want.original
        assert got.provenance == want.provenance
