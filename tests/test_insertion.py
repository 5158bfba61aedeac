"""Planner, rule-based inserter, prompt builder and LLM-inserter tests."""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    IDENTICAL_TEXT_ORIGINAL,
    IDENTICAL_TEXT_TAGGED,
    INVALID_FORMAT_TAGGED,
    WORKED_ORIGINAL,
    make_context,
    make_long_passage,
    make_passage,
)
from fintag import insertion
from fintag.insertion import (
    InserterConfig,
    InsertionFailure,
    InsertionPlan,
    MissingExemplar,
    build_insertion_prompt,
    insert_llm,
    insert_rule_based,
    plan_errors,
)
from fintag.llm_client import CompletionReply
from fintag.markup import (
    Edit,
    Statement,
    Text,
    derive_erroneous,
    derive_original,
    serialize,
)
from fintag.patterns import MONTH_NAMES, NUMBER_TOKEN_RE, QUARTER_ORDINALS, YEAR_RE, numbers_within
from fintag.quality import check
from fintag.records import record_to_json
from fintag.taxonomy import KINDS, ErrorType


def _plan(*kinds, seed=0):
    return InsertionPlan(False, len(kinds), tuple(kinds), seed)


class TestPlanErrors:
    def test_deterministic(self):
        passage = "Revenue rose to $5.2 million in 2020."
        a = plan_errors(passage, seed=42)
        b = plan_errors(passage, seed=42)
        assert a == b
        assert plan_errors(passage, seed=43) != a or True  # different seed may differ

    def test_short_passage_gets_one_error(self):
        passage = " ".join(["tok"] * 30) + " $5 in 2020."
        config = InserterConfig(clean_probability=0.0)
        for seed in range(20):
            plan = plan_errors(passage, config, seed=seed)
            assert plan.count == 1

    def test_count_scales_with_length_and_clamps(self):
        config = InserterConfig(clean_probability=0.0)
        long_passage = " ".join(["tok"] * 1000)
        for seed in range(10):
            assert plan_errors(long_passage, config, seed=seed).count == 6
        medium = " ".join(["tok"] * 150)
        assert plan_errors(medium, config, seed=1).count == 2

    def test_long_passage_plan_reaches_max_errors(self):
        config = InserterConfig(clean_probability=0.0)
        for seed in range(20):
            passage = make_long_passage(random.Random(seed))
            assert plan_errors(passage, config, seed=seed).count == config.max_errors

    def test_clean_plan_shape(self):
        config = InserterConfig(clean_probability=1.0)
        plan = plan_errors("some passage", config, seed=3)
        assert plan.clean and plan.count == 0 and plan.kinds == ()

    def test_empty_passage_rejected(self):
        with pytest.raises(ValueError):
            plan_errors("   ")

    @pytest.mark.parametrize("weight", [math.nan, math.inf])
    def test_config_refuses_a_non_finite_weight(self, weight):
        weights = {ErrorType.NUMERICAL: weight, ErrorType.ENTITY: 1.0}
        with pytest.raises(ValueError, match=f"^the type weight of numerical must be finite, not {weight}$"):
            InserterConfig(type_weights=weights)

    def test_plan_invariants_enforced(self):
        with pytest.raises(ValueError):
            InsertionPlan(True, 1, (ErrorType.ENTITY,), 0)
        with pytest.raises(ValueError):
            InsertionPlan(False, 2, (ErrorType.ENTITY,), 0)

    def test_plan_kind_given_by_value_is_coerced(self):
        plan = InsertionPlan(False, 1, ("numerical",), 0)
        assert plan.kinds == (ErrorType.NUMERICAL,)
        result = insert_rule_based("Revenue was $5.2 million.", "", plan, seed=0)
        assert result.applied == (ErrorType.NUMERICAL,)
        assert result.record.doc.kinds() == [ErrorType.NUMERICAL]

    def test_unknown_plan_kind_rejected(self):
        with pytest.raises(ValueError, match="bogus"):
            InsertionPlan(False, 1, ("bogus",), 0)

    def test_monte_carlo_matches_configured_distribution(self):
        passage = " ".join(["tok"] * 120)  # two errors per non-clean plan
        clean = 0
        kinds = Counter()
        n = 10_000
        for seed in range(n):
            plan = plan_errors(passage, seed=seed)
            if plan.clean:
                clean += 1
            kinds.update(plan.kinds)
        clean_pct = 100.0 * clean / n
        assert abs(clean_pct - 32.5) <= 2.0
        total = sum(kinds.values())
        weights = {row.kind: row.default_weight for row in KINDS}
        weight_sum = sum(weights.values())
        for kind, weight in weights.items():
            share = 100.0 * kinds[kind] / total
            target = 100.0 * weight / weight_sum
            assert abs(share - target) <= 2.0, (kind, share, target)


class TestRuleBasedInserter:
    def test_clean_plan_passthrough(self):
        plan = InsertionPlan(True, 0, (), 5)
        result = insert_rule_based("Revenue rose in 2020.", "", plan, seed=5)
        assert serialize(result.record.doc) == "Revenue rose in 2020."
        assert not result.record.doc.has_tags
        assert result.skipped == ()

    def test_forced_temporal_mirrors_worked_example_structure(self):
        result = insert_rule_based(
            WORKED_ORIGINAL, "", _plan(ErrorType.TEMPORAL), seed=9
        )
        edits = [s for s in result.record.doc.segments if isinstance(s, Edit)]
        assert len(edits) == 1
        assert edits[0].kind is ErrorType.TEMPORAL
        assert edits[0].original_text == "September 2018"
        assert edits[0].error_text != "September 2018"
        assert derive_original(result.record.doc) == WORKED_ORIGINAL

    def test_relation_flip_on_lexicon_sentence(self):
        passage = (
            "The earnings from service operations decreased from $32.8 million "
            "in 2000 to $35.1 million in 2001."
        )
        result = insert_rule_based(passage, "", _plan(ErrorType.RELATION), seed=1)
        assert (
            "<relation><delete>decreased</delete><mark>increased</mark></relation>"
            in serialize(result.record.doc)
        )
        assert derive_original(result.record.doc) == passage

    def test_numeric_perturbation_preserves_formatting(self):
        passage = "Assets were $1,204 million and margin was 41.2% in the period."
        rng = random.Random(0)
        for seed in range(12):
            result = insert_rule_based(passage, "", _plan(ErrorType.NUMERICAL, seed=seed), seed=seed)
            (edit,) = [s for s in result.record.doc.segments if isinstance(s, Edit)]
            if edit.original_text == "$1,204":
                # grouped style, currency sigil kept, no decimals introduced
                assert re.fullmatch(r"\$\d{1,3}(,\d{3})*", edit.error_text)
            else:
                assert edit.original_text == "41.2%"
                assert re.fullmatch(r"\d+\.\d%", edit.error_text)

    def test_numerical_edits_leave_the_comma_after_a_number(self):
        passage = "Sales were 1,000, up from 900, in the year."
        plan = _plan(ErrorType.NUMERICAL, ErrorType.NUMERICAL)
        for seed in range(10):
            doc = insert_rule_based(passage, "", plan, seed=seed).record.doc
            edits = [s for s in doc.segments if isinstance(s, Edit)]
            assert [e.original_text for e in edits] == ["1,000", "900"]
            # "900" is ungrouped, so its replacement is too.
            assert "," not in edits[1].error_text
            erroneous, _ = derive_erroneous(doc)
            assert re.fullmatch(r"Sales were [\d,]+, up from \d+, in the year\.", erroneous)
            assert derive_original(doc) == passage

    def test_contradictory_copy_keeps_the_comma_of_a_date(self):
        passage = "Harbor Financial held cash of $88.1 million as of March 28, 2019."
        for seed in range(20):
            result = insert_rule_based(passage, "", _plan(ErrorType.CONTRADICTORY), seed=seed)
            (stmt,) = [s for s in result.record.doc.segments if isinstance(s, Statement)]
            assert re.fullmatch(
                r"Harbor Financial held cash of \$[\d.]+ million as of March \d+, \d{4}\.",
                stmt.content,
            ), stmt.content

    def test_a_number_inside_a_word_is_not_a_numerical_site(self):
        # "Q1" is a quarter and "10-K" a form name, not quantities to perturb.
        labels = "Revenue in Q1 rose sharply, and the 10-K was filed."
        with_amount = "Revenue in Q1 was $5.2 million, and the 10-K was filed."
        for seed in range(10):
            result = insert_rule_based(labels, "", _plan(ErrorType.NUMERICAL, seed=seed), seed=seed)
            assert serialize(result.record.doc) == labels
            assert [s.reason for s in result.skipped] == ["no applicable site"]
            doc = insert_rule_based(with_amount, "", _plan(ErrorType.NUMERICAL), seed=seed).record.doc
            assert [e.original_text for e in doc.segments if isinstance(e, Edit)] == ["$5.2"]

    def test_contradictory_copy_never_names_an_impossible_day(self):
        passage = "Cash was high as of March 28, 2019."
        for seed in range(50):
            result = insert_rule_based(passage, "", _plan(ErrorType.CONTRADICTORY), seed=seed)
            (stmt,) = [s for s in result.record.doc.segments if isinstance(s, Statement)]
            day = re.fullmatch(r"Cash was high as of March (\d+), \d{4}\.", stmt.content).group(1)
            assert int(day) <= 31, stmt.content

    def test_entity_replacement_harvests_context(self):
        passage = "Net income attributable to Harbor Financial was $55.2 million."
        context = "Filings for Harbor Financial and Summit Industrial in 2021."
        result = insert_rule_based(passage, context, _plan(ErrorType.ENTITY), seed=2)
        (edit,) = [s for s in result.record.doc.segments if isinstance(s, Edit)]
        assert edit.original_text == "Harbor Financial"
        assert edit.error_text == "Summit Industrial"

    def test_contradictory_appends_flipped_copy(self):
        passage = "Earnings increased to $12.5 million in 2020."
        result = insert_rule_based(passage, "", _plan(ErrorType.CONTRADICTORY), seed=3)
        (stmt,) = [s for s in result.record.doc.segments if isinstance(s, Statement)]
        assert stmt.kind is ErrorType.CONTRADICTORY
        assert stmt.content != passage
        assert "decreased" in stmt.content or "$12.5" not in stmt.content
        assert serialize(result.record.doc).index("<contradictory>") > len(passage) - 1
        assert derive_original(result.record.doc) == passage

    def test_unverifiable_appends_speculative_sentence(self):
        passage = "The notes mature in 2027."
        result = insert_rule_based(passage, "", _plan(ErrorType.UNVERIFIABLE), seed=4)
        (stmt,) = [s for s in result.record.doc.segments if isinstance(s, Statement)]
        assert stmt.kind is ErrorType.UNVERIFIABLE
        assert derive_original(result.record.doc) == passage

    def test_unapplicable_kind_is_reported_not_absorbed(self):
        passage = "the totals were broadly unchanged across both periods."  # no sites
        plan = _plan(ErrorType.ENTITY, ErrorType.NUMERICAL)
        result = insert_rule_based(passage, "", plan, seed=6)
        assert {s.kind for s in result.skipped} == {ErrorType.ENTITY, ErrorType.NUMERICAL}
        tags = [s for s in result.record.doc.segments if not hasattr(s, "content")]
        assert len(tags) == plan.count - len(result.skipped) == 0

    def test_deterministic_output(self):
        rng = random.Random(7)
        passage = make_passage(rng)
        context = make_context(rng, passage)
        plan = plan_errors(passage, InserterConfig(clean_probability=0.0), seed=7)
        first = insert_rule_based(passage, context, plan, seed=7)
        second = insert_rule_based(passage, context, plan, seed=7)
        assert first.record == second.record
        assert first.skipped == second.skipped

    def test_error_text_never_equals_original(self):
        rng = random.Random(31)
        for i in range(150):
            passage = make_passage(rng)
            plan = plan_errors(passage, InserterConfig(clean_probability=0.0), seed=i)
            result = insert_rule_based(passage, make_context(rng, passage), plan, seed=i)
            for seg in result.record.doc.segments:
                if isinstance(seg, Edit):
                    assert seg.original_text.strip() != seg.error_text.strip()

    def test_tag_count_matches_plan_minus_skips(self):
        rng = random.Random(67)
        for i in range(150):
            passage = make_passage(rng)
            plan = plan_errors(passage, InserterConfig(clean_probability=0.0), seed=i)
            result = insert_rule_based(passage, make_context(rng, passage), plan, seed=i)
            tags = result.record.doc.kinds()
            assert len(tags) == plan.count - len(result.skipped)
            assert len(result.applied) == len(tags)


_SCANNERS = ("_temporal_sites", "_numeric_sites", "_entity_sites", "_relation_sites", "sentence_spans")


def _count_scans(monkeypatch) -> list:
    """Patch every site scanner of the inserter to log (name, text) per call."""
    calls = []
    for name in _SCANNERS:
        def counting(text, *args, _name=name, _scan=getattr(insertion, name)):
            calls.append((_name, text))
            return _scan(text, *args)

        monkeypatch.setattr(insertion, name, counting)
    return calls


# One sentence with a site for every kind.
_ALL_SITES = "Revenue at Harbor Financial rose to $19.5 million in September 2018."


@pytest.mark.parametrize(
    "kind, passage, scanners",
    [
        (ErrorType.NUMERICAL, _ALL_SITES, {"_temporal_sites", "_numeric_sites"}),
        (ErrorType.TEMPORAL, _ALL_SITES, {"_temporal_sites"}),
        (ErrorType.ENTITY, _ALL_SITES, {"_entity_sites"}),
        (ErrorType.RELATION, _ALL_SITES, {"_relation_sites"}),
        (ErrorType.CONTRADICTORY, _ALL_SITES, {"sentence_spans"}),
        (ErrorType.UNVERIFIABLE, _ALL_SITES, set()),
        # Trailing whitespace rules out the end, so the statement needs a
        # sentence start.
        (ErrorType.UNVERIFIABLE, "Revenue rose. Costs fell.\n", {"sentence_spans"}),
    ],
)
def test_a_plan_runs_only_the_scanners_its_kinds_read(monkeypatch, kind, passage, scanners):
    calls = _count_scans(monkeypatch)
    result = insert_rule_based(passage, "Summit Industrial and Atlas Energy.", _plan(kind), seed=1)
    assert {name for name, _ in calls} == scanners
    assert result.applied == (kind,)


def test_entity_plan_harvests_the_context_once(monkeypatch):
    calls = _count_scans(monkeypatch)
    rng = random.Random(5)
    passage = make_passage(rng)
    context = make_context(rng, passage)
    result = insert_rule_based(passage, context, _plan(*[ErrorType.ENTITY] * 6), seed=5)
    assert len(result.applied) > 1
    assert calls.count(("_entity_sites", context)) == 1


# Punctuated prose built from every number and date shape the grammar
# knows, each followed by the punctuation prose puts after it.
_YEARS = st.integers(1800, 2099)
_NUMBER = st.one_of(
    st.integers(0, 10**9).map(str),
    st.integers(1000, 10**9).map("{:,}".format),
    st.tuples(st.integers(0, 10**7), st.integers(1, 3)).map(lambda t: f"{t[0] / 9:.{t[1]}f}"),
    st.tuples(st.integers(0, 10**9), st.integers(1, 3)).map(lambda t: f"{t[0] / 9:,.{t[1]}f}"),
)
_AMOUNT = st.builds(
    lambda sigil, number, percent: sigil + number + percent,
    st.sampled_from(["", "$", "€", "£"]),
    _NUMBER,
    st.sampled_from(["", "", "%"]),
)
_MONTH = st.sampled_from(["March", "September", "may", "December"])
_DATE = st.one_of(
    st.builds("{} {}, {}".format, _MONTH, st.integers(1, 31), _YEARS),
    st.builds("{} {} {}".format, _MONTH, st.integers(1, 31), _YEARS),
    st.builds("{} {}".format, _MONTH, _YEARS),
    st.builds("fiscal {}".format, _YEARS),
    st.builds("fiscal year {}".format, _YEARS),
    st.builds("{}{}".format, st.sampled_from(["FY", "FY ", "fy"]), _YEARS),
    st.builds("Q{} {}".format, st.integers(1, 4), _YEARS),
    st.builds("{} quarter".format, st.sampled_from(["first", "Second", "third", "fourth"])),
    st.builds("{} quarter of {}".format, st.sampled_from(["first", "fourth"]), _YEARS),
    st.builds("{}-{}".format, _YEARS, _YEARS),
    _YEARS.map(str),
    # A decimal or grouped tail glued to a date's year makes it a number.
    st.builds(
        "{}{}{}".format,
        st.sampled_from(["fiscal ", "FY", "Q3 ", "March 28, ", "first quarter of "]),
        _YEARS,
        st.sampled_from([".5", ",500", ".25"]),
    ),
)
_WORD = st.sampled_from(
    ["revenue", "was", "in", "rose", "fell", "higher", "up", "from", "Harbor Financial",
     "Atlas Energy", "the", "notes", "due", "compared", "with"]
)
_PUNCT = st.sampled_from(["", "", "", ",", ";", ":", ")"])
_TOKEN = st.builds(lambda t, p: t + p, st.one_of(_WORD, _AMOUNT, _DATE), _PUNCT)
_SENTENCE = st.builds(
    lambda first, rest, end: " ".join([first, *rest]) + end,
    st.sampled_from(["Revenue", "In", "Atlas Energy", "Sales", "(The"]),
    st.lists(_TOKEN, min_size=1, max_size=10),
    st.sampled_from([".", ".", "!", "?", ""]),
)
_PROSE = st.builds(
    lambda sents, seps: "".join(s + sep for s, sep in zip(sents, seps)).rstrip(),
    st.lists(_SENTENCE, min_size=1, max_size=4),
    st.lists(st.sampled_from([" ", " ", "\n", "  "]), min_size=4, max_size=4),
)
_KINDS = st.lists(st.sampled_from(list(ErrorType)), min_size=1, max_size=6)


@settings(max_examples=150, deadline=None)
@given(passage=_PROSE, kinds=_KINDS, seed=st.integers(0, 2**16))
def test_rule_insertion_reconstructs_punctuated_prose(passage, kinds, seed):
    result = insert_rule_based(passage, passage, _plan(*kinds, seed=seed), seed=seed)
    assert derive_original(result.record.doc) == passage
    assert check(result.record) == []


@settings(max_examples=150, deadline=None)
@given(
    passage=st.one_of(_PROSE, st.integers(0, 2**16).map(lambda n: make_long_passage(random.Random(n)))),
    kinds=_KINDS,
    seed=st.integers(0, 2**16),
)
@example(passage="Revenue 1800.0.", kinds=[ErrorType.TEMPORAL], seed=0)  # a decimal is no year
@example(passage="Revenue in fiscal 2019.5 rose.", kinds=[ErrorType.TEMPORAL], seed=0)
def test_every_number_missing_from_the_reference_lies_inside_a_tag(passage, kinds, seed):
    # The lookup a detector could learn from this corpus: a reference that
    # holds the passage grounds every number the inserter did not write.
    doc = insert_rule_based(passage, passage, _plan(*kinds, seed=seed), seed=seed).record.doc
    erroneous, spans = derive_erroneous(doc)
    for m in NUMBER_TOKEN_RE.finditer(erroneous):
        if not numbers_within(m.group(2), passage):
            assert any(s.start <= m.start(2) and m.end(2) <= s.end for s in spans), (erroneous, m.group())


@settings(max_examples=150, deadline=None)
@given(passage=_PROSE)
def test_numeric_sites_skip_exactly_the_tokens_in_date_sites(passage):
    temporal = insertion._temporal_sites(passage)
    # The quadratic scan the one-cursor walk replaced.
    expected = [
        (m.start(), m.end(), m.group())
        for m in NUMBER_TOKEN_RE.finditer(passage)
        if not YEAR_RE.fullmatch(m.group())
        and not insertion._inside_a_word(passage, m.start(), m.end())
        and not any(m.start() < e and s < m.end() for s, e, _ in temporal)
    ]
    assert insertion._numeric_sites(passage, temporal) == expected


def test_contradictory_skips_a_passage_with_no_flippable_sentence():
    passage = "Revenue was strong. Costs were stable."  # no antonym, number or date to flip
    result = insert_rule_based(passage, "", _plan(ErrorType.CONTRADICTORY))
    assert [(s.kind, s.reason) for s in result.skipped] == [(ErrorType.CONTRADICTORY, "no flippable sentence")]
    assert result.record.doc.segments == (Text(passage),)


def test_a_token_that_is_no_number_is_not_perturbed():
    assert insertion._perturb_number_token("Revenue", random.Random(0)) is None


# Number tokens of every shape, and values of a unit or two of their last
# printed digit, whose +/-10..50% draws mostly print the token again.
_NUMBER_TOKENS = st.from_regex(NUMBER_TOKEN_RE, fullmatch=True) | st.builds(
    lambda sigil, zeros, digit, pct: f"{sigil}0.{'0' * zeros}{digit}{pct}",
    st.sampled_from(["", "$"]), st.integers(0, 12), st.sampled_from("123"), st.sampled_from(["", "%"]),
) | st.builds(lambda digits: digits.lstrip("0") or "1", st.text("0123456789", min_size=15, max_size=400))


@settings(max_examples=300, deadline=None)
@given(token=_NUMBER_TOKENS, seed=st.integers(0, 2**16))
@example(token="9" * 308, seed=0)  # a shifted value past the float range
@example(token="1" * 400 + ".5", seed=0)
def test_a_number_token_is_perturbed_or_declined_never_kept(token, seed):
    # The eight draws print the core again only when the value is a unit or
    # two of its last digit, and the bump that follows them then moves it;
    # so no number token is given back unchanged. A value whose shift no
    # float holds is declined.
    prefix, core, suffix = NUMBER_TOKEN_RE.fullmatch(token).groups()
    out = insertion._perturb_number_token(token, random.Random(seed))
    if out is None:
        assert float(core.replace(",", "")) * 2 == float("inf")
        return
    m = NUMBER_TOKEN_RE.fullmatch(out)
    assert m is not None and m.group(1, 3) == (prefix, suffix) and m.group(2) != core


def test_shifted_year_stays_a_year():
    # "1800" shifted down or "2099" shifted up would leave the year grammar,
    # and the gate would then read the temporal edit as numerical.
    for passage in ("Revenue March 1, 1800.", "The notes mature in 2099."):
        for seed in range(20):
            result = insert_rule_based(passage, "", _plan(ErrorType.TEMPORAL), seed=seed)
            assert check(result.record) == [], serialize(result.record.doc)


@settings(max_examples=150, deadline=None)
@given(passage=_PROSE, count=st.integers(1, 4), seed=st.integers(0, 2**16))
def test_numerical_edits_swap_whole_number_tokens(passage, count, seed):
    plan = _plan(*[ErrorType.NUMERICAL] * count, seed=seed)
    result = insert_rule_based(passage, "", plan, seed=seed)
    for seg in result.record.doc.segments:
        if isinstance(seg, Edit):
            assert NUMBER_TOKEN_RE.fullmatch(seg.original_text), seg
            assert NUMBER_TOKEN_RE.fullmatch(seg.error_text), seg


# --- the rule inserter's bytes, pinned ---------------------------------------
#
# Each digest is a sha256 over one JSON line per call. A change to the
# inserter that moves an rng draw, a case rule or a joining space changes a
# digest; one that only rewrites the code keeps them all.


def _sha256_lines(rows) -> str:
    digest = hashlib.sha256()
    for row in rows:
        digest.update(json.dumps(row, ensure_ascii=False).encode("utf-8") + b"\n")
    return digest.hexdigest()


def _conftest_corpus(seed: int, n: int = 400) -> list:
    rng = random.Random(seed)
    corpus = []
    for _ in range(n):
        passage = make_passage(rng)
        corpus.append((passage, make_context(rng, passage)))
    return corpus


def _planned(config: InserterConfig, seed: int) -> list:
    return [(p, c, plan_errors(p, config, seed=i)) for i, (p, c) in enumerate(_conftest_corpus(seed))]


def _all_kind_plans(seed: int) -> list:
    """Every kind in a shuffled order, with up to three repeated; a third of
    the passages end in a line break, which rules out a statement at the
    end."""
    rng = random.Random(seed)
    cases = []
    for passage, context in _conftest_corpus(seed):
        kinds = list(ErrorType) + rng.choices(list(ErrorType), k=rng.randint(0, 3))
        rng.shuffle(kinds)
        if rng.random() < 1 / 3:
            passage += "\n"
        cases.append((passage, context, InsertionPlan(False, len(kinds), tuple(kinds), 0)))
    return cases


def _rule_rows(cases) -> list:
    """The record as `insert` writes it, the applied kinds, and each skip's
    kind and reason, for every (passage, context, plan)."""
    rows = []
    for i, (passage, context, plan) in enumerate(cases):
        result = insert_rule_based(passage, context, plan, seed=i, record_id=f"r{i}")
        rows.append(record_to_json(result.record) | {
            "applied": [kind.value for kind in result.applied],
            "skipped": [[skip.kind.value, skip.reason] for skip in result.skipped],
        })
    return rows


@pytest.mark.parametrize(
    "cases, pinned",
    [
        (lambda: _planned(InserterConfig(), 1),
         "7f48b424eba9b13d96d2287ac3acaf53afa4d5b8117f40049e4e675ad4fb8746"),
        (lambda: _planned(InserterConfig(clean_probability=0, tokens_per_error=10), 2),
         "0a5f20c4ae2b3b651c75b6d7314acc5148e7490e3da68c029520353578d3544c"),
        (lambda: _all_kind_plans(3),
         "9fe9ae55d5591b9db8fd77a5ba3106310c9cf58bdd174bca567360ebf0f84247"),
    ],
    ids=["default-config", "dense-config", "all-kinds"],
)
def test_rule_insertion_bytes_are_pinned(cases, pinned):
    assert _sha256_lines(_rule_rows(cases())) == pinned


def _date_span(rng: random.Random) -> str:
    """Date words as prose spells them: months and ordinal quarters in any
    case (and with a long s), Q digits, years in and out of the grammar, days
    and filler words."""
    def cased(word: str) -> str:
        return rng.choice((str.lower, str.title, str.upper))(word)

    pieces = (
        lambda: cased(rng.choice(MONTH_NAMES)),
        lambda: cased(rng.choice(QUARTER_ORDINALS)) + rng.choice((" quarter", "")),
        lambda: rng.choice("Qq") + rng.choice("012345"),
        lambda: str(rng.randint(1790, 2110)),
        lambda: str(rng.randint(1, 31)) + rng.choice(("", ",")),
        lambda: rng.choice(("ſeptember", "ſecond", "fiscal", "year", "of", "the", "FY", "ended", "due")),
    )
    return " ".join(rng.choice(pieces)() for _ in range(rng.randint(1, 4)))


def test_perturb_temporal_bytes_are_pinned():
    spans = random.Random(23)
    rows = []
    for i in range(20_000):
        span = _date_span(spans)
        rng = random.Random(i)
        # The draw after the move pins how many draws the move took.
        rows.append([span, insertion._perturb_temporal(span, rng), rng.random()])
    assert _sha256_lines(rows) == "ea3ddeb71b1528fe916d12d4d0551e0dbd4500cb2f3c220c7f76e0e80e26de5e"


class TestInsertionPrompt:
    def test_single_kind_prompt_contents(self):
        plan = _plan(ErrorType.TEMPORAL)
        prompt = build_insertion_prompt("passage text", "context text", plan, seed=0)
        assert prompt.count("[temporal]") == 1
        assert "temporal errors (<temporal>)" in prompt
        assert "numerical errors" not in prompt
        assert "passage text" in prompt and "context text" in prompt

    def test_multi_kind_prompt_contents(self):
        plan = _plan(ErrorType.NUMERICAL, ErrorType.UNVERIFIABLE)
        prompt = build_insertion_prompt("p", "c", plan, seed=0)
        assert "[numerical]" in prompt and "[unverifiable]" in prompt
        assert "numerical errors (<numerical>)" in prompt
        assert "unverifiable sentences (<unverifiable>)" in prompt

    def test_seeds_change_only_exemplar_choice(self):
        plan = _plan(ErrorType.TEMPORAL)

        def skeleton(prompt: str) -> tuple:
            head, _, rest = prompt.partition("Examples:")
            body, _, tail = rest.partition("Reference context:")
            return head, tail

        prompts = {build_insertion_prompt("p", "c", plan, seed=s) for s in range(6)}
        assert len(prompts) > 1  # the default pool has two temporal exemplars
        skeletons = {skeleton(p) for p in prompts}
        assert len(skeletons) == 1

    def test_deterministic_given_seed(self):
        plan = _plan(ErrorType.ENTITY, ErrorType.RELATION)
        assert build_insertion_prompt("p", "c", plan, seed=5) == build_insertion_prompt(
            "p", "c", plan, seed=5
        )

    def test_missing_exemplar(self):
        from fintag.insertion import Exemplar

        pool = [Exemplar(ErrorType.TEMPORAL, "p", "t")]
        with pytest.raises(MissingExemplar):
            build_insertion_prompt("p", "c", _plan(ErrorType.ENTITY), pool, seed=0)

    def test_exemplar_pool_file_round_trip(self, tmp_path):
        import json

        from fintag.insertion import load_exemplars

        path = tmp_path / "pool.jsonl"
        rows = [
            {"kind": "temporal", "passage": "In 2019 it was $5.",
             "tagged": "In <temporal><delete>2019</delete><mark>2017</mark></temporal> it was $5."},
        ]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
        pool = load_exemplars(path)
        assert pool[0].kind is ErrorType.TEMPORAL
        prompt = build_insertion_prompt("p", "c", _plan(ErrorType.TEMPORAL), pool, seed=0)
        assert rows[0]["tagged"] in prompt

    # Replay cache keys hash the prompt, so a changed byte makes every
    # cached reply miss. Each plan's prompt sha256, default pool first.
    PINNED = (
        {
            "temporal": "03f45fbe23f6bd163eb0f3458a616a73456d3331160f29ead85c7d070a06dada",
            "numerical": "b1711ca3106f3a8a56a7c3f8a5e008e53cd71556beabdedb464c8d5891cc0419",
            "entity": "c096eb85283400d5b3f30a3776636a71a070767692f66b335d34ee9fec2bcaaa",
            "relation": "1b4dcd27e2d487d542e74c3c201b754530111424933a4dec1503d08785c95e20",
            "contradictory": "a780c063a6bb4666c1a4b9cabd93124d990c694be6929c39818f2143710845c2",
            "unverifiable": "5be976f529d08cd3f57f2bf51b56a51ced385c5af493e5eb48c9cc0f6cc0da53",
            "unverifiable,numerical,temporal": "3bcbe27e3e51e0b20c3dd52a6d917262eea843b3c5948d553aaccce759317607",
        },
        {
            "temporal": "21fc660eb896443f8bc3343c5ed8c2d604244c135fc80b7989e6f3a661c24772",
            "numerical": "56b58f0ac589b7ddde9adb93e4595fe39763c037c17f0cb5db34cba2e3a9d9aa",
            "entity": "ddcb5142464a0f67d91402a8e44eba8c230984ee35584a95d745154c05770e7b",
            "relation": "4da730342a6e63c6efaffdda9226aff66f8dd1b6a0107c95cba1984805f56a2e",
            "contradictory": "99e1b7ec84fa633de92af93e867fb64eadcc1e9d934ba5d6ca81cb9f6b284389",
            "unverifiable": "ee20101cb69d1cd2e4ec2d5017349e745ec77c0e39be617fbb8384b6b7b7ad40",
            "unverifiable,numerical,temporal": "b1e852fc2fc758a37fca846971c1cd756fd0fa07373daa832874a0eb74e56e27",
        },
    )

    @pytest.mark.parametrize("custom", [False, True])
    def test_prompt_bytes_are_pinned(self, custom):
        import hashlib

        from fintag.insertion import DEFAULT_EXEMPLARS

        pool = tuple(reversed(DEFAULT_EXEMPLARS)) if custom else None
        plans = [_plan(kind) for kind in ErrorType]
        plans.append(_plan(ErrorType.UNVERIFIABLE, ErrorType.NUMERICAL, ErrorType.TEMPORAL))
        digests = {}
        for plan in plans:
            prompt = build_insertion_prompt("Revenue rose 5% to $12.4 million in 2019.",
                                            "Context: revenue of $12.4 million.", plan, pool, seed=7)
            label = ",".join(kind.value for kind in plan.kinds)
            digests[label] = hashlib.sha256(prompt.encode("utf-8")).hexdigest()
        assert digests == self.PINNED[custom]


class StubClient:
    name = "stub"

    def __init__(self, replies):
        self.replies = list(replies)
        self.calls = 0

    def call(self, request):
        text = self.replies[min(self.calls, len(self.replies) - 1)]
        self.calls += 1
        return CompletionReply(text, "stub-model", 0.0)


class TestLlmInserter:
    def test_valid_reply_accepted_without_retry(self):
        passage = "The fee was $25 million in 2019."
        reply = (
            "The fee was <numerical><delete>$25</delete><mark>$34</mark>"
            "</numerical> million in 2019."
        )
        client = StubClient([reply])
        record = insert_llm(passage, "", _plan(ErrorType.NUMERICAL), client)
        assert client.calls == 1
        assert record.provenance == "stub"
        assert serialize(record.doc) == reply
        assert check(record) == []

    def test_unfixable_reply_retries_then_fails(self):
        client = StubClient([INVALID_FORMAT_TAGGED])
        with pytest.raises(InsertionFailure) as err:
            insert_llm(
                "The depreciation expense was unchanged.", "",
                _plan(ErrorType.CONTRADICTORY), client, max_retries=1,
            )
        assert client.calls == 2  # first try plus one retry
        assert any("invalid" in i.kind.value for i in err.value.issues)

    def test_fixable_reply_is_auto_fixed(self):
        client = StubClient([IDENTICAL_TEXT_TAGGED])
        record = insert_llm(
            IDENTICAL_TEXT_ORIGINAL, "", _plan(ErrorType.RELATION), client
        )
        assert client.calls == 1
        assert not record.doc.has_tags  # unwrapped to plain text
        assert check(record) == []

    def test_clean_plan_skips_client(self):
        client = StubClient(["should never be used"])
        plan = InsertionPlan(True, 0, (), 1)
        record = insert_llm("Revenue rose in 2020.", "", plan, client)
        assert client.calls == 0
        assert not record.doc.has_tags

    def test_envelope_and_fences_tolerated(self):
        passage = "The fee was $25 million in 2019."
        inner = (
            "The fee was <numerical><delete>$25</delete><mark>$31</mark>"
            "</numerical> million in 2019."
        )
        wrapped = '```json\n{"Tagged": "' + inner.replace('"', '\\"') + '"}\n```'
        record = insert_llm(passage, "", _plan(ErrorType.NUMERICAL), StubClient([wrapped]))
        assert serialize(record.doc) == inner
