"""Grammar, parser, serializer and rendering tests for the tag markup."""

from __future__ import annotations

import ast
import random
import re
import string
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    INVALID_FORMAT_TAGGED,
    WORKED_ERRONEOUS,
    WORKED_ORIGINAL,
    WORKED_TAGGED,
    WORKED_TARGET,
    make_context,
    make_passage,
)
from fintag import markup
from fintag.markup import (
    Edit,
    Form,
    ParseError,
    ParseErrorKind,
    Statement,
    TaggedDocument,
    Text,
    contains_tag_token,
    derive_erroneous,
    derive_original,
    parse,
    serialize,
    to_target_output,
)
from fintag.taxonomy import DEFAULT_LABELS, FAVA_LABELS, ErrorType

_EDITABLE_TYPES = [t for t in ErrorType if t.row.editable]
_STATEMENT_TYPES = [t for t in ErrorType if not t.row.editable]


def test_error_type_has_exactly_six_members():
    assert len(ErrorType) == 6
    assert set(_EDITABLE_TYPES) == {
        ErrorType.TEMPORAL, ErrorType.NUMERICAL, ErrorType.ENTITY, ErrorType.RELATION
    }
    assert set(_STATEMENT_TYPES) == {ErrorType.CONTRADICTORY, ErrorType.UNVERIFIABLE}


class TestWorkedExample:
    def test_parse_structure(self):
        doc, warnings = parse(WORKED_TAGGED)
        assert warnings == ()
        kinds = [type(s).__name__ for s in doc.segments]
        assert kinds == ["Text", "Edit", "Text", "Statement"]
        edit = doc.segments[1]
        assert edit == Edit(ErrorType.TEMPORAL, "September 2018", "August 2008")
        stmt = doc.segments[3]
        assert stmt.kind is ErrorType.UNVERIFIABLE
        assert stmt.content.startswith("The bond proceeds")

    def test_serialize_round_trip(self):
        doc, _ = parse(WORKED_TAGGED, strict=True)
        assert serialize(doc) == WORKED_TAGGED

    def test_derive_erroneous(self):
        doc, _ = parse(WORKED_TAGGED)
        rendering, spans = derive_erroneous(doc)
        assert rendering == WORKED_ERRONEOUS
        assert [s.kind for s in spans] == [ErrorType.TEMPORAL, ErrorType.UNVERIFIABLE]
        for span in spans:
            assert rendering[span.start:span.end] == span.error_text

    def test_derive_original(self):
        doc, _ = parse(WORKED_TAGGED)
        assert derive_original(doc) == WORKED_ORIGINAL

    def test_target_output(self):
        doc, _ = parse(WORKED_TAGGED)
        assert serialize(to_target_output(doc)) == WORKED_TARGET

    def test_target_output_parses_back(self):
        doc, warnings = parse(WORKED_TARGET, Form.TARGET_OUTPUT, strict=True)
        assert warnings == ()
        assert doc.segments == parse(WORKED_TAGGED).document.segments
        assert derive_erroneous(doc)[0] == WORKED_ERRONEOUS
        assert derive_original(doc) == WORKED_ORIGINAL


def test_plain_text_is_single_segment():
    doc, warnings = parse("plain text, no tags", strict=True)
    assert warnings == ()
    assert doc.segments == (Text("plain text, no tags"),)
    assert serialize(doc) == "plain text, no tags"
    assert derive_erroneous(doc) == ("plain text, no tags", [])
    assert derive_original(doc) == "plain text, no tags"


def test_to_target_output_rejects_target_form():
    doc, _ = parse(WORKED_TARGET, Form.TARGET_OUTPUT)
    with pytest.raises(ValueError):
        to_target_output(doc)


def test_to_target_output_flips_form_only():
    doc, _ = parse("no tags at all")
    flipped = to_target_output(doc)
    assert flipped.segments == doc.segments
    assert flipped.form is Form.TARGET_OUTPUT


class TestStrictErrors:
    def test_unclosed_tag(self):
        with pytest.raises(ParseError) as err:
            parse("a <unverifiable>rest of text", strict=True)
        assert err.value.kind is ParseErrorKind.UNCLOSED_TAG

    def test_unknown_tag(self):
        with pytest.raises(ParseError) as err:
            parse("a <bogus>b</bogus>", strict=True)
        assert err.value.kind is ParseErrorKind.UNKNOWN_TAG

    def test_illegal_nesting(self):
        with pytest.raises(ParseError) as err:
            parse(INVALID_FORMAT_TAGGED, strict=True)
        assert err.value.kind is ParseErrorKind.ILLEGAL_NESTING

    def test_missing_pair(self):
        with pytest.raises(ParseError) as err:
            parse("<temporal><mark>2018</mark></temporal>", strict=True)
        assert err.value.kind is ParseErrorKind.MISSING_DELETE_MARK_PAIR

    def test_stray_child(self):
        with pytest.raises(ParseError) as err:
            parse("a <mark>x</mark> b", strict=True)
        assert err.value.kind is ParseErrorKind.STRAY_CHILD

    def test_stray_closer(self):
        with pytest.raises(ParseError) as err:
            parse("a </temporal> b", strict=True)
        assert err.value.kind is ParseErrorKind.STRAY_CHILD

    def test_error_reports_offset_and_tag(self):
        with pytest.raises(ParseError) as err:
            parse("ab <bogus>", strict=True)
        assert err.value.offset == 3
        assert err.value.tag == "<bogus>"


@pytest.mark.parametrize(
    "text, kind, offset, tag",
    [
        ("a <bogus> b", ParseErrorKind.UNKNOWN_TAG, 2, "<bogus>"),
        ("a </temporal> b", ParseErrorKind.STRAY_CHILD, 2, "</temporal>"),
        ("a <mark>x</mark>", ParseErrorKind.STRAY_CHILD, 2, "<mark>"),
        ("<entity>x<delete>a</delete><mark>b</mark></entity>", ParseErrorKind.STRAY_CHILD, 0, "<entity>"),
        ("<entity><delete>a</delete></temporal>", ParseErrorKind.STRAY_CHILD, 0, "<entity>"),
        ("<unverifiable>a </mark>b</unverifiable>", ParseErrorKind.ILLEGAL_NESTING, 16, "</mark>"),
        ("<entity><delete>a<x></delete><mark>b</mark></entity>", ParseErrorKind.UNKNOWN_TAG, 17, "<x>"),
        ("<entity><temporal>", ParseErrorKind.ILLEGAL_NESTING, 0, "<entity>"),
        ("<numerical><bogus>", ParseErrorKind.UNKNOWN_TAG, 0, "<numerical>"),
        ("a <unverifiable>b", ParseErrorKind.UNCLOSED_TAG, 2, "<unverifiable>"),
        ("<entity><delete>a</entity>", ParseErrorKind.UNCLOSED_TAG, 0, "<entity>"),
        ("<entity><mark>b</mark></entity>", ParseErrorKind.MISSING_DELETE_MARK_PAIR, 0, "<entity>"),
        ("<entity><mark>b</mark><mark>c</mark></entity>", ParseErrorKind.MISSING_DELETE_MARK_PAIR, 0, "<entity>"),
    ],
)
def test_each_demotion_names_its_kind_and_strict_raises_the_first(text, kind, offset, tag):
    _, warnings = parse(text)
    first = next(w for w in warnings if w.category == "demoted")
    assert (first.kind, first.offset, first.tag) == (kind, offset, tag)
    with pytest.raises(ParseError) as err:
        parse(text, strict=True)
    assert (err.value.kind, err.value.offset, err.value.tag) == (kind, offset, tag)


def test_strict_mode_is_one_check_on_the_lenient_walk():
    # Strict parsing checks the lenient result; a second raise site, or a
    # helper that takes `strict`, is a second walk through the grammar.
    tree = ast.parse(Path(markup.__file__).read_text(encoding="utf-8"))
    raises = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Raise)
        and isinstance(node.exc, ast.Call)
        and getattr(node.exc.func, "id", None) == "ParseError"
    ]
    takes_strict = {
        node.name for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(a.arg == "strict" for a in node.args.posonlyargs + node.args.args + node.args.kwonlyargs)
    }
    assert len(raises) == 1
    assert takes_strict == {"parse"}


class TestLenientRecovery:
    def test_nested_tag_demoted_inside_statement(self):
        doc, warnings = parse(INVALID_FORMAT_TAGGED)
        assert warnings
        assert all(w.category == "demoted" for w in warnings)
        statements = [s for s in doc.segments if isinstance(s, Statement)]
        assert len(statements) == 1
        assert "<temporal>" in statements[0].content  # inner region kept literally

    def test_orphan_children_kept_verbatim(self):
        text = "a <mark>x</mark> b"
        doc, warnings = parse(text)
        assert doc.segments == (Text(text),)
        assert len(warnings) == 2

    def test_unknown_tag_kept_verbatim(self):
        text = "a <bogus>b</bogus> c"
        doc, warnings = parse(text)
        assert doc.segments == (Text(text),)
        assert len(warnings) == 2

    def test_truncated_closer_never_fails(self):
        text = "<numerical><delete>$1.4</delete><mark>$2.4</mark></numeri"
        doc, warnings = parse(text)
        assert warnings
        assert serialize_like(doc) == text

    def test_swapped_child_order_accepted_with_order_warning(self):
        text = "<temporal><mark>August 2008</mark><delete>September 2018</delete></temporal>"
        doc, warnings = parse(text)  # tagged-passage form
        assert [w.category for w in warnings] == ["order"]
        edit = doc.segments[0]
        # Role assignment follows the tag names under the declared form.
        assert edit.original_text == "September 2018"
        assert edit.error_text == "August 2008"

    def test_lenient_parse_never_raises_on_fuzz(self):
        rng = random.Random(404)
        alphabet = (
            list(string.ascii_lowercase[:6])
            + list("<>/ .")
            + ["<temporal>", "</temporal>", "<delete>", "</delete>", "<mark>",
               "</mark>", "<unverifiable>", "</unverifiable>", "<x>", "2018"]
        )
        for _ in range(400):
            text = "".join(rng.choices(alphabet, k=rng.randint(0, 30)))
            doc, warnings = parse(text)
            assert isinstance(doc, TaggedDocument)


def serialize_like(doc) -> str:
    """Concatenated text content; used on fully demoted documents."""
    return "".join(s.content for s in doc.segments if isinstance(s, Text))


def test_whitespace_between_children_is_insignificant():
    text = "<temporal><delete>2018</delete> <mark>2017</mark></temporal>"
    doc, warnings = parse(text)
    assert doc.segments == (Edit(ErrorType.TEMPORAL, "2018", "2017"),)


def test_document_constructor_merges_text_segments():
    doc = TaggedDocument((Text("a"), Text(""), Text("b"), Text("c")))
    assert doc.segments == (Text("abc"),)


class TestDerivedProperties:
    """Seeded sweeps over rule-based inserter output (the AST source)."""

    def _documents(self, n=300):
        from fintag.insertion import insert_rule_based, plan_errors

        rng = random.Random(11)
        docs = []
        for i in range(n):
            passage = make_passage(rng)
            context = make_context(rng, passage)
            plan = plan_errors(passage, seed=i)
            result = insert_rule_based(passage, context, plan, seed=i)
            docs.append((passage, result.record.doc))
        return docs

    def test_parse_serialize_identity_both_forms(self):
        for _, doc in self._documents():
            text = serialize(doc)
            reparsed, warnings = parse(text, Form.TAGGED_PASSAGE, strict=True)
            assert warnings == ()
            assert reparsed == doc
            target = to_target_output(doc)
            target_text = serialize(target)
            reparsed_target, warnings = parse(target_text, Form.TARGET_OUTPUT, strict=True)
            assert warnings == ()
            assert reparsed_target == target

    def test_derive_erroneous_is_form_invariant(self):
        for _, doc in self._documents():
            assert derive_erroneous(doc) == derive_erroneous(to_target_output(doc))

    def test_spans_slice_the_rendering(self):
        for _, doc in self._documents():
            rendering, spans = derive_erroneous(doc)
            for span in spans:
                assert 0 <= span.start < span.end <= len(rendering)
                assert rendering[span.start:span.end] == span.error_text

    def test_derive_original_recovers_source(self):
        for passage, doc in self._documents():
            assert derive_original(doc) == passage

    def test_target_round_trip_recovers_ast(self):
        for _, doc in self._documents():
            target_text = serialize(to_target_output(doc))
            back, _ = parse(target_text, Form.TARGET_OUTPUT, strict=True)
            assert TaggedDocument(back.segments, Form.TAGGED_PASSAGE) == doc


# --- properties over generated markup ----------------------------------------

_TAGS = [f"<{c}{n}>" for n in [t.value for t in ErrorType] + ["delete", "mark", "x"] for c in ("", "/")]
_PIECE = st.text(st.sampled_from("ab <>/\n\t\u2003é2,."), max_size=4)
_GAP = st.text(st.sampled_from(" \n\t\u2003\x1c\x85"), max_size=2)
# A well-formed editable tag, children in either order, with whitespace
# around them: rare to hit by concatenating single tags.
_EDIT_MARKUP = st.builds(
    lambda kind, gaps, children, swap: (
        f"<{kind.value}>{gaps[0]}" + gaps[1].join(children[::-1] if swap else children)
        + f"{gaps[2]}</{kind.value}>"
    ),
    st.sampled_from(_EDITABLE_TYPES),
    st.tuples(_GAP, _GAP, _GAP),
    st.tuples(_PIECE.map("<delete>{}</delete>".format), _PIECE.map("<mark>{}</mark>".format)),
    st.booleans(),
)
# A well-formed statement tag, likewise rare by concatenation.
_STATEMENT_MARKUP = st.builds(
    lambda kind, content: f"<{kind.value}>{content}</{kind.value}>",
    st.sampled_from(_STATEMENT_TYPES),
    _PIECE,
)
_MARKUP = st.lists(
    st.sampled_from(_TAGS) | _PIECE | _EDIT_MARKUP | _STATEMENT_MARKUP, max_size=24
).map("".join)


@settings(max_examples=300, deadline=None)
@given(text=_MARKUP, form=st.sampled_from(list(Form)))
def test_lenient_parse_keeps_every_byte(text, form):
    doc, _ = parse(text, form)
    rendered = serialize(doc)
    # Serializing adds nothing; the only input dropped is the insignificant
    # whitespace between an editable tag and its children.
    assert not Counter(rendered) - Counter(text)
    assert all(ch.isspace() for ch in (Counter(text) - Counter(rendered)).elements())
    if not any(isinstance(seg, Edit) for seg in doc.segments):
        assert rendered == text


_TAG_SHAPE_RE = re.compile(r"<(/?)([A-Za-z]+)>")
_CONTENT = st.text(st.sampled_from("ab <>/\n\u2003é2,.$%"), max_size=8)


def _documents(labels):
    """Documents whose statements are of `labels`' statement labels: a kind
    of the taxonomy as its ErrorType, any other label as its plain name."""
    editable = {t.value for t in _EDITABLE_TYPES}
    statements = [ErrorType(l) if l in DEFAULT_LABELS else l for l in labels if l not in editable]
    segment = st.one_of(
        st.builds(Text, _CONTENT),
        st.builds(Edit, st.sampled_from(_EDITABLE_TYPES), _CONTENT, _CONTENT),
        st.builds(Statement, st.sampled_from(statements), _CONTENT),
    )
    return st.builds(
        TaggedDocument, st.lists(segment, max_size=8).map(tuple), st.sampled_from(list(Form))
    ).filter(
        lambda doc: not any(
            _TAG_SHAPE_RE.search(piece)
            for seg in doc.segments
            for piece in ((seg.original_text, seg.error_text) if isinstance(seg, Edit) else (seg.content,))
        )
    )


@settings(max_examples=300, deadline=None)
@given(
    labels_doc=st.sampled_from([DEFAULT_LABELS, FAVA_LABELS]).flatmap(
        lambda labels: st.tuples(st.just(labels), _documents(labels)))
)
def test_parse_inverts_serialize(labels_doc):
    labels, doc = labels_doc
    back, warnings = parse(serialize(doc), doc.form, strict=True, labels=labels)
    assert warnings == ()
    assert back == doc


_FAVA_ONLY = [label for label in FAVA_LABELS if label not in DEFAULT_LABELS]
_FAVA_TAGS = [f"<{c}{n}>" for n in _FAVA_ONLY for c in ("", "/")]
_SOUP = st.lists(_MARKUP | st.sampled_from(_FAVA_TAGS), max_size=6).map("".join)


@settings(max_examples=500, deadline=None)
@given(
    text=_SOUP,
    form=st.sampled_from(list(Form)),
    labels=st.sampled_from([DEFAULT_LABELS, FAVA_LABELS]),
)
def test_strict_raises_exactly_from_the_first_lenient_demotion(text, form, labels):
    lenient = parse(text, form, labels=labels)
    demoted = [w for w in lenient.warnings if w.category == "demoted"]
    assert all(isinstance(w.kind, ParseErrorKind) for w in demoted)
    try:
        strict = parse(text, form, strict=True, labels=labels)
    except ParseError as err:
        assert demoted
        assert (err.kind, err.offset, err.tag) == (demoted[0].kind, demoted[0].offset, demoted[0].tag)
    else:
        assert not demoted
        assert strict == lenient


_EDIT_GAPS = "<temporal>{}<delete>a</delete>{}<mark>b</mark>{}</temporal>"


@settings(max_examples=500, deadline=None)
@given(
    text=_SOUP,
    form=st.sampled_from(list(Form)),
    labels=st.sampled_from([DEFAULT_LABELS, FAVA_LABELS]),
)
@example(text=_EDIT_GAPS.format("\x1c", "", ""), form=Form.TAGGED_PASSAGE, labels=DEFAULT_LABELS)
@example(text=_EDIT_GAPS.format("", "\x85", ""), form=Form.TARGET_OUTPUT, labels=DEFAULT_LABELS)
@example(text=_EDIT_GAPS.format("", "", "\u2003"), form=Form.TAGGED_PASSAGE, labels=DEFAULT_LABELS)
@example(text=_EDIT_GAPS.format("", "\u200b", ""), form=Form.TAGGED_PASSAGE, labels=DEFAULT_LABELS)  # not whitespace
@example(text="<unverifiable>a < b</unverifiable>", form=Form.TAGGED_PASSAGE, labels=DEFAULT_LABELS)
@example(text="<contradictory>a <x> b</contradictory>", form=Form.TAGGED_PASSAGE, labels=DEFAULT_LABELS)
@example(text="<entity><delete>a<b</delete><mark>c</mark></entity>", form=Form.TARGET_OUTPUT, labels=DEFAULT_LABELS)
@example(text="<entity><mark>b</mark><mark>c</mark></entity>", form=Form.TAGGED_PASSAGE, labels=DEFAULT_LABELS)
@example(text="<entity><delete>a</delete><mark>b</mark></temporal>", form=Form.TAGGED_PASSAGE, labels=DEFAULT_LABELS)
@example(text="<x><unverifiable>a</unverifiable></x> <mark>", form=Form.TARGET_OUTPUT, labels=DEFAULT_LABELS)
@example(
    text="<X><numerical><mark>1</mark><delete>2</delete></numerical>",
    form=Form.TAGGED_PASSAGE,
    labels=DEFAULT_LABELS,
)
@example(text="<invented>x</invented>", form=Form.TARGET_OUTPUT, labels=DEFAULT_LABELS)
@example(text="<invented>x</invented>", form=Form.TARGET_OUTPUT, labels=FAVA_LABELS)
@example(text="a <foo>x</foo> b", form=Form.TAGGED_PASSAGE, labels=FAVA_LABELS)
@example(text="<mark>x</mark>", form=Form.TARGET_OUTPUT, labels=DEFAULT_LABELS)
@example(text="<numerical>x</numerical>", form=Form.TAGGED_PASSAGE, labels=FAVA_LABELS)
@example(
    text="<unverifiable><delete>a</delete><mark>b</mark></unverifiable>",
    form=Form.TAGGED_PASSAGE,
    labels=FAVA_LABELS,
)
@example(text="<Invented>x</Invented>", form=Form.TARGET_OUTPUT, labels=FAVA_LABELS)
@example(text="<entity>x</entity><mark>y</mark>", form=Form.TAGGED_PASSAGE, labels=("entity", "mark"))
def test_whole_tag_match_gives_what_the_token_walk_gives(text, form, labels):
    # The token walk is the reference: matching well-formed tags whole, and
    # falling back to the walk for anything else, must give what it gives,
    # under either label set.
    known = markup._GRAMMAR_NAMES.union(labels)
    assert parse(text, form, labels=labels) == markup._parse_tokens(text, form, known)


def test_fava_statement_tags_are_known_only_under_its_labels():
    text = "Sales rose. <invented>A made-up fact.</invented> <subjective>Fine.</subjective>"
    doc, warnings = parse(text, Form.TARGET_OUTPUT, strict=True, labels=FAVA_LABELS)
    assert warnings == ()
    assert doc.kinds() == ["invented", "subjective"]
    assert Statement("invented", "A made-up fact.") in doc.segments
    # A parse under FAVA's labels leaves the grammar's own name set as it was.
    assert not contains_tag_token(text)
    plain, warnings = parse(text, Form.TARGET_OUTPUT)
    assert not plain.has_tags
    assert {w.kind for w in warnings} == {ParseErrorKind.UNKNOWN_TAG}
