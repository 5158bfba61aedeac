"""Inline error-tag markup: grammar, parser, serializer, and the passage
renderings derived from a tagged document.

The grammar is deliberately small and flat. Each kind of `fintag.taxonomy`
has one error tag, editable or statement-level as its row says. An editable
tag wraps exactly one ``<delete>`` and one ``<mark>`` child and nothing
else; a statement-level tag wraps plain text. No other nesting is
legal, tags carry no attributes, and names are lowercase ASCII.

A document has one of two forms that differ only in which child holds the
erroneous text:

* tagged passage -- ``<delete>`` holds the original span, ``<mark>`` the
  inserted error (children serialized delete-first);
* target output -- ``<mark>`` holds the correction, ``<delete>`` the error
  (children serialized mark-first).

Both child orders are accepted on input regardless of form (models mix
them); roles are assigned by tag name under the declared form, and a
non-canonical order is reported as an advisory warning. Whitespace directly
between the two children of an editable tag is insignificant and dropped.

Lenient parsing never fails: any construct that cannot be parsed is demoted
to literal text and reported as a warning, so every input byte survives in
the AST. Well-formed tags are matched whole under any label set, each
by one regex match; only text that is not well formed goes through the
lenient token walk, which gives the same result for well-formed tags.
"""

from __future__ import annotations

import re
from enum import Enum
from typing import NamedTuple

from . import Validated
from .taxonomy import DEFAULT_LABELS, KINDS, ErrorType

_CHILD_NAMES = ("delete", "mark")

# Tag names of the grammar, those that open an editable tag, those that
# open no statement tag under any label set, and each kind's name to its
# kind (a label that is no kind, such as FAVA's invented, is its own kind).
_GRAMMAR_NAMES = frozenset([t.value for t in ErrorType] + list(_CHILD_NAMES))
_EDITABLE_NAMES = frozenset(row.kind.value for row in KINDS if row.editable)
_NON_STATEMENT_NAMES = _EDITABLE_NAMES.union(_CHILD_NAMES)
_KIND_OF = {t.value: t for t in ErrorType}


class Form(Enum):
    TAGGED_PASSAGE = "tagged_passage"
    TARGET_OUTPUT = "target_output"


def label_of(kind: ErrorType | str) -> str:
    return kind.value if isinstance(kind, ErrorType) else kind


class Text(NamedTuple):
    content: str


class Edit(NamedTuple):
    """An editable error: the original span and the erroneous span."""

    kind: ErrorType
    original_text: str
    error_text: str


class Statement(NamedTuple):
    """A wholly inserted erroneous sentence (no correction span)."""

    kind: ErrorType | str
    content: str


Segment = Text | Edit | Statement


class _DocumentFields(NamedTuple):
    segments: tuple
    form: Form = Form.TAGGED_PASSAGE


class TaggedDocument(Validated, _DocumentFields):
    """Flat segment list plus the form its serialization follows.

    Construction canonicalizes the segment list: empty text segments are
    dropped and adjacent text segments merged, so structurally equal
    documents serialize identically and ``parse(serialize(d)) == d``.
    """

    __slots__ = ()

    def __new__(cls, segments: tuple, form: Form = Form.TAGGED_PASSAGE):
        merged: list = []
        for seg in segments:
            if isinstance(seg, Text):
                if not seg.content:
                    continue
                if merged and isinstance(merged[-1], Text):
                    merged[-1] = Text(merged[-1].content + seg.content)
                    continue
            merged.append(seg)
        return tuple.__new__(cls, (tuple(merged), form))

    @property
    def has_tags(self) -> bool:
        return any(not isinstance(s, Text) for s in self.segments)

    def kinds(self) -> list:
        """Tag kinds in document order (multiset, duplicates kept)."""
        return [s.kind for s in self.segments if not isinstance(s, Text)]


class TagSpan(NamedTuple):
    """One tag located by character offsets into the erroneous rendering."""

    kind: ErrorType | str
    start: int
    end: int
    error_text: str
    correction: str | None = None


class ParseErrorKind(Enum):
    UNCLOSED_TAG = "unclosed_tag"
    UNKNOWN_TAG = "unknown_tag"
    ILLEGAL_NESTING = "illegal_nesting"
    MISSING_DELETE_MARK_PAIR = "missing_delete_mark_pair"
    STRAY_CHILD = "stray_child"


class ParseError(ValueError):
    """Strict-mode parse failure: the first construct the lenient parse
    demoted, with its kind, offset and tag."""

    def __init__(self, kind: ParseErrorKind, offset: int, tag: str, message: str):
        super().__init__(f"{kind.value} at offset {offset} ({tag}): {message}")
        self.kind = kind
        self.offset = offset
        self.tag = tag


class ParseWarning(NamedTuple):
    """Lenient-mode diagnostic.

    A warning with a `kind` demoted a construct to literal text (category
    "demoted": structure was lost, every byte kept); one without a kind
    flags a non-canonical delete/mark order for the declared form (category
    "order").
    """

    message: str
    offset: int
    tag: str
    kind: ParseErrorKind | None

    @property
    def category(self) -> str:
        return "order" if self.kind is None else "demoted"


class ParseResult(NamedTuple):
    document: TaggedDocument
    warnings: tuple


# Anything shaped like a simple tag (groups: "/" or "", and the name), told
# known or unknown by the active tag set. Bare "<" or "<3.5>" is text.
_TAG_CANDIDATE_RE = re.compile(r"<(/?)([A-Za-z]+)>")


class _Demote(Exception):
    """Internal signal: literalize the opener and resume after it."""

    def __init__(self, kind: ParseErrorKind, message: str):
        self.kind = kind
        self.message = message


def contains_tag_token(text: str) -> bool:
    """True if `text` contains any token of the grammar."""
    return any(m.group(2) in _GRAMMAR_NAMES for m in _TAG_CANDIDATE_RE.finditer(text))


def parse(
    text: str,
    form: Form = Form.TAGGED_PASSAGE,
    *,
    strict: bool = False,
    labels: tuple = DEFAULT_LABELS,
) -> ParseResult:
    """Parse `text` into a TaggedDocument under the label set `labels`.

    The grammar's own names are always known. A label that is no kind of
    the taxonomy, such as FAVA's ``invented``, is a statement-level tag
    whose Statement's kind is the label itself; any other name is unknown.
    Parsing never fails: violating constructs are demoted to literal text and
    reported as warnings that name their ParseErrorKind, so the AST preserves
    every input byte. Strict mode runs the same parse and raises ParseError
    from the first demotion. Well-formed tags are matched whole, under any
    label set; only text that is not well formed is walked token by token.
    """
    known = _GRAMMAR_NAMES.union(labels)
    statements = known - _NON_STATEMENT_NAMES
    result = _parse_whole(text, form, known, statements)
    if result is None:
        result = _parse_tokens(text, form, known)
    if strict:
        for w in result.warnings:
            if w.kind is not None:
                raise ParseError(w.kind, w.offset, w.tag, w.message)
    return result


# One match per well-formed editable tag, per lowercase tag around plain
# content, or per lone tag token. The groups are an editable tag's name,
# its delete and mark text when delete comes first, its mark and delete
# text when mark does, the other tag's name (looked up, not spelled out)
# and content, and a lone token's "/" and name. Content holds no "<", so a
# whole match holds no token of its own; `\s` is what `str.strip` strips,
# as between the walk's tokens. Editable names, which no label set adds,
# are spelled out: a generic name there runs slower.
_WHOLE_TAG_RE = re.compile(
    rf"""<(?:
        ({"|".join(sorted(_EDITABLE_NAMES))})>\s*(?:
            <delete>([^<]*)</delete>\s*<mark>([^<]*)</mark>
            | <mark>([^<]*)</mark>\s*<delete>([^<]*)</delete>
        )\s*</\1>
        | ([a-z]+)>([^<]*)</\6>
        | (/?)([A-Za-z]+)>
    )""",
    re.VERBOSE,
)


def _parse_whole(text: str, form: Form, known, statements) -> ParseResult | None:
    """The parse of a text whose every token of a `known` name lies in a
    well-formed tag, or None for any other text: what `_parse_tokens`
    gives, with each tag matched whole instead of walked token by token."""
    segments: list = []
    warnings: list = []
    pos = 0
    for m in _WHOLE_TAG_RE.finditer(text):
        edit, delete1, mark1, mark2, delete2, statement, content, closing, name = m.groups()
        if name is not None:
            if name in known:
                return None
            warnings.append(_unknown_tag(m[0], m.start()))
            continue
        if statement is not None and statement not in statements:
            if statement in known:
                return None
            warnings.append(_unknown_tag(f"<{statement}>", m.start()))
            warnings.append(_unknown_tag(f"</{statement}>", m.end(7)))
            continue
        segments.append(Text(text[pos:m.start()]))
        pos = m.end()
        if statement is not None:
            segments.append(Statement(_KIND_OF.get(statement, statement), content))
            continue
        if delete1 is not None:
            seg = _edit(edit, delete1, mark1, "delete", form, m.start(), warnings)
        else:
            seg = _edit(edit, delete2, mark2, "mark", form, m.start(), warnings)
        segments.append(seg)
    segments.append(Text(text[pos:]))
    return ParseResult(TaggedDocument(tuple(segments), form), tuple(warnings))


def _unknown_tag(raw: str, offset: int) -> ParseWarning:
    return ParseWarning(f"unknown tag {raw} kept as text", offset, raw, ParseErrorKind.UNKNOWN_TAG)


def _edit(name, delete, mark, first, form, offset, warnings) -> Edit:
    """The Edit of editable tag `name` at `offset` whose children hold
    `delete` and `mark` and came `first`-child first; a non-canonical order
    for `form` adds an order warning."""
    if form is Form.TAGGED_PASSAGE:
        original, error = delete, mark
        canonical_first = "delete"
    else:
        original, error = mark, delete
        canonical_first = "mark"
    if first != canonical_first:
        warnings.append(
            ParseWarning(
                f"<{name}> children in {first}-first order; "
                f"canonical for this form is {canonical_first}-first",
                offset,
                f"<{name}>",
                kind=None,
            )
        )
    return Edit(_KIND_OF[name], original, error)


def _parse_tokens(text: str, form: Form, known) -> ParseResult:
    """The lenient token walk: every tag token in order, each construct
    that breaks the grammar demoted to literal text with a warning. It
    parses any text, and is the reference that `_parse_whole` agrees with."""
    toks = list(_TAG_CANDIDATE_RE.finditer(text))

    segments: list = []
    warnings: list = []
    buf: list[str] = []

    def flush() -> None:
        if buf:
            segments.append(Text("".join(buf)))
            buf.clear()

    def demote(tok, kind: ParseErrorKind, message: str) -> None:
        warnings.append(ParseWarning(message, tok.start(), tok[0], kind))
        buf.append(tok[0])

    i = 0
    pos = 0
    while True:
        tok = toks[i] if i < len(toks) else None
        buf.append(text[pos:tok.start()] if tok else text[pos:])
        if tok is None:
            break
        closing, name = tok.groups()
        if name not in known:
            warnings.append(_unknown_tag(tok[0], tok.start()))
            buf.append(tok[0])
        elif closing:
            demote(tok, ParseErrorKind.STRAY_CHILD, f"stray closer {tok[0]} kept as text")
        elif name in _CHILD_NAMES:
            demote(tok, ParseErrorKind.STRAY_CHILD, f"orphan {tok[0]} kept as text")
        else:
            try:
                if name in _EDITABLE_NAMES:
                    seg, i, pos, extra = _parse_edit(text, toks, i, form, known)
                else:
                    seg, i, pos, extra = _parse_statement(text, toks, i, known)
            except _Demote as d:
                demote(tok, d.kind, d.message)
            else:
                flush()
                segments.append(seg)
                warnings.extend(extra)
                continue
        pos = tok.end()
        i += 1
    flush()
    return ParseResult(TaggedDocument(tuple(segments), form), tuple(warnings))


def _scan_to_closer(toks, j, opener, known, warnings):
    """Index of the first closer of `opener` at or after token `j`, or None.

    Every token on the way stays literal text, with a warning."""
    while j < len(toks):
        t = toks[j]
        if t[1] and t[2] == opener[2]:
            return j
        kind = ParseErrorKind.ILLEGAL_NESTING if t[2] in known else ParseErrorKind.UNKNOWN_TAG
        warnings.append(
            ParseWarning(f"{t[0]} inside <{opener[2]}> kept as literal text", t.start(), t[0], kind)
        )
        j += 1
    return None


def _parse_statement(text, toks, i, known):
    opener = toks[i]
    inner_warnings = []
    j = _scan_to_closer(toks, i + 1, opener, known, inner_warnings)
    if j is None:
        raise _Demote(ParseErrorKind.UNCLOSED_TAG, f"unclosed {opener[0]} kept as text")
    content = text[opener.end():toks[j].start()]
    name = opener[2]
    return Statement(_KIND_OF.get(name, name), content), j + 1, toks[j].end(), inner_warnings


def _parse_edit(text, toks, i, form, known):
    opener = toks[i]
    inner_warnings = []
    children: dict[str, str] = {}
    order: list[str] = []
    j = i + 1
    pos = opener.end()
    while True:
        if j >= len(toks):
            raise _Demote(ParseErrorKind.UNCLOSED_TAG, f"unclosed {opener[0]} kept as text")
        t = toks[j]
        closing, name = t.groups()
        if text[pos:t.start()].strip():
            raise _Demote(
                ParseErrorKind.STRAY_CHILD, f"text inside {opener[0]} outside its children"
            )
        if closing and name == opener[2]:
            if set(children) != set(_CHILD_NAMES):
                raise _Demote(
                    ParseErrorKind.MISSING_DELETE_MARK_PAIR,
                    f"{opener[0]} lacks a delete/mark pair",
                )
            edit = _edit(opener[2], children["delete"], children["mark"], order[0], form,
                         opener.start(), inner_warnings)
            return edit, j + 1, t.end(), inner_warnings
        if closing or name not in _CHILD_NAMES:
            if name not in known:
                kind = ParseErrorKind.UNKNOWN_TAG
            elif closing:
                kind = ParseErrorKind.STRAY_CHILD  # a mismatched closer
            else:
                kind = ParseErrorKind.ILLEGAL_NESTING
            raise _Demote(kind, f"unexpected {t[0]} inside {opener[0]}")
        if name in children:
            raise _Demote(
                ParseErrorKind.MISSING_DELETE_MARK_PAIR,
                f"duplicate <{name}> inside {opener[0]}",
            )
        k = _scan_to_closer(toks, j + 1, t, known, inner_warnings)
        if k is None:
            raise _Demote(ParseErrorKind.UNCLOSED_TAG, f"unclosed {t[0]} inside {opener[0]}")
        children[name] = text[t.end():toks[k].start()]
        order.append(name)
        pos = toks[k].end()
        j = k + 1


def serialize(doc: TaggedDocument) -> str:
    """Render the document back to tagged text in its declared form."""
    parts: list[str] = []
    for seg in doc.segments:
        if isinstance(seg, Text):
            parts.append(seg.content)
        elif isinstance(seg, Statement):
            label = label_of(seg.kind)
            parts.append(f"<{label}>{seg.content}</{label}>")
        else:
            label = seg.kind.value
            if doc.form is Form.TAGGED_PASSAGE:
                inner = (
                    f"<delete>{seg.original_text}</delete><mark>{seg.error_text}</mark>"
                )
            else:
                inner = (
                    f"<mark>{seg.original_text}</mark><delete>{seg.error_text}</delete>"
                )
            parts.append(f"<{label}>{inner}</{label}>")
    return "".join(parts)


def derive_erroneous(doc: TaggedDocument) -> tuple[str, list[TagSpan]]:
    """The corrupted rendering (tags stripped, errors kept) plus one TagSpan
    per tag with offsets into that rendering. Form-invariant."""
    parts: list[str] = []
    spans: list[TagSpan] = []
    pos = 0
    for seg in doc.segments:
        if isinstance(seg, Text):
            piece = seg.content
        elif isinstance(seg, Edit):
            piece = seg.error_text
            spans.append(
                TagSpan(seg.kind, pos, pos + len(piece), piece, seg.original_text)
            )
        else:
            piece = seg.content
            spans.append(TagSpan(seg.kind, pos, pos + len(piece), piece, None))
        parts.append(piece)
        pos += len(piece)
    return "".join(parts), spans


def derive_original(doc: TaggedDocument) -> str:
    """Reconstruct the clean passage: edits render their original span and
    statement-level insertions are removed, collapsing the doubled
    whitespace a removal leaves to a single space and trimming whitespace
    stranded at the ends."""
    acc = ""
    pending_removal = False
    for seg in doc.segments:
        if isinstance(seg, Statement):
            pending_removal = True
            continue
        piece = seg.content if isinstance(seg, Text) else seg.original_text
        if pending_removal:
            if not acc:
                piece = piece.lstrip()
            elif acc[-1].isspace() and piece[:1].isspace():
                acc = acc.rstrip() + " "
                piece = piece.lstrip()
            pending_removal = False
        acc += piece
    if pending_removal:
        acc = acc.rstrip()
    return acc


def to_target_output(doc: TaggedDocument) -> TaggedDocument:
    """Flip a tagged passage into target-output form. Segment semantics are
    unchanged; only the serialization order of delete/mark flips."""
    if doc.form is Form.TARGET_OUTPUT:
        raise ValueError("document is already in target-output form")
    return TaggedDocument(doc.segments, Form.TARGET_OUTPUT)
