"""The number and date grammars: token shapes, the values read off them,
and the rule that `patterns` is their only home."""

from __future__ import annotations

import ast
import importlib
import re
from decimal import Decimal, InvalidOperation
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import fintag
from fintag import insertion, patterns
from fintag.patterns import (
    _DAY,
    _MONTH_ALT,
    _NUM_CORE,
    ANTONYMS,
    MONTH_NAMES,
    NUMBER_TOKEN_RE,
    QUARTER_ORDINALS,
    extract_numbers,
    flip_relation_word,
    is_numeric_span,
    numbers_within,
)


@pytest.mark.parametrize(
    "text, numbers",
    [
        ("1,000,", {"1000"}),
        ("$1,234.50%", {"1234.5"}),
        # Ungrouped comma runs are separate numbers, not one grouped value.
        ("12,34", {"12", "34"}),
        ("1,0000", {"1", "0"}),
        ("1234,567", {"1234", "567"}),
    ],
)
def test_extract_numbers(text, numbers):
    assert extract_numbers(text) == numbers


def test_number_token_stops_at_a_group_boundary():
    tokens = [m.group() for m in NUMBER_TOKEN_RE.finditer("Sales were 1,000, up from 900, in the year.")]
    assert tokens == ["1,000", "900"]


def test_number_token_groups_are_sigil_number_percent():
    assert NUMBER_TOKEN_RE.fullmatch("€12,345.6%").groups() == ("€", "12,345.6", "%")


_NUMBERS = st.one_of(
    st.integers(0, 10**12).map(str),
    st.integers(0, 10**12).map("{:,}".format),
    st.tuples(st.integers(0, 10**9), st.integers(1, 4)).map(lambda t: f"{t[0] / 7:,.{t[1]}f}"),
    st.tuples(st.integers(0, 10**9), st.integers(1, 4)).map(lambda t: f"{t[0] / 7:.{t[1]}f}"),
)


@settings(max_examples=200, deadline=None)
@given(
    core=_NUMBERS,
    sigil=st.sampled_from(["", "$", "€", "£"]),
    percent=st.sampled_from(["", "%"]),
    tail=st.sampled_from(["", ",", ".", ", ", ". ", ";", ")", " and"]),
)
def test_prose_scan_finds_each_number_whole(core, sigil, percent, tail):
    token = sigil + core + percent
    assert [m.group() for m in NUMBER_TOKEN_RE.finditer(f"was {token}{tail}")] == [token]
    assert is_numeric_span(token)


def _decimal_normalize(token: str) -> str | None:
    """The `Decimal` normalizer of one number token that `extract_numbers`'
    values replaced, kept as the oracle for values of at most 28
    significant digits."""
    core = token.strip().strip("$€£%").replace(",", "")
    if not core:
        return None
    try:
        value = Decimal(core)
    except InvalidOperation:
        return None
    return format(value.normalize(), "f")


def _token_scan_extract(text: str) -> set:
    """The `extract_numbers` that scanned whole tokens and normalized each
    one with `Decimal`."""
    return {
        norm
        for m in NUMBER_TOKEN_RE.finditer(text)
        if (norm := _decimal_normalize(m.group())) is not None
    }


def _significant_digits(core: str) -> int:
    digits = "".join(str(int(ch)) for ch in core if ch not in ",.")
    return len(digits.strip("0"))


@settings(max_examples=500, deadline=None)
@given(core=st.from_regex(_NUM_CORE, fullmatch=True).filter(lambda c: _significant_digits(c) <= 28))
def test_normalizer_agrees_with_decimal_up_to_28_digits(core):
    # from_regex draws `\d` from every Unicode decimal digit, not only ASCII.
    assert extract_numbers(core) == {_decimal_normalize(core)}
    # Sigils and percent signs never change a value.
    assert extract_numbers(f"${core}%") == {_decimal_normalize(core)}


def test_unicode_digits_normalize_to_ascii():
    assert extract_numbers("٣٠.٥٠") == {"30.5"}  # Arabic-Indic "30.50"
    assert extract_numbers("२,०००") == {"2000"}  # Devanagari "2,000"


def test_values_past_28_significant_digits_stay_exact():
    # Decimal.normalize rounded this to 12345678901234567890123456790.
    assert extract_numbers("$12,345,678,901,234,567,890,123,456,789") == {"12345678901234567890123456789"}
    assert extract_numbers("0.12345678901234567890123456789") == {"0.12345678901234567890123456789"}


# Spellings of one value: as drawn, ungrouped, zero-led, zero-trailed and
# in Arabic-Indic digits.
_RESPELL = (
    lambda c: c,
    lambda c: c.replace(",", ""),
    lambda c: "0" + c,
    lambda c: c + ("0" if "." in c else ".0"),
    lambda c: c.translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")),
)


@settings(max_examples=300, deadline=None)
@given(data=st.data(),
       cores=st.lists(_NUMBERS | st.from_regex(_NUM_CORE, fullmatch=True), min_size=1, max_size=5))
def test_grounding_check_is_the_value_set_inclusion(data, cores):
    def prose(max_size):
        picked = data.draw(st.lists(st.tuples(st.sampled_from(cores), st.sampled_from(_RESPELL)),
                                    max_size=max_size))
        return "Sales were " + " and ".join(spell(core) for core, spell in picked) + "."

    response, reference = prose(3), prose(6)
    assert numbers_within(response, reference) == (extract_numbers(response) <= extract_numbers(reference))


@pytest.mark.parametrize(
    "response, reference, grounded",
    [
        ("It was 1,000.", "It was 1000.", True),
        ("It was 1000.", "It was 1,000.", True),
        ("In 012 units", "12 units", True),
        ("$19.50", "19.5 million", True),
        ("٣٠.٥٠%", "up 30.5%", True),
        ("Flat.", "no figures", True),
        ("It was 1,001.", "It was 1,000 and 1.", False),
        ("19.05", "19.5", False),
    ],
)
def test_grounding_check_reads_values_not_spellings(response, reference, grounded):
    assert numbers_within(response, reference) is grounded
    assert (extract_numbers(response) <= extract_numbers(reference)) is grounded


@pytest.mark.parametrize("token", ["", "$", "abc", "1e5", "-3", "1,2,3"])
def test_normalize_number_rejects_what_is_not_one_number_token(token):
    assert NUMBER_TOKEN_RE.fullmatch(token) is None


_PROSE_NUMBER = st.builds(
    lambda sigil, core, percent: sigil + core + percent,
    st.sampled_from(["", "$", "€", "£", "$$", "US$"]),
    _NUMBERS | st.from_regex(r"\d{1,4}(,\d{1,4}){0,2}(\.\d{1,3})?", fullmatch=True),
    st.sampled_from(["", "%", "%%"]),
)


@settings(max_examples=300, deadline=None)
@given(
    parts=st.lists(
        _PROSE_NUMBER | st.sampled_from(["revenue", "Q", "FY", "-", ",", ".", " ", "(", ")"]),
        max_size=12,
    ),
    seps=st.lists(st.sampled_from(["", " ", ", ", ". "]), min_size=12, max_size=12),
)
def test_core_scan_finds_what_the_token_scan_found(parts, seps):
    text = "".join(part + sep for part, sep in zip(parts, seps))
    # Parts may run together into one long number; past 28 significant
    # digits the oracle rounds.
    assume(all(_significant_digits(m.group(2)) <= 28 for m in NUMBER_TOKEN_RE.finditer(text)))
    assert extract_numbers(text) == _token_scan_extract(text)


def _regex_literals_with_digit_class(source: str) -> list:
    return [
        node.value
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and "\\d" in node.value
    ]


def test_only_the_patterns_module_spells_a_digit_class():
    # What a number, a year or a day looks like is written once, in
    # `patterns`; a `\d` anywhere else is a second copy of that grammar.
    package = Path(fintag.__file__).parent
    found = {
        path.name: literals
        for path in sorted(package.glob("*.py"))
        if path.name != "patterns.py"
        and (literals := _regex_literals_with_digit_class(path.read_text(encoding="utf-8")))
    }
    assert found == {}


# Oracles: each prose scanner in its plain form, a leading `\b` and then the
# alternation, with no first-character guard. A guarded scanner must find
# exactly what its oracle finds.
_ORACLE_YEAR = r"(?:1[89]\d\d|20\d\d)"
_ORACLE_ORDINAL = rf"(?:{'|'.join(QUARTER_ORDINALS)})"
_ORACLES = {
    "RELATION_WORD_RE": re.compile(
        r"\b(?:" + "|".join(sorted((re.escape(w) for w in ANTONYMS), key=len, reverse=True)) + r")\b",
        re.IGNORECASE,
    ),
    "TEMPORAL_SITE_RE": re.compile(
        rf"""\b(?:
            (?:{_MONTH_ALT})\s+{_DAY},?\s+{_ORACLE_YEAR}
            | (?:{_MONTH_ALT})\s+{_ORACLE_YEAR}
            | fiscal(?:\s+year)?\s+{_ORACLE_YEAR}
            | fy\s?{_ORACLE_YEAR}
            | q[1-4]\s+{_ORACLE_YEAR}
            | {_ORACLE_ORDINAL}\s+quarter(?:\s+of\s+{_ORACLE_YEAR})?
            | (?<![.,$€£]){_ORACLE_YEAR}
        )(?![.,]\d)\b""",
        re.IGNORECASE | re.VERBOSE,
    ),
    "DAY_OF_MONTH_RE": re.compile(rf"\b(?:{_MONTH_ALT})\s+({_DAY})\b", re.IGNORECASE),
    "MONTH_RE": re.compile(rf"\b(?:{_MONTH_ALT})\b", re.IGNORECASE),
    "ORDINAL_QUARTER_RE": re.compile(rf"\b{_ORACLE_ORDINAL}\b", re.IGNORECASE),
    "QUARTER_NUM_RE": re.compile(r"\bq[1-4]\b", re.IGNORECASE),
    "YEAR_RE": re.compile(_ORACLE_YEAR),
    "_CAP_SPAN_RE": re.compile(r"\b[A-Z][A-Za-z&'-]*(?:\s+[A-Z][A-Za-z&'-]*)+\b"),
}

_SCANNER_WORDS = sorted({
    *ANTONYMS, *MONTH_NAMES, *QUARTER_ORDINALS, "quarter", "of", "year", "fiscal", "fy",
    "q", "q1", "q4", "q5", "1799", "1899", "1999", "2024", "2105", "28", "7", "holdings", "the",
})
# Characters that case-fold onto ASCII letters the scanners spell (long s,
# Kelvin sign, dotted capital I), a dotless i, other letters and digits to
# glue onto words, and prose punctuation, which glued to a year makes it
# part of a number.
_ODD = ["ſ", "\u212a", "İ", "ı", "é", "x", "Z", "_", "0", "9", "&", "'", "-", "$", "%", ".", ","]
_SEPARATORS = ["", "", " ", "  ", ", ", ". ", "\n", "\t", "-", "/"]


@st.composite
def _scanner_word(draw):
    word = draw(st.sampled_from(_SCANNER_WORDS))
    upper = draw(st.lists(st.booleans(), min_size=len(word), max_size=len(word)))
    word = "".join(c.upper() if up else c for c, up in zip(word, upper))
    for ascii_letter, lookalike in (("s", "ſ"), ("k", "\u212a"), ("i", "İ"), ("I", "İ")):
        if draw(st.booleans()) and draw(st.booleans()):
            word = word.replace(ascii_letter, lookalike)
    return word


_SCANNER_TEXT = st.lists(
    st.tuples(_scanner_word() | st.sampled_from(_ODD), st.sampled_from(_SEPARATORS)), max_size=14
).map(lambda parts: "".join(token + sep for token, sep in parts))


def _scanner(name):
    return getattr(insertion if name == "_CAP_SPAN_RE" else patterns, name)


@pytest.mark.parametrize("name", sorted(_ORACLES))
@settings(max_examples=200, deadline=None)
@given(text=_SCANNER_TEXT)
@example(text="$1999, 1999.5 and 2024,1 or 1,2024 in 2019.")  # years inside numbers
@example(text="fiscal 2019.5, FY2019.5, Q3 2019,500, March 28, 2019.5 and first quarter of 2019.5")
def test_guarded_scanner_finds_what_the_word_bounded_oracle_finds(name, text):
    def found(pattern):
        return [(m.span(), m.groups()) for m in pattern.finditer(text)]

    assert found(_scanner(name)) == found(_ORACLES[name])


def test_no_word_list_scanner_bypasses_the_guard():
    # A case-blind `\b(?:a|b|...)` scanner tries every alternative at every
    # word start; each one is built by `patterns._word_scanner` instead.
    package = Path(fintag.__file__).parent
    unguarded = [
        f"{path.stem}.{name}"
        for path in sorted(package.glob("*.py"))
        if path.stem != "__init__"
        for name, value in vars(importlib.import_module(f"fintag.{path.stem}")).items()
        if isinstance(value, re.Pattern)
        and value.flags & re.IGNORECASE
        and value.pattern.lstrip().startswith(r"\b(?:")
    ]
    assert unguarded == []


@pytest.mark.parametrize(
    "word, flipped",
    [("Increased", "Decreased"), ("fell", "rose"), ("Has", "Does not have"), ("widget", None)],
)
def test_flip_relation_word_keeps_a_leading_capital(word, flipped):
    assert flip_relation_word(word) == flipped


_ORACLE_TERMINAL_RE = re.compile(r"[.!?]+")


def _oracle_is_abbreviation(word: str) -> bool:
    """The abbreviation test as it was when its caller could pass a word
    ending in "." or an empty one."""
    token = word.rstrip(".").lower()
    if not token:
        return False
    if token in patterns._ABBREVIATIONS:
        return True
    return len(token) == 1 and token.isalpha()


def oracle_sentence_spans(text: str) -> list[tuple[int, int]]:
    """`sentence_spans` as it was before its scanner turned away terminal
    runs glued to the next character: every maximal run reaches the loop,
    which skips one not followed by whitespace or the end of the text, and
    reads the whitespace around a run one character at a time. Kept as the
    oracle for the scanner's lookahead and its whitespace group."""
    spans: list[tuple[int, int]] = []
    n = len(text)
    start = 0
    while start < n and text[start].isspace():
        start += 1
    if start >= n:
        return []
    for m in _ORACLE_TERMINAL_RE.finditer(text):
        end = m.end()
        if end <= start:
            continue
        if end < n and not text[end].isspace():
            continue  # decimal point or mid-token punctuation
        nxt = end
        while nxt < n and text[nxt].isspace():
            nxt += 1
        if nxt < n and not (text[nxt].isupper() or text[nxt].isdigit() or text[nxt] in "\"'($“"):
            continue
        word_start = m.start()
        while word_start > 0 and not text[word_start - 1].isspace():
            word_start -= 1
        if _oracle_is_abbreviation(text[word_start:m.start()]):
            continue
        spans.append((start, end))
        start = nxt
    if start < n:
        end = n
        while end > start and text[end - 1].isspace():
            end -= 1
        if end > start:
            spans.append((start, end))
    return spans


# Terminal runs, decimals, abbreviations, the openers the loop lets start a
# sentence, words, and whitespace that `str.isspace` and `\s` both know,
# ASCII or not.
_SEGMENT_PIECES = st.sampled_from((
    ".", "...", "?!", "!", "?", ".!?", "2.4", "19.50", "3.", "U.S", "Inc", "e.g", "U.K.", "J",
    '"', "'", "(", "$", "“", "Sales", "rose", "a", "7", " ", "  ", "\n", "\t", "\x85", "\x1c",
    "\u00a0", "\u2028",
))


@settings(max_examples=500, deadline=None)
@given(text=st.lists(_SEGMENT_PIECES, max_size=16).map("".join))
@example(text="Revenue was $2.4 billion. Net income rose.")
@example(text="U.S. sales rose.\x85Costs fell... (Margin?!) 7.5% e.g. Inc.")
@example(text="Wait...?!\x1c“Yes.” Done.")
def test_sentence_spans_match_the_loop_oracle(text):
    assert patterns.sentence_spans(text) == oracle_sentence_spans(text)
