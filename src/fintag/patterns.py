"""Shared lexical machinery: the number and date grammars, the relation
antonym lexicon, and deterministic sentence segmentation.

It is the one home of the number and date grammars: every regex for a
number, year, month or quarter is built here from the pieces below, and
other modules import the compiled scanners instead of writing their own.

Everything here is pure and regex-based so the modules built on top of it
(quality gate, rule-based inserter, grounding filter, containment judge)
stay deterministic and offline.
"""

from __future__ import annotations

import re
from typing import Iterable

MONTH_NAMES = (
    "january", "february", "march", "april", "may", "june",
    "july", "august", "september", "october", "november", "december",
)
QUARTER_ORDINALS = ("first", "second", "third", "fourth")

# The first two digits a year may have; a year is one of them and two more.
_CENTURIES = ("18", "19", "20")
_FISCAL, _FY = "fiscal", "fy"
_QUARTER_PREFIX = "q"

_MONTH_ALT = "|".join(MONTH_NAMES)
_YEAR = rf"(?:{'|'.join(_CENTURIES)})\d\d"
_DAY = r"\d{1,2}"
_ORDINAL_QUARTER = rf"(?:{'|'.join(QUARTER_ORDINALS)})"
_QUARTER_NUM = rf"{_QUARTER_PREFIX}[1-4]"


def _word_scanner(alternation: str, leads: Iterable[str], flags: int = re.IGNORECASE) -> re.Pattern:
    r"""Compile the prose scanner `\b(?:alternation)\b` so that it turns a
    position away before it tries any alternative.

    `leads` are the words the alternatives begin with. Each starts with a
    word character, so `(?<!\w)` says what the leading `\b` said, and a
    lookahead on the leads' first characters rejects every other word at
    once. The matches are those of the `\b`-led pattern, which Python's
    engine must try alternative by alternative at every word start. A long
    word list, as the relation lexicon is, comes spelled as a trie
    (`_trie`), so that the engine reads a shared prefix once at a word
    start, not once per word.
    """
    first = "".join(sorted({re.escape(lead[0]) for lead in leads}))
    return re.compile(rf"(?<!\w)(?=[{first}])(?:{alternation})\b", flags)


def _trie(words: Iterable[str]) -> str:
    """An alternation of `words` spelled as a trie, so that a shared prefix
    is matched once instead of once per word.

    At each node the longer words are tried before the word that ends
    there. All the words that match at one position lie on one path of the
    trie, so the longest of them that the rest of the pattern accepts is
    the match, as with an alternation sorted longest first.
    """
    root: dict = {}
    for word in words:
        node = root
        for ch in word:
            node = node.setdefault(ch, {})
        node[""] = {}

    def spell(node: dict) -> str:
        alternatives = [re.escape(ch) + spell(child) for ch, child in sorted(node.items()) if ch]
        if "" in node:
            alternatives.append("")
        return alternatives[0] if len(alternatives) == 1 else f"(?:{'|'.join(alternatives)})"

    return spell(root)


YEAR_RE = re.compile(_YEAR)
MONTH_RE = _word_scanner(_MONTH_ALT, MONTH_NAMES)
ORDINAL_QUARTER_RE = _word_scanner(_ORDINAL_QUARTER, QUARTER_ORDINALS)
QUARTER_NUM_RE = _word_scanner(_QUARTER_NUM, (_QUARTER_PREFIX,))
# Group 1 is the day of a month-name date ("March 28, 2019").
DAY_OF_MONTH_RE = _word_scanner(rf"(?:{_MONTH_ALT})\s+({_DAY})", MONTH_NAMES)

# Span shapes used to decide what an edited span "looks like". These are
# fullmatch patterns over a trimmed span, not prose scanners.
TEMPORAL_SPAN_RE = re.compile(
    rf"""(?:
        (?:{_MONTH_ALT})(?:\s+{_DAY}\s*,?)?(?:\s+{_YEAR})?
        | {_YEAR}(?:\s*[-–]\s*{_YEAR})?
        | (?:{_FISCAL}(?:\s+year)?|{_FY})\s*{_YEAR}
        | {_QUARTER_NUM}(?:\s+(?:of\s+)?{_YEAR})?
        | {_ORDINAL_QUARTER}\s+quarter(?:\s+of\s+{_YEAR})?
    )""",
    re.IGNORECASE | re.VERBOSE,
)

# Prose scanner for the date sites the rule-based inserter perturbs; a
# narrower, word-bounded cousin of TEMPORAL_SPAN_RE. No site ends before
# "." or "," and a digit: a year there is the integer part of a number
# ("fiscal 2019.5", "2019,500"). A bare year after a currency sign, "." or
# "," ("$2019", "1800.0") is part of a number too, so it is no site.
TEMPORAL_SITE_RE = _word_scanner(
    rf"""(?:
        (?:{_MONTH_ALT})\s+{_DAY},?\s+{_YEAR}
        | (?:{_MONTH_ALT})\s+{_YEAR}
        | {_FISCAL}(?:\s+year)?\s+{_YEAR}
        | {_FY}\s?{_YEAR}
        | {_QUARTER_NUM}\s+{_YEAR}
        | {_ORDINAL_QUARTER}\s+quarter(?:\s+of\s+{_YEAR})?
        | (?<![.,$€£]){_YEAR}
    )(?![.,]\d)""",
    (*MONTH_NAMES, _FISCAL, _FY, _QUARTER_PREFIX, *QUARTER_ORDINALS, *_CENTURIES),
    re.IGNORECASE | re.VERBOSE,
)

# Digits, optionally in thousands groups, then an optional decimal part. A
# grouped run stops at a group boundary, so the comma in "1,000, up" stays
# prose; a literal first digit, not an alternation, keeps prose scans fast.
_NUM_CORE = r"\d(?:\d{0,2}(?:,\d{3})+(?!\d)|\d*)(?:\.\d+)?"
_MAGNITUDE = r"(?:hundred|thousand|million|billion|trillion|bn|mm|k|bps|basis\s+points|percent|percentage\s+points)"

NUMERIC_SPAN_RE = re.compile(
    rf"""[-+]?\(?\s*[$€£]?\s?{_NUM_CORE}\s*\)?%?(?:\s+{_MAGNITUDE})?""",
    re.IGNORECASE | re.VERBOSE,
)

# Prose scanner for the number tokens the inserter edits; its groups are the
# currency sigil, the number and the percent sign.
NUMBER_TOKEN_RE = re.compile(rf"([$€£]?)({_NUM_CORE})(%?)")
# The bare core finds the same numbers as NUMBER_TOKEN_RE, and a pattern
# that starts with a digit scans prose about twice as fast (extract_numbers).
_NUMBER_CORE_RE = re.compile(_NUM_CORE)


def is_temporal_span(span: str) -> bool:
    return bool(TEMPORAL_SPAN_RE.fullmatch(span.strip()))


def is_numeric_span(span: str) -> bool:
    return bool(NUMERIC_SPAN_RE.fullmatch(span.strip()))


def _canonical_number(core: str) -> str:
    """Canonical value string of a `_NUM_CORE` match: ASCII digits, no
    thousands separators, no leading zeros before the point and no
    trailing zeros after it ("012,000.50" -> "12000.5").

    The value is kept exactly, whatever its length.
    """
    if not core.isascii():
        core = "".join(ch if ch.isascii() else str(int(ch)) for ch in core)
    whole, _, fraction = core.replace(",", "").partition(".")
    whole = whole.lstrip("0") or "0"
    fraction = fraction.rstrip("0")
    return f"{whole}.{fraction}" if fraction else whole


def number_cores(text: str) -> set[str]:
    """The distinct number cores of `text`, as spelled. Sigils and percent
    signs never change a value, so they are not read."""
    return set(_NUMBER_CORE_RE.findall(text))


def number_values(cores: Iterable[str]) -> set[str]:
    """The normalized values of number cores."""
    return {_canonical_number(core) for core in cores}


def extract_numbers(text: str) -> set[str]:
    """All normalized number/year values appearing in `text`."""
    return number_values(number_cores(text))


def absent_values(cores: set[str], reference_cores: set[str], reference_values=number_values) -> set[str]:
    """The values of number cores `cores` that a reference whose number
    cores are `reference_cores` lacks.

    A core spelled the same in both has the same value, so only the cores
    missing from `reference_cores` as spelled ("1000" against "1,000") are
    normalized, and only then is `reference_values(reference_cores)`, the
    reference's values, called: a caller that asks about one reference
    again and again may cache it.
    """
    missing = cores - reference_cores
    if not missing:
        return missing
    return number_values(missing) - reference_values(reference_cores)


def numbers_within(text: str, reference: str) -> bool:
    """`extract_numbers(text) <= extract_numbers(reference)`, the grounding
    test, by the raw-core-first rule of `absent_values`."""
    cores = number_cores(text)
    return not cores or not absent_values(cores, number_cores(reference))


# Relation words whose flip inverts the claim. Kept symmetric: the mapping
# contains both directions of every pair.
ANTONYM_PAIRS = (
    ("increased", "decreased"),
    ("increase", "decrease"),
    ("increases", "decreases"),
    ("increasing", "decreasing"),
    ("rose", "fell"),
    ("rise", "fall"),
    ("rises", "falls"),
    ("risen", "fallen"),
    ("grew", "shrank"),
    ("growth", "decline"),
    ("gain", "loss"),
    ("gains", "losses"),
    ("gained", "lost"),
    ("higher", "lower"),
    ("highest", "lowest"),
    ("more", "less"),
    ("up", "down"),
    ("above", "below"),
    ("improved", "declined"),
    ("climbed", "dropped"),
    ("expanded", "contracted"),
    ("strengthened", "weakened"),
    ("outperformed", "underperformed"),
    ("has", "does not have"),
    ("have", "do not have"),
)

ANTONYMS: dict[str, str] = {}
for _a, _b in ANTONYM_PAIRS:
    ANTONYMS.setdefault(_a, _b)
    ANTONYMS.setdefault(_b, _a)

RELATION_WORD_RE = _word_scanner(_trie(ANTONYMS), ANTONYMS)


def flip_relation_word(word: str) -> str | None:
    """Antonym of a relation word, preserving leading capitalization."""
    replacement = ANTONYMS.get(word.lower())
    if replacement is None:
        return None
    if word[:1].isupper():
        return replacement[:1].upper() + replacement[1:]
    return replacement


# Sentence segmentation. Terminal punctuation ends a sentence only when it
# is not part of a decimal or a known abbreviation and the following text
# starts a plausible new sentence.
_ABBREVIATIONS = {
    "mr", "mrs", "ms", "dr", "prof", "sr", "jr", "st", "no", "inc", "corp",
    "co", "ltd", "llc", "llp", "lp", "plc", "vs", "etc", "approx", "est",
    "dept", "fig", "jan", "feb", "mar", "apr", "jun", "jul", "aug", "sep",
    "sept", "oct", "nov", "dec", "u.s", "u.k", "e.g", "i.e",
}

# A run of terminal punctuation followed by whitespace or the end of the
# text; group 1 is that whitespace, so the next sentence starts at `end()`.
# A run followed by anything else (a decimal point, the dots of "U.S") has
# no suffix that is, so the engine turns it away whole.
_TERMINAL_RE = re.compile(r"[.!?]+(?!\S)(\s*)")


def _is_abbreviation(token: str) -> bool:
    # A known abbreviation, dotted ones ("u.s") included, or an initial ("J").
    # `token` comes before a whole terminal run, so it never ends in ".".
    token = token.lower()
    return token in _ABBREVIATIONS or (len(token) == 1 and token.isalpha())


def sentence_spans(text: str) -> list[tuple[int, int]]:
    """(start, end) spans of sentences in `text`, excluding separators.
    The scanner and `str.strip` find the whitespace; only the word before
    a terminal run is walked in Python, to tell an abbreviation."""
    spans: list[tuple[int, int]] = []
    start = len(text) - len(text.lstrip())
    n = len(text.rstrip())
    for m in _TERMINAL_RE.finditer(text, start):
        nxt = m.end()
        if nxt < n and not (text[nxt].isupper() or text[nxt].isdigit() or text[nxt] in "\"'($“"):
            continue
        word_start = m.start()
        while word_start > 0 and not text[word_start - 1].isspace():
            word_start -= 1
        if _is_abbreviation(text[word_start:m.start()]):
            continue
        spans.append((start, m.start(1)))
        start = nxt
    if start < n:
        spans.append((start, n))
    return spans


def squash_ws(text: str) -> str:
    """Collapse all whitespace runs to single spaces and trim the ends."""
    return " ".join(text.split())
