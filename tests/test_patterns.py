"""The number and date grammars: token shapes, the values read off them,
and the rule that `patterns` is their only home."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fintag
from fintag.patterns import NUMBER_TOKEN_RE, extract_numbers, is_numeric_span


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

