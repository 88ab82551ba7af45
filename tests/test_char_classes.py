"""Exhaustive checks of the character classes behind the regex scanners.

The SACX scanner reads names and whitespace with patterns, and the term
index reads alphanumeric runs with one.  Each pattern must agree with
the ``str`` predicate it stands for on every code point, or the
pattern-driven code would tokenize differently from the definitions in
:mod:`repro._util` and ``str``.
"""

from __future__ import annotations

import re
from collections import Counter

import pytest

from repro._util import is_name_char, is_name_start_char
from repro.index.term import TERM_RUN, tokenize
from repro.sacx.scanner import NAME, SPACE
from repro.streaming.ingest import _TermAccumulator

CODE_POINTS = [chr(code) for code in range(0x110000)]


def _disagreements(matches, predicate, probes=CODE_POINTS) -> list[str]:
    """Code points where ``matches(probe)`` and ``predicate`` differ."""
    return [f"U+{ord(ch):04X}" for ch, hit, want
            in zip(CODE_POINTS, map(matches, probes),
                   map(predicate, CODE_POINTS))
            if (hit is not None) != want][:10]


def test_name_continuation_class_is_is_name_char():
    # After a first character, NAME extends over exactly is_name_char.
    probes = ["a" + ch for ch in CODE_POINTS]
    assert _disagreements(NAME.fullmatch, is_name_char, probes) == []


def test_name_start_class_covers_is_name_start_char():
    """``[\\w:]`` admits every name-start character; the scanner's
    separate ``is_name_start_char`` check on the first character then
    makes the pair exact."""
    missed = [ch for ch in CODE_POINTS
              if is_name_start_char(ch) and NAME.fullmatch(ch) is None]
    assert missed == []


def test_a_pattern_alone_cannot_express_name_start():
    # Why the check exists: the closest class admits non-letters like "²".
    closest = re.compile(r"[^\W\d]|:")
    extra = [ch for ch in CODE_POINTS
             if closest.fullmatch(ch) and not is_name_start_char(ch)]
    assert "²" in extra


def test_whitespace_class_is_isspace():
    assert _disagreements(SPACE.fullmatch, str.isspace) == []


def test_term_class_is_isalnum():
    assert _disagreements(TERM_RUN.fullmatch, str.isalnum) == []


TERM_TEXT = ("Hwæt! wē Gār-Dena in gēar-dagum, þēod_cyninga x² 42nd "
             "Ⅳ ٣٤ 漢字かな  trailing-run")


def _counts_from(chunks) -> dict[str, int]:
    accumulator = _TermAccumulator()
    for chunk in chunks:
        accumulator.feed(chunk)
    accumulator.finish()
    return dict(accumulator.drain())


def _expected_counts(text: str) -> dict[str, int]:
    return dict(Counter(token for _start, token in tokenize(text)))


@pytest.mark.parametrize("text", [TERM_TEXT, "run", " ", "a b", "-x-"])
def test_accumulator_matches_tokenize_at_every_split(text):
    expected = _expected_counts(text)
    for split in range(len(text) + 1):
        chunks = (text[:split], text[split:])
        assert _counts_from(chunks) == expected, split


def test_accumulator_matches_tokenize_one_character_at_a_time():
    assert _counts_from(TERM_TEXT) == _expected_counts(TERM_TEXT)


def test_tokenize_is_maximal_alphanumeric_runs():
    assert list(tokenize("ab_c d²e-9")) == [
        (0, "ab"), (3, "c"), (5, "d²e"), (9, "9"),
    ]
