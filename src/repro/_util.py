"""Small shared helpers used across the library."""

from __future__ import annotations

import re


def escape_text(text: str) -> str:
    """Escape character data for inclusion in XML content."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def escape_attribute(text: str) -> str:
    """Escape an attribute value for inclusion in a double-quoted literal."""
    return (
        text.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace('"', "&quot;")
        .replace("\n", "&#10;")
        .replace("\t", "&#9;")
    )


#: ``&`` up to the next ``;``: one entity or character reference.
_REFERENCE = re.compile(r"&([^;]*);")

_PREDEFINED = {"amp": "&", "lt": "<", "gt": ">", "quot": '"', "apos": "'"}


def _resolve(match: re.Match) -> str:
    entity = match[1]
    char = _PREDEFINED.get(entity)
    if char is not None:
        return char
    if entity.startswith(("#x", "#X")):
        digits, base = entity[2:], 16
    elif entity.startswith("#"):
        digits, base = entity[1:], 10
    else:
        # Unknown entity: passed through verbatim.  Nothing downstream
        # reports it; it stays in the text as written.
        return match[0]
    try:
        code = int(digits, base)
    except ValueError:
        raise ValueError(
            f"malformed character reference {match[0]!r}") from None
    if not 0 <= code <= 0x10FFFF:
        raise ValueError(f"character reference {match[0]!r} out of range")
    return chr(code)


def unescape(text: str) -> str:
    """Resolve the five predefined XML entities and numeric references.

    Text without ``&`` is returned as is.  A numeric reference that does
    not name a code point raises :class:`ValueError`; the scanner turns
    that into a :class:`~repro.errors.WellFormednessError` at the token.
    """
    if "&" not in text:
        return text
    return _REFERENCE.sub(_resolve, text)


def is_name_start_char(ch: str) -> bool:
    """True for characters that may start an XML name (ASCII subset + letters)."""
    return ch.isalpha() or ch in (":", "_")


def is_name_char(ch: str) -> bool:
    """True for characters that may continue an XML name."""
    return ch.isalnum() or ch in (":", "_", "-", ".")
