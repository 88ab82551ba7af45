"""Small shared helpers used across the library."""

from __future__ import annotations

import sys
from array import array
from typing import Iterable, Iterator, Sequence, TypeVar

T = TypeVar("T")


# The persisted index blobs in sqlite are defined as little-endian u32;
# Python only guarantees array("I") a *minimum* of 2 bytes, so pick
# whichever code is exactly 4 bytes on this platform.
for _code in ("I", "L"):
    if array(_code).itemsize == 4:
        _U32 = _code
        break
else:  # pragma: no cover - no 4-byte unsigned type
    raise ImportError("no 4-byte unsigned array type on this platform")


def pack_u32(values) -> bytes:
    """Pack an iterable of ints as little-endian u32 bytes."""
    if isinstance(values, array) and values.typecode == _U32:
        packed = values
    else:
        packed = array(_U32, values)
    if sys.byteorder == "big":  # pragma: no cover - big-endian hosts
        packed = array(_U32, packed)
        packed.byteswap()
    return packed.tobytes()


def unpack_u32(data: bytes) -> list[int]:
    """Inverse of :func:`pack_u32`."""
    packed = array(_U32)
    packed.frombytes(data)
    if sys.byteorder == "big":  # pragma: no cover - big-endian hosts
        packed.byteswap()
    return packed.tolist()


def stable_unique(items: Iterable[T]) -> list[T]:
    """Return ``items`` with duplicates removed, preserving first-seen order.

    Works for hashable items only; nodes of the GODDAG are hashable by
    identity, which is the equality the library wants.
    """
    seen: set[T] = set()
    out: list[T] = []
    for item in items:
        if item not in seen:
            seen.add(item)
            out.append(item)
    return out


def pairwise(items: Sequence[T]) -> Iterator[tuple[T, T]]:
    """Yield consecutive pairs ``(items[i], items[i+1])``."""
    for i in range(len(items) - 1):
        yield items[i], items[i + 1]


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


def unescape(text: str) -> str:
    """Resolve the five predefined XML entities and numeric references."""
    out: list[str] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch != "&":
            out.append(ch)
            i += 1
            continue
        semi = text.find(";", i + 1)
        if semi == -1:
            out.append(ch)
            i += 1
            continue
        entity = text[i + 1 : semi]
        if entity == "amp":
            out.append("&")
        elif entity == "lt":
            out.append("<")
        elif entity == "gt":
            out.append(">")
        elif entity == "quot":
            out.append('"')
        elif entity == "apos":
            out.append("'")
        elif entity.startswith("#x") or entity.startswith("#X"):
            out.append(chr(int(entity[2:], 16)))
        elif entity.startswith("#"):
            out.append(chr(int(entity[1:])))
        else:
            # Unknown entity: leave it verbatim, the scanner reports it.
            out.append(text[i : semi + 1])
        i = semi + 1
    return "".join(out)


def is_name_start_char(ch: str) -> bool:
    """True for characters that may start an XML name (ASCII subset + letters)."""
    return ch.isalpha() or ch in (":", "_")


def is_name_char(ch: str) -> bool:
    """True for characters that may continue an XML name."""
    return ch.isalnum() or ch in (":", "_", "-", ".")
