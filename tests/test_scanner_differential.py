"""Differential test: the pattern-driven scanner against a frozen oracle.

``_scanner_oracle`` is the character-stepping scanner the pattern-driven
one replaced.  For every input both are run to completion and must
agree on each token's ``(kind, name, data, attributes, line, column)``
and, for malformed input, on the error's ``(class, line, column,
message)`` — in batch mode and streamed at several chunk sizes.

The one intended difference: a numeric character reference that names
no code point made the oracle raise a raw ``ValueError`` or
``OverflowError`` out of decoding, where the current scanner raises
:class:`WellFormednessError`.  Such inputs are compared by position
only: the same tokens before the failure, and the new error at the
line and column of the token the oracle failed on.

Inputs:

* seeded generated documents, exported as each distributed part,
  fragmentation, milestones on two primary hierarchies, and standoff
  JSON;
* a decorated distributed part that adds what the generator never
  writes (prolog, DOCTYPE, comments, CDATA, references, single quotes,
  line breaks inside tags);
* the hand cases of ``tests/test_sacx_scanner.py`` plus edge cases;
* about 20 seeded splice-mutations of every source above.
"""

from __future__ import annotations

import random

import pytest

import _scanner_oracle as oracle
from repro.errors import WellFormednessError
from repro.sacx import scanner as sc
from repro.serialize import (
    export_distributed,
    export_fragmentation,
    export_milestones,
    export_standoff,
)
from repro.workloads import WorkloadSpec, generate

SEEDS = (11, 12)
MUTATIONS = 20
CHUNK_SIZES = (7, 64, sc.DEFAULT_CHUNK_CHARS)

HAND_CASES = [
    # tests/test_sacx_scanner.py
    "<r>hello</r>",
    "<r><pb/></r>",
    '<page n="3" rend=\'red\'/>',
    '<a title="Tom &amp; Jerry &#x41;"/>',
    "<r>&lt;tag&gt; &amp; &quot;x&quot; &#65;</r>",
    "<r><![CDATA[<not> & markup]]></r>",
    "<r><!-- note --></r>",
    '<?xml version="1.0"?><r/>',
    '<!DOCTYPE r [ <!ELEMENT r (a)> ]><r><a/></r>',
    "<r>\n  <a/>\n</r>",
    "<r><unclosed</r>",
    "<r attr></r>",
    "<r attr=value></r>",
    '<r a="1" a="2"></r>',
    "<r><!-- unterminated </r>",
    "<r><![CDATA[ unterminated </r>",
    "<1tag/>",
    "</>",
    "<r>\n<broken</r>",
    # edge cases of the grammar
    "<!-->x<?>",
    '<a x="1"y=\'2\'\n  z = "3"\t/>',
    "<a / >",
    "<a/",
    "<a",
    "<",
    "</a  \n>",
    "</a b>",
    "</a",
    "</1a>",
    "<a:b.c-d_e>",
    "<²/>",
    "<a²/>",
    "<ǅ٠/>",
    "<_a/><:b/>",
    "<a　b='1' />",
    '<a b="1" c=>',
    '<a b="1" c="2',
    "<a b='1' c",
    "<a b='1' =",
    '<a b="<&>"/>',
    "<!doctype r [ ] ]> ]>x",
    "<!DOCTYPE r [ [ ]",
    "<!DOCTYPE",
    "<!x/>",
    "<?pi unterminated",
    "r\r\nx\n\n<a\n/>tail\n",
    # reference decoding
    "<r>&foo; &a&amp; &amp &#x 41; &#+66; &#6_7; &#x0x44;</r>",
    '<r a="&nbsp;&#10;&#x9;"/>',
    "<r>&#xZZ;</r>",
    "<r>ok</r>\n<s a='&#;'/>",
    "<r b='x' a='&#1114112;' a='dup'/>",
    "<r>&#99999999999999999999;",
    "<r>\n&#x;<unclosed",
]

#: Fragments spliced into sources by the mutations.
PALETTE = [
    "<", ">", "/", "/>", "</", "=", '"', "'", "&", ";", "&amp;", "&#x41;",
    "&#65;", "&#xZZ;", "&#1114112;", "&unknown;", "<!--", "-->",
    "<![CDATA[", "]]>", "<?", "?>", "<!DOCTYPE x [", "]", "\n", " ", "\t",
    "²", "　", "9", ":", "a", '<w n="1">', "</w>", "<pb/>",
]


def _decorate(source: str) -> str:
    """Dress a distributed part in constructs the generator never emits."""
    root_end = source.index(">") + 1
    body = source[root_end:]
    body = body.replace("<w>", "<w\n  rend='x &amp; y'\t>", 3)
    body = body.replace(" ", " &#x20;", 2).replace("e", "&#101;", 2)
    body = body.replace("</w>", "</w\n>", 2)
    return (
        '<?xml version="1.0" encoding="utf-8"?>\n'
        "<!DOCTYPE doc [\n  <!ELEMENT doc ANY>\n  <!ATTLIST doc x CDATA "
        "'1'>\n]>\n<!-- decorated -->\n"
        + source[:root_end]
        + "<![CDATA[a < b & c]]>&lt;&amp;&quot;&apos;&gt;<!--x-->"
        + body
        + "<?tail end?>\n"
    )


def _generated_sources() -> list[str]:
    sources: list[str] = []
    for seed in SEEDS:
        document = generate(WorkloadSpec(words=30, hierarchies=4,
                                         overlap_density=0.3, seed=seed))
        parts = export_distributed(document)
        sources.extend(parts.values())
        sources.append(export_fragmentation(document))
        sources.append(export_milestones(document, primary="physical"))
        sources.append(export_milestones(document, primary="linguistic"))
        sources.append(export_standoff(document))
        sources.append(_decorate(parts["physical"]))
    return sources


def _mutations(source: str, seed: int) -> list[str]:
    rng = random.Random(seed)
    out = []
    for _ in range(MUTATIONS):
        at = rng.randrange(len(source) + 1)
        roll = rng.random()
        if roll < 0.4:
            mutated = source[:at] + rng.choice(PALETTE) + source[at:]
        elif roll < 0.7:
            mutated = source[:at] + source[at + rng.randint(1, 12):]
        else:
            # Splice in a slice of the source itself.
            lo = rng.randrange(len(source))
            piece = source[lo : lo + rng.randint(1, 40)]
            mutated = source[:at] + piece + source[at:]
        out.append(mutated)
    return out


def _run(scanner) -> tuple[list[tuple], tuple | None]:
    """Drive ``scanner`` to the end: its tokens and how it stopped.

    A raw decoding error (the oracle's behaviour) is recorded as
    ``("reference", line, column)`` at the start of the token it failed
    on: the scanner's position just before that token was pulled.
    """
    tokens: list[tuple] = []
    stream = scanner.tokens()
    while True:
        before = (scanner.line, scanner.column)
        try:
            token = next(stream)
        except StopIteration:
            return tokens, None
        except WellFormednessError as exc:
            if "character reference" in str(exc):
                return tokens, ("reference", exc.line, exc.column)
            return tokens, (type(exc).__name__, exc.line, exc.column,
                            str(exc))
        except (ValueError, OverflowError):
            return tokens, ("reference",) + before
        tokens.append((token.kind, token.name, token.data, token.attributes,
                       token.line, token.column))


def _assert_same(source: str) -> None:
    expected = _run(oracle.XmlScanner(source))
    assert _run(sc.XmlScanner(source)) == expected, ("batch", source)
    for chunk_chars in CHUNK_SIZES:
        chunks = [source[at:at + chunk_chars]
                  for at in range(0, len(source), chunk_chars)]
        expected = _run(oracle.StreamingXmlScanner(chunks))
        actual = _run(sc.StreamingXmlScanner(chunks))
        assert actual == expected, (chunk_chars, source)


GENERATED = _generated_sources()


@pytest.mark.parametrize("source", HAND_CASES)
def test_hand_cases(source):
    _assert_same(source)


@pytest.mark.parametrize("index", range(len(GENERATED)))
def test_generated_representations(index):
    _assert_same(GENERATED[index])


@pytest.mark.parametrize("index", range(len(GENERATED)))
def test_generated_mutations(index):
    for mutated in _mutations(GENERATED[index], seed=1000 + index):
        _assert_same(mutated)


def test_hand_case_mutations():
    for index, source in enumerate(HAND_CASES):
        for mutated in _mutations(source, seed=index):
            _assert_same(mutated)


def test_inputs_reach_every_outcome():
    """The corpus exercises tokens of every kind, well-formedness errors
    and bad references — a mismatch in any of them would show."""
    kinds, outcomes = set(), set()
    for source in HAND_CASES + GENERATED:
        for mutated in [source] + _mutations(source, seed=7):
            tokens, stop = _run(sc.XmlScanner(mutated))
            kinds.update(token[0] for token in tokens)
            outcomes.add("ok" if stop is None else stop[0])
    assert kinds == {sc.START, sc.END, sc.EMPTY, sc.TEXT, sc.COMMENT,
                     sc.PI, sc.DOCTYPE}
    assert outcomes == {"ok", "WellFormednessError", "reference"}
