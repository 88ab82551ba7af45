"""Differential test: the one SACX merge against the frozen batch merge.

``_merge_oracle`` is the batch parser :class:`repro.sacx.parser.SACXParser`
used before it was driven through :class:`~repro.sacx.parser.EventStream`.
For every input both are run and must agree:

* well-formed input — the same document (ordinals, spans, attributes,
  ``canonical_form`` and ``export_distributed``) and the same handler
  callbacks, for ``str`` parts, chunked parts and file paths;
* input with one defect — the same error class, message, ``offset``,
  ``expected``, ``found``, ``line`` and ``column``.

The one intended difference: with several defects, the merged pass
reports the first one it reaches in merge order, where the batch parser
reported any malformed part before comparing texts.
"""

from __future__ import annotations

import pytest

import _merge_oracle as oracle
from repro.compare import canonical_form
from repro.errors import ReproError, TextMismatchError, WellFormednessError
from repro.sacx.parser import (
    ConcurrentHandler,
    SACXParser,
    parse_concurrent,
)
from repro.serialize.distributed import export_distributed
from repro.workloads import WorkloadSpec, generate

CHUNK_SIZES = (1, 3, 7, 64)

#: Twelve seeded documents: one to five hierarchies, no overlap to
#: dense overlap, short and long.
SPECS = [
    WorkloadSpec(words=words, hierarchies=hierarchies,
                 overlap_density=density, seed=seed)
    for seed, (words, hierarchies, density) in enumerate([
        (40, 1, 0.0), (120, 2, 0.1), (200, 3, 0.3), (300, 4, 0.15),
        (500, 5, 0.5), (80, 2, 0.9), (260, 3, 0.0), (420, 4, 0.6),
        (150, 5, 0.25), (60, 3, 1.0), (350, 2, 0.4), (700, 4, 0.2),
    ], start=101)
]


def chunked(sources, chunk_chars: int) -> dict[str, list[str]]:
    return {
        name: [text[at:at + chunk_chars]
               for at in range(0, len(text), chunk_chars)]
        for name, text in sources.items()
    }


def census(document):
    return [
        (e.ordinal, e.hierarchy, e.tag, e.start, e.end,
         tuple(sorted(e.attributes.items())), e.depth())
        for e in document.ordered_elements()
    ]


def outcome(parse, sources):
    """Everything an error carries, or None when the parse succeeds."""
    try:
        parse(sources)
    except ReproError as exc:
        return (type(exc).__name__, str(exc),
                getattr(exc, "offset", None), getattr(exc, "expected", None),
                getattr(exc, "found", None), getattr(exc, "line", None),
                getattr(exc, "column", None))
    return None


def fed(sources):
    """The same sources as ``str`` parts and at every chunk size."""
    yield "str", sources
    for chunk_chars in CHUNK_SIZES:
        yield f"chunks{chunk_chars}", chunked(sources, chunk_chars)


# -- well-formed input -----------------------------------------------------------


@pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.label())
def test_seeded_document_identity(spec):
    sources = export_distributed(generate(spec))
    reference = oracle.parse_concurrent(sources)
    want = (census(reference), canonical_form(reference),
            export_distributed(reference))
    for label, fed_sources in [("str", sources),
                               ("chunks13", chunked(sources, 13))]:
        document = parse_concurrent(fed_sources)
        assert document.text == reference.text, label
        assert dict(document.root.attributes) == \
            dict(reference.root.attributes), label
        got = (census(document), canonical_form(document),
               export_distributed(document))
        assert got == want, label


def test_path_sources_read_in_chunks(tmp_path):
    sources = export_distributed(generate(SPECS[4]))
    paths = {}
    for name, text in sources.items():
        paths[name] = tmp_path / f"{name}.xml"
        paths[name].write_text(text, encoding="utf-8")
    reference = oracle.parse_concurrent(sources)
    document = parse_concurrent(paths, chunk_chars=7)
    assert census(document) == census(reference)
    assert export_distributed(document) == export_distributed(reference)


class _Recorder(ConcurrentHandler):
    def __init__(self):
        self.calls = []

    def start_document(self, text, root_tag, root_attributes):
        self.calls.append(("doc", text, root_tag, dict(root_attributes)))

    def start_element(self, hierarchy, tag, offset, attributes):
        self.calls.append(("start", hierarchy, tag, offset, attributes))

    def end_element(self, hierarchy, tag, offset):
        self.calls.append(("end", hierarchy, tag, offset))

    def empty_element(self, hierarchy, tag, offset, attributes):
        self.calls.append(("empty", hierarchy, tag, offset, attributes))

    def end_document(self):
        self.calls.append(("end-doc",))


def test_handler_callbacks_match():
    sources = export_distributed(generate(SPECS[8]))
    want = _Recorder()
    assert oracle.SACXParser(want).parse(sources) is None
    for label, fed_sources in fed(sources):
        got = _Recorder()
        assert SACXParser(got).parse(fed_sources) is None
        assert got.calls == want.calls, label


# -- errors ------------------------------------------------------------------------

A = "<r><x>hello</x> <x>world</x></r>"
B = "<r><y>hello wor</y>ld</r>"

#: Inputs with exactly one defect.
SINGLE_DEFECTS = {
    "empty-first": {"a": "", "b": B},
    "empty-second": {"a": A, "b": ""},
    "whitespace-only": {"a": A, "b": " \n "},
    "trailing-text-first": {"a": A + "x", "b": B},
    "trailing-text-second": {"a": A, "b": B + "tail"},
    "second-shorter": {"a": A, "b": "<r><y>hello wor</y>l</r>"},
    "second-longer": {"a": A, "b": "<r><y>hello wor</y>lds</r>"},
    "first-shorter": {"a": "<r><x>hello</x> worl</r>", "b": B},
    "first-longer": {"a": "<r><x>hello</x> worlds</r>", "b": B},
    # A part with no markup ends before the merge reaches the others.
    "shorter-without-markup": {
        "a": "<r>hell</r>",
        "b": "<r>hello world, and then a lot more text than that<x/></r>",
    },
    "root-tag": {"a": A, "b": "<doc>hello world</doc>"},
    "first-offset-second": {"a": A, "b": "<r><y>Xello wor</y>ld</r>"},
    "last-offset-second": {"a": A, "b": "<r><y>hello wor</y>lX</r>"},
    "first-offset-first": {"a": "<r><x>Xello</x> <x>world</x></r>", "b": B},
    "last-offset-first": {"a": "<r><x>hello</x> <x>worlX</x></r>", "b": B},
    # The diagnostic window reaches past markup on both sides.
    "mismatch-before-markup": {"a": "<r>hellX<x/> world</r>",
                               "b": "<r>hello world</r>"},
    "reference-behind": {"a": "<r><x/><x/>hello<x/> world</r>",
                         "b": "<r>hellX world</r>"},
    "bad-reference": {"a": A, "b": "<r><y>hello &#xZZ; wor</y>ld</r>"},
    "bad-end-tag-second": {"a": A, "b": "<r><y>hello wor</z>ld</r>"},
    "bad-end-tag-third": {"a": A, "b": B, "c": "<r>hello world</q>"},
    "third-root-tag": {"a": A, "b": B, "c": "<q>hello world</q>"},
    "third-shorter": {"a": A, "b": B, "c": "<r>hello worl</r>"},
    # Three parts: the odd one out ahead of, behind, or as the reference.
    "third-differs-behind": {"a": A, "b": "<r><y/><y/><y/>hello world</r>",
                             "c": "<r>hellX world</r>"},
    "third-differs-ahead": {"a": "<r><x/><x/>hello world</r>",
                            "b": "<r><y/>hello world</r>",
                            "c": "<r>hellX world</r>"},
    "second-differs-behind": {"a": "<r><x/>hello world</r>",
                              "b": "<r><y/><y/>hellX world</r>",
                              "c": "<r>hello world</r>"},
    "reference-differs": {"a": "<r><x/>hellX world</r>",
                          "b": "<r><y/><y/>hello world</r>",
                          "c": "<r>hello world</r>"},
}


@pytest.mark.parametrize("case", sorted(SINGLE_DEFECTS))
def test_single_defect_error_parity(case):
    sources = SINGLE_DEFECTS[case]
    want = outcome(oracle.parse_concurrent, sources)
    assert want is not None
    for label, fed_sources in fed(sources):
        assert outcome(parse_concurrent, fed_sources) == want, label


@pytest.mark.parametrize("first, second, expected, found", [
    ("<r>hell</r>", "<r>hello</r>", "hell", "hello"),
    ("<r>hello</r>", "<r>hell</r>", "hello", "hell"),
])
def test_length_mismatch_reports_reference_as_expected(first, second,
                                                       expected, found):
    for label, fed_sources in fed({"a": first, "b": second}):
        with pytest.raises(TextMismatchError) as info:
            parse_concurrent(fed_sources)
        error = info.value
        assert (error.offset, error.expected, error.found) == \
            (4, expected, found), label


def test_first_defect_in_merge_order_wins():
    """A text difference at offset 4 comes before part ``b``'s bad end
    tag in merge order; the batch parser reported the end tag."""
    sources = {"a": "<r><x>hello world</x></r>",
               "b": "<r><y>hellX world</y></z>"}
    with pytest.raises(WellFormednessError):
        oracle.parse_concurrent(sources)
    for label, fed_sources in fed(sources):
        with pytest.raises(TextMismatchError) as info:
            parse_concurrent(fed_sources)
        assert info.value.offset == 4, label
        assert (info.value.expected, info.value.found) == \
            ("hello world", "hellX world"), label
