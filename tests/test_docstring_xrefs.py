"""Cross-reference check for the docstrings under ``src/``.

Every Sphinx-style role that names a ``repro`` target —
``:meth:`~repro.storage.GoddagStore.element```, ``:class:`repro.Corpus```
and so on — must resolve: the longest importable module prefix is
imported and the rest of the dotted path is looked up attribute by
attribute.  Moving or deleting a module or method therefore fails here
instead of leaving a dangling reference behind.  CI runs this in its
docs link check step.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
ROLE = re.compile(
    r":(?:meth|class|func|mod|attr|data|exc):`~?(repro(?:\.[^`]*)?)`"
)


def _references() -> list[tuple[str, str]]:
    found = []
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        for match in ROLE.finditer(text):
            line = text.count("\n", 0, match.start()) + 1
            where = f"{path.relative_to(SRC.parent)}:{line}"
            found.append((where, match.group(1)))
    return found


REFERENCES = _references()


def _resolve(target: str) -> None:
    parts = target.split(".")
    for split in range(len(parts), 0, -1):
        module = ".".join(parts[:split])
        try:
            obj = importlib.import_module(module)
        except ModuleNotFoundError as exc:
            if exc.name != module and not module.startswith(f"{exc.name}."):
                raise  # the module exists but one of its imports does not
            continue
        for attr in parts[split:]:
            obj = getattr(obj, attr)
        return
    raise ModuleNotFoundError(target)


def test_every_reference_resolves():
    assert len(REFERENCES) > 100, "the docstrings should cross-reference"
    dangling = []
    for where, target in REFERENCES:
        if re.search(r"\s", target):
            dangling.append(f"{where}: {target!r} is broken across lines")
            continue
        try:
            _resolve(target)
        except (ImportError, AttributeError) as exc:
            dangling.append(f"{where}: {target} ({exc})")
    assert not dangling, "dangling docstring references:\n" + "\n".join(
        dangling
    )
