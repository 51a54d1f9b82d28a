"""Every ``repro.*`` path the documents name resolves in the code.

A path is the longest importable module prefix plus attributes of it
(``repro.store.CODE_VERSION``); brace groups expand
(``repro.routing.{dor,o1turn}``); schema tags such as
``repro.store-entry/2`` or ``repro.metrics/1`` are names of record
formats, not modules, and are skipped.
"""

import importlib
import itertools
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
DOCUMENTS = [ROOT / "README.md", ROOT / "DESIGN.md",
             *sorted((ROOT / "docs").glob("*.md"))]

_PATH = re.compile(r"\brepro((?:\.(?:\w+|\{[\w,]+\}))+)(?![\w/-])")


def _expand(tail):
    """``.a.{b,c}`` -> ``["repro.a.b", "repro.a.c"]``."""
    parts = [part.strip("{}").split(",") for part in tail[1:].split(".")]
    return [".".join(("repro", *pick))
            for pick in itertools.product(*parts)]


def doc_paths():
    """``(document name, repro path)`` for every path the documents name."""
    found = set()
    for doc in DOCUMENTS:
        for match in _PATH.finditer(doc.read_text(encoding="utf-8")):
            found.update((doc.name, path) for path in _expand(match[1]))
    return sorted(found)


def _resolves(path):
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for name in parts[cut:]:
            if not hasattr(obj, name):
                return False
            obj = getattr(obj, name)
        return True
    return False


def test_expansion_and_schema_tags():
    text = ("`repro.routing.{dor,o1turn}`, repro.store-entry/2, "
            "repro.metrics/1 and repro.network.router.")
    paths = [p for m in _PATH.finditer(text) for p in _expand(m[1])]
    assert paths == ["repro.routing.dor", "repro.routing.o1turn",
                     "repro.network.router"]


@pytest.mark.parametrize("doc, path", doc_paths(),
                         ids=[f"{doc}:{path}" for doc, path in doc_paths()])
def test_documented_path_resolves(doc, path):
    assert _resolves(path), f"{doc} names {path}, which does not exist"
