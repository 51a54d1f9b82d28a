"""Every ``repro.*`` path and source file the documents name resolves in
the code.

A path is the longest importable module prefix plus attributes of it
(``repro.store.CODE_VERSION``); brace groups expand
(``repro.routing.{dor,o1turn}``); schema tags such as
``repro.store-entry/2`` or ``repro.metrics/1`` are names of record
formats, not modules, and are skipped.

A source file is cited as ``dir/file.py`` -- from the repository root or
any tail of a path under it (``network/router.py``) -- optionally with
``::Name`` or ``::Name.attr``: a class, function or assignment at the top
of the file, and one defined in that class's body.
"""

import ast
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


_SOURCE = re.compile(r"(?<![\w./-])((?:[\w-]+/)+\w+\.py)"
                     r"(?:::([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)?))?")
_FILES = sorted(str(path.relative_to(ROOT)) for path in ROOT.rglob("*.py")
                if not {".git", "__pycache__"} & set(path.parts))


def doc_sources():
    """``(document name, file, name or "")`` for every source file the
    documents cite."""
    found = set()
    for doc in DOCUMENTS:
        for match in _SOURCE.finditer(doc.read_text(encoding="utf-8")):
            found.add((doc.name, match[1], match[2] or ""))
    return sorted(found)


def _defined(body) -> dict:
    """Name -> node of every class, function and assignment in ``body``."""
    names = {}
    for node in body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            names[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        names[leaf.id] = node
    return names


def _source_resolves(cited, name):
    files = [path for path in _FILES
             if path == cited or path.endswith("/" + cited)]
    if not files:
        return False
    if not name:
        return True
    for path in files:
        scope = _defined(ast.parse((ROOT / path).read_text(
            encoding="utf-8")).body)
        head, _, attr = name.partition(".")
        node = scope.get(head)
        if node is not None and (not attr or (
                isinstance(node, ast.ClassDef)
                and attr in _defined(node.body))):
            return True
    return False


def test_source_citations_and_what_they_name():
    text = ("`tests/network/test_vector_obs.py::TestImports`, "
            "network/router.py, https://x.org/a/b.py and "
            "`src/repro/network/vectorized/core.py::VectorNetwork.reset`")
    cited = [(m[1], m[2]) for m in _SOURCE.finditer(text)]
    assert cited == [("tests/network/test_vector_obs.py", "TestImports"),
                     ("network/router.py", None),
                     ("src/repro/network/vectorized/core.py",
                      "VectorNetwork.reset")]
    assert _source_resolves("network/vectorized/core.py",
                            "VectorNetwork.reset")
    assert not _source_resolves("network/vectorized/core.py",
                                "VectorNetwork.no_such")
    assert not _source_resolves("network/no_such.py", "")


@pytest.mark.parametrize("doc, cited, name", doc_sources(),
                         ids=[f"{doc}:{cited}" + (f"::{name}" if name else "")
                              for doc, cited, name in doc_sources()])
def test_documented_source_resolves(doc, cited, name):
    where = f"{cited}::{name}" if name else cited
    assert _source_resolves(cited, name), (
        f"{doc} cites {where}, which does not exist")


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
