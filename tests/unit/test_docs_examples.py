"""Doctests over the documentation, so examples cannot rot (ISSUE 2).

Every ``>>>`` example in ``docs/*.md`` and ``README.md`` is executed here
(and again by the CI docs job).  Markdown prose is ignored by doctest;
only interactive examples are checked -- plus the file paths the prose and
the docstrings cite, which must exist.
"""

from __future__ import annotations

import doctest
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
DOC_FILES = sorted(REPO_ROOT.glob("docs/*.md")) + [REPO_ROOT / "README.md"]


def test_documentation_files_exist():
    names = {path.name for path in DOC_FILES}
    assert {"architecture.md", "paper_map.md", "README.md"} <= names


@pytest.mark.parametrize("path", DOC_FILES, ids=lambda p: p.name)
def test_doc_examples_run(path):
    results = doctest.testfile(
        str(path),
        module_relative=False,
        optionflags=doctest.ELLIPSIS | doctest.NORMALIZE_WHITESPACE,
    )
    assert results.failed == 0, f"{path.name}: {results.failed} doctest failure(s)"


def test_architecture_walkthrough_is_actually_tested():
    """architecture.md must keep at least one executable example."""
    text = (REPO_ROOT / "docs" / "architecture.md").read_text(encoding="utf-8")
    assert ">>>" in text


#: A repository path as prose writes it: a benchmark, test or example
#: module, anything under perf/, a docs page, or a bare ``NAME.md``.
_CITED_PATH = re.compile(
    r"(?<![\w/.*-])"
    r"((?:benchmarks|tests|examples)/[\w/*.-]*\.py"
    r"|perf/[\w/*.-]*\w"
    r"|docs/[\w/*.-]*\.md"
    r"|[\w-]+\.md)\b"
)
#: History, not documentation: these may name files that are long gone.
_HISTORY = {"ROADMAP.md", "CHANGES.md", "ISSUE.md"}


def test_every_cited_repository_path_exists():
    """A deleted or renamed file may not live on in the docs, a bench
    docstring or a ``src/`` comment.  ``*`` globs must match something; a
    bare ``NAME.md`` may also sit next to the file that cites it."""
    citing = [
        *DOC_FILES,
        *sorted(REPO_ROOT.glob("benchmarks/*.py")),
        *sorted(REPO_ROOT.glob("src/repro/**/*.py")),
    ]
    dangling = []
    for source in citing:
        for number, line in enumerate(source.read_text(encoding="utf-8").splitlines(), 1):
            for cited in _CITED_PATH.findall(line):
                if cited in _HISTORY:
                    continue
                if not (any(REPO_ROOT.glob(cited)) or any(source.parent.glob(cited))):
                    dangling.append(f"{source.relative_to(REPO_ROOT)}:{number}: {cited}")
    assert not dangling, "\n".join(dangling)


#: A backticked span or a parenthesis, in reading order.
_MAP_TOKEN = re.compile(r"`([^`]+)`|([()])")
_IDENTIFIER = re.compile(r"[A-Za-z_][\w.]*")


def _expand(path: str) -> list:
    """``a/{b,c}.py`` -> ``[a/b.py, a/c.py]``; anything else as is."""
    group = re.search(r"\{([^{}]*)\}", path)
    if group is None:
        return [path]
    return [
        expanded
        for choice in group.group(1).split(",")
        for expanded in _expand(path[: group.start()] + choice + path[group.end():])
    ]


def _paper_map_claims(cell: str):
    """``(path, identifier)`` for every backticked identifier inside the
    parentheses that directly follow a single ``.py`` path; a path nested
    in those parentheses owns the identifiers after it."""
    owners: list = []  # per open parenthesis: the .py path it belongs to
    last_path, last_end = None, 0
    for match in _MAP_TOKEN.finditer(cell):
        span, paren = match.groups()
        if paren == "(":
            follows = last_path is not None and not cell[last_end:match.start()].strip()
            owners.append(last_path if follows else None)
        elif paren == ")":
            if owners:
                owners.pop()
        elif "/" in span:
            single = span.endswith(".py") and not re.search(r"[{*]", span)
            if owners:
                owners[-1] = span if single else None
            last_path, last_end = (span if single else None), match.end()
            continue
        elif owners and owners[-1] is not None and _IDENTIFIER.fullmatch(span):
            yield owners[-1], span
        last_path = None


def _repo_matches(path: str) -> list:
    """Files or directories ``path`` names, read from the repo root,
    ``src/`` or ``src/repro/`` (how paper_map.md abbreviates them)."""
    return [
        match
        for base in (REPO_ROOT, REPO_ROOT / "src", REPO_ROOT / "src" / "repro")
        for expanded in _expand(path)
        for match in base.glob(expanded.rstrip("/"))
    ]


def test_paper_map_names_only_code_that_exists():
    """Every path in a paper_map.md table exists, and every identifier it
    cites in parentheses after a ``.py`` path is a word of that file."""
    text = (REPO_ROOT / "docs" / "paper_map.md").read_text(encoding="utf-8")
    checked, stale = 0, []
    for number, line in enumerate(text.splitlines(), 1):
        if not line.startswith("|"):
            continue
        for cell in line.strip("|").split("|"):
            for span in re.findall(r"`([^`]+)`", cell):
                if "/" in span and " " not in span:
                    checked += 1
                    if not _repo_matches(span):
                        stale.append(f"paper_map.md:{number}: no path {span}")
            for path, identifier in _paper_map_claims(cell):
                checked += 1
                sources = _repo_matches(path)  # none: reported as a path above
                words = {word for source in sources
                         for word in re.findall(r"\w+", source.read_text(encoding="utf-8"))}
                missing = [part for part in identifier.split(".") if part not in words]
                if missing:
                    stale.append(f"paper_map.md:{number}: {path} has no {identifier}")
    assert checked > 100  # the parser still finds the tables
    assert not stale, "\n".join(stale)
