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
