"""Shared benchmark infrastructure.

Benchmarks have two outputs:

* **wall-clock** numbers via pytest-benchmark (the tables pytest prints);
* **shape** tables in the work--depth cost model -- the series the paper's
  narrative predicts (who wins, by what factor, where the crossover is).

Shape tables are registered through the ``experiment_report`` fixture and
printed after the run by ``pytest_terminal_summary``, so
``pytest benchmarks/ --benchmark-only | tee bench_output.txt`` captures both.

CI smoke mode
-------------
``pytest benchmarks/ --bench-smoke`` shrinks every size sweep (see
:func:`bench_sizes` / :func:`bench_size`) so the whole suite runs in seconds,
and writes the machine-readable perf record ``BENCH_engine.json`` (cold vs.
warm latency percentiles and hit rate, recorded via the ``bench_json``
fixture by :mod:`bench_case10_engine`).  ``--bench-json PATH`` overrides the
output path; without ``--bench-smoke`` no JSON is written unless a path is
given explicitly.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, List, Sequence, Tuple

import pytest

_REPORTS: List[Tuple[str, List[str]]] = []
_JSON_SECTIONS: Dict[str, dict] = {}
#: Sections routed to an explicit file (``record(..., path=...)``), keyed by
#: output path.  Written on every run that produced them, with or without
#: a bench flag (e.g. BENCH_workloads.json -- untracked, like
#: BENCH_engine.json; the committed record is perf/RECORD.json).
_JSON_EXTRA: Dict[str, Dict[str, dict]] = {}
_SMOKE = False
_JSON_PATH: str | None = None

#: Largest size exponent smoke mode allows (2**9 = 512 elements).
SMOKE_CAP_EXP = 9


def pytest_addoption(parser):
    group = parser.getgroup("bench")
    group.addoption(
        "--bench-smoke",
        action="store_true",
        default=False,
        help="shrink benchmark sweeps to smoke-test sizes and emit BENCH_engine.json",
    )
    group.addoption(
        "--bench-json",
        default=None,
        help="path for the machine-readable benchmark record "
        "(default BENCH_engine.json in smoke mode)",
    )


def pytest_configure(config):
    global _SMOKE, _JSON_PATH
    _SMOKE = bool(config.getoption("--bench-smoke"))
    path = config.getoption("--bench-json")
    if path is None and _SMOKE:
        path = "BENCH_engine.json"
    _JSON_PATH = path


def bench_sizes(low_exp: int, high_exp: int) -> List[int]:
    """The sweep ``[2**low_exp, 2**high_exp)``, shifted down in smoke mode.

    Smoke mode slides the exponent window so the largest size is at most
    ``2**SMOKE_CAP_EXP``, preserving the number of points and the ratios
    between them -- growth-shape assertions keep holding, wall-clock drops
    by orders of magnitude.
    """
    if _SMOKE and high_exp - 1 > SMOKE_CAP_EXP:
        shift = high_exp - 1 - SMOKE_CAP_EXP
        low_exp, high_exp = max(2, low_exp - shift), SMOKE_CAP_EXP + 1
    return [2**k for k in range(low_exp, high_exp)]


def bench_size(exp: int) -> int:
    """A single workload size ``2**exp``, capped in smoke mode."""
    return 2 ** min(exp, SMOKE_CAP_EXP) if _SMOKE else 2**exp


def bench_points(*exps: int) -> List[int]:
    """Specific sizes ``2**e`` per exponent, shifted down uniformly in smoke
    mode so the largest fits the cap and the ratios between points survive
    (growth assertions depend on the spread, not the magnitudes)."""
    shift = max(0, max(exps) - SMOKE_CAP_EXP) if _SMOKE else 0
    return [2 ** max(2, e - shift) for e in exps]


@pytest.fixture(scope="session")
def experiment_report() -> Callable[[str, Sequence[str]], None]:
    """Register a shape table: ``experiment_report(title, lines)``."""

    def record(title: str, lines: Sequence[str]) -> None:
        _REPORTS.append((title, list(lines)))

    return record


@pytest.fixture(scope="session")
def bench_json() -> Callable[[str, dict], None]:
    """Record a JSON section: ``bench_json(name, payload)``.

    Sections end up in the machine-readable benchmark record written at the
    end of the run (smoke mode or ``--bench-json``), so the perf trajectory
    of the serving stack is tracked across commits.
    """

    def record(section: str, payload: dict, *, path: str | None = None) -> None:
        # Stamp provenance per section: records are merged across runs, so
        # a full-size re-run of one module must not let its sizes be
        # mistaken for (or mislabel) the other sections' smoke numbers.
        stamped = dict(payload, smoke=_SMOKE)
        if path is None:
            _JSON_SECTIONS[section] = stamped
        else:
            # Explicit-path sections (e.g. BENCH_workloads.json) are written
            # whenever produced, smoke flag or not.
            _JSON_EXTRA.setdefault(path, {})[section] = stamped

    return record


def _merge_record(path: str, new_sections: Dict[str, dict]) -> None:
    """Merge ``new_sections`` into the JSON record at ``path``.

    A partial run (one bench module, e.g. at full size with --bench-json)
    refreshes only its own sections instead of clobbering the rest of the
    perf trajectory.  Each section carries its own "smoke" stamp; the
    top-level flag is true only when every section in the merged record is
    smoke-sized.
    """
    sections: Dict[str, dict] = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            existing = json.load(handle)
        sections = dict(existing.get("sections", {}))
        # Sections written before per-section stamping inherit the old
        # record's top-level flag, not an optimistic default -- a stale
        # full-size record must never be relabeled as smoke.
        legacy_smoke = bool(existing.get("smoke", True))
        for section in sections.values():
            if isinstance(section, dict):
                section.setdefault("smoke", legacy_smoke)
    except (OSError, ValueError):
        sections = {}
    sections.update(new_sections)
    record = {
        "smoke": all(section.get("smoke", True) for section in sections.values()),
        "sections": sections,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    write = terminalreporter.write_line
    written = []
    if _JSON_PATH and _JSON_SECTIONS:
        _merge_record(_JSON_PATH, _JSON_SECTIONS)
        written.append(_JSON_PATH)
    for path, sections in _JSON_EXTRA.items():
        _merge_record(path, sections)
        written.append(path)
    for path in written:
        write("")
        write(f"benchmark record written to {path}")
    if not _REPORTS:
        return
    write("")
    write("=" * 90)
    write("EXPERIMENT SHAPE TABLES (work--depth cost model; see EXPERIMENTS.md)")
    write("=" * 90)
    for title, lines in _REPORTS:
        write("")
        write(f"--- {title}")
        for line in lines:
            write(line)


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> List[str]:
    """Plain fixed-width table used by every bench module."""
    rendered = [[str(cell) for cell in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in rendered)) if rendered else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(header.ljust(widths[i]) for i, header in enumerate(headers)),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in rendered:
        lines.append("  ".join(row[i].rjust(widths[i]) for i in range(len(row))))
    return lines
