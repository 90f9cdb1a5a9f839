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
:func:`bench_sizes` / :func:`bench_size`) so the whole suite runs in seconds.
Nothing here writes a record: what the serving stack costs is measured by
``perf/run.py`` (see ``perf/README.md``), not by these modules.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, Tuple

import pytest

_REPORTS: List[Tuple[str, List[str]]] = []
_SMOKE = False

#: Largest size exponent smoke mode allows (2**9 = 512 elements).
SMOKE_CAP_EXP = 9


def pytest_addoption(parser):
    group = parser.getgroup("bench")
    group.addoption(
        "--bench-smoke",
        action="store_true",
        default=False,
        help="shrink benchmark sweeps to smoke-test sizes",
    )


def pytest_configure(config):
    global _SMOKE
    _SMOKE = bool(config.getoption("--bench-smoke"))


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


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    write = terminalreporter.write_line
    if not _REPORTS:
        return
    write("")
    write("=" * 90)
    write("EXPERIMENT SHAPE TABLES (work--depth cost model; see docs/paper_map.md)")
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
