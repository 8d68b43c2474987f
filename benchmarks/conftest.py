"""Shared infrastructure for the paper-reproduction benchmark harness.

Each ``bench_*`` module regenerates one table or figure of the paper's
evaluation.  Reproduced tables are registered with :func:`report_table`;
they are printed in the terminal summary at the end of the run and written
to ``benchmarks/results/``.  A run with any ``ACCMOS_BENCH_*`` override
is a smoke or a scaled-down variant, not the committed full-size
configuration: it prints its tables but writes no result file.

Environment knobs (this substrate is a laptop, not the paper's testbed):

* ``ACCMOS_BENCH_STEPS``   — Table-2 step count (default 10000; the paper
  uses 50 million on native Simulink);
* ``ACCMOS_BENCH_BUDGETS`` — Table-3 wall-clock budgets in seconds,
  comma-separated (default ``0.5,1.5,6.0``, a 10x scale-down of the
  paper's 5/15/60 s);
* ``ACCMOS_BENCH_MODELS``  — comma-separated subset of model names.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent.parent / "tests"))

RESULTS_DIR = Path(__file__).parent / "results"

_TABLES: list[tuple[str, str]] = []


def bench_steps() -> int:
    return int(os.environ.get("ACCMOS_BENCH_STEPS", "10000"))


def bench_budgets() -> list[float]:
    raw = os.environ.get("ACCMOS_BENCH_BUDGETS", "0.5,1.5,6.0")
    return [float(part) for part in raw.split(",") if part.strip()]


def bench_models() -> list[str]:
    from repro.benchmarks import TABLE1

    raw = os.environ.get("ACCMOS_BENCH_MODELS", "")
    if not raw.strip():
        return list(TABLE1)
    return [name.strip().upper() for name in raw.split(",") if name.strip()]


def _overridden() -> bool:
    """True when any ``ACCMOS_BENCH_*`` knob is set: the run's results
    do not describe the committed configuration."""
    return any(name.startswith("ACCMOS_BENCH_") for name in os.environ)


def report_table(title: str, text: str) -> None:
    """Register a reproduced table for the terminal summary + results dir."""
    _TABLES.append((title, text))
    if _overridden():
        return
    RESULTS_DIR.mkdir(exist_ok=True)
    slug = "".join(c if c.isalnum() else "_" for c in title.lower()).strip("_")
    (RESULTS_DIR / f"{slug}.txt").write_text(text + "\n")


def report_json(bench: str, config: dict, samples, unit: str) -> None:
    """Machine-readable companion to :func:`report_table`.

    Writes ``results/<bench>.json`` with the fixed schema
    ``{bench, config, samples, unit}`` — ``samples`` is a list (numbers
    or per-row objects), ``unit`` names what the numeric values mean —
    so downstream tooling can diff runs without parsing the text tables.
    """
    if _overridden():
        return
    RESULTS_DIR.mkdir(exist_ok=True)
    payload = {
        "bench": bench,
        "config": config,
        "samples": list(samples),
        "unit": unit,
    }
    target = RESULTS_DIR / f"{bench}.json"
    target.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _TABLES:
        return
    terminalreporter.section("reproduced paper tables")
    for title, text in _TABLES:
        terminalreporter.write_line("")
        terminalreporter.write_line(f"=== {title} ===")
        for line in text.splitlines():
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def programs():
    """Preprocessed FlatPrograms for the selected benchmark models."""
    from repro.benchmarks import build_benchmark
    from repro.schedule import preprocess

    return {name: preprocess(build_benchmark(name)) for name in bench_models()}
