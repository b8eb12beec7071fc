"""Benchmark plumbing: result capture shared by every bench target.

Every benchmark regenerates one of the paper's tables/figures. Besides the
pytest-benchmark timing, each bench writes its rendered table (and the
measured claim lines) to ``benchmarks/results/<name>.txt`` so the artifacts
survive stdout capture and can be read after a run, e.g.
``python -m pytest benchmarks/bench_ablations.py``.
"""

from __future__ import annotations

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def record_table(results_dir):
    """Persist (and echo) a bench's rendered output."""

    def save(name: str, *chunks: str) -> None:
        text = "\n".join(str(c) for c in chunks) + "\n"
        (results_dir / f"{name}.txt").write_text(text)
        print(f"\n{text}")

    return save
