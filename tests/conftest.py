"""Shared fixtures."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from repro.codegen.driver import find_c_compiler  # noqa: E402
from repro.schedule.compile import clear_preprocess_memo  # noqa: E402

HAS_CC = find_c_compiler() is not None

requires_cc = pytest.mark.skipif(
    not HAS_CC, reason="no C compiler available for AccMoS engine tests"
)


@pytest.fixture(scope="session")
def cc_available() -> bool:
    return HAS_CC


@pytest.fixture(autouse=True)
def _empty_preprocess_memo():
    """Start every test with an empty preprocess memo, so no test is
    handed a program (and its codegen) that an earlier test preprocessed."""
    clear_preprocess_memo()
