"""Shared fixtures and the acceptance-criteria terminal report."""

import math
import os

import numpy as np
import pytest

import macrobell
from macrobell.povm import projective_from_bloch, derive_params

# populated by tests/test_acceptance.py, printed after the run
_criteria: dict[int, tuple[str, bool]] = {}


def record_criterion(number: int, line: str, passed: bool) -> None:
    _criteria[number] = (line, passed)


def pytest_terminal_summary(terminalreporter):
    if not _criteria:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_criteria):
        line, passed = _criteria[number]
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"criterion {number:2d} {status} — {line}")


PAPER_COEFFS = np.array(
    [2.0 / math.sqrt(10.0), 1.0 / math.sqrt(2.0), 1.0 / math.sqrt(10.0)],
    dtype=complex,
)

CHSH_OPTIMUM = 2.0 * math.sqrt(10.0) / math.pi


def src_env() -> dict:
    """The environment with this checkout's package first on PYTHONPATH,
    for tests that start a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(macrobell.__file__)))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}


@pytest.fixture(scope="session")
def sigma_x():
    return projective_from_bloch(math.pi / 2.0, 0.0)


@pytest.fixture(scope="session")
def sigma_z():
    return projective_from_bloch(0.0, 0.0)


@pytest.fixture(scope="session")
def params_x(sigma_x):
    return derive_params(sigma_x)
