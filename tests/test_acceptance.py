"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one pass/fail line; run with ``pytest -s`` to see them, or
use ``renforge verify`` for the standalone table.
"""

import pytest

from renforge.harness import render_report, run_acceptance, verify
from renforge.harness.acceptance import CRITERIA

CRITERION_IDS = [criterion for criterion, _, _ in CRITERIA]


@pytest.fixture(scope="module")
def results():
    return {result.criterion: result for result in run_acceptance()}


@pytest.mark.parametrize("criterion", CRITERION_IDS)
def test_criterion(results, criterion):
    result = results[criterion]
    status = "PASS" if result.passed else "FAIL"
    print(f"{criterion} {status} {result.description}: {result.detail}")
    assert result.passed, f"{criterion} {result.description}: {result.detail}"


def test_report_covers_all_criteria(results):
    report = render_report(list(results.values()))
    for criterion in CRITERION_IDS:
        assert criterion in report
    assert f"{len(CRITERION_IDS)}/{len(CRITERION_IDS)} criteria passed" in report


def test_verify_report_is_reproducible(capsys):
    assert verify() == 0
    first = capsys.readouterr().out
    assert verify() == 0
    assert capsys.readouterr().out == first
    assert first.endswith("criteria passed\n")
