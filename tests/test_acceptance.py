"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one pass/fail line; run with ``pytest -s`` to see them, or
use ``renforge verify`` for the standalone report.
"""

import hashlib

import pytest

from renforge.harness import verify
from renforge.harness.acceptance import CRITERIA

# The SHA-256 of the whole ``renforge verify`` report.  Every criterion's
# detail, A10's artifact sha included, is in it, so this pins the report
# across Python versions (the same on 3.10 to 3.13), not only between two
# runs of one interpreter.
VERIFY_REPORT_SHA256 = "ee326ecf7c19b0e0ef370026a36a65509c5c463783854e01c7a5a07d94feb750"


@pytest.mark.parametrize("criterion, description, check", CRITERIA,
                         ids=[criterion for criterion, _, _ in CRITERIA])
def test_criterion(criterion, description, check):
    passed, detail = check()
    print(f"{criterion} {'PASS' if passed else 'FAIL'} {description}: {detail}")
    assert passed, f"{criterion} {description}: {detail}"


def test_verify_report_is_pinned(capsys):
    assert verify() == 0
    report = capsys.readouterr().out
    assert report.endswith(f"result: {len(CRITERIA)}/{len(CRITERIA)} criteria passed\n")
    assert hashlib.sha256(report.encode("utf-8")).hexdigest() == VERIFY_REPORT_SHA256
