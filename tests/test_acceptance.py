"""Acceptance suite at desk scale: every exact identity of the model as a
seeded statistical check, one test per criterion, with the tolerances fixed
here and nowhere else.

Monte Carlo bands are always three measured standard errors (or a KS
p-value above 0.01); stochastic criteria retry up to three times on fresh
deterministic seeds.  One pass/fail line is printed per criterion.
"""

import pytest

from infobridge import verify
from infobridge.verify import CRITERIA, VerificationContext, run_criterion

MASTER_SEED = 20260810
MAX_RETRIES = 3


@pytest.fixture(scope="module")
def ctx():
    return VerificationContext(master_seed=MASTER_SEED)


def _run(ctx, name, fn):
    assert verify.MAX_RETRIES == MAX_RETRIES
    report = run_criterion(ctx, fn)
    print(report.line())
    return report


@pytest.mark.parametrize("name,fn", CRITERIA, ids=[name for name, _ in CRITERIA])
def test_criterion(ctx, name, fn):
    report = _run(ctx, name, fn)
    assert report.passed, report.to_dict()
