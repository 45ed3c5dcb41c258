"""The test session itself: a failing property is reported, not an internal error."""

from pathlib import Path

import pytest

_FAILING_THEN_PASSING = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_property_that_fails(x):
    assert x < 5


def test_plain_pass():
    pass
"""


def test_failing_property_is_reported_as_a_failure(pytester: pytest.Pytester):
    # a fresh interpreter, so hypothesis's patch-writing imports happen as in
    # a real session, under this repository's conftest and warning filter
    pytester.makepyprojecttoml('[tool.pytest.ini_options]\nfilterwarnings = ["error"]\n')
    pytester.makeconftest(Path(__file__).with_name("conftest.py").read_text())
    pytester.makepyfile(test_property=_FAILING_THEN_PASSING)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
    result.assert_outcomes(failed=1, passed=1)
