"""Structured pass/fail reports."""

import math

import pytest

from truncgauss.report import FAIL, PASS, VIOLATED_CLAIM, Report, holds


class TestExtend:
    def _other(self):
        other = Report("inner")
        other.add("a", 1.0)
        other.add("b", -2.0, detail="why")
        other.add("c", -3.0, claim=True)
        return other

    def test_prefix_leaves_the_source_unchanged(self):
        other = self._other()
        before = list(other.checks)
        report = Report("outer")
        report.extend(other, prefix="p|")
        assert other.checks == before
        assert [c.name for c in other.checks] == ["a", "b", "c"]
        assert [(c.name, c.status, c.margin, c.detail) for c in report.checks] == [
            ("p|a", PASS, 1.0, ""), ("p|b", FAIL, -2.0, "why"),
            ("p|c", VIOLATED_CLAIM, -3.0, "")]


class TestAddBoundary:
    """A margin without a bar passes iff it is >= 0: zero of either sign
    holds, the least float below zero and NaN do not."""

    @pytest.mark.parametrize("margin, status", [
        (0.0, PASS), (-0.0, PASS), (5e-324, PASS),
        (-5e-324, FAIL), (math.nan, FAIL), (-math.inf, FAIL)])
    def test_plain_margin(self, margin, status):
        check = Report("edge").add("x", margin)
        assert check.status == status
        assert holds(margin) == (status == PASS)
        assert math.copysign(1.0, check.margin) == math.copysign(1.0, margin)

    @pytest.mark.parametrize("margin", [-5e-324, math.nan])
    def test_claim_below_zero_is_a_finding(self, margin):
        report = Report("edge")
        assert report.add("x", margin, claim=True).status == VIOLATED_CLAIM
        assert report.passed and report.findings == report.checks

    def test_pair_records_its_value(self):
        # a (value, error) pair passes within NOISE_FACTOR errors of zero
        # and records only its value
        check = Report("edge").add("x", (-1.0, 0.1))
        assert (check.status, check.margin) == (PASS, -1.0)
        assert Report("edge").add("x", (-1.0, 0.09)).status == FAIL
