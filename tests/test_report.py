"""Structured pass/fail reports."""

from truncgauss.report import FAIL, PASS, VIOLATED_CLAIM, Report


class TestExtend:
    def _other(self):
        other = Report("inner")
        other.add("a", True, 1.0)
        other.add("b", False, -2.0, detail="why")
        other.add("c", False, -3.0, claim=True)
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
