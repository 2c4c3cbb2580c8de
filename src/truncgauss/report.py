"""Structured pass/fail reports shared by the verification suites.

Two classes of checks exist.  *Assert*-class checks test that this code and
proved mathematical facts hold; a failure means something is wrong with the
implementation (or its tolerances).  *Claim*-class checks test conjectured
inequalities against numerics; a violation is a legitimate finding, reported
as ``violated-claim`` rather than as a failure.  Either class's status comes
from one rule, :func:`holds`, on the margin the check records.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace

PASS = "pass"
FAIL = "fail"
VIOLATED_CLAIM = "violated-claim"

SCHEMA_VERSION = "1"

# A check that compares numerical values fails only when its violation
# exceeds this multiple of their propagated error, so quadrature noise near
# a zero crossing does not create false findings.
NOISE_FACTOR = 10.0
# The relative rounding floor of a comparison against a computed magnitude.
SLACK = 1e-12


def _value_error(margin) -> tuple:
    """``(value, error)`` of a margin; a plain number has error 0."""
    return margin if isinstance(margin, tuple) else (margin, 0.0)


def holds(margin, size: float = 0.0) -> bool:
    """The one rule that decides every check.  ``margin`` is the signed
    distance to failure: a plain number, or a ``(value, error)`` pair such as
    a ``ball.IntegralValue`` that carried its error through the arithmetic
    that formed it.  It holds iff ``value >= -(NOISE_FACTOR * error + SLACK *
    size)``, with ``size`` the magnitude a rounding floor scales with; so a
    number with no bar and no size holds iff it is ``>= 0`` (``-0.0``
    included, NaN never)."""
    value, error = _value_error(margin)
    return value >= -(NOISE_FACTOR * error + SLACK * size)


@dataclass(frozen=True)
class Check:
    name: str
    status: str
    margin: float
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status == PASS


@dataclass
class Report:
    suite: str
    checks: list[Check] = field(default_factory=list)

    def add(self, name: str, margin, size: float = 0.0, claim: bool = False,
            detail: str = "") -> Check:
        """Add a check that :func:`holds` decides from its margin and size.
        One that does not hold fails, or is a ``violated-claim`` finding when
        ``claim`` is set.  The check records the margin's value."""
        if holds(margin, size):
            status = PASS
        else:
            status = VIOLATED_CLAIM if claim else FAIL
        check = Check(name, status, float(_value_error(margin)[0]), detail)
        self.checks.append(check)
        return check

    def extend(self, other: "Report", prefix: str = "") -> None:
        self.checks.extend([replace(c, name=prefix + c.name) for c in other.checks])

    @property
    def failures(self) -> list[Check]:
        return [c for c in self.checks if c.status == FAIL]

    @property
    def findings(self) -> list[Check]:
        return [c for c in self.checks if c.status == VIOLATED_CLAIM]

    @property
    def passed(self) -> bool:
        """True when no assert-class check failed (claim findings allowed)."""
        return not self.failures

    @property
    def all_ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "suite": self.suite,
            "passed": self.passed,
            "claims_violated": bool(self.findings),
            "checks": [asdict(c) for c in self.checks],
        }
