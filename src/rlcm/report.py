"""Shared pass/fail report records used by every verification routine."""

from __future__ import annotations

from dataclasses import dataclass, field

PASS = "PASS"
FAIL = "FAIL"

MAX_WITNESSES = 10


@dataclass
class Check:
    """One verified relation family: counts plus the first few witnesses."""

    suite: str
    status: str
    checked: int
    failed: int
    escaped: int = 0
    witnesses: list = field(default_factory=list)

    def line(self):
        parts = [
            "RESULT",
            self.status,
            self.suite,
            f"checked={self.checked}",
            f"failed={self.failed}",
        ]
        if self.escaped:
            parts.append(f"escaped={self.escaped}")
        parts.extend(self.witnesses[:MAX_WITNESSES])
        return " ".join(parts)


@dataclass
class Report:
    checks: list = field(default_factory=list)

    def add(self, suite, checked, witnesses, escaped=0):
        witnesses = list(witnesses)
        status = FAIL if witnesses else PASS
        self.checks.append(
            Check(suite, status, checked, len(witnesses), escaped, witnesses)
        )

    def extend(self, other):
        self.checks.extend(other.checks)

    @property
    def ok(self):
        """PASS on every check; a report with no checks is not a PASS."""
        return bool(self.checks) and all(c.status == PASS
                                         for c in self.checks)

    def lines(self):
        return [c.line() for c in sorted(self.checks, key=lambda c: c.suite)]

    def __str__(self):
        return "\n".join(self.lines())
