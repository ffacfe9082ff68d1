"""Named-residual reports shared by the verification surfaces."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ValidationError


def check_tolerance(tol: float, name: str) -> None:
    """Refuse a tolerance outside (0, inf). Every residual passes inf
    and fails NaN, so either would decide a gate without reading it,
    and a tolerance at or below zero fails every check that is not
    exact. A value that is not a real number is refused too."""
    try:
        nan = math.isnan(tol)
    except TypeError:
        raise ValidationError(f"{name} must be a real number, "
                              f"got {tol!r}") from None
    if nan:
        raise ValidationError(f"{name} must not be NaN")
    if not 0.0 < tol < math.inf:
        raise ValidationError(f"{name} must be positive and finite, "
                              f"got {tol!r}")


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tol


@dataclass
class Report:
    """An ordered list of named residual checks plus free-form info.

    Every residual carries the tolerance it was judged against, so a
    report line is meaningful on its own.
    """

    checks: list = field(default_factory=list)
    info: dict = field(default_factory=dict)

    def add(self, name: str, residual: float, tol: float) -> CheckResult:
        """Append a check; a tol that float() cannot convert is refused
        with ValidationError."""
        try:
            tol = float(tol)
        except (TypeError, ValueError):
            raise ValidationError(f"tol must be a real number, "
                                  f"got {tol!r}") from None
        result = CheckResult(name, float(residual), tol)
        self.checks.append(result)
        return result

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def worst(self) -> CheckResult | None:
        if not self.checks:
            return None
        return max(self.checks, key=lambda c: c.residual / c.tol if c.tol else 0.0)

    def failures(self) -> list:
        return [c for c in self.checks if not c.passed]

    def lines(self) -> list:
        out = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            out.append(
                f"{status}  {c.name:<32} residual {c.residual:12.5e}  "
                f"tol {c.tol:.1e}"
            )
        return out

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [
                {
                    "name": c.name,
                    "residual": c.residual,
                    "tol": c.tol,
                    "passed": c.passed,
                }
                for c in self.checks
            ],
            "info": dict(self.info),
        }
