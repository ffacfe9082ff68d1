"""Named-residual reports shared by the verification surfaces."""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, field

from .errors import ValidationError


def _as_real(value, name: str) -> float:
    """value as a float, for the one reading of every tolerance and
    limit. Real numbers are accepted, numpy's included; one too large
    for a float, such as 10**400, reads as inf of its sign. A bool is
    refused, as _check_integer refuses it: True is a Python int, but no
    tolerance or limit. Anything else, a string or a complex number
    among them, is refused with ValidationError too."""
    # float and int first: they skip numbers.Real's slower ABC check
    if (not isinstance(value, (float, int, numbers.Real))
            or isinstance(value, bool)):
        raise ValidationError(f"{name} must be a real number, "
                              f"got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _check_integer(value, name: str) -> int:
    """value as an int, for the one reading of every count. Python and
    numpy integers are accepted. A bool is refused, as serialize refuses
    a JSON true: it is a Python int, but no count. Anything else is
    refused with ValidationError too."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValidationError(f"{name} must be an integer, got {value}")


def check_tolerance(tol: float, name: str) -> float:
    """tol as a float, refusing a tolerance outside (0, inf). Every
    residual passes inf and fails NaN, so either would decide a gate
    without reading it, and a tolerance at or below zero fails every
    check that is not exact. A value that is not a real number is
    refused too."""
    value = _as_real(tol, name)
    if math.isnan(value):
        raise ValidationError(f"{name} must not be NaN")
    if not 0.0 < value < math.inf:
        raise ValidationError(f"{name} must be positive and finite, "
                              f"got {tol!r}")
    return value


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
        """Append a check; a tol that is not a real number is refused
        with ValidationError."""
        result = CheckResult(name, float(residual), _as_real(tol, "tol"))
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
