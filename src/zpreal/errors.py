"""Exception taxonomy for the zpreal package.

Every failure mode that callers are expected to branch on gets its own
class; the CLI maps these onto exit codes. Structured context (offending
point, residual value, condition number) rides on attributes rather than
being baked into the message string only.
"""

from __future__ import annotations


class ZprealError(Exception):
    """Base class for all package-specific failures."""


class DimensionMismatchError(ZprealError):
    """Operands do not conform (wrong shapes or lengths)."""


class SingularMatrixError(ZprealError):
    """A matrix is singular, or too ill-conditioned for linalg.inverse."""


class CollisionError(ZprealError):
    """Two points that must stay separated are too close together."""

    def __init__(self, message: str, separation: float = float("nan")):
        self.separation = separation
        super().__init__(message)


class PoleHitError(ZprealError):
    """An evaluation point landed on (or numerically on) a singularity."""

    def __init__(self, point, singularity, distance: float):
        self.point = point
        self.singularity = singularity
        self.distance = distance
        super().__init__(
            f"evaluation point {point} is within {distance:.3e} of the "
            f"singularity at {singularity}"
        )


class DegenerateDerivativeError(ZprealError):
    """A derivative that must be nonzero is numerically zero."""


class NotRankOneError(ZprealError):
    """A residue matrix expected to have rank one does not."""

    def __init__(self, message: str, detected_rank: int):
        self.detected_rank = detected_rank
        super().__init__(message)


class ZeroGaugeEntryError(ZprealError):
    """A gauge scaling contains a zero entry."""


class ValidationError(ZprealError):
    """Structural invariant of a data object is violated."""


class SpectraOverlapError(ZprealError):
    """Diagonal Sylvester solve with overlapping spectra."""

    def __init__(self, message: str, min_separation: float):
        self.min_separation = min_separation
        super().__init__(message)


class InconsistentDataError(ZprealError):
    """Pole-side and zero-side data do not describe mutually inverse functions."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        self.diagnostics = dict(diagnostics or {})
        super().__init__(message)


class SingularCouplingError(ZprealError):
    """The coupling matrix produced by synthesis is not invertible enough."""

    def __init__(self, message: str, cond: float = float("inf")):
        self.cond = cond
        super().__init__(message)


class DomainViolationError(ZprealError):
    """A chain-function argument lies outside its admissible domain."""


class GenerationFailedError(ZprealError):
    """Random instance generation exhausted its retry budget."""

    def __init__(self, message: str, attempts: int):
        self.attempts = attempts
        super().__init__(message)


class OnContourError(ZprealError):
    """A pole or zero sits on (or numerically on) the splitting contour."""

    def __init__(self, point, distance: float, kind: str):
        self.point = point
        self.distance = distance
        self.kind = kind
        super().__init__(
            f"{kind} at {point} lies within {distance:.3e} of the contour"
        )


class CardinalityMismatchError(ZprealError):
    """Pole and zero counts inside the contour disagree."""

    def __init__(self, n_poles_inside: int, n_zeros_inside: int):
        self.n_poles_inside = n_poles_inside
        self.n_zeros_inside = n_zeros_inside
        super().__init__(
            f"{n_poles_inside} poles but {n_zeros_inside} zeros inside the "
            f"contour; a split factorization needs equal counts"
        )


class NoFactorizationError(ZprealError):
    """The split factorization does not exist (coupling block singular)."""

    def __init__(self, message: str, cond: float = float("inf")):
        self.cond = cond
        super().__init__(message)


class VerificationFailedError(ZprealError):
    """A computed object failed its own verification gate."""

    def __init__(self, message: str, residual: float, tol: float):
        self.residual = residual
        self.tol = tol
        super().__init__(f"{message}: residual {residual:.3e} > tol {tol:.3e}")


class ParseError(ZprealError):
    """An instance file or CLI argument could not be parsed."""
