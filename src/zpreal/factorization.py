"""Multiplicative splitting across a circle contour.

Given a consistent bundle for R and a circle splitting the plane into
an inside G+ and an outside G- (which owns infinity), factor

    R(z) = Rplus(z) Rminus(z)

so that Rplus together with its inverse is analytic outside the circle
and Rminus with its inverse is analytic inside. The data-level content
is a permutation and a block split: order the poles and zeros so the
inside ones come first, cut the right coupling matrix into 2x2 blocks,
and the factorization exists exactly when the leading block S11 is
invertible. Rplus is synthesized from the inside half of the right
data; Rminus from the outside half of the left data; an independent
Schur-complement formula for Rminus cross-checks the construction.

Everything downstream of the split is verified numerically before the
result is handed back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    CardinalityMismatchError,
    NoFactorizationError,
    OnContourError,
    SingularCouplingError,
    SingularMatrixError,
    ValidationError,
    VerificationFailedError,
)
from .cauchy import _gaps
from .linalg import frobenius, identity, inverse, inverse_cond, max_frobenius
from .realization import RealizationBundle, _form, build_bundle, eval_R
from .report import Report
from .synthesis import SynthesisInput, synthesize, synthesize_hybrid
from .zero_pole import FAIL_TOL, ZeroPoleData

__all__ = [
    "CircleContour",
    "Partition",
    "FactorizationResult",
    "partition",
    "factorize",
    "factorization_exists",
    "residue_quadrature",
    "EXISTS",
    "NOT_EXISTS",
    "BOUNDARY",
    "BOUNDARY_EPS",
    "COND_MAX",
    "AGREE_TOL",
    "N_SAMPLES",
]

BOUNDARY_EPS = 1e-9
COND_MAX = 1e8
AGREE_TOL = 1e-9     # agreement of the two outside-factor constructions
N_SAMPLES = 40       # verification points of factorize

EXISTS = "Exists"
NOT_EXISTS = "NotExists"
BOUNDARY = "Boundary"


@dataclass(frozen=True)
class CircleContour:
    """Splitting circle; the exterior is the component holding infinity."""

    center: complex
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", complex(self.center))
        object.__setattr__(self, "radius", float(self.radius))
        if not (self.radius > 0 and math.isfinite(self.radius)):
            raise ValidationError("contour radius must be positive and finite")
        if not (math.isfinite(self.center.real)
                and math.isfinite(self.center.imag)):
            raise ValidationError("contour center must be finite")

    def contains(self, z: complex) -> bool:
        return abs(z - self.center) < self.radius

    def gap(self, z: complex) -> float:
        """Unsigned distance from z to the circle itself."""
        return abs(abs(z - self.center) - self.radius)


@dataclass(frozen=True)
class Partition:
    """Index split of poles/zeros by contour side, inside first.

    The four tuples record the permutation, so factor data maps back
    to the original instance indices.
    """

    idxP_plus: tuple
    idxP_minus: tuple
    idxN_plus: tuple
    idxN_minus: tuple

    @property
    def n_plus(self) -> int:
        return len(self.idxP_plus)

    @property
    def n_minus(self) -> int:
        return len(self.idxP_minus)

    @property
    def pole_order(self) -> tuple:
        return self.idxP_plus + self.idxP_minus

    @property
    def zero_order(self) -> tuple:
        return self.idxN_plus + self.idxN_minus


def partition(d: ZeroPoleData, c: CircleContour) -> Partition:
    """Classify every pole and zero by contour side.

    Points within BOUNDARY_EPS * radius of the circle are refused:
    the side of such a point is not numerically meaningful. The inside
    pole and zero counts must agree, otherwise no split factorization
    without extra middle structure exists and we stop.
    """
    guard = BOUNDARY_EPS * c.radius

    def classify(points, kind):
        inside, outside = [], []
        for j, z in enumerate(points):
            z = complex(z)
            if c.gap(z) < guard:
                raise OnContourError(z, c.gap(z), kind)
            (inside if c.contains(z) else outside).append(j)
        return tuple(inside), tuple(outside)

    p_in, p_out = classify(d.poles, "pole")
    n_in, n_out = classify(d.zeros, "zero")
    if len(p_in) != len(n_in):
        raise CardinalityMismatchError(len(p_in), len(n_in))
    return Partition(idxP_plus=p_in, idxP_minus=p_out,
                     idxN_plus=n_in, idxN_minus=n_out)


@dataclass(frozen=True, eq=False)
class FactorizationResult:
    plus: RealizationBundle
    minus: RealizationBundle
    split: Partition
    cond_S11: float
    report: Report


def _sample_ring(c: CircleContour, singular: np.ndarray, count: int):
    """Deterministic verification points: half on the circle, a quarter
    well inside, a quarter well outside, rotated to clear every
    singular point."""
    on = count // 2
    inner = (count - on) // 2
    # (points, radius factor, phase factor, angle offset) of each ring
    rings = ((on, 1.0, 1.0, 0.0), (inner, 0.43, 1.7, 0.4),
             (count - on - inner, 2.6, 2.3, 0.9))
    best, best_clear = None, -1.0
    for rot in range(64):
        phase = 2.0 * math.pi * rot / 64.0
        pts = []
        for m, radius, turn, offset in rings:
            for j in range(m):
                ang = 2.0 * math.pi * j / m + turn * phase + offset
                pts.append(c.center + radius * c.radius
                           * complex(math.cos(ang), math.sin(ang)))
        pts = np.array(pts, dtype=np.complex128)
        clear = (np.abs(pts[:, None] - singular[None, :]).min()
                 if singular.size else np.inf)
        if clear > best_clear:
            best, best_clear = pts, clear
        if clear > 1e-3 * c.radius:
            return pts
    return best


def _leading_block(b: RealizationBundle, c: CircleContour):
    """(split, S, S11⁻¹, cond_F(S11)): the partition of b's data by c,
    Sr permuted so the inside zeros and poles come first, and one
    inversion of its leading block S11 (None, inf when it is singular).
    """
    split = partition(b.data, c)
    s_perm = b.Sr[np.ix_(list(split.zero_order), list(split.pole_order))]
    inv11, cond_s11 = inverse_cond(s_perm[:split.n_plus, :split.n_plus])
    return split, s_perm, inv11, cond_s11


def factorize(b: RealizationBundle, c: CircleContour,
              cond_max: float = COND_MAX,
              fail_tol: float = FAIL_TOL) -> FactorizationResult:
    """Split R across the circle and verify the product.

    Raises OnContour or CardinalityMismatch if the split is ill-posed,
    NoFactorization when the leading coupling block is not usably
    invertible, and VerificationFailed when the constructed factors do
    not multiply back to R or the two independent constructions of the
    outside factor disagree.
    """
    d = b.data
    # the same S11 inverse gives its condition number and the Schur
    # complement below
    split, s_perm, inv11, cond_s11 = _leading_block(b, c)
    n_plus, n_minus = split.n_plus, split.n_minus
    p_ord = list(split.pole_order)
    n_ord = list(split.zero_order)
    s11 = s_perm[:n_plus, :n_plus]
    s12 = s_perm[:n_plus, n_plus:]
    s21 = s_perm[n_plus:, :n_plus]
    s22 = s_perm[n_plus:, n_plus:]
    if not math.isfinite(cond_s11) or cond_s11 > cond_max:
        raise NoFactorizationError(
            f"leading coupling block has condition {cond_s11:.3e} "
            f"(limit {cond_max:.1e}); no split factorization across this "
            f"contour", cond=cond_s11,
        )

    lam_in = d.poles[list(split.idxP_plus)]
    mu_in = d.zeros[list(split.idxN_plus)]
    lam_out = d.poles[list(split.idxP_minus)]
    mu_out = d.zeros[list(split.idxN_minus)]

    try:
        if n_plus:
            plus = synthesize(SynthesisInput(
                F=d.F_P[:, list(split.idxP_plus)],
                G=d.G_N[list(split.idxN_plus), :],
                pole_points=lam_in, zero_points=mu_in,
            ), cond_max=cond_max)
        else:
            plus = build_bundle(ZeroPoleData.empty(d.k))
        if n_minus:
            minus = synthesize_hybrid(SynthesisInput(
                F=d.F_N[:, list(split.idxN_minus)],
                G=d.G_P[list(split.idxP_minus), :],
                pole_points=lam_out, zero_points=mu_out,
            ), cond_max=cond_max)
        else:
            minus = build_bundle(ZeroPoleData.empty(d.k))
    except (SingularCouplingError, SingularMatrixError) as exc:
        raise NoFactorizationError(
            f"factor synthesis failed: {exc}", cond=cond_s11) from exc

    # independent outside factor through the Schur complement of the
    # permuted coupling matrix
    w12 = inv11 @ s12
    w21 = s21 @ inv11
    try:
        delta_inv = inverse(s22 - w21 @ s12)
    except SingularMatrixError as exc:
        raise NoFactorizationError(
            f"the Schur complement of the leading coupling block is not "
            f"invertible: {exc}", cond=cond_s11) from exc
    u = np.vstack([-w12, identity(n_minus)])
    v = np.hstack([-w21, identity(n_minus)])
    fp_alt = d.F_P[:, p_ord] @ u
    gn_alt = v @ d.G_N[n_ord, :]

    report = Report()
    report.info["cond_S11"] = cond_s11
    report.info["n_plus"] = n_plus
    report.info["n_minus"] = n_minus

    # the synthesized factors must inherit their coupling blocks from
    # the permuted parent matrix
    coins_plus = (frobenius(plus.Sr - s11) / max(frobenius(s11), 1.0)
                  if n_plus else 0.0)
    coins_minus = (frobenius(minus.Sl - delta_inv)
                   / max(frobenius(delta_inv), 1.0)
                   if n_minus else 0.0)
    report.add("plus_coupling_inherited", coins_plus, 1e-9)
    report.add("minus_coupling_inherited", coins_minus, 1e-9)

    # location audit, exact: every factor singularity on its own side
    misplaced = 0
    for z in np.concatenate([plus.data.poles, plus.data.zeros]):
        misplaced += 0 if c.contains(complex(z)) else 1
    for z in np.concatenate([minus.data.poles, minus.data.zeros]):
        misplaced += 1 if c.contains(complex(z)) else 0
    report.add("factor_singularities_on_own_side", float(misplaced), 0.5)

    samples = _sample_ring(c, d.poles, N_SAMPLES)
    r_minus = eval_R(minus, samples)
    r_plus = eval_R(plus, samples)
    r_full = eval_R(b, samples)
    minus_alt = _form(d.k, -1.0, fp_alt, 1.0 / _gaps(samples, lam_out),
                      delta_inv @ gn_alt)
    worst_prod = max_frobenius(r_plus @ r_minus - r_full)
    worst_agree = max_frobenius(r_minus - minus_alt)
    report.add("product_at_samples", worst_prod, fail_tol)
    report.add("minus_formula_agreement", worst_agree, AGREE_TOL)

    if worst_agree > AGREE_TOL:
        raise VerificationFailedError(
            "two independent constructions of the outside factor disagree",
            residual=worst_agree, tol=AGREE_TOL)
    if worst_prod > fail_tol:
        raise VerificationFailedError(
            "factor product does not reproduce the function",
            residual=worst_prod, tol=fail_tol)
    if misplaced:
        raise VerificationFailedError(
            "factor singularities landed on the wrong contour side",
            residual=float(misplaced), tol=0.5)

    return FactorizationResult(plus=plus, minus=minus, split=split,
                               cond_S11=cond_s11, report=report)


@dataclass(frozen=True)
class ExistenceVerdict:
    verdict: str
    cond_S11: float
    n_plus: int
    n_minus: int

    def __str__(self):
        return (f"{self.verdict} (cond S11 = {self.cond_S11:.6g}, "
                f"split {self.n_plus}/{self.n_minus})")


def factorization_exists(b: RealizationBundle, c: CircleContour,
                         cond_max: float = COND_MAX) -> ExistenceVerdict:
    """Decide invertibility of the leading coupling block.

    The verdict is three-valued: a condition number in the top decade
    below cond_max is reported as Boundary rather than forced into a
    boolean the arithmetic cannot support.
    """
    split, _, _, cond_s11 = _leading_block(b, c)
    if not math.isfinite(cond_s11) or cond_s11 > cond_max:
        verdict = NOT_EXISTS
    elif cond_s11 >= cond_max / 10.0:
        verdict = BOUNDARY
    else:
        verdict = EXISTS
    return ExistenceVerdict(verdict=verdict, cond_S11=cond_s11,
                            n_plus=split.n_plus, n_minus=split.n_minus)


def residue_quadrature(f: Callable[[complex], np.ndarray], center: complex,
                       radius: float, nodes: int = 64) -> np.ndarray:
    """Contour residue of f at center by the trapezoid rule.

    Exponentially accurate for f analytic in the punctured disk, which
    is all this package ever integrates.
    """
    if radius <= 0 or nodes < 4:
        raise ValidationError("need positive radius and at least 4 nodes")
    acc = None
    for j in range(nodes):
        ang = 2.0 * math.pi * j / nodes
        w = radius * complex(math.cos(ang), math.sin(ang))
        term = np.asarray(f(center + w)) * w
        acc = term if acc is None else acc + term
    return acc / nodes
