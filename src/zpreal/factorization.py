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

No step is done twice. S11 is inverted once, for its condition number,
the Schur complement and the inside factor: that factor's coupling
matrix is S11's formula on S11's entries, and its synthesis takes the
inversion whenever the two agree bitwise. The factor inputs are slices
of the bundle's validated data and go to the synthesis routine without
a second validation; the synthesized factor data is still validated
and built under every gate. An empty side is built from one n = 0
datum per k, whose build is recorded, so it solves and inverts nothing
after the first. The inside factor's Sl⁻¹, which nothing here reads, is
left to its first read whenever the build's certificate allows (see
realization). A two-sided factorize so makes four Sylvester solves and
four inversions (S11, the outside factor's Sl and Sr, and the Schur
complement), or five when the inside factor's coupling matrix and S11
differ in their last bits.

The verification shares its geometry too. R's poles are R₊'s and R₋'s
together, so one clearance pass over the 40 samples gives the weights
of all four evaluations (R, R₊, R₋ and the Schur route's R₋); each
takes its own columns, with the bits eval_R would give it, and goes
straight to the stacked form eval_R makes. The samples' cos and sin
depend on the sample count and the rotation alone, and are cached.
When no rotation of the ring is clear of the poles, the clearest one
goes without its samples within EVAL_EPS of a pole, so the pass
refuses only a ring whose every sample is that close; nothing is
re-run to name the hit. partition measures one distance to the center
per point.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cache
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
from .cauchy import EVAL_EPS, _gaps
from .linalg import (
    _is_number,
    _shared_identity,
    frobenius,
    inverse,
    inverse_cond,
    max_frobenius,
)
from .realization import RealizationBundle, build_bundle
from .report import Report, _check_integer, check_tolerance
from .synthesis import _check_cond_max, _synthesize
from .zero_pole import FAIL_TOL, ZeroPoleData, _form

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
        try:
            if not (_is_number(self.center) and _is_number(self.radius)):
                raise TypeError
            center, radius = complex(self.center), float(self.radius)
        except (TypeError, ValueError, OverflowError):
            raise ValidationError(
                "contour center and radius must be numbers") from None
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", radius)
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
    center, radius = c.center, c.radius
    guard = BOUNDARY_EPS * radius

    def classify(points, kind):
        # c.contains and c.gap written out: one distance to the center
        # per point gives both
        inside, outside = [], []
        for j, z in enumerate(points.tolist()):
            dist = abs(z - center)
            gap = abs(dist - radius)
            if gap < guard:
                raise OnContourError(z, gap, kind)
            (inside if dist < radius else outside).append(j)
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


@cache
def _empty_data(k: int) -> ZeroPoleData:
    """ZeroPoleData.empty(k), made once per k for factorize's empty side;
    every build_bundle of it after the first returns the recorded build."""
    return ZeroPoleData.empty(k)


@cache
def _ring_layout(count: int):
    """Read-only per-point (2π·j/m, phase factor, angle offset, radius
    factor) of _sample_ring's three rings of count points in all: half
    on the circle, a quarter well inside, a quarter well outside."""
    on = count // 2
    inner = (count - on) // 2
    sizes = (on, inner, count - on - inner)
    layout = (np.concatenate([2.0 * math.pi * np.arange(m) / m
                              for m in sizes]),
              np.repeat((1.0, 1.7, 2.3), sizes),
              np.repeat((0.0, 0.4, 0.9), sizes),
              np.repeat((1.0, 0.43, 2.6), sizes))
    for column in layout:
        column.flags.writeable = False
    return layout


@cache
def _ring_turn(count: int, rot: int):
    """Read-only libm cos and sin of rotation rot's count angles, each
    in the order of operations of 2π·j/m + turn·phase + offset; at most
    64 entries per count, and factorize uses one count."""
    base, turn, offset, _ = _ring_layout(count)
    phase = 2.0 * math.pi * rot / 64.0
    ang = (base + turn * phase + offset).tolist()
    cos = np.fromiter(map(math.cos, ang), np.float64, count)
    sin = np.fromiter(map(math.sin, ang), np.float64, count)
    cos.flags.writeable = False
    sin.flags.writeable = False
    return cos, sin


def _sample_ring(c: CircleContour, singular: np.ndarray, count: int):
    """Deterministic verification points: half on the circle, a quarter
    well inside, a quarter well outside, rotated to clear every
    singular point.

    The first of 64 rotations that keeps 1e-3·radius clear of every
    singular point wins. If none does, the clearest of them is taken,
    less its samples within EVAL_EPS of a singular point, which no
    evaluation accepts; when every sample is that close, all are kept
    and the first evaluation refuses them. A rotation's angles depend
    on count alone, so their libm cos and sin are made once per
    (count, rotation) by _ring_turn; each point is then
    center + radius factor·radius·(cos, sin), with the bits of the
    scalar formula.
    """
    scale = _ring_layout(count)[3] * c.radius
    best, best_clear = None, -1.0
    for rot in range(64):
        cos, sin = _ring_turn(count, rot)
        pts = np.empty(count, dtype=np.complex128)
        pts.real = c.center.real + scale * cos
        pts.imag = c.center.imag + scale * sin
        clear = (np.abs(pts[:, None] - singular[None, :]).min()
                 if singular.size else np.inf)
        if clear > best_clear:
            best, best_clear = pts, clear
        if clear > 1e-3 * c.radius:
            return pts
    if best_clear < EVAL_EPS:
        dist = np.abs(best[:, None] - singular[None, :]).min(axis=1)
        keep = dist >= EVAL_EPS
        if keep.any():
            return best[keep]
    return best


def _leading_block(b: RealizationBundle, c: CircleContour):
    """(split, S, S11⁻¹, cond_F(S11)): the partition of b's data by c,
    Sr permuted so the inside zeros and poles come first, and one
    inversion of its leading block S11 (None, inf when it is singular).
    """
    split = partition(b.data, c)
    rows = np.array(split.zero_order, dtype=np.intp)
    cols = np.array(split.pole_order, dtype=np.intp)
    s_perm = b.Sr[rows[:, None], cols]
    inv11, cond_s11 = inverse_cond(s_perm[:split.n_plus, :split.n_plus])
    return split, s_perm, inv11, cond_s11


def factorize(b: RealizationBundle, c: CircleContour,
              cond_max: float = COND_MAX,
              fail_tol: float = FAIL_TOL) -> FactorizationResult:
    """Split R across the circle and verify the product.

    Raises Validation when cond_max is NaN or below 1 or fail_tol is not
    in (0, inf), OnContour or CardinalityMismatch if the split is ill-posed,
    NoFactorization when the leading coupling block is not usably
    invertible, and VerificationFailed when the constructed factors do
    not multiply back to R or the two independent constructions of the
    outside factor disagree.
    """
    cond_max = _check_cond_max(cond_max)
    fail_tol = check_tolerance(fail_tol, "fail_tol")
    d = b.data
    # the same S11 inverse gives its condition number, the inside
    # factor's coupling inverse and the Schur complement below
    split, s_perm, inv11, cond_s11 = _leading_block(b, c)
    n_plus, n_minus = split.n_plus, split.n_minus
    s12 = s_perm[:n_plus, n_plus:]
    s21 = s_perm[n_plus:, :n_plus]
    s22 = s_perm[n_plus:, n_plus:]
    if not math.isfinite(cond_s11) or cond_s11 > cond_max:
        raise NoFactorizationError(
            f"leading coupling block has condition {cond_s11:.3e} "
            f"(limit {cond_max:.1e}); no split factorization across this "
            f"contour", cond=cond_s11,
        )

    p_in, p_out, n_in, n_out = (
        np.array(idx, dtype=np.intp)
        for idx in (split.idxP_plus, split.idxP_minus,
                    split.idxN_plus, split.idxN_minus))
    # each factor takes exactly the points partition placed on its side,
    # all of them BOUNDARY_EPS·radius clear of the circle
    lam_in, mu_in = d.poles[p_in], d.zeros[n_in]
    lam_out, mu_out = d.poles[p_out], d.zeros[n_out]

    # slices of b's validated data pass every SynthesisInput check, so
    # they go to the core unchecked; the inside factor's S is S11's
    # formula on S11's entries, and the core reuses S11's inversion when
    # the two agree bitwise. Each factor's F and G are gathers like
    # d.F_P[:, p_in], whose layout the factor's products are rounded on
    try:
        if n_plus:
            plus = _synthesize(
                d.F_P[:, p_in], d.G_N[n_in, :], lam_in, mu_in, False,
                cond_max, known=(s_perm[:n_plus, :n_plus], inv11, cond_s11))
        else:
            plus = build_bundle(_empty_data(d.k))
        if n_minus:
            minus = _synthesize(
                d.F_N[:, n_out], d.G_P[p_out, :], lam_out, mu_out, True,
                cond_max)
        else:
            minus = build_bundle(_empty_data(d.k))
    except SingularCouplingError as exc:
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
    eye = _shared_identity(n_minus)
    fp_alt = (d.F_P[:, np.concatenate([p_in, p_out])]
              @ np.concatenate([-w12, eye], axis=0))
    gn_alt = (np.concatenate([-w21, eye], axis=1)
              @ d.G_N[np.concatenate([n_in, n_out]), :])

    report = Report()
    report.info["cond_S11"] = cond_s11
    report.info["n_plus"] = n_plus
    report.info["n_minus"] = n_minus

    # the outside factor must inherit its coupling matrix from the
    # Schur complement of the permuted parent matrix (the inside
    # factor's Sr is S11's own formula on S11's entries)
    coins_minus = (frobenius(minus.Sl - delta_inv)
                   / max(frobenius(delta_inv), 1.0))
    report.add("minus_coupling_inherited", coins_minus, AGREE_TOL)

    # R, R₊, R₋ and the Schur route's R₋ at the samples, each the stack
    # eval_R would form. R's poles are R₊'s and R₋'s, so one clearance
    # pass weighs them all; each factor takes its columns with take,
    # which keeps them C-contiguous and so gives the bits of the
    # factor's own pass (see _scaled)
    samples = _sample_ring(c, d.poles, N_SAMPLES)
    u = 1.0 / _gaps(samples, d.poles)
    u_out = u.take(p_out, axis=1)
    r_minus = _form(-1.0, minus.data.F_P, u_out, minus.Sr_inv_G_N)
    r_plus = _form(-1.0, plus.data.F_P, u.take(p_in, axis=1),
                   plus.Sr_inv_G_N)
    r_full = _form(-1.0, d.F_P, u, b.Sr_inv_G_N)
    minus_alt = _form(-1.0, fp_alt, u_out, delta_inv @ gn_alt)
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
    cond_max = _check_cond_max(cond_max)
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
    is all this package ever integrates. A center or radius that is not
    a finite number, and a nodes that is not an integer, are refused
    with ValidationError.
    """
    nodes = _check_integer(nodes, "nodes")
    try:
        finite = cmath.isfinite(center) and math.isfinite(radius)
    except OverflowError:
        finite = False
    except TypeError:
        raise ValidationError("center and radius must be numbers") from None
    if not finite:
        raise ValidationError("center and radius must be finite")
    if radius <= 0 or nodes < 4:
        raise ValidationError("need positive radius and at least 4 nodes")
    acc = None
    for j in range(nodes):
        ang = 2.0 * math.pi * j / nodes
        w = radius * complex(math.cos(ang), math.sin(ang))
        term = np.asarray(f(center + w)) * w
        acc = term if acc is None else acc + term
    return acc / nodes
