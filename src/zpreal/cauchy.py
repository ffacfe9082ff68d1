"""Scalar rational functions pinned by their poles and zeros.

A scalar rational function with n simple poles, n simple zeros, and a
finite nonzero value c at infinity is determined by those ingredients.
This module evaluates such functions, builds the Cauchy matrix

    s[p, q] = 1 / (mu_p - lambda_q)

that couples the zero set to the pole set, inverts it in closed form
through the derivative values of the function at its critical points,
and solves for the partial-fraction representations of the function and
its reciprocal. The k-by-k matrix machinery in the rest of the package
reduces to this module when k = 1, which the tests exploit as an
independent oracle.

It also holds the package's one clearance rule: _gaps(z, points) refuses
an evaluation point within EVAL_EPS of a pole or zero and otherwise
returns z - points, for one point or a 1-d array of points. Every
evaluator, additive form and scalar form divides by what it returns,
and factorize weighs its samples with it. The check tests the smallest
distance first and looks up which singularity it belongs to only when
that test trips, so a point clear of every singularity pays for one
reduction, not two. The batch path does the same with one minimum over
the whole batch, a minimum that skips NaN: a NaN point raises nothing,
and must not hide a point that hits a pole. A one-point evaluator call
is a handful of numpy operations, nearly all fixed cost, so the one
point takes the shortest path: a complex or float is tested before any
other type, and numpy's ufunc reduce skips the .min() wrapper. Any
other one point, such as an int, a Fraction or a Decimal, is read by
_point as a complex, as the entries of a stack are. A
two-point evaluator whose two points are each a complex or float takes
_pair_gaps instead, which tests both against their singularities in one
pass over a 2×n stack and leaves naming a hit to _gaps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CollisionError,
    DegenerateDerivativeError,
    PoleHitError,
    ValidationError,
)
from .linalg import _complex_array, _is_number, _numbers, solve

EVAL_EPS = 1e-12     # distance below which an evaluation point "hits" a pole
SEP_EPS = 1e-10      # minimum separation between the defining points
DERIV_EPS = 1e-12    # derivative magnitude below which inversion degenerates

__all__ = [
    "EVAL_EPS",
    "SEP_EPS",
    "DERIV_EPS",
    "ScalarZeroPole",
    "scalar_eval",
    "cauchy_matrix",
    "cauchy_inverse_formula",
    "cauchy_det_squared",
    "scalar_system_representation",
    "scalar_joint_eval",
]


def _as_points(values, what: str) -> np.ndarray:
    pts = _complex_array(values, what)
    if pts.ndim != 1 or pts.size == 0:
        raise ValidationError(f"{what} must be a non-empty 1-d list of points")
    if not np.isfinite(pts).all():
        raise ValidationError(f"{what} contains non-finite points")
    return pts


def _pairwise_distances(pts: np.ndarray) -> np.ndarray:
    """|pts[i] - pts[j]| for every pair, with inf on the diagonal, so
    the minimum runs over distinct pairs only."""
    dist = np.abs(pts[:, None] - pts[None, :])
    np.fill_diagonal(dist, np.inf)
    return dist


def _min_pairwise_distance(pts: np.ndarray) -> float:
    if pts.size < 2:
        return float("inf")
    return float(_pairwise_distances(pts).min())


def _ndim(z) -> int:
    """np.ndim(z), with a ragged nesting such as [1, [2, 3]], which numpy
    refuses with a bare ValueError, refused with ValidationError."""
    try:
        return np.ndim(z)
    except ValueError:
        raise ValidationError("evaluation points are not numbers") from None


def _point(z):
    """z itself when it is a complex or float or not a scalar; any other
    scalar as the complex that linalg._numbers makes of it, the reading
    of a stack's entries, so one point gives the bits of a stack of one.
    A scalar that is not a number, such as text, bytes or None, raises
    ValidationError, as a ragged nesting of points does."""
    if isinstance(z, (complex, float)) or _ndim(z) != 0:
        return z
    a = _numbers(z)
    if a is None:
        raise ValidationError(f"evaluation point {z!r} is not a number")
    return complex(a)


def _gaps(z, points: np.ndarray) -> np.ndarray:
    """z - points after the clearance check, for one point or a 1-d
    array of points (one row of gaps per point).

    A point within EVAL_EPS of one of `points` raises PoleHitError
    naming its nearest singularity; in a batch the first such point in
    array order is named. A complex or float point is taken as it is;
    any other one point is read by _point, and a stack as a numeric
    array or one that holds numbers (see linalg._numbers). A point that
    is not a number, or a ragged nesting of points, raises
    ValidationError.
    """
    if not isinstance(z, (complex, float)):
        if _ndim(z) != 0:
            return _batch_gaps(z, points)
        z = _point(z)
    gaps = z - points
    if points.size:
        dist = np.abs(gaps)
        # argmin only names the singularity once the test trips; a NaN
        # minimum fails the test and raises nothing
        if np.minimum.reduce(dist) < EVAL_EPS:
            j = int(np.argmin(dist))
            raise PoleHitError(z, complex(points[j]), float(dist[j]))
    return gaps


def _batch_gaps(z, points: np.ndarray) -> np.ndarray:
    """_gaps of a stack of points."""
    z = _numbers(z)
    if z is None:
        raise ValidationError("evaluation points are not numbers")
    if z.ndim != 1:
        raise ValidationError(
            f"evaluation points must be a scalar or a 1-d array, "
            f"got shape {z.shape}")
    gaps = z[:, None] - points[None, :]
    if gaps.size:
        dist = np.abs(gaps)
        # fmin skips NaN, so a NaN point cannot hide a hit elsewhere in
        # the batch; the rows are searched only once this test trips
        if np.fmin.reduce(dist, axis=None) < EVAL_EPS:
            hit = dist.min(axis=1) < EVAL_EPS
            if hit.any():
                i = int(np.argmax(hit))
                j = int(np.argmin(dist[i]))
                raise PoleHitError(complex(z[i]), complex(points[j]),
                                   float(dist[i, j]))
    return gaps


def _pair_gaps(x, y, stacked: np.ndarray) -> np.ndarray:
    """_gaps(x, stacked[0]) and _gaps(y, stacked[1]) as the two rows of
    one 2×n array, in one pass: x and y are each a complex or float and
    n > 0.

    The points are tested together, with a minimum that skips NaN, so
    a NaN x cannot hide a y that hits. Once the test trips, the
    one-point _gaps of x and then of y raises the same PoleHitError as
    two separate calls would, x named before y.
    """
    gaps = np.array((x, y))[:, None] - stacked
    if np.fmin.reduce(np.abs(gaps), axis=None) < EVAL_EPS:
        _gaps(x, stacked[0])
        _gaps(y, stacked[1])
    return gaps


@dataclass(frozen=True)
class ScalarZeroPole:
    """A scalar rational function in general position.

    Parameters
    ----------
    poles : sequence of complex
        The n simple poles.
    zeros : sequence of complex
        The n simple zeros, disjoint from the poles.
    c : complex, optional
        Value at infinity, finite and nonzero. Defaults to 1.

    All 2n points must be pairwise distinct (separation at least
    SEP_EPS); pole and zero counts must agree.
    """

    poles: tuple = field()
    zeros: tuple = field()
    c: complex = 1.0 + 0j

    def __post_init__(self):
        poles = _as_points(self.poles, "poles")
        zeros = _as_points(self.zeros, "zeros")
        if poles.size != zeros.size:
            raise ValidationError(
                f"{poles.size} poles vs {zeros.size} zeros; counts must match"
            )
        try:
            # complex() alone would parse text and read a bool as 1 or 0
            if not _is_number(self.c):
                raise TypeError
            c = complex(self.c)
        except (TypeError, ValueError, OverflowError):
            raise ValidationError("value at infinity must be a number") from None
        if c == 0:
            raise ValidationError("value at infinity must be nonzero")
        if not np.isfinite(c):
            raise ValidationError("value at infinity must be finite")
        sep = _min_pairwise_distance(np.concatenate([poles, zeros]))
        if sep < SEP_EPS:
            raise CollisionError(f"defining points are only {sep:.3e} apart "
                                 f"(need {SEP_EPS:.1e})", separation=sep)
        object.__setattr__(self, "poles", tuple(map(complex, poles)))
        object.__setattr__(self, "zeros", tuple(map(complex, zeros)))
        object.__setattr__(self, "c", c)

    @property
    def n(self) -> int:
        return len(self.poles)


def scalar_eval(d: ScalarZeroPole, z: complex) -> complex:
    """Evaluate r(z) = c * prod(z - mu) / prod(z - lambda)."""
    # the point is read and cleared before the numerator subtracts it
    z = _point(z)
    gaps = _gaps(z, np.asarray(d.poles))
    return complex(d.c * np.prod(z - np.asarray(d.zeros)) / np.prod(gaps))


def cauchy_matrix(poles, zeros) -> np.ndarray:
    """The n x n matrix with entries 1 / (mu_p - lambda_q).

    Rows follow the zeros, columns the poles. Raises Collision when any
    zero comes within SEP_EPS of any pole. The check is its own code
    because it reads the gap matrix the entries are divided by.
    """
    lam = _as_points(poles, "poles")
    mu = _as_points(zeros, "zeros")
    if lam.size != mu.size:
        raise ValidationError(f"{lam.size} poles vs {mu.size} zeros")
    gaps = mu[:, None] - lam[None, :]
    worst = float(np.abs(gaps).min())
    if worst < SEP_EPS:
        raise CollisionError(
            f"a zero and a pole are only {worst:.3e} apart", separation=worst
        )
    return 1.0 / gaps


def _critical_derivatives(poles, zeros, c):
    """(lam, mu, dp, dz): the points as arrays, (1/r)'(lambda_p) at each
    pole and r'(mu_q) at each zero, from the product form.

    Differentiating c * prod(z - mu_l) / prod(z - lambda_j) at z = mu_q
    kills every term except the one where the (z - mu_q) factor is
    differentiated, leaving c * prod_{l != q}(mu_q - mu_l) /
    prod_j(mu_q - lambda_j); 1/r swaps the roles of the sets. Validates
    through ScalarZeroPole, with its refusals and messages.
    """
    d = ScalarZeroPole(poles, zeros, c)
    lam, mu, c = np.array(d.poles), np.array(d.zeros), d.c
    n = d.n
    dp = np.empty(n, dtype=np.complex128)
    dz = np.empty(n, dtype=np.complex128)
    for j in range(n):
        mu_gaps = np.delete(mu - mu[j], j)
        lam_gaps = np.delete(lam - lam[j], j)
        dz[j] = c * np.prod(-mu_gaps) / np.prod(mu[j] - lam)
        dp[j] = np.prod(-lam_gaps) / (c * np.prod(lam[j] - mu))
    return lam, mu, dp, dz


def cauchy_inverse_formula(poles, zeros, c: complex = 1.0) -> np.ndarray:
    """Closed-form inverse of cauchy_matrix(poles, zeros).

    Entry (p, q) is 1 / [ (1/r)'(lambda_p) * (lambda_p - mu_q) * r'(mu_q) ],
    with both derivatives taken analytically from the product form of the
    rational function the points define. The value of c cancels, so any
    nonzero c gives the same matrix. Rows follow the poles, columns the
    zeros, making the result a left and right inverse of the Cauchy
    matrix.
    """
    lam, mu, dp, dz = _critical_derivatives(poles, zeros, c)
    small = min(np.abs(dz).min(), np.abs(dp).min())
    if small < DERIV_EPS:
        raise DegenerateDerivativeError(
            f"a critical derivative has magnitude {small:.3e} < {DERIV_EPS:.1e};"
            f" the closed-form inverse is meaningless here"
        )
    middle = 1.0 / (lam[:, None] - mu[None, :])
    return (1.0 / dp)[:, None] * middle * (1.0 / dz)[None, :]


def cauchy_det_squared(poles, zeros) -> complex:
    """Squared determinant of the Cauchy matrix, in closed form.

    Equals (-1)^n times the product of (1/r)'(lambda_p) over the poles
    and r'(mu_q) over the zeros, with c = 1. The sign factor arises
    because the inverse is a rescaling of the *transpose* of the matrix
    with every entry negated; on n = 1 sets like ([0], [1]) the signed
    form gives det([[1]])^2 = 1 where the bare product gives -1.
    """
    lam, _, dp, dz = _critical_derivatives(poles, zeros, 1.0)
    return complex((-1.0) ** lam.size * np.prod(dp) * np.prod(dz))


def scalar_system_representation(d: ScalarZeroPole):
    """Partial-fraction coefficients of r and 1/r, by linear solve.

    For c = 1 the function and its reciprocal admit

        r(z)   = 1 + sum_q xi_q  / (z - lambda_q)
        1/r(z) = 1 + sum_p eta_p / (z - mu_p)

    and requiring r to vanish on the zeros (resp. 1/r on the poles)
    turns the coefficients into solutions of linear systems against the
    Cauchy matrix: S xi = -ones and eta S = ones. Returns (xi, eta) as
    1-d arrays ordered like d.poles and d.zeros.
    """
    if d.c != 1:
        raise ValidationError(
            f"partial-fraction normal form needs c = 1, got c = {d.c}"
        )
    s = cauchy_matrix(d.poles, d.zeros)
    ones = np.ones(d.n, dtype=np.complex128)
    xi = solve(s, -ones)
    eta = solve(s.T, ones)
    return xi, eta


def scalar_joint_eval(d: ScalarZeroPole, x: complex, y: complex) -> complex:
    """Evaluate r(x) / r(y) through the coupling form, without products.

    Computes 1 + (x - y) * e (xI - A_P)^-1 S^-1 (yI - A_N)^-1 e*, where
    A_P, A_N are the diagonal matrices of poles and zeros, e is the
    all-ones row, and S the Cauchy matrix. Requires x clear of the poles
    and y clear of the zeros. At x = y the value is exactly 1.
    """
    if d.c != 1:
        raise ValidationError(f"joint form needs c = 1, got c = {d.c}")
    x, y = _point(x), _point(y)
    u = 1.0 / _gaps(x, np.asarray(d.poles))    # e (xI - A_P)^-1
    v = 1.0 / _gaps(y, np.asarray(d.zeros))    # (yI - A_N)^-1 e*
    s = cauchy_matrix(d.poles, d.zeros)
    w = solve(s, v)
    return complex(1.0 + (x - y) * (u @ w))
