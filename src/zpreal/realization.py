"""Coupling-matrix realizations of zero-pole data.

The additive forms in zero_pole.py need all four semiresidual matrices.
The deeper fact is that the data is over-determined: two Cauchy-like
n-by-n matrices built from opposite halves of the data,

    Hr[p, q] = G_P[p, :] . F_N[:, q] / (lambda_p - mu_q)
    Hl[p, q] = G_N[p, :] . F_P[:, q] / (mu_p - lambda_q)

are mutually inverse whenever the data is consistent, and their
inverses (the coupling matrices Sr = Hl, Sl = Hr, as closed forms) tie
the two halves together: each half can be recovered from the other
through Sr or Sl. This module computes those closed forms once (Hr and
Hl are the same arrays as Sl and Sr), cross-checks them against the
entrywise Sylvester solve, packages them with diagnostics into a
RealizationBundle, and evaluates the function, its inverse, their joint
products, and the hybrid rearrangements straight from the coupling
data.

All eight evaluators share one kernel, I + scale·F·diag(u)·[M·diag(v)]·G.
Each takes a point and returns a k×k array, or a 1-d array of M points
(M pairs for the two-point forms) and returns an M×k×k stack in one
vectorized pass. The half-products they need (Sr⁻¹G_N, F_P·Sr⁻¹,
Sl⁻¹G_P, F_N·Sl⁻¹) are cached on the bundle the first time an
evaluator asks for them, so building a bundle computes none of them.

Everything fails closed: data whose diagnostics exceed fail_tol
describes no function and is rejected at build time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .cauchy import EVAL_EPS
from .errors import (
    CollisionError,
    InconsistentDataError,
    PoleHitError,
    SingularMatrixError,
    SpectraOverlapError,
    ValidationError,
)
from .linalg import frobenius, identity, inverse
from .report import Report
from .zero_pole import (
    FAIL_TOL,
    REPORT_TOL,
    SEP_MIN,
    ZeroPoleData,
)

__all__ = [
    "RealizationBundle",
    "sylvester_diag_solve",
    "core_matrices",
    "coupling_matrices",
    "check_coupling_relations",
    "build_bundle",
    "eval_R",
    "eval_Rinv",
    "eval_R_left",
    "eval_Rinv_left",
    "eval_joint_right",
    "eval_joint_left",
    "eval_hybrid_right",
    "eval_hybrid_left",
]


def sylvester_diag_solve(a, b, c, sep_min: float = SEP_MIN) -> np.ndarray:
    """Unique X with diag(a) X - X diag(b) = c, entrywise.

    The equation decouples: x[p, q] = c[p, q] / (a_p - b_q). Uniqueness
    needs the spectra disjoint, which is enforced at sep_min.
    """
    a = np.atleast_1d(np.asarray(a, dtype=np.complex128))
    b = np.atleast_1d(np.asarray(b, dtype=np.complex128))
    c = np.asarray(c, dtype=np.complex128)
    if c.shape != (a.size, b.size):
        raise InconsistentDataError(
            f"right-hand side shape {c.shape} does not match "
            f"({a.size}, {b.size})"
        )
    gaps = a[:, None] - b[None, :]
    if gaps.size:
        worst = float(np.abs(gaps).min())
        if worst < sep_min:
            raise SpectraOverlapError(
                f"spectra approach within {worst:.3e} (need {sep_min:.1e}); "
                f"the solution is not unique there",
                min_separation=worst,
            )
    return c / gaps if gaps.size else c.copy()


def _gap_matrix(rows: np.ndarray, cols: np.ndarray, sep_min: float) -> np.ndarray:
    gaps = rows[:, None] - cols[None, :]
    if gaps.size:
        worst = float(np.abs(gaps).min())
        if worst < sep_min:
            raise CollisionError(
                f"pole/zero gap {worst:.3e} below {sep_min:.1e}",
                separation=worst,
            )
    return gaps


def core_matrices(d: ZeroPoleData):
    """The two Cauchy-like core matrices (Hr, Hl); mutually inverse for
    consistent data."""
    hr = d.G_P @ d.F_N
    hl = d.G_N @ d.F_P
    hr = hr / _gap_matrix(d.poles, d.zeros, SEP_MIN) if d.n else hr
    hl = hl / _gap_matrix(d.zeros, d.poles, SEP_MIN) if d.n else hl
    return hr, hl


def coupling_matrices(d: ZeroPoleData):
    """Closed-form coupling matrices (Sr, Sl).

    Sr couples the zero rows to the pole columns, Sl the reverse; as
    closed forms they coincide with Hl and Hr respectively, and they
    solve the two diagonal Sylvester equations

        diag(mu) Sr - Sr diag(lambda) = G_N F_P
        diag(lambda) Sl - Sl diag(mu) = G_P F_N

    which build_bundle re-derives through sylvester_diag_solve as an
    independent code path.
    """
    sr = d.G_N @ d.F_P
    sl = d.G_P @ d.F_N
    sr = sr / _gap_matrix(d.zeros, d.poles, SEP_MIN) if d.n else sr
    sl = sl / _gap_matrix(d.poles, d.zeros, SEP_MIN) if d.n else sl
    return sr, sl


@dataclass(frozen=True, eq=False)
class RealizationBundle:
    """Zero-pole data plus everything derived from it.

    diagnostics maps residual names to values; all of them passed
    fail_tol at build time. Sr_inv and Sl_inv come from linalg.inverse,
    never from the closed forms of Hr/Hl, so mutual inverseness stays an
    executable check instead of a tautology.
    """

    data: ZeroPoleData
    Hr: np.ndarray
    Hl: np.ndarray
    Sr: np.ndarray
    Sl: np.ndarray
    Sr_inv: np.ndarray
    Sl_inv: np.ndarray
    cond_Sr: float
    diagnostics: dict = field(default_factory=dict)

    @property
    def k(self) -> int:
        return self.data.k

    @property
    def n(self) -> int:
        return self.data.n

    # The half-products the evaluators share, computed on first use so
    # that a bundle nobody evaluates pays nothing for them.

    @cached_property
    def Sr_inv_G_N(self) -> np.ndarray:
        return self.Sr_inv @ self.data.G_N

    @cached_property
    def F_P_Sr_inv(self) -> np.ndarray:
        return self.data.F_P @ self.Sr_inv

    @cached_property
    def Sl_inv_G_P(self) -> np.ndarray:
        return self.Sl_inv @ self.data.G_P

    @cached_property
    def F_N_Sl_inv(self) -> np.ndarray:
        return self.data.F_N @ self.Sl_inv


def build_bundle(d: ZeroPoleData, fail_tol: float = FAIL_TOL) -> RealizationBundle:
    """Compute all realization matrices and fail closed on bad data.

    Consistent data makes every diagnostic vanish to rounding; any
    diagnostic above fail_tol means the four semiresidual matrices do
    not describe a function and its inverse, and the build refuses.
    """
    return _build_bundle(d, fail_tol)


def _build_bundle(d: ZeroPoleData, fail_tol: float = FAIL_TOL,
                  known=None) -> RealizationBundle:
    """build_bundle, reusing a caller's inversion.

    known is None or a pair (S, S⁻¹) the caller has already computed;
    S⁻¹ serves as the inverse of each coupling matrix that equals S
    bitwise, and every other inverse is computed here.
    """
    sr, sl = coupling_matrices(d)
    # the core matrices share the closed forms of the coupling matrices
    hr, hl = sl, sr

    gnfp = d.G_N @ d.F_P
    gpfn = d.G_P @ d.F_N

    # independent route: solve the two Sylvester equations entrywise
    sr_solved = sylvester_diag_solve(d.zeros, d.poles, gnfp)
    sl_solved = sylvester_diag_solve(d.poles, d.zeros, gpfn)

    eye = identity(d.n)
    diagnostics = {
        "sylvester_r": frobenius(
            d.zeros[:, None] * sr - sr * d.poles[None, :] - gnfp),
        "sylvester_l": frobenius(
            d.poles[:, None] * sl - sl * d.zeros[None, :] - gpfn),
        "closed_vs_solved": max(
            frobenius(sr - sr_solved), frobenius(sl - sl_solved)
        ),
        # Hr·Hl and Hl·Hr are these same two products
        "mutual_inverse": max(
            frobenius(sr @ sl - eye),
            frobenius(sl @ sr - eye),
        ),
        "coupling_a": frobenius(d.G_N + sr @ d.G_P),
        "coupling_b": frobenius(d.G_P + sl @ d.G_N),
        "coupling_c": frobenius(d.F_P - d.F_N @ sr),
        "coupling_d": frobenius(d.F_N - d.F_P @ sl),
    }
    if diagnostics["closed_vs_solved"] > 1e-12:
        # same formula through two code paths; only NaN poisoning or a
        # real bug can separate them
        raise InconsistentDataError(
            "closed-form and Sylvester-solved coupling matrices disagree",
            diagnostics=diagnostics,
        )
    bad = {k: v for k, v in diagnostics.items() if v > fail_tol}
    if bad:
        worst = max(bad, key=bad.get)
        raise InconsistentDataError(
            f"data is not self-consistent: {worst} residual "
            f"{bad[worst]:.3e} > {fail_tol:.1e}",
            diagnostics=diagnostics,
        )

    def invert(s: np.ndarray) -> np.ndarray:
        if known is not None and np.array_equal(s, known[0]):
            return known[1]
        return inverse(s)

    try:
        sr_inv = invert(sr)
        sl_inv = invert(sl)
    except SingularMatrixError as exc:
        raise InconsistentDataError(
            f"coupling matrix not invertible ({exc})", diagnostics=diagnostics
        ) from exc
    cond_sr = frobenius(sr) * frobenius(sr_inv) if d.n else 1.0

    return RealizationBundle(
        data=d, Hr=hr, Hl=hl, Sr=sr, Sl=sl,
        Sr_inv=sr_inv, Sl_inv=sl_inv,
        cond_Sr=cond_sr, diagnostics=diagnostics,
    )


def check_coupling_relations(b: RealizationBundle,
                             tol: float = REPORT_TOL) -> Report:
    """The four recovery relations tying the two halves of the data."""
    d = b.data
    rep = Report()
    rep.add("coupling_a", frobenius(d.G_N + b.Sr @ d.G_P), tol)
    rep.add("coupling_b", frobenius(d.G_P + b.Sl @ d.G_N), tol)
    rep.add("coupling_c", frobenius(d.F_P - d.F_N @ b.Sr), tol)
    rep.add("coupling_d", frobenius(d.F_N - d.F_P @ b.Sl), tol)
    return rep


# ---------------------------------------------------------------------------
# evaluation through the coupling matrices
#
# Four one-point formulas and four two-point formulas. The one-point
# forms need only half the semiresidual data plus a coupling matrix;
# cross-checking them against each other and against the additive forms
# is the executable content of the whole construction.


def _weights(z, points: np.ndarray) -> np.ndarray:
    """1/(z - points) after the clearance check, for one point or a
    1-d array of points (one row of weights per point).

    A point within EVAL_EPS of one of `points` raises PoleHitError
    naming its nearest singularity; in a batch the first such point in
    array order is named.
    """
    if isinstance(z, complex) or np.ndim(z) == 0:
        gaps = z - points
        if points.size:
            dist = np.abs(gaps)
            j = int(np.argmin(dist))
            if dist[j] < EVAL_EPS:
                raise PoleHitError(z, complex(points[j]), float(dist[j]))
        return 1.0 / gaps
    z = np.asarray(z, dtype=np.complex128)
    if z.ndim != 1:
        raise ValidationError(
            f"evaluation points must be a scalar or a 1-d array, "
            f"got shape {z.shape}")
    gaps = z[:, None] - points[None, :]
    if points.size:
        dist = np.abs(gaps)
        hit = dist.min(axis=1) < EVAL_EPS
        if hit.any():
            i = int(np.argmax(hit))
            j = int(np.argmin(dist[i]))
            raise PoleHitError(complex(z[i]), complex(points[j]),
                               float(dist[i, j]))
    return 1.0 / gaps


def _form(k: int, scale, left: np.ndarray, u: np.ndarray,
          right: np.ndarray, mid=None, v=None) -> np.ndarray:
    """I + scale·(left·diag(u))·[mid·diag(v)]·right.

    u and v are weight vectors, or stacks of them with a leading axis of
    M points, in which case scale is a scalar or has length M and the
    result is M×k×k. The products associate as left·(mid·right), the
    order every evaluator formula below is written in.
    """
    if mid is not None:
        right = (mid * v[..., None, :]) @ right
    prod = (left * u[..., None, :]) @ right
    if isinstance(scale, np.ndarray):
        scale = scale[:, None, None]
    return identity(k) + scale * prod


def eval_R(b: RealizationBundle, z) -> np.ndarray:
    """R(z) = I - F_P (zI - A_P)^-1 Sr^-1 G_N."""
    d = b.data
    return _form(d.k, -1.0, d.F_P, _weights(z, d.poles), b.Sr_inv_G_N)


def eval_Rinv(b: RealizationBundle, z) -> np.ndarray:
    """R^-1(z) = I + F_P Sr^-1 (zI - A_N)^-1 G_N."""
    d = b.data
    return _form(d.k, 1.0, b.F_P_Sr_inv, _weights(z, d.zeros), d.G_N)


def eval_R_left(b: RealizationBundle, z) -> np.ndarray:
    """R(z) = I + F_N Sl^-1 (zI - A_P)^-1 G_P (left-data form)."""
    d = b.data
    return _form(d.k, 1.0, b.F_N_Sl_inv, _weights(z, d.poles), d.G_P)


def eval_Rinv_left(b: RealizationBundle, z) -> np.ndarray:
    """R^-1(z) = I - F_N (zI - A_N)^-1 Sl^-1 G_P (left-data form)."""
    d = b.data
    return _form(d.k, -1.0, d.F_N, _weights(z, d.zeros), b.Sl_inv_G_P)


def eval_joint_right(b: RealizationBundle, x, y) -> np.ndarray:
    """R(x) R^-1(y) = I + (x-y) F_P (xI-A_P)^-1 Sr^-1 (yI-A_N)^-1 G_N."""
    d = b.data
    return _form(d.k, x - y, d.F_P, _weights(x, d.poles), d.G_N,
                 b.Sr_inv, _weights(y, d.zeros))


def eval_joint_left(b: RealizationBundle, x, y) -> np.ndarray:
    """R^-1(x) R(y) = I + (x-y) F_N (xI-A_N)^-1 Sl^-1 (yI-A_P)^-1 G_P."""
    d = b.data
    return _form(d.k, x - y, d.F_N, _weights(x, d.zeros), d.G_P,
                 b.Sl_inv, _weights(y, d.poles))


def eval_hybrid_right(b: RealizationBundle, x, y) -> np.ndarray:
    """R(x) R^-1(y) again, but routed through the left coupling matrix:

        I - (x-y) F_N Sl^-1 (xI-A_P)^-1 Sl (yI-A_N)^-1 Sl^-1 G_P
    """
    d = b.data
    return _form(d.k, y - x, b.F_N_Sl_inv, _weights(x, d.poles),
                 b.Sl_inv_G_P, b.Sl, _weights(y, d.zeros))


def eval_hybrid_left(b: RealizationBundle, x, y) -> np.ndarray:
    """R^-1(x) R(y) routed through the right coupling matrix:

        I - (x-y) F_P Sr^-1 (xI-A_N)^-1 Sr (yI-A_P)^-1 Sr^-1 G_N
    """
    d = b.data
    return _form(d.k, y - x, b.F_P_Sr_inv, _weights(x, d.zeros),
                 b.Sr_inv_G_N, b.Sr, _weights(y, d.poles))
