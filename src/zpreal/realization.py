"""Coupling-matrix realizations of zero-pole data.

The additive forms in zero_pole.py need all four semiresidual matrices.
The deeper fact is that the data is over-determined: two Cauchy-like
n-by-n matrices built from opposite halves of the data,

    Hr[p, q] = G_P[p, :] . F_N[:, q] / (lambda_p - mu_q)
    Hl[p, q] = G_N[p, :] . F_P[:, q] / (mu_p - lambda_q)

are mutually inverse whenever the data is consistent, and their
inverses (the coupling matrices Sr = Hl, Sl = Hr) tie the two halves
together: each half can be recovered from the other through Sr or Sl.
Sr and Sl are the entrywise solutions of two diagonal Sylvester
equations, which sylvester_diag_solve computes; this module computes
each of them once (a bundle's Hr and Hl are aliases of its Sl and Sr),
checks the Sylvester, mutual-inverse and coupling residuals, packages
the result into a RealizationBundle, and evaluates the function, its
inverse, their joint products, and the hybrid rearrangements straight
from the coupling data.

All eight evaluators share one kernel, I + scale·F·diag(u)·[M·diag(v)]·G,
with weights u = 1/(z - points) from cauchy._gaps, the package's one
clearance check. Each takes a point and returns a k×k array, or a 1-d
array of M points (M pairs for the two-point forms) and returns an
M×k×k stack in one vectorized pass. The half-products they need (Sr⁻¹G_N, F_P·Sr⁻¹,
Sl⁻¹G_P, F_N·Sl⁻¹) are cached on the bundle the first time an
evaluator asks for them, so building a bundle computes none of them.

Everything fails closed: data whose diagnostics exceed FAIL_TOL
describes no function and is rejected at build time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .cauchy import _gaps
from .errors import (
    InconsistentDataError,
    SingularMatrixError,
    SpectraOverlapError,
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


def sylvester_diag_solve(a, b, c) -> np.ndarray:
    """Unique X with diag(a) X - X diag(b) = c, entrywise.

    The equation decouples: x[p, q] = c[p, q] / (a_p - b_q). Uniqueness
    needs the spectra disjoint, which is enforced at SEP_MIN. The check
    is its own code because it reads the gap matrix c is divided by.
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
        if worst < SEP_MIN:
            raise SpectraOverlapError(
                f"spectra approach within {worst:.3e} (need {SEP_MIN:.1e}); "
                f"the solution is not unique there",
                min_separation=worst,
            )
    return c / gaps if gaps.size else c.copy()


def coupling_matrices(d: ZeroPoleData):
    """Coupling matrices (Sr, Sl), the solutions of

        diag(mu) Sr - Sr diag(lambda) = G_N F_P
        diag(lambda) Sl - Sl diag(mu) = G_P F_N

    Sr couples the zero rows to the pole columns, Sl the reverse.
    """
    sr = sylvester_diag_solve(d.zeros, d.poles, d.G_N @ d.F_P)
    sl = sylvester_diag_solve(d.poles, d.zeros, d.G_P @ d.F_N)
    return sr, sl


def core_matrices(d: ZeroPoleData):
    """The two Cauchy-like core matrices (Hr, Hl) = (Sl, Sr); mutually
    inverse for consistent data."""
    sr, sl = coupling_matrices(d)
    return sl, sr


@dataclass(frozen=True, eq=False)
class RealizationBundle:
    """Zero-pole data plus everything derived from it.

    diagnostics maps residual names to values; all of them passed
    FAIL_TOL at build time. Sr_inv and Sl_inv come from linalg.inverse,
    never from Sl and Sr, so mutual inverseness stays an executable
    check instead of a tautology. Hr and Hl are read-only aliases of Sl
    and Sr.
    """

    data: ZeroPoleData
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

    @property
    def Hr(self) -> np.ndarray:
        return self.Sl

    @property
    def Hl(self) -> np.ndarray:
        return self.Sr

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


def build_bundle(d: ZeroPoleData) -> RealizationBundle:
    """Compute all realization matrices and fail closed on bad data.

    Consistent data makes every diagnostic vanish to rounding; any
    diagnostic above FAIL_TOL means the four semiresidual matrices do
    not describe a function and its inverse, and the build refuses.
    """
    return _build_bundle(d)


def _build_bundle(d: ZeroPoleData, known=None) -> RealizationBundle:
    """build_bundle, reusing a caller's inversion.

    known is None or a pair (S, S⁻¹) the caller has already computed;
    S⁻¹ serves as the inverse of each coupling matrix that equals S
    bitwise, and every other inverse is computed here.
    """
    # overflowing data gives inf and NaN here without a warning: a NaN
    # diagnostic fails the gate below like a large one
    with np.errstate(over="ignore", invalid="ignore"):
        sr, sl = coupling_matrices(d)
        gnfp = d.G_N @ d.F_P
        gpfn = d.G_P @ d.F_N
        eye = identity(d.n)
        diagnostics = {
            "sylvester_r": frobenius(
                d.zeros[:, None] * sr - sr * d.poles[None, :] - gnfp),
            "sylvester_l": frobenius(
                d.poles[:, None] * sl - sl * d.zeros[None, :] - gpfn),
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
    bad = {k: v for k, v in diagnostics.items() if not v <= FAIL_TOL}
    if bad:
        worst = max(bad, key=bad.get)
        raise InconsistentDataError(
            f"data is not self-consistent: {worst} residual "
            f"{bad[worst]:.3e} > {FAIL_TOL:.1e}",
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
        data=d, Sr=sr, Sl=sl,
        Sr_inv=sr_inv, Sl_inv=sl_inv,
        cond_Sr=cond_sr, diagnostics=diagnostics,
    )


def check_coupling_relations(b: RealizationBundle,
                             tol: float = REPORT_TOL) -> Report:
    """The four recovery relations tying the two halves of the data, as
    the build computed them."""
    rep = Report()
    for name in ("coupling_a", "coupling_b", "coupling_c", "coupling_d"):
        rep.add(name, b.diagnostics[name], tol)
    return rep


# ---------------------------------------------------------------------------
# evaluation through the coupling matrices
#
# Four one-point formulas and four two-point formulas. The one-point
# forms need only half the semiresidual data plus a coupling matrix;
# cross-checking them against each other and against the additive forms
# is the executable content of the whole construction.


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
    return _form(d.k, -1.0, d.F_P, 1.0 / _gaps(z, d.poles), b.Sr_inv_G_N)


def eval_Rinv(b: RealizationBundle, z) -> np.ndarray:
    """R^-1(z) = I + F_P Sr^-1 (zI - A_N)^-1 G_N."""
    d = b.data
    return _form(d.k, 1.0, b.F_P_Sr_inv, 1.0 / _gaps(z, d.zeros), d.G_N)


def eval_R_left(b: RealizationBundle, z) -> np.ndarray:
    """R(z) = I + F_N Sl^-1 (zI - A_P)^-1 G_P (left-data form)."""
    d = b.data
    return _form(d.k, 1.0, b.F_N_Sl_inv, 1.0 / _gaps(z, d.poles), d.G_P)


def eval_Rinv_left(b: RealizationBundle, z) -> np.ndarray:
    """R^-1(z) = I - F_N (zI - A_N)^-1 Sl^-1 G_P (left-data form)."""
    d = b.data
    return _form(d.k, -1.0, d.F_N, 1.0 / _gaps(z, d.zeros), b.Sl_inv_G_P)


def eval_joint_right(b: RealizationBundle, x, y) -> np.ndarray:
    """R(x) R^-1(y) = I + (x-y) F_P (xI-A_P)^-1 Sr^-1 (yI-A_N)^-1 G_N."""
    d = b.data
    return _form(d.k, x - y, d.F_P, 1.0 / _gaps(x, d.poles), d.G_N,
                 b.Sr_inv, 1.0 / _gaps(y, d.zeros))


def eval_joint_left(b: RealizationBundle, x, y) -> np.ndarray:
    """R^-1(x) R(y) = I + (x-y) F_N (xI-A_N)^-1 Sl^-1 (yI-A_P)^-1 G_P."""
    d = b.data
    return _form(d.k, x - y, d.F_N, 1.0 / _gaps(x, d.zeros), d.G_P,
                 b.Sl_inv, 1.0 / _gaps(y, d.poles))


def eval_hybrid_right(b: RealizationBundle, x, y) -> np.ndarray:
    """R(x) R^-1(y) again, but routed through the left coupling matrix:

        I - (x-y) F_N Sl^-1 (xI-A_P)^-1 Sl (yI-A_N)^-1 Sl^-1 G_P
    """
    d = b.data
    return _form(d.k, y - x, b.F_N_Sl_inv, 1.0 / _gaps(x, d.poles),
                 b.Sl_inv_G_P, b.Sl, 1.0 / _gaps(y, d.zeros))


def eval_hybrid_left(b: RealizationBundle, x, y) -> np.ndarray:
    """R^-1(x) R(y) routed through the right coupling matrix:

        I - (x-y) F_P Sr^-1 (xI-A_N)^-1 Sr (yI-A_P)^-1 Sr^-1 G_N
    """
    d = b.data
    return _form(d.k, y - x, b.F_P_Sr_inv, 1.0 / _gaps(x, d.zeros),
                 b.Sr_inv_G_N, b.Sr, 1.0 / _gaps(y, d.poles))
