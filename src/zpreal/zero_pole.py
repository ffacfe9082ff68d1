"""Zero-pole data for rational k-by-k matrix functions.

A function R in general position (simple poles, simple zeros, rank-one
residues, R(infinity) = I, pole set disjoint from zero set, and the
same number n of each) is pinned down by four semiresidual matrices:
columns f over the poles and zeros on the left, rows g on the right,
with the residue of R at pole lambda_j equal to the rank-one product
F_P[:, j] * G_P[j, :] and the residue of R^-1 at zero mu_j equal to
F_N[:, j] * G_N[j, :]. This module stores and validates that data,
applies diagonal gauge rescalings, evaluates R and R^-1 from their
partial-fraction (additive) forms, and runs the consistency checks that
expose data whose pole side and zero side do not describe mutually
inverse functions.

The additive forms take one point or a 1-d array of points; for an array
they return a stack of k×k values, each with the bits of the one-point
value. check_consistency and log_derivative_residues evaluate them that
way, one stacked call per family of points.

ZeroPoleData(...) validates everything it is given. Its one private
constructor, ZeroPoleData._completed, serves one caller,
synthesis._synthesize: there the points and the free half are already
validated, so it checks only the derived half the synthesis computed,
with the same refusals and messages.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cauchy import _gaps, _min_pairwise_distance
from .errors import (
    CollisionError,
    NotRankOneError,
    ValidationError,
    ZeroGaugeEntryError,
)
from .linalg import (
    _complex_array,
    _shared_identity,
    as_complex_matrix,
    frobenius,
    max_frobenius,
    rank,
)
from .report import Report

SEP_MIN = 1e-6       # minimum separation among all poles and zeros
FAIL_TOL = 1e-6      # fail-closed threshold for consistency diagnostics
REPORT_TOL = 1e-8    # default reporting tolerance

__all__ = [
    "SEP_MIN",
    "FAIL_TOL",
    "REPORT_TOL",
    "ZeroPoleData",
    "GaugePair",
    "factor_rank_one",
    "gauge_transform",
    "additive_eval_R",
    "additive_eval_Rinv",
    "additive_deriv_R",
    "additive_deriv_Rinv",
    "pole_residue",
    "zero_residue",
    "sample_points",
    "check_consistency",
    "log_derivative_residues",
]


def _as_point_vector(values, what: str) -> np.ndarray:
    pts = np.atleast_1d(_complex_array(values, what))
    if pts.ndim != 1:
        raise ValidationError(f"{what} must be a flat list of points")
    if pts.size and not np.isfinite(pts).all():
        raise ValidationError(f"{what} contains non-finite points")
    return pts


def _check_columns(name: str, m: np.ndarray) -> None:
    """Refuse a finite k×n matrix with an all-zero column."""
    nonzero = m.any(axis=0)
    if not nonzero.all():
        raise ValidationError(
            f"column {int(np.argmin(nonzero))} of {name} is zero")


def _check_rows(name: str, m: np.ndarray) -> None:
    """Refuse a finite n×k matrix with an all-zero row."""
    nonzero = m.any(axis=1)
    if not nonzero.all():
        raise ValidationError(
            f"row {int(np.argmin(nonzero))} of {name} is zero")


@dataclass(frozen=True, eq=False)
class ZeroPoleData:
    """Validated zero-pole data. Treat instances as immutable.

    poles, zeros : (n,) complex arrays, pairwise separated by SEP_MIN
    F_P, F_N     : (k, n) left semiresiduals (columns, no zero column)
    G_P, G_N     : (n, k) right semiresiduals (rows, no zero row)

    n = 0 is legal and describes the identity function; it shows up as
    the trivial factor of one-sided factorizations.
    """

    poles: np.ndarray
    zeros: np.ndarray
    F_P: np.ndarray
    G_P: np.ndarray
    F_N: np.ndarray
    G_N: np.ndarray

    def __post_init__(self):
        poles = _as_point_vector(self.poles, "poles")
        zeros = _as_point_vector(self.zeros, "zeros")
        F_P = as_complex_matrix(self.F_P)
        G_P = as_complex_matrix(self.G_P)
        F_N = as_complex_matrix(self.F_N)
        G_N = as_complex_matrix(self.G_N)
        n = poles.size
        if zeros.size != n:
            raise ValidationError(f"{n} poles vs {zeros.size} zeros")
        k = F_P.shape[0]
        if k < 1:
            raise ValidationError("matrix dimension k must be at least 1")
        for name, m, shape in (
            ("F_P", F_P, (k, n)),
            ("G_P", G_P, (n, k)),
            ("F_N", F_N, (k, n)),
            ("G_N", G_N, (n, k)),
        ):
            if m.shape != shape:
                raise ValidationError(
                    f"{name} has shape {m.shape}, expected {shape}"
                )
        _check_columns("F_P", F_P)
        _check_columns("F_N", F_N)
        _check_rows("G_P", G_P)
        _check_rows("G_N", G_N)
        worst = _min_pairwise_distance(np.concatenate([poles, zeros]))
        if worst < SEP_MIN:
            raise CollisionError(
                f"poles/zeros are only {worst:.3e} apart "
                f"(need {SEP_MIN:.1e})",
                separation=worst,
            )
        self._store(poles, zeros, F_P, G_P, F_N, G_N)

    def _store(self, *values) -> None:
        """Set the six fields, in declaration order, on a frozen instance."""
        for field_name, value in zip(self.__dataclass_fields__, values):
            object.__setattr__(self, field_name, value)

    @classmethod
    def _completed(cls, poles, zeros, free, derived,
                   hybrid: bool) -> "ZeroPoleData":
        """The data a synthesis completes, validated only where it is new.

        free is the synthesis's own (F, G) and derived its (F·S⁻¹,
        −S⁻¹·G): (F_P, G_N) and (F_N, G_P) on the right route,
        (F_N, G_P) and (F_P, G_N) on the hybrid one. The points and the
        free half must already satisfy what SynthesisInput checks, so
        only the derived half is checked, as __post_init__ checks it and
        with its messages: finite, no zero column in F·S⁻¹, no zero row
        in −S⁻¹·G. The arrays are stored as given, complex128 already.
        """
        derived_f, derived_g = derived
        if not (np.isfinite(derived_f).all() and np.isfinite(derived_g).all()):
            raise ValidationError("matrix contains non-finite entries")
        f_name, g_name = ("F_P", "G_N") if hybrid else ("F_N", "G_P")
        _check_columns(f_name, derived_f)
        _check_rows(g_name, derived_g)
        if hybrid:
            (F_N, G_P), (F_P, G_N) = free, derived
        else:
            (F_P, G_N), (F_N, G_P) = free, derived
        d = object.__new__(cls)
        d._store(poles, zeros, F_P, G_P, F_N, G_N)
        return d

    @classmethod
    def empty(cls, k: int) -> "ZeroPoleData":
        """The n = 0 data of size k: the identity function."""
        z0 = np.zeros(0, dtype=np.complex128)
        return cls(poles=z0, zeros=z0,
                   F_P=np.zeros((k, 0), dtype=np.complex128),
                   G_P=np.zeros((0, k), dtype=np.complex128),
                   F_N=np.zeros((k, 0), dtype=np.complex128),
                   G_N=np.zeros((0, k), dtype=np.complex128))

    @property
    def k(self) -> int:
        return self.F_P.shape[0]

    @property
    def n(self) -> int:
        return self.poles.size


@dataclass(frozen=True)
class GaugePair:
    """Diagonal rescalings applied to the pole and zero semiresiduals."""

    D_P: np.ndarray
    D_N: np.ndarray

    def __post_init__(self):
        dp = _as_point_vector(self.D_P, "D_P")
        dn = _as_point_vector(self.D_N, "D_N")
        if (np.abs(dp) == 0.0).any() or (np.abs(dn) == 0.0).any():
            raise ZeroGaugeEntryError("gauge entries must all be nonzero")
        object.__setattr__(self, "D_P", dp)
        object.__setattr__(self, "D_N", dn)


def factor_rank_one(m):
    """Split a rank-one matrix into a column f and a row g with f g = m.

    The gauge freedom (f d, d^-1 g) is fixed deterministically: f is the
    largest-norm column of m rescaled so its largest-magnitude entry is
    exactly 1, and g is then the corresponding row of m, which makes the
    reconstruction exact for exactly-rank-one input.
    """
    m = as_complex_matrix(m)
    r = rank(m)
    if r != 1:
        raise NotRankOneError(
            f"matrix has numerical rank {r}, expected 1", detected_rank=r
        )
    col_norms = np.sqrt((np.abs(m) ** 2).sum(axis=0))
    j = int(np.argmax(col_norms))
    col = m[:, j]
    i = int(np.argmax(np.abs(col)))
    f = col / col[i]
    g = m[i, :].copy()
    residual = frobenius(np.outer(f, g) - m)
    if residual > 1e-10 * frobenius(m):
        raise NotRankOneError(
            f"rank-one reconstruction off by {residual:.3e} "
            f"(> 1e-10 * norm); input is not cleanly rank one",
            detected_rank=r,
        )
    return f, g


def gauge_transform(d: ZeroPoleData, g: GaugePair) -> ZeroPoleData:
    """Rescale semiresiduals columnwise/rowwise; all residues invariant."""
    if g.D_P.size != d.n or g.D_N.size != d.n:
        raise ValidationError(
            f"gauge length {g.D_P.size}/{g.D_N.size} does not match n={d.n}"
        )
    return ZeroPoleData(
        poles=d.poles,
        zeros=d.zeros,
        F_P=d.F_P * g.D_P[None, :],
        G_P=d.G_P / g.D_P[:, None],
        F_N=d.F_N * g.D_N[None, :],
        G_N=d.G_N / g.D_N[:, None],
    )


def _scaled(f: np.ndarray, w: np.ndarray) -> np.ndarray:
    """f·diag(w), or the stack of them over the rows of a 2-d w.

    For a stack, f gets a leading axis first: numpy picks its complex
    multiply loop from the operand layout, and a 2-d f against a 3-d
    stack can take a loop that differs in the last bit (at k = n = 1
    with a stack of one point). As a 1×k×n view, f gives every slice
    the bits of the one-point product f * w[None, :]; np.broadcast_to
    gives the same bits at a few µs more per call.
    """
    if w.ndim > 1:
        f = f[None]
    return f * w[..., None, :]


def additive_eval_R(d: ZeroPoleData, z) -> np.ndarray:
    """R(z) = I + sum_j F_P[:, j] G_P[j, :] / (z - lambda_j)."""
    w = 1.0 / _gaps(z, d.poles)
    return _shared_identity(d.k) + _scaled(d.F_P, w) @ d.G_P


def additive_eval_Rinv(d: ZeroPoleData, z) -> np.ndarray:
    """R^-1(z) = I + sum_j F_N[:, j] G_N[j, :] / (z - mu_j)."""
    w = 1.0 / _gaps(z, d.zeros)
    return _shared_identity(d.k) + _scaled(d.F_N, w) @ d.G_N


def additive_deriv_R(d: ZeroPoleData, z) -> np.ndarray:
    """Exact derivative of the additive form of R; no finite differences."""
    w2 = 1.0 / _gaps(z, d.poles) ** 2
    return -_scaled(d.F_P, w2) @ d.G_P


def additive_deriv_Rinv(d: ZeroPoleData, z) -> np.ndarray:
    w2 = 1.0 / _gaps(z, d.zeros) ** 2
    return -_scaled(d.F_N, w2) @ d.G_N


def pole_residue(d: ZeroPoleData, j: int) -> np.ndarray:
    """Residue of R at pole j: the rank-one matrix F_P[:, j] G_P[j, :]."""
    return np.outer(d.F_P[:, j], d.G_P[j, :])


def zero_residue(d: ZeroPoleData, j: int) -> np.ndarray:
    """Residue of R^-1 at zero j."""
    return np.outer(d.F_N[:, j], d.G_N[j, :])


def sample_points(d: ZeroPoleData, count: int = 8) -> list:
    """Deterministic evaluation points clear of every pole and zero.

    A ring around the centroid of the singular points, at 1.5 times
    (1 + max spread), keeps at least distance 1.5 from all of them, so
    no point needs testing or moving.
    """
    allpts = np.concatenate([d.poles, d.zeros])
    center = complex(allpts.mean()) if allpts.size else 0j
    spread = float(np.abs(allpts - center).max()) if allpts.size else 0.0
    rho = 1.5 * (1.0 + spread)
    return [center + rho * np.exp(1j * (2.0 * np.pi * j / count))
            for j in range(count)]


def _residues(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The n rank-one residues f[:, j] g[j, :] as an n×k×k stack."""
    return f.T[:, :, None] * g[:, None, :]


def check_consistency(d: ZeroPoleData, tol: float = REPORT_TOL) -> Report:
    """Do the pole side and the zero side describe inverse functions?

    Four families of residuals, all of which vanish exactly for
    consistent data:

      (a) R(z) R^-1(z) - I and R^-1(z) R(z) - I at sample points;
      (b) R^-1(lambda) annihilates the residue of R at lambda from both
          sides, and symmetrically at the zeros;
      (c) R_lambda (R^-1)'(lambda) R_lambda = R_lambda at every pole;
      (d) R_mu R'(mu) R_mu = R_mu at every zero.

    Each family is evaluated as one stack over its points. A residual
    that overflows to NaN is reported as NaN, which fails its check;
    numpy's overflow warnings are silenced here.
    Diagnostic only: for any real tol, NaN included, it returns a report
    and raises nothing. A tol that float() cannot convert, such as a
    word or a complex number, is refused with ValidationError.
    """
    rep = Report()
    eye = _shared_identity(d.k)
    with np.errstate(over="ignore", invalid="ignore"):
        zs = np.array(sample_points(d))
        r = additive_eval_R(d, zs)
        ri = additive_eval_Rinv(d, zs)
        rep.add("mutual_inverse_at_samples",
                max_frobenius(r @ ri - eye, ri @ r - eye), tol)

        # (b) and (c) at the poles, then (b) and (d) at the zeros
        for kind, points, f, g, other, other_deriv in (
            ("pole", d.poles, d.F_P, d.G_P,
             additive_eval_Rinv, additive_deriv_Rinv),
            ("zero", d.zeros, d.F_N, d.G_N,
             additive_eval_R, additive_deriv_R),
        ):
            res = _residues(f, g)
            v0 = other(d, points)
            v1 = other_deriv(d, points)
            rep.add(f"annihilation_at_{kind}s",
                    max_frobenius(v0 @ res, res @ v0), tol)
            rep.add(f"{kind}_residue_identity",
                    max_frobenius(res @ v1 @ res - res), tol)
    return rep


def log_derivative_residues(d: ZeroPoleData):
    """Residues of the logarithmic derivative R'(z) R^-1(z).

    At a pole the residue is P_lambda = -R_lambda * (R^-1)'(lambda); at
    a zero it is P_mu = R'(mu) * R_mu. For consistent data P_lambda is
    a negated idempotent with trace -1, P_mu an idempotent with trace
    +1, and all of them sum to zero, which is the numerical witness of
    the pole/zero count balance.
    """
    p_poles = -_residues(d.F_P, d.G_P) @ additive_deriv_Rinv(d, d.poles)
    p_zeros = additive_deriv_R(d, d.zeros) @ _residues(d.F_N, d.G_N)
    return list(p_poles), list(p_zeros)
