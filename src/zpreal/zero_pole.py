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
way, one stacked call per family of points, and sample_points tests its
ring against the singularities with one distance matrix.
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
    as_complex_matrix,
    frobenius,
    identity,
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
    pts = np.atleast_1d(np.asarray(values, dtype=np.complex128))
    if pts.ndim != 1:
        raise ValidationError(f"{what} must be a flat list of points")
    if pts.size and not np.isfinite(pts).all():
        raise ValidationError(f"{what} contains non-finite points")
    return pts


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
        for name, m in (("F_P", F_P), ("F_N", F_N)):
            norms = np.abs(m).max(axis=0) if n else np.empty(0)
            if n and (norms == 0.0).any():
                j = int(np.argmin(norms))
                raise ValidationError(f"column {j} of {name} is zero")
        for name, m in (("G_P", G_P), ("G_N", G_N)):
            norms = np.abs(m).max(axis=1) if n else np.empty(0)
            if n and (norms == 0.0).any():
                j = int(np.argmin(norms))
                raise ValidationError(f"row {j} of {name} is zero")
        worst = _min_pairwise_distance(np.concatenate([poles, zeros]))
        if worst < SEP_MIN:
            raise CollisionError(
                f"poles/zeros are only {worst:.3e} apart "
                f"(need {SEP_MIN:.1e})",
                separation=worst,
            )
        for field_name, value in (
            ("poles", poles), ("zeros", zeros), ("F_P", F_P),
            ("G_P", G_P), ("F_N", F_N), ("G_N", G_N),
        ):
            object.__setattr__(self, field_name, value)

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

    f is broadcast to the stack's shape first: numpy picks its complex
    multiply loop from the operand layout, and the loops can differ in
    the last bit (at k = n = 1 with one point, say). With this layout
    every slice has the bits of the one-point product f * w[None, :].
    """
    return np.broadcast_to(f, w.shape[:-1] + f.shape) * w[..., None, :]


def additive_eval_R(d: ZeroPoleData, z) -> np.ndarray:
    """R(z) = I + sum_j F_P[:, j] G_P[j, :] / (z - lambda_j)."""
    w = 1.0 / _gaps(z, d.poles)
    return identity(d.k) + _scaled(d.F_P, w) @ d.G_P


def additive_eval_Rinv(d: ZeroPoleData, z) -> np.ndarray:
    """R^-1(z) = I + sum_j F_N[:, j] G_N[j, :] / (z - mu_j)."""
    w = 1.0 / _gaps(z, d.zeros)
    return identity(d.k) + _scaled(d.F_N, w) @ d.G_N


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
    no rejection is normally needed; a small rotation loop guards the
    degenerate cases anyway.
    """
    allpts = np.concatenate([d.poles, d.zeros])
    center = complex(allpts.mean()) if allpts.size else 0j
    spread = float(np.abs(allpts - center).max()) if allpts.size else 0.0
    rho = 1.5 * (1.0 + spread)
    for attempt in range(32):
        shift = 2.0 * np.pi * attempt / (count * 37.0)
        pts = [
            center + rho * np.exp(1j * (2.0 * np.pi * j / count + shift))
            for j in range(count)
        ]
        if allpts.size == 0:
            return pts
        clear = np.abs(np.array(pts)[:, None] - allpts[None, :]).min()
        if clear > 1e-6:
            return pts
    raise RuntimeError("could not place sample points clear of singularities")


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
    Diagnostic only: always returns a report, never raises.
    """
    rep = Report()
    eye = identity(d.k)
    with np.errstate(over="ignore", invalid="ignore"):
        zs = np.array(sample_points(d))
        r = additive_eval_R(d, zs)
        ri = additive_eval_Rinv(d, zs)
        rep.add("mutual_inverse_at_samples",
                max_frobenius(r @ ri - eye, ri @ r - eye), tol)

        res = _residues(d.F_P, d.G_P)
        b0 = additive_eval_Rinv(d, d.poles)
        b1 = additive_deriv_Rinv(d, d.poles)
        rep.add("annihilation_at_poles",
                max_frobenius(b0 @ res, res @ b0), tol)
        rep.add("pole_residue_identity",
                max_frobenius(res @ b1 @ res - res), tol)

        res = _residues(d.F_N, d.G_N)
        a0 = additive_eval_R(d, d.zeros)
        a1 = additive_deriv_R(d, d.zeros)
        rep.add("annihilation_at_zeros",
                max_frobenius(a0 @ res, res @ a0), tol)
        rep.add("zero_residue_identity",
                max_frobenius(res @ a1 @ res - res), tol)
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
