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
way, one stacked call per family of points. This module is also the home
of the package's one evaluation kernel, _form: the additive forms and
all eight evaluators in realization are I + s·F·diag(u)·[M·diag(v)]·G,
with weights u = 1.0 / _gaps(z, points) from cauchy. One point with
n ≥ 2 forms the kernel's products with np.dot, which has less fixed
cost than @ and gives its bits there; a stack, a one-point x paired
with a stack y, and n ≤ 1 keep @, where np.dot would compute another
product or round differently. The derivative forms have no identity
term and divide by the squared gaps, so they scale their factor with
_scaled directly.

ZeroPoleData(...) validates everything it is given. Its private
constructor, ZeroPoleData._completed, serves one caller,
synthesis._synthesize: there the points and the free half are already
validated, so it checks only the derived half the synthesis computed,
with the same refusals and messages. Either way the six arrays are
stored read-only, as private copies of whatever a caller may still
hold, so a datum cannot change after it was validated. A datum compares
and hashes by identity, so what other modules derive from it can be
keyed by it; a copy, a pickle or dataclasses.replace is a new datum.

d.mirror() is the data of R⁻¹ over d's own arrays: the zeros become the
poles and the poles the zeros, each with its semiresiduals. The swap
keeps everything validation checks, so it neither copies nor validates.
What holds at R's poles holds at its zeros on the mirror, so
check_consistency and zero_residue reach the zeros through it.
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
from .report import Report, _check_integer

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
    """Validated zero-pole data, immutable.

    poles, zeros : (n,) complex arrays, pairwise separated by SEP_MIN
    F_P, F_N     : (k, n) left semiresiduals (columns, no zero column)
    G_P, G_N     : (n, k) right semiresiduals (rows, no zero row)

    The six arrays are read-only copies: the arrays a caller passed in
    are never aliased and stay writable, and writing into a stored one
    raises ValueError. np.array(d.F_P) is a writable copy.

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

    def _store(self, *values, copy: bool = True) -> None:
        """Set the six fields, in declaration order, on a frozen instance,
        each as a read-only copy in its own memory layout, so the BLAS
        bits of every product are kept. With copy False the values must
        be arrays the package has just made and nothing else holds; they
        are frozen in place."""
        for field_name, value in zip(self.__dataclass_fields__, values):
            if copy:
                value = value.copy(order="K")
            value.setflags(write=False)
            object.__setattr__(self, field_name, value)

    def __setstate__(self, state):
        self._store(*(state[name] for name in self.__dataclass_fields__))

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
        in −S⁻¹·G. The arrays are complex128 already and are frozen in
        place, so none may be a caller's: synthesize and
        synthesize_hybrid hand in their SynthesisInput's arrays, which
        are read-only copies already, and the other callers arrays they
        have just made.
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
        d._store(poles, zeros, F_P, G_P, F_N, G_N, copy=False)
        return d

    def mirror(self) -> "ZeroPoleData":
        """The data of R⁻¹: (zeros, poles, F_N, G_N, F_P, G_P) as its
        (poles, zeros, F_P, G_P, F_N, G_N), over these same read-only
        arrays. A new datum on every call."""
        d = object.__new__(type(self))
        d._store(self.zeros, self.poles, self.F_N, self.G_N, self.F_P,
                 self.G_P, copy=False)
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


def _form(scale, left: np.ndarray, u: np.ndarray, right: np.ndarray,
          mid=None, v=None) -> np.ndarray:
    """I + scale·(left·diag(u))·(mid·(diag(v)·right)), or
    I + scale·(left·diag(u))·right without mid: the one kernel of the
    additive forms and of every evaluator in realization, k×k with k
    the number of rows of left.

    u and v are weight vectors, or stacks of them with a leading axis of
    M points, in which case scale is a scalar or has length M and the
    result is M×k×k. The products associate as left·(mid·right), and the
    middle scales the n×k right factor, never the n×n mid. A factor
    scaled by a stack of weights gets a leading axis first, as in
    _scaled, so each slice of a stack has the bits of the one-point
    call. _scaled's two lines are written out here: its call is a
    share of a one-point evaluation worth saving.

    One point (u 1-d, and v 1-d or no mid) with n ≥ 2 forms both
    products with np.dot: the BLAS call of @, with the same bits and
    about 0.4 µs less fixed cost each. Everything else keeps @. A stack
    needs the stacked product, which np.dot is not; a one-point x paired
    with a stack y has a 3-d right factor by then, on which np.dot
    computes another product; and at n = 1 np.dot rounds the k×1 by 1×k
    outer product differently from @ (n = 0 has no product to save).

    A scale of exactly ±1.0 gives I ± P. On finite P that is bit for bit
    I + (±1.0)·P; where P has an infinite entry, the complex multiply by
    ±1.0 would make 0·inf a NaN in the other part.
    """
    eye = _shared_identity(left.shape[0])
    if u.ndim == 1 and (mid is None or v.ndim == 1) and u.shape[0] > 1:
        if mid is not None:
            right = np.dot(mid, v[:, None] * right)
        prod = np.dot(left * u[None, :], right)
    else:
        if mid is not None:
            if v.ndim > 1:
                right = right[None]
            right = mid @ (v[..., :, None] * right)
        if u.ndim > 1:
            left = left[None]
        prod = (left * u[..., None, :]) @ right
    if isinstance(scale, np.ndarray):
        return eye + scale[:, None, None] * prod
    if scale == 1.0:
        return eye + prod
    if scale == -1.0:
        return eye - prod
    return eye + scale * prod


def additive_eval_R(d: ZeroPoleData, z) -> np.ndarray:
    """R(z) = I + sum_j F_P[:, j] G_P[j, :] / (z - lambda_j)."""
    return _form(1.0, d.F_P, 1.0 / _gaps(z, d.poles), d.G_P)


def additive_eval_Rinv(d: ZeroPoleData, z) -> np.ndarray:
    """R^-1(z) = I + sum_j F_N[:, j] G_N[j, :] / (z - mu_j)."""
    return _form(1.0, d.F_N, 1.0 / _gaps(z, d.zeros), d.G_N)


def additive_deriv_R(d: ZeroPoleData, z) -> np.ndarray:
    """Exact derivative of the additive form of R; no finite differences."""
    w2 = 1.0 / _gaps(z, d.poles) ** 2
    return -_scaled(d.F_P, w2) @ d.G_P


def additive_deriv_Rinv(d: ZeroPoleData, z) -> np.ndarray:
    w2 = 1.0 / _gaps(z, d.zeros) ** 2
    return -_scaled(d.F_N, w2) @ d.G_N


def pole_residue(d: ZeroPoleData, j: int) -> np.ndarray:
    """Residue of R at pole j: the rank-one matrix F_P[:, j] G_P[j, :].

    j must be an integer in [0, n); anything else, a bool, a float or a
    negative index among them, is refused with ValidationError."""
    j = _check_integer(j, "j")
    if not 0 <= j < d.n:
        raise ValidationError(f"j must be in [0, {d.n}), got {j}")
    return np.outer(d.F_P[:, j], d.G_P[j, :])


def zero_residue(d: ZeroPoleData, j: int) -> np.ndarray:
    """Residue of R^-1 at zero j, F_N[:, j] G_N[j, :]: the pole residue
    of the mirror, with its refusals."""
    return pole_residue(d.mirror(), j)


def sample_points(d: ZeroPoleData, count: int = 8) -> list:
    """Deterministic evaluation points clear of every pole and zero.

    A ring around the centroid of the singular points, at 1.5 times
    (1 + max spread), keeps at least distance 1.5 from all of them, so
    no point needs testing or moving. A count that is not an integer is
    refused with ValidationError.
    """
    count = _check_integer(count, "count")
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
    and raises nothing; one too large for a float reads as inf. A tol
    that is not a real number, such as a string or a complex number, is
    refused with ValidationError.
    """
    rep = Report()
    eye = _shared_identity(d.k)
    with np.errstate(over="ignore", invalid="ignore"):
        zs = np.array(sample_points(d))
        r = additive_eval_R(d, zs)
        ri = additive_eval_Rinv(d, zs)
        rep.add("mutual_inverse_at_samples",
                max_frobenius(r @ ri - eye, ri @ r - eye), tol)

        # (b) and (c) at the poles, then (b) and (d) at the zeros, which
        # are (b) and (c) at the poles of the mirror
        for kind, m in (("pole", d), ("zero", d.mirror())):
            res = _residues(m.F_P, m.G_P)
            v0 = additive_eval_Rinv(m, m.poles)
            v1 = additive_deriv_Rinv(m, m.poles)
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
