"""Dense complex linear algebra on small matrices.

`inverse` (and through it `cond_frobenius` and `block_inverse_2x2`)
computes with LAPACK's `numpy.linalg.inv`, but only hands that result
back when it proves that no pivot of the hand LU below could have died:
under partial pivoting every multiplier is at most 1 in magnitude, so
each pivot satisfies |u_kk| >= 1/(n·‖A⁻¹‖∞), and a finite inverse with
n·‖A⁻¹‖∞ well below 1/pivot_eps rules a dead pivot out. Everything else
(a LAPACK failure, a non-finite result, an inverse too large for that
proof) falls back to the hand-rolled LU with partial pivoting, which
stays the arbiter of singularity: a SingularMatrixError always comes
from `lu_factor` and reports *which* pivot died, because the
factorization-existence criterion downstream branches on whether the
upper-left coupling block or its Schur complement went singular.
`lu_factor`, `solve`, `determinant` and `rank` are hand LU throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    Singular11Error,
    SingularMatrixError,
    SingularSchurError,
)

# Pivot acceptance is relative to the max-row-sum norm of the input, so a
# zero matrix dies on its first pivot. tol_solve is the residual level the
# solve contract promises for well-conditioned inputs.
PIVOT_EPS_FACTOR = 1e-13
TOL_SOLVE = 1e-9
RANK_EPS = 1e-9

__all__ = [
    "PIVOT_EPS_FACTOR",
    "TOL_SOLVE",
    "RANK_EPS",
    "Block2x2",
    "as_complex_matrix",
    "block_inverse_2x2",
    "cond_frobenius",
    "determinant",
    "frobenius",
    "identity",
    "inverse",
    "lu_factor",
    "lu_solve",
    "matmul",
    "max_frobenius",
    "norm_inf",
    "rank",
    "solve",
]


def as_complex_matrix(a) -> np.ndarray:
    """Coerce to a 2-d complex128 array, rejecting non-finite entries."""
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2:
        raise DimensionMismatchError(f"expected a 2-d array, got shape {a.shape}")
    if a.size and not np.isfinite(a).all():
        raise ValueError("matrix contains non-finite entries")
    return a


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.complex128)


def frobenius(a) -> float:
    a = np.asarray(a, dtype=np.complex128)
    return float(np.sqrt((np.abs(a) ** 2).sum()))


def max_frobenius(*stacks) -> float:
    """Largest Frobenius norm over the trailing-two-axis slices of the
    stacks: 0.0 when there are none, NaN when any norm is NaN. Each norm
    is summed as frobenius sums it."""
    worst = 0.0
    for s in stacks:
        norms = np.sqrt((np.abs(s) ** 2).sum(axis=(-2, -1)))
        worst = np.max(norms, initial=worst)
    return float(worst)


def norm_inf(a) -> float:
    """Max absolute row sum; 0.0 for empty matrices."""
    a = np.asarray(a, dtype=np.complex128)
    if a.size == 0:
        return 0.0
    return float(np.abs(a).sum(axis=1).max())


def matmul(a, b) -> np.ndarray:
    a = as_complex_matrix(a)
    b = as_complex_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise DimensionMismatchError(
            f"cannot multiply {a.shape[0]}x{a.shape[1]} by {b.shape[0]}x{b.shape[1]}"
        )
    return a @ b


def lu_factor(a, pivot_eps: float | None = None):
    """LU factorization with partial pivoting, P·a = L·U packed in place.

    Returns (lu, perm, sign) where lu holds U on and above the diagonal
    and the unit-lower-triangular multipliers below it, perm is the row
    permutation (lu row i came from a row perm[i]), and sign is the
    permutation parity as +1/-1.

    Raises SingularMatrixError, carrying the index of the elimination
    step whose best pivot fell below pivot_eps. The default threshold is
    PIVOT_EPS_FACTOR times the max-row-sum norm of the input.
    """
    a = as_complex_matrix(a)
    n, m = a.shape
    if n != m:
        raise DimensionMismatchError(f"LU needs a square matrix, got {n}x{m}")
    if pivot_eps is None:
        pivot_eps = PIVOT_EPS_FACTOR * norm_inf(a)
    lu = a.copy()
    perm = np.arange(n)
    sign = 1
    for k in range(n):
        j = k + int(np.argmax(np.abs(lu[k:, k])))
        piv = abs(lu[j, k])
        if piv <= pivot_eps:
            raise SingularMatrixError(k, piv, pivot_eps)
        if j != k:
            lu[[k, j], :] = lu[[j, k], :]
            perm[[k, j]] = perm[[j, k]]
            sign = -sign
        lu[k + 1:, k] /= lu[k, k]
        lu[k + 1:, k + 1:] -= np.outer(lu[k + 1:, k], lu[k, k + 1:])
    return lu, perm, sign


def lu_solve(factorization, b) -> np.ndarray:
    """Back-substitute a right-hand side through an lu_factor result.

    b may be a vector or a matrix of stacked right-hand sides; the
    result has the same ndim.
    """
    lu, perm, _ = factorization
    n = lu.shape[0]
    b = np.asarray(b, dtype=np.complex128)
    vector_rhs = b.ndim == 1
    if vector_rhs:
        b = b[:, None]
    if b.shape[0] != n:
        raise DimensionMismatchError(
            f"right-hand side has {b.shape[0]} rows, matrix is {n}x{n}"
        )
    x = b[perm, :].copy()
    for k in range(n):                      # forward: L y = P b
        x[k + 1:, :] -= np.outer(lu[k + 1:, k], x[k, :])
    for k in range(n - 1, -1, -1):          # backward: U x = y
        x[k, :] /= lu[k, k]
        if k:
            x[:k, :] -= np.outer(lu[:k, k], x[k, :])
    return x[:, 0] if vector_rhs else x


def solve(a, b, pivot_eps: float | None = None) -> np.ndarray:
    """Solve a·x = b by LU with partial pivoting."""
    a = as_complex_matrix(a)
    if a.shape[0] == 0:
        b = np.asarray(b, dtype=np.complex128)
        return b.copy()
    return lu_solve(lu_factor(a, pivot_eps), b)


def inverse(a, pivot_eps: float | None = None) -> np.ndarray:
    """Inverse by LAPACK when provably no hand-LU pivot dies, else hand LU.

    The LAPACK result is returned only when it is finite and
    n·‖A⁻¹‖∞·eps < 0.1, where eps is the larger of pivot_eps and the
    default PIVOT_EPS_FACTOR·‖A‖∞. Otherwise the inverse comes from
    lu_factor, which raises SingularMatrixError with its pivot_index.
    """
    a = as_complex_matrix(a)
    n = a.shape[0]
    if n != a.shape[1]:
        raise DimensionMismatchError(f"inverse needs a square matrix, got {a.shape}")
    eps = PIVOT_EPS_FACTOR * norm_inf(a)
    if pivot_eps is not None:
        eps = max(eps, pivot_eps)
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        inv = None
    if inv is not None and np.isfinite(inv).all() and n * norm_inf(inv) * eps < 0.1:
        return inv
    return solve(a, identity(n), pivot_eps)


def determinant(a) -> complex:
    """Determinant via LU; 1 for the empty matrix, 0 if a pivot dies."""
    a = as_complex_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"determinant needs a square matrix, got {a.shape}")
    if a.shape[0] == 0:
        return 1 + 0j
    try:
        lu, _, sign = lu_factor(a)
    except SingularMatrixError:
        return 0j
    return complex(sign * np.prod(np.diag(lu)))


def cond_frobenius(a) -> float:
    """Frobenius-norm condition number; inf when singular, 1.0 for empty."""
    a = as_complex_matrix(a)
    if a.shape[0] == 0:
        return 1.0
    try:
        return frobenius(a) * frobenius(inverse(a))
    except SingularMatrixError:
        return float("inf")


def rank(a, rank_eps: float = RANK_EPS) -> int:
    """Numerical rank by column-pivoted elimination.

    At each step the column whose remaining part has the largest entry
    is brought forward and eliminated with its largest entry as pivot;
    entries below rank_eps times the max magnitude of the input count
    as zero.
    """
    a = as_complex_matrix(a).copy()
    m, n = a.shape
    if a.size == 0:
        return 0
    peak = float(np.abs(a).max())
    if peak == 0.0:
        return 0
    # scale by an exact power of two so the largest entry lies in
    # [0.5, 1): a subnormal pivot would overflow the complex division
    # below into NaN, and NaN comparisons would count every column
    shift = -int(np.frexp(peak)[1])
    np.ldexp(a.real, shift, out=a.real)
    np.ldexp(a.imag, shift, out=a.imag)
    threshold = rank_eps * float(np.abs(a).max())
    if threshold == 0.0:
        return 0
    r = 0
    for step in range(min(m, n)):
        block = np.abs(a[step:, step:])
        col_peaks = block.max(axis=0)
        j = step + int(np.argmax(col_peaks))
        if col_peaks[j - step] <= threshold:
            break
        i = step + int(np.argmax(np.abs(a[step:, j])))
        a[:, [step, j]] = a[:, [j, step]]
        a[[step, i], :] = a[[i, step], :]
        piv = a[step, step]
        a[step + 1:, step:] -= np.outer(a[step + 1:, step] / piv, a[step, step:])
        r += 1
    return r


@dataclass(frozen=True)
class Block2x2:
    """A 2x2 block matrix with square diagonal blocks (sizes may be 0)."""

    m11: np.ndarray
    m12: np.ndarray
    m21: np.ndarray
    m22: np.ndarray

    def __post_init__(self):
        m11 = as_complex_matrix(self.m11)
        m12 = as_complex_matrix(self.m12)
        m21 = as_complex_matrix(self.m21)
        m22 = as_complex_matrix(self.m22)
        object.__setattr__(self, "m11", m11)
        object.__setattr__(self, "m12", m12)
        object.__setattr__(self, "m21", m21)
        object.__setattr__(self, "m22", m22)
        n1, n1b = m11.shape
        n2, n2b = m22.shape
        if n1 != n1b or n2 != n2b:
            raise DimensionMismatchError("diagonal blocks must be square")
        if m12.shape != (n1, n2) or m21.shape != (n2, n1):
            raise DimensionMismatchError(
                f"off-diagonal blocks {m12.shape}/{m21.shape} do not conform "
                f"to diagonal sizes {n1}, {n2}"
            )

    @property
    def n1(self) -> int:
        return self.m11.shape[0]

    @property
    def n2(self) -> int:
        return self.m22.shape[0]

    def assemble(self) -> np.ndarray:
        top = np.hstack([self.m11, self.m12])
        bottom = np.hstack([self.m21, self.m22])
        return np.vstack([top, bottom])

    @staticmethod
    def split(a, n1: int) -> "Block2x2":
        a = as_complex_matrix(a)
        return Block2x2(a[:n1, :n1], a[:n1, n1:], a[n1:, :n1], a[n1:, n1:])


def block_inverse_2x2(m: Block2x2) -> Block2x2:
    """Invert a 2x2 block matrix through the Schur complement of m11.

    The two failure modes are deliberately distinct: Singular11 when the
    upper-left block cannot be inverted, SingularSchur when the
    complement m22 - m21·m11⁻¹·m12 cannot. The lower-right block of the
    result is exactly the inverse of that complement.
    """
    try:
        inv11 = inverse(m.m11)
    except SingularMatrixError as exc:
        raise Singular11Error(
            exc.pivot_index, exc.pivot_magnitude, exc.threshold,
            context="upper-left block is singular",
        ) from exc
    schur = m.m22 - m.m21 @ inv11 @ m.m12
    try:
        inv_schur = inverse(schur)
    except SingularMatrixError as exc:
        raise SingularSchurError(
            exc.pivot_index, exc.pivot_magnitude, exc.threshold,
            context="Schur complement is singular",
        ) from exc
    w12 = inv11 @ m.m12
    w21 = m.m21 @ inv11
    return Block2x2(
        inv11 + w12 @ inv_schur @ w21,
        -w12 @ inv_schur,
        -inv_schur @ w21,
        inv_schur,
    )
