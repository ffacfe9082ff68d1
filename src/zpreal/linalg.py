"""Dense complex linear algebra on small matrices.

Every inverse comes from LAPACK's `numpy.linalg.inv` under one refusal
rule: `inverse` raises SingularMatrixError when LAPACK fails, when its
result is not finite, or when n·‖A‖∞·‖A⁻¹‖∞·PIVOT_EPS_FACTOR ≥ 0.1, an
∞-norm condition number too large for the result to mean anything.
`solve`, `inverse_cond` and every caller in the package invert through
it, so all of them refuse the same matrices. `inverse_cond` is the one
inverse-with-condition step: it gives the inverse (None when refused)
and cond_F from the same inversion, for the coupling-matrix and S11
gates and for `cond_frobenius`. `rank` is a column-pivoted
elimination whose zero test is relative to the largest entry, the
semantics that `factor_rank_one` and `obstrollable` rely on.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, SingularMatrixError

# inverse refuses a matrix once n·‖A‖∞·‖A⁻¹‖∞·PIVOT_EPS_FACTOR reaches
# 0.1; rank counts entries below RANK_EPS times the largest as zero.
PIVOT_EPS_FACTOR = 1e-13
RANK_EPS = 1e-9

__all__ = [
    "PIVOT_EPS_FACTOR",
    "RANK_EPS",
    "as_complex_matrix",
    "cond_frobenius",
    "frobenius",
    "identity",
    "inverse",
    "inverse_cond",
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


def inverse(a) -> np.ndarray:
    """LAPACK's inverse of a square matrix, or SingularMatrixError.

    The matrix is refused when numpy.linalg.inv fails, when its result
    is not finite, or when n·‖A‖∞·‖A⁻¹‖∞·PIVOT_EPS_FACTOR ≥ 0.1.
    """
    a = as_complex_matrix(a)
    n = a.shape[0]
    if n != a.shape[1]:
        raise DimensionMismatchError(f"inverse needs a square matrix, got {a.shape}")
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"matrix is singular ({exc})") from exc
    if not np.isfinite(inv).all():
        raise SingularMatrixError("matrix is singular: its inverse overflows")
    bound = n * norm_inf(inv) * (PIVOT_EPS_FACTOR * norm_inf(a))
    if not bound < 0.1:
        raise SingularMatrixError(
            f"matrix is numerically singular: n·‖A‖∞·‖A⁻¹‖∞·"
            f"{PIVOT_EPS_FACTOR:.0e} = {bound:.3e} ≥ 0.1")
    return inv


def solve(a, b) -> np.ndarray:
    """x with a·x = b, as inverse(a) @ b; b may be a vector or a matrix."""
    inv = inverse(a)
    b = np.asarray(b, dtype=np.complex128)
    if b.shape[:1] != inv.shape[1:]:
        raise DimensionMismatchError(
            f"right-hand side has shape {b.shape}, matrix is {inv.shape}")
    return inv @ b


def inverse_cond(a):
    """(inverse(a), cond_F(a)) from one inversion: (None, inf) when
    inverse refuses a, and cond_F = 1.0 for an empty matrix."""
    a = as_complex_matrix(a)
    try:
        inv = inverse(a)
    except SingularMatrixError:
        return None, float("inf")
    return inv, (frobenius(a) * frobenius(inv) if a.size else 1.0)


def cond_frobenius(a) -> float:
    """Frobenius-norm condition number; inf when singular, 1.0 for empty."""
    return inverse_cond(a)[1]


def rank(a) -> int:
    """Numerical rank by column-pivoted elimination.

    At each step the column whose remaining part has the largest entry
    is brought forward and eliminated with its largest entry as pivot;
    entries below RANK_EPS times the max magnitude of the input count
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
    threshold = RANK_EPS * float(np.abs(a).max())
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
