"""Dense complex linear algebra on small matrices.

Every inverse comes from LAPACK's `numpy.linalg.inv` under one refusal
rule: `inverse` raises SingularMatrixError when the matrix has a
non-finite entry, when LAPACK fails, when its result is not finite, or
when n·‖A‖∞·‖A⁻¹‖∞·PIVOT_EPS_FACTOR ≥ 0.1, an
∞-norm condition number too large for the result to mean anything.
The bound is tested first, on LAPACK's result, since a finite bound
implies finite entries in the matrix and its inverse; the other causes
are looked up, in the order listed, only for a refused matrix, to name
it in the message. `solve`, `inverse_cond` and every caller in the
package invert through it, so all of them refuse the same matrices.
`inverse_cond` is the one inverse-with-condition step: it gives the
inverse (None when refused) and cond_F from the same inversion, for the
coupling-matrix and S11 gates and for `cond_frobenius`. `rank` is a
column-pivoted elimination whose zero test is relative to the largest
entry, the semantics that `factor_rank_one` and `obstrollable` rely on.
"""

from __future__ import annotations

import math
import numbers
from functools import cache
from typing import NoReturn

import numpy as np

from .errors import DimensionMismatchError, SingularMatrixError, ValidationError
from .report import _check_integer

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
    "rank",
    "solve",
]


def _is_number(value) -> bool:
    """Whether value is a number other than a bool, or a numeric 0-d
    array; complex() and float() also parse text and bytes and read a
    bool as 1 or 0."""
    if isinstance(value, np.ndarray):
        return value.ndim == 0 and value.dtype.kind in "iufc"
    return (isinstance(value, numbers.Number)
            and not isinstance(value, (bool, np.bool_)))


def _holds_bytes(values) -> bool:
    """Whether values is a bytearray or memoryview, or a list or tuple
    that holds one at any depth."""
    if isinstance(values, (bytearray, memoryview)):
        return True
    return isinstance(values, (list, tuple)) and any(map(_holds_bytes,
                                                         values))


def _numbers(values):
    """values as a complex128 array when numpy reads it as a numeric
    array (bools included) or as an object array of numbers (see
    _is_number); None otherwise. numpy alone would parse text, read
    None as NaN and the bytes of a bytearray or memoryview, also one
    inside a list, as their codes."""
    try:
        # an ndarray, such as each field load_instance hands in, skips
        # the type tests and the conversion
        a = values
        if type(a) is not np.ndarray:
            if isinstance(a, (bytearray, memoryview)):
                return None
            a = np.asarray(a)
            # numpy reads one inside a list as uint8 codes too; only a
            # uint8 result is walked
            if a.dtype.char == "B" and _holds_bytes(values):
                return None
        kind = a.dtype.kind
        if kind in "biufc" or kind == "O" and all(map(_is_number, a.flat)):
            return a.astype(np.complex128, copy=False)
    except (TypeError, ValueError, OverflowError):
        pass
    return None


def _complex_array(values, what: str) -> np.ndarray:
    """values as a complex128 array (see _numbers), refusing anything
    else as invalid."""
    a = _numbers(values)
    if a is None:
        raise ValidationError(f"{what} is not an array of numbers")
    return a


def as_complex_matrix(a) -> np.ndarray:
    """Coerce to a 2-d complex128 array, rejecting non-finite entries."""
    a = _complex_array(a, "matrix")
    if a.ndim != 2:
        raise DimensionMismatchError(f"expected a 2-d array, got shape {a.shape}")
    if a.size and not np.isfinite(a).all():
        raise ValidationError("matrix contains non-finite entries")
    return a


def identity(n: int) -> np.ndarray:
    """A fresh, writable n×n complex identity. An n that is not an
    integer, a bool among them, or is negative is refused with
    ValidationError."""
    n = _check_integer(n, "n")
    if n < 0:
        raise ValidationError(f"n must not be negative, got {n}")
    return np.eye(n, dtype=np.complex128)


@cache
def _shared_identity(n: int) -> np.ndarray:
    """One read-only n×n complex identity per n, for formulas that only
    add it to a product: I + X allocates a new array, so no caller can
    write into the shared one, and a write attempt raises."""
    eye = identity(n)
    eye.flags.writeable = False
    return eye


def frobenius(a) -> float:
    # np.add.reduce is the pairwise sum behind ndarray.sum, and
    # math.sqrt is correctly rounded like np.sqrt, without either's
    # per-call wrapper
    a = np.asarray(a, dtype=np.complex128)
    return math.sqrt(np.add.reduce(np.abs(a) ** 2, axis=None))


def max_frobenius(*stacks) -> float:
    """Largest Frobenius norm over the trailing-two-axis slices of the
    stacks: 0.0 when there are none, NaN when any norm is NaN. Each norm
    is summed as frobenius sums it."""
    worst = 0.0
    for s in stacks:
        norms = np.sqrt(np.add.reduce(np.abs(s) ** 2, axis=(-2, -1)))
        worst = np.maximum.reduce(norms, axis=None, initial=worst)
    return float(worst)


def inverse(a) -> np.ndarray:
    """LAPACK's inverse of a square matrix, or SingularMatrixError.

    The matrix is refused when it has a non-finite entry, when
    numpy.linalg.inv fails, when its result is not finite, or when
    n·‖A‖∞·‖A⁻¹‖∞·PIVOT_EPS_FACTOR ≥ 0.1.

    The bound is tested first, on LAPACK's result: a finite bound below
    0.1 means every entry of A and A⁻¹ is finite, so an accepted matrix
    pays for no other check. Only a refused one is looked at again, by
    _refuse, to name the first of those causes in the order above.
    """
    # this runs on every coupling matrix, and at n ≤ 32 helper calls and
    # array method wrappers cost as much as LAPACK's inversion; the
    # ufunc reductions are the ones behind .sum and .max, so the bound
    # has the same bits
    a = np.asarray(a, dtype=np.complex128)
    inv = exc = bound = None
    if a.ndim == 2 and a.shape[0] == a.shape[1]:
        n = a.shape[0]
        try:
            inv = np.linalg.inv(a)
        except np.linalg.LinAlgError as err:
            exc = err
        else:
            if not n:
                return inv
            # a NaN or infinite entry of A or A⁻¹ makes its row sum and
            # the bound NaN or inf, or 0·inf = NaN when A⁻¹ is zero; a
            # row sum of finite entries that overflows makes it inf too,
            # without a warning
            with np.errstate(over="ignore"):
                bound = n * float(np.maximum.reduce(
                    np.add.reduce(np.abs(inv), axis=1))) * (
                    PIVOT_EPS_FACTOR * float(np.maximum.reduce(
                        np.add.reduce(np.abs(a), axis=1))))
            if bound < 0.1:
                return inv
    _refuse(a, inv, exc, bound)


def _refuse(a: np.ndarray, inv, exc, bound) -> NoReturn:
    """Raise inverse's refusal of a: the first cause of its docstring's
    list that holds, with inv, exc and bound from its one LAPACK call
    (None where that step was not reached)."""
    if a.ndim != 2:
        raise DimensionMismatchError(f"expected a 2-d array, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise SingularMatrixError(
            "matrix is singular: matrix contains non-finite entries")
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"inverse needs a square matrix, got {a.shape}")
    if exc is not None:
        raise SingularMatrixError(f"matrix is singular ({exc})") from exc
    if not np.isfinite(inv).all():
        raise SingularMatrixError("matrix is singular: its inverse overflows")
    raise SingularMatrixError(
        f"matrix is numerically singular: n·‖A‖∞·‖A⁻¹‖∞·"
        f"{PIVOT_EPS_FACTOR:.0e} = {bound:.3e} ≥ 0.1")


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
    try:
        inv = inverse(a)
    except SingularMatrixError:
        return None, float("inf")
    return inv, (frobenius(a) * frobenius(inv) if inv.size else 1.0)


def cond_frobenius(a) -> float:
    """Frobenius-norm condition number; inf when singular, 1.0 for empty."""
    return inverse_cond(a)[1]


def rank(a) -> int:
    """Numerical rank by column-pivoted elimination.

    At each step the column whose remaining part has the largest entry
    is brought forward and eliminated with its largest entry as pivot;
    entries below RANK_EPS times the max magnitude of the input count
    as zero. The input is first scaled by a power of two that puts its
    largest entry in [0.5, 1), so that threshold is at least RANK_EPS/2
    even when every entry is subnormal.
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
