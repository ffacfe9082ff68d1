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
packages the result into a RealizationBundle, and evaluates the
function, its inverse, their joint products, and the hybrid
rearrangements straight from the coupling data.

Only the public sylvester_diag_solve tests that the two spectra are
SEP_MIN apart. The package's own solves go through _sylvester, the same
division without the test, because their points were tested where they
entered: by ZeroPoleData, by SynthesisInput, or by random_instance's
draw. ZeroPoleData stores read-only copies of its arrays, so a slice of
validated data stays separated.

Each datum is built once. Sr, Sl and their inverses are functions of the
data alone, so the first build that passes its gates marks them
read-only and records them, with cond_Sr and the diagnostics, in
_built, a weak map keyed by the datum; build_bundle hands back a new
bundle over the recorded arrays, with a diagnostics dict of its own,
and solves and inverts nothing. A synthesis builds its data through the
same routine, so build_bundle(random_instance(...).data) is a lookup.
A refusal is not recorded: inconsistent data is refused again on every
call.

A build inverts one coupling matrix. Sr⁻¹ is taken at once: it gives
cond_Sr, and the right forms R, R⁻¹ and R(x)R⁻¹(y) need only it. Sl⁻¹
enters only the four left-data forms and hybridR, so a bundle's Sl_inv
is a cached property: its first read returns the recorded Sl⁻¹, or
takes inverse(Sl) and records it, shared by every bundle of the datum.
A build defers it only when _defers_left_inverse certifies, from the
Frobenius norms of Sr and Sl and mutual_inverse, that inverse will
accept Sl; it inverts Sl at once otherwise, so every refusal the build
can make is still made by the build. Sl⁻¹ always comes from
inverse(Sl), never from Sr, so mutual inverseness stays an executable
check.

R⁻¹ is itself a function in general position: its data is R's with the
two halves swapped (ZeroPoleData.mirror), and its Sr is R's Sl. A
bundle's inverse is the bundle of that mirror, over the same arrays,
with Sr and Sl, and Sr⁻¹ and Sl⁻¹, swapped; its first read reads Sl_inv.
So the formulas are written once, for the right data: the four forms
that need Sl⁻¹ are the mirror's R⁻¹, R, R(x)R⁻¹(y) and hybrid R⁻¹(x)R(y),
with the bits of the left-data formulas they replace.

All eight evaluators compute one kernel, zero_pole._form:
I + scale·F·diag(u)·M·diag(v)·G, with weights u = 1/(z - points) from
one cauchy._gaps call per point argument: the package's one clearance
check, which makes every refusal. A two-point call whose x and y are
each a complex or float clears both in one cauchy._pair_gaps pass over
a read-only 2×n stack of its two point sets, cached on the bundle, with
the bits and the refusals of two _gaps calls. Each takes a point and
returns a k×k array, or a 1-d array of M points (M pairs for the
two-point forms) and returns an M×k×k stack in one vectorized pass, each
slice with the bits of the one-point call. A one-point call with n ≥ 2
forms its products with np.dot, which has less fixed cost than @ and
gives the same bits there; stacks, mixed pairs of one point and a
stack, and n ≤ 1 keep @ (see _form). The half-products the
evaluators need (Sr⁻¹G_N and F_P·Sr⁻¹; the mirror's are Sl⁻¹G_P and
F_N·Sl⁻¹) are cached on the bundle the first time an evaluator asks for
them, so building a bundle computes none of them. Two temporaries are
kept out of every call. The identity is one shared, read-only k×k array
per k (I + X makes a new array, so every result is still fresh and
writable). The two-point middle is formed as M·(diag(v)·G), which scales
the n×k factor G instead of making an n×n scaled copy of M.

Everything fails closed: data whose diagnostics exceed FAIL_TOL
describes no function and is rejected at build time.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .cauchy import _gaps, _pair_gaps, _point
from .errors import (
    InconsistentDataError,
    SingularMatrixError,
    SpectraOverlapError,
    ValidationError,
)
from .linalg import (
    PIVOT_EPS_FACTOR,
    _complex_array,
    _shared_identity,
    frobenius,
    inverse,
)
from .report import Report
from .zero_pole import (
    FAIL_TOL,
    REPORT_TOL,
    SEP_MIN,
    ZeroPoleData,
    _as_point_vector,
    _form,
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
    needs the spectra disjoint, which is enforced at SEP_MIN here, for
    callers whose points nothing has tested; the division itself is
    _sylvester. a and b must be flat and finite.
    """
    a = _as_point_vector(a, "a")
    b = _as_point_vector(b, "b")
    c = _complex_array(c, "c")
    if c.shape != (a.size, b.size):
        raise InconsistentDataError(
            f"right-hand side shape {c.shape} does not match "
            f"({a.size}, {b.size})"
        )
    if a.size and b.size:
        worst = float(np.abs(a[:, None] - b[None, :]).min())
        if worst < SEP_MIN:
            raise SpectraOverlapError(
                f"spectra approach within {worst:.3e} (need {SEP_MIN:.1e}); "
                f"the solution is not unique there",
                min_separation=worst,
            )
    return _sylvester(a, b, c)


def _sylvester(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """sylvester_diag_solve without its checks, for 1-d complex a and b
    already known to be SEP_MIN apart and c of shape (a.size, b.size)."""
    return c / (a[:, None] - b[None, :])


def _right_coupling(d: ZeroPoleData) -> np.ndarray:
    return _sylvester(d.zeros, d.poles, d.G_N @ d.F_P)


def _left_coupling(d: ZeroPoleData) -> np.ndarray:
    return _sylvester(d.poles, d.zeros, d.G_P @ d.F_N)


def coupling_matrices(d: ZeroPoleData):
    """Coupling matrices (Sr, Sl), the solutions of

        diag(mu) Sr - Sr diag(lambda) = G_N F_P
        diag(lambda) Sl - Sl diag(mu) = G_P F_N

    Sr couples the zero rows to the pole columns, Sl the reverse.
    """
    return _right_coupling(d), _left_coupling(d)


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
    check instead of a tautology. Sr, Sl and their inverses are
    read-only, shared by every bundle built from the same data; Hr and
    Hl are aliases of Sl and Sr.

    Sl_inv is computed on first read: the Sl⁻¹ recorded for the data
    when Sl is the recorded build's, or else inverse(Sl), whose refusal
    raises InconsistentDataError with the build's message.

    inverse is the bundle of R⁻¹, computed on first read, which reads
    Sl_inv: its data is data.mirror(), its Sr, Sl, Sr_inv and Sl_inv are
    this bundle's Sl, Sr, Sl_inv and Sr_inv, and its diagnostics are
    these with coupling_a and coupling_b, and coupling_c and coupling_d,
    trading names. Its own inverse is this bundle.
    """

    data: ZeroPoleData
    Sr: np.ndarray
    Sl: np.ndarray
    Sr_inv: np.ndarray
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

    # Sl⁻¹, the bundle of R⁻¹ and the half-products the evaluators share,
    # computed on first use so that a bundle nobody evaluates pays
    # nothing for them, and read-only like the matrices they come from.

    @cached_property
    def Sl_inv(self) -> np.ndarray:
        return _left_inverse(self)

    @cached_property
    def inverse(self) -> RealizationBundle:
        sl_inv = self.Sl_inv
        mirror = RealizationBundle(
            data=self.data.mirror(), Sr=self.Sl, Sl=self.Sr, Sr_inv=sl_inv,
            cond_Sr=frobenius(self.Sl) * frobenius(sl_inv) if self.n else 1.0,
            diagnostics={_MIRRORED.get(name, name): value
                         for name, value in self.diagnostics.items()})
        vars(mirror).update(Sl_inv=self.Sr_inv, inverse=self)
        return mirror

    @cached_property
    def Sr_inv_G_N(self) -> np.ndarray:
        return _frozen(self.Sr_inv @ self.data.G_N)

    @cached_property
    def F_P_Sr_inv(self) -> np.ndarray:
        return _frozen(self.data.F_P @ self.Sr_inv)

    # the two-point forms' points as one 2×n stack, x side first
    @cached_property
    def _poles_zeros(self) -> np.ndarray:
        return _frozen(np.array((self.data.poles, self.data.zeros)))

    @cached_property
    def _zeros_poles(self) -> np.ndarray:
        return _frozen(np.array((self.data.zeros, self.data.poles)))


# the diagnostics of a bundle's inverse: each recovery relation of R⁻¹'s
# data is the other one of its pair for R's
_MIRRORED = {"coupling_a": "coupling_b", "coupling_b": "coupling_a",
             "coupling_c": "coupling_d", "coupling_d": "coupling_c"}


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


# (Sr, Sl, Sr⁻¹, Sl⁻¹, cond_Sr, diagnostics) of each datum's one build
# that passed its gates, Sl⁻¹ None until a bundle first reads it
_built: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def build_bundle(d: ZeroPoleData) -> RealizationBundle:
    """Compute all realization matrices and fail closed on bad data.

    Consistent data makes every diagnostic vanish to rounding; any
    diagnostic above FAIL_TOL means the four semiresidual matrices do
    not describe a function and its inverse, and the build refuses.
    Data already built once gets a new bundle over the arrays of that
    build, with a copy of its diagnostics. Sl⁻¹ may be left to the
    bundle's first read of Sl_inv (see RealizationBundle).
    """
    built = _built.get(d)
    if built is None:
        return _build_bundle(d)
    sr, sl, sr_inv, _, cond_sr, diagnostics = built
    return RealizationBundle(data=d, Sr=sr, Sl=sl, Sr_inv=sr_inv,
                             cond_Sr=cond_sr, diagnostics=dict(diagnostics))


def _coupling_residuals(d: ZeroPoleData, sr: np.ndarray,
                        sl: np.ndarray) -> dict:
    """The four recovery relations tying the two halves of the data:
    G_N = -Sr·G_P, G_P = -Sl·G_N, F_P = F_N·Sr and F_N = F_P·Sl."""
    return {
        "coupling_a": frobenius(d.G_N + sr @ d.G_P),
        "coupling_b": frobenius(d.G_P + sl @ d.G_N),
        "coupling_c": frobenius(d.F_P - d.F_N @ sr),
        "coupling_d": frobenius(d.F_N - d.F_P @ sl),
    }


def _invert(m: np.ndarray, diagnostics: dict) -> np.ndarray:
    """inverse(m) of a coupling matrix, its refusal raised as the
    build's InconsistentDataError."""
    try:
        return inverse(m)
    except SingularMatrixError as exc:
        raise InconsistentDataError(
            f"coupling matrix not invertible ({exc})", diagnostics=diagnostics
        ) from exc


# unit roundoff of float64
_U = 2.0 ** -53


def _defers_left_inverse(n: int, ff: float, mutual: float) -> bool:
    """True when inverse(Sl) of an n×n Sl is certain to pass, from
    ff = ‖Sl‖_F²·‖Sr‖_F² and m = mutual, the build's mutual_inverse,
    which bounds ‖fl(Sr·Sl) − I‖_F. Both cost O(n²); no inversion is
    needed.

    inverse refuses Sl when n·‖Sl‖∞·‖X̂‖∞·PIVOT_EPS_FACTOR ≥ 0.1, X̂
    being LAPACK's computed inverse. Without computing X̂:

    0. ‖·‖∞ ≤ √n·‖·‖_F, so a = ‖Sl‖∞ and r = ‖Sr‖∞ have
       a·r ≤ n·√ff.
    1. E = Sr·Sl − I. Each entry of the computed product is off by at
       most √2·γ(n+2) ≤ 2(n+2)u times that entry of |Sr|·|Sl| (Higham,
       Accuracy and Stability of Numerical Algorithms, 2nd ed., Lemma
       3.5 and §3.6), so ‖E‖∞ ≤ η = √n·m + 2(n+2)u·a·r.
    2. When η < 1, Sl⁻¹ = (I + E)⁻¹·Sr, so ‖Sl⁻¹‖∞ ≤ r/(1 − η) and
       κ∞(Sl) ≤ κ = a·r/(1 − η).
    3. An inverse from an LU factorization with partial pivoting has
       ‖X̂ − Sl⁻¹‖∞ ≤ p(n)·u·κ∞(Sl)·‖Sl⁻¹‖∞ to first order (Higham,
       §14.3; Du Croz & Higham, IMA J. Numer. Anal. 12, 1992). Here
       p(n) = n²: one n from the inner products, one from the growth of
       |L|·|U| over |Sl|, which partial pivoting keeps below n in
       practice. So ‖X̂‖∞ ≤ (1 + n²uκ)·‖Sl⁻¹‖∞.
    4. inverse's statistic is then at most n·PIVOT_EPS_FACTOR·κ·(1 + n²uκ).

    g = 1 + 8(n+2)²u covers the rounding of every norm, sum and product
    in these bounds and in inverse's own statistic, each a relative
    (n² + 2)u at most. Sl is certified when g times the step-4 bound
    is below 0.1, with η and κ each taken g-fold larger and a·r taken
    as n·√ff. A NaN or infinite ff certifies nothing, and n = 0 always
    passes. Should LAPACK ever miss step 3, a deferred inverse(Sl) that
    refuses still raises the build's error, on read.
    """
    ar = n * math.sqrt(ff)
    g = 1.0 + 8.0 * (n + 2) ** 2 * _U
    eta = g * (math.sqrt(n) * mutual + 2.0 * (n + 2) * _U * ar)
    if not eta < 1.0:
        return False
    kappa = g * ar / (1.0 - eta)
    return g * n * PIVOT_EPS_FACTOR * kappa * (1.0 + n * n * _U * kappa) < 0.1


def _left_inverse(b: RealizationBundle) -> np.ndarray:
    """b's Sl⁻¹: the one recorded for b's data, or inverse(Sl), marked
    read-only and recorded when b's Sl is the recorded build's."""
    built = _built.get(b.data)
    ours = built is not None and built[1] is b.Sl
    if ours and built[3] is not None:
        return built[3]
    sl_inv = _frozen(_invert(b.Sl, dict(b.diagnostics)))
    if ours:
        _built[b.data] = built[:3] + (sl_inv,) + built[4:]
    return sl_inv


def _build_bundle(d: ZeroPoleData, sr=None, sl=None) -> RealizationBundle:
    """build_bundle, reusing a synthesis's solved coupling.

    A synthesis solves one of the two Sylvester equations from d's own
    data and inverts the solution. It hands that (S, S⁻¹, cond_F(S))
    in as sr or sl, and only the other coupling matrix is solved here.
    Every gate runs on the handed-in pair as on a computed one; a
    handed-in Sr's condition is the bundle's cond_Sr, which is the
    formula below on the same two arrays. Sr is inverted here unless
    handed in; Sl is inverted here only when it is neither handed in
    nor certified by _defers_left_inverse, and left to the bundle's
    first read of Sl_inv otherwise. A build that passes is recorded for
    d in _built, its matrices read-only, Sl⁻¹ as None while it is
    deferred.
    """
    # overflowing data gives inf and NaN here without a warning: a NaN
    # diagnostic fails the gate below like a large one
    with np.errstate(over="ignore", invalid="ignore"):
        sr, sr_inv, cond_sr = sr or (_right_coupling(d), None, None)
        sl, sl_inv, _ = sl or (_left_coupling(d), None, None)
        eye = _shared_identity(d.n)
        diagnostics = {
            # Hr·Hl and Hl·Hr are these same two products
            "mutual_inverse": max(
                frobenius(sr @ sl - eye),
                frobenius(sl @ sr - eye),
            ),
            **_coupling_residuals(d, sr, sl),
        }
        # ‖Sl‖_F²·‖Sr‖_F² for the certificate below, when Sl⁻¹ is not
        # in hand: one BLAS sum of squares each
        ff = (np.vdot(sl, sl).real * np.vdot(sr, sr).real
              if sl_inv is None else 0.0)
    bad = {k: v for k, v in diagnostics.items() if not v <= FAIL_TOL}
    if bad:
        worst = max(bad, key=bad.get)
        raise InconsistentDataError(
            f"data is not self-consistent: {worst} residual "
            f"{bad[worst]:.3e} > {FAIL_TOL:.1e}",
            diagnostics=diagnostics,
        )
    if sr_inv is None:
        sr_inv = _invert(sr, diagnostics)
    if sl_inv is None and not _defers_left_inverse(
            d.n, ff, diagnostics["mutual_inverse"]):
        sl_inv = _invert(sl, diagnostics)
    if cond_sr is None:
        cond_sr = frobenius(sr) * frobenius(sr_inv) if d.n else 1.0
    for m in (sr, sl, sr_inv, sl_inv):
        if m is not None:
            m.setflags(write=False)
    _built[d] = (sr, sl, sr_inv, sl_inv, cond_sr, dict(diagnostics))
    return RealizationBundle(data=d, Sr=sr, Sl=sl, Sr_inv=sr_inv,
                             cond_Sr=cond_sr, diagnostics=diagnostics)


def check_coupling_relations(b: RealizationBundle,
                             tol: float = REPORT_TOL) -> Report:
    """The four recovery relations tying the two halves of the data,
    computed from b's data and coupling matrices as they are now."""
    rep = Report()
    for name, value in _coupling_residuals(b.data, b.Sr, b.Sl).items():
        rep.add(name, value, tol)
    return rep


# ---------------------------------------------------------------------------
# evaluation through the coupling matrices
#
# Two one-point formulas and two two-point formulas, each written once
# for the right data; the other four evaluators are the same formulas on
# b.inverse, the bundle of R⁻¹. The one-point forms need only half the
# semiresidual data plus a coupling matrix; cross-checking them against
# each other and against the additive forms is the executable content of
# the whole construction.


def eval_R(b: RealizationBundle, z) -> np.ndarray:
    """R(z) = I - F_P (zI - A_P)^-1 Sr^-1 G_N."""
    d = b.data
    return _form(-1.0, d.F_P, 1.0 / _gaps(z, d.poles), b.Sr_inv_G_N)


def eval_Rinv(b: RealizationBundle, z) -> np.ndarray:
    """R^-1(z) = I + F_P Sr^-1 (zI - A_N)^-1 G_N."""
    d = b.data
    return _form(1.0, b.F_P_Sr_inv, 1.0 / _gaps(z, d.zeros), d.G_N)


def eval_R_left(b: RealizationBundle, z) -> np.ndarray:
    """R(z) = I + F_N Sl^-1 (zI - A_P)^-1 G_P (left-data form): R⁻¹ of
    the bundle of R⁻¹."""
    return eval_Rinv(b.inverse, z)


def eval_Rinv_left(b: RealizationBundle, z) -> np.ndarray:
    """R^-1(z) = I - F_N (zI - A_N)^-1 Sl^-1 G_P (left-data form): R of
    the bundle of R⁻¹."""
    return eval_R(b.inverse, z)


def _pair(x, y, stacked: np.ndarray):
    """(x, y, 1/(x − stacked[0]), 1/(y − stacked[1])), every point
    checked before a two-point form subtracts y from x; stacked is the
    bundle's 2×n stack of x-side and y-side points.

    When x and y are each a complex or float and n > 0, both points are
    cleared and weighed in one pass, cauchy._pair_gaps, and one
    reciprocal. Any other pair takes one _gaps call per point, after
    cauchy._point has read any other one point as a complex, so x − y
    is the difference of the points _gaps weighed. If either is a
    stack, both come back as complex arrays, of equal length if both
    are stacks, so lists subtract like arrays."""
    if (isinstance(x, (complex, float)) and isinstance(y, (complex, float))
            and stacked.shape[1]):
        w = 1.0 / _pair_gaps(x, y, stacked)
        return x, y, w[0], w[1]
    x = _point(x)
    u = 1.0 / _gaps(x, stacked[0])
    y = _point(y)
    v = 1.0 / _gaps(y, stacked[1])
    if u.ndim > 1 or v.ndim > 1:
        if u.ndim == v.ndim and len(u) != len(v):
            raise ValidationError(
                f"x has {len(u)} points and y has {len(v)}; "
                f"a stack of pairs needs equal lengths")
        x = np.asarray(x, dtype=np.complex128)
        y = np.asarray(y, dtype=np.complex128)
    return x, y, u, v


def eval_joint_right(b: RealizationBundle, x, y) -> np.ndarray:
    """R(x) R^-1(y) = I + (x-y) F_P (xI-A_P)^-1 Sr^-1 (yI-A_N)^-1 G_N."""
    d = b.data
    x, y, u, v = _pair(x, y, b._poles_zeros)
    return _form(x - y, d.F_P, u, d.G_N, b.Sr_inv, v)


def eval_joint_left(b: RealizationBundle, x, y) -> np.ndarray:
    """R^-1(x) R(y) = I + (x-y) F_N (xI-A_N)^-1 Sl^-1 (yI-A_P)^-1 G_P:
    eval_joint_right of the bundle of R⁻¹."""
    return eval_joint_right(b.inverse, x, y)


def eval_hybrid_right(b: RealizationBundle, x, y) -> np.ndarray:
    """R(x) R^-1(y) again, but routed through the left coupling matrix:

        I - (x-y) F_N Sl^-1 (xI-A_P)^-1 Sl (yI-A_N)^-1 Sl^-1 G_P

    eval_hybrid_left of the bundle of R⁻¹.
    """
    return eval_hybrid_left(b.inverse, x, y)


def eval_hybrid_left(b: RealizationBundle, x, y) -> np.ndarray:
    """R^-1(x) R(y) routed through the right coupling matrix:

        I - (x-y) F_P Sr^-1 (xI-A_N)^-1 Sr (yI-A_P)^-1 Sr^-1 G_N
    """
    d = b.data
    x, y, u, v = _pair(x, y, b._zeros_poles)
    return _form(y - x, b.F_P_Sr_inv, u, b.Sr_inv_G_N, b.Sr, v)
