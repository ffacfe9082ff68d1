"""Checks made apart from zpreal.

Every function here recomputes what it compares against from the raw
zero-pole arrays with plain numpy: the additive (partial-fraction) forms
of R and R^-1, the scalar determinant r(z) = prod(z - mu) / prod(z - lam),
and the closed-form coupling matrices. Nothing calls back into zpreal, so
a fault in the program cannot hide behind the same fault in its check.

Each check returns the relative error it saw; `Checker` records every
check whose error exceeds its tolerance. Tolerances scale with the
instance's own conditioning: TOL_FACTOR * eps * max(cond_Sr, 1), cond_Sr
being the Frobenius condition number of the closed-form right coupling
matrix. `Checker` also keeps the worst error per unit of that condition
number, err / cond_Sr (read off the tolerance), which becomes
`accuracy_digits`: the plain worst error moves by one to three digits from
seed to seed with the conditioning of the drawn instances, which hides a
change in the program's own accuracy.
"""

from __future__ import annotations

import math

import numpy as np

EPS = float(np.finfo(np.float64).eps)
# The largest error seen over the benchmark's inputs is about 40 * eps *
# cond_Sr (|Sr Sl - I| at n=128, the rest stay below 10 * eps * cond_Sr);
# the factor leaves headroom without letting a 1e-6 perturbation
# of the data pass (see test_perfbench.py).
TOL_FACTOR = 1e4


class Instance:
    """Zero-pole arrays pulled out of any object with the six fields."""

    def __init__(self, poles, zeros, F_P, G_P, F_N, G_N):
        self.poles = np.asarray(poles, dtype=np.complex128)
        self.zeros = np.asarray(zeros, dtype=np.complex128)
        self.F_P = np.asarray(F_P, dtype=np.complex128)
        self.G_P = np.asarray(G_P, dtype=np.complex128)
        self.F_N = np.asarray(F_N, dtype=np.complex128)
        self.G_N = np.asarray(G_N, dtype=np.complex128)
        self.k = self.F_P.shape[0]
        self.n = self.poles.size

    @classmethod
    def of(cls, data) -> "Instance":
        return cls(data.poles, data.zeros, data.F_P, data.G_P,
                   data.F_N, data.G_N)

    @classmethod
    def from_json(cls, obj: dict) -> "Instance":
        """Read the instance file format: complex numbers as [re, im]."""
        k, n = obj["k"], obj["n"]

        def cx(name, *shape):
            a = np.asarray(obj[name], dtype=np.float64).reshape(*shape, 2)
            return a[..., 0] + 1j * a[..., 1]

        return cls(cx("poles", n), cx("zeros", n), cx("F_P", k, n),
                   cx("G_P", n, k), cx("F_N", k, n), cx("G_N", n, k))

    def closed_couplings(self):
        """Sr[p, q] = G_N[p].F_P[:, q] / (mu_p - lam_q), Sl the mirror."""
        sr = (self.G_N @ self.F_P) / (self.zeros[:, None] - self.poles[None, :])
        sl = (self.G_P @ self.F_N) / (self.poles[:, None] - self.zeros[None, :])
        return sr, sl

    def cond_Sr(self) -> float:
        if self.n == 0:
            return 1.0
        sr, _ = self.closed_couplings()
        return float(np.linalg.cond(sr, "fro"))

    def R(self, z) -> np.ndarray:
        """Additive form of R at an array of points: shape (P, k, k)."""
        return _additive(self.F_P, self.G_P, self.poles, z)

    def Rinv(self, z) -> np.ndarray:
        return _additive(self.F_N, self.G_N, self.zeros, z)

    def det_R(self, z) -> np.ndarray:
        """r(z) = prod(z - mu_j) / prod(z - lam_j), the determinant of R."""
        return _det_ratio(z, self.zeros, self.poles)


def _det_ratio(z, zeros, poles) -> np.ndarray:
    z = np.asarray(z, dtype=np.complex128)
    return (np.prod(z[:, None] - zeros[None, :], axis=1)
            / np.prod(z[:, None] - poles[None, :], axis=1))


def _additive(f, g, pts, z) -> np.ndarray:
    z = np.asarray(z, dtype=np.complex128)
    k = f.shape[0]
    eye = np.broadcast_to(np.eye(k, dtype=np.complex128), (z.size, k, k))
    if pts.size == 0:
        return eye.copy()
    w = 1.0 / (z[:, None] - pts[None, :])
    return eye + np.einsum("kj,pj,jl->pkl", f, w, g)


def _fro(a) -> np.ndarray:
    return np.sqrt((np.abs(a) ** 2).sum(axis=(-2, -1)))


def rel_err(got, want) -> float:
    """Worst over a stack of matrices of |got - want|_F / max(1, |want|_F)."""
    got = np.asarray(got, dtype=np.complex128)
    want = np.asarray(want, dtype=np.complex128)
    if got.shape != want.shape:
        return math.inf
    if got.size == 0:
        return 0.0
    if got.ndim == 2:
        got, want = got[None], want[None]
    return float((_fro(got - want) / np.maximum(1.0, _fro(want))).max())


def det_err(got, want) -> float:
    """Worst of |got - want| / max(1, |want|) over arrays of numbers."""
    got, want = np.asarray(got), np.asarray(want)
    return float((np.abs(got - want) / np.maximum(1.0, np.abs(want))).max())


def tolerance(cond: float) -> float:
    return TOL_FACTOR * EPS * max(cond, 1.0)


class Checker:
    """Collects relative errors and the checks that broke their tolerance."""

    def __init__(self):
        self.worst = 0.0            # worst err / cond_Sr
        self.failures: list[str] = []

    def record(self, what: str, err: float, tol: float):
        if not err <= tol:          # NaN fails too
            self.failures.append(f"{what}: relative error {err:.3e} > {tol:.3e}")
            err = math.inf if math.isnan(err) else err
        self.worst = max(self.worst, err * TOL_FACTOR * EPS / tol)

    def fail(self, what: str):
        self.failures.append(what)

    @property
    def ok(self) -> bool:
        return not self.failures

    def digits(self) -> float:
        return -math.log10(max(self.worst, EPS / 16))

    # -- families of checks ------------------------------------------------

    def data(self, what: str, inst: Instance, pts, Sr=None, Sl=None,
             cond: float | None = None):
        """Is this data a function and its inverse with these poles/zeros?

        R(z) R^-1(z) = I and det R(z) = r(z) at pts; the Sylvester
        residuals and |Sr Sl - I| for the given coupling matrices (the
        closed forms when none are given).
        """
        if cond is None:
            cond = inst.cond_Sr()
        tol = tolerance(cond)
        r, ri = inst.R(pts), inst.Rinv(pts)
        eye = np.broadcast_to(np.eye(inst.k), r.shape)
        scale = np.maximum(1.0, _fro(r) * _fro(ri))
        self.record(f"{what} R*Rinv=I",
                    float((_fro(r @ ri - eye) / scale).max()), tol)
        self.record(f"{what} det R=r",
                    det_err(np.linalg.det(r), inst.det_R(pts)), tol)
        if inst.n == 0:
            return
        if Sr is None or Sl is None:
            Sr, Sl = inst.closed_couplings()
        rhs_r = inst.G_N @ inst.F_P
        res_r = inst.zeros[:, None] * Sr - Sr * inst.poles[None, :] - rhs_r
        rhs_l = inst.G_P @ inst.F_N
        res_l = inst.poles[:, None] * Sl - Sl * inst.zeros[None, :] - rhs_l
        self.record(f"{what} Sylvester Sr",
                    float(_fro(res_r) / max(_fro(rhs_r), 1e-300)), tol)
        self.record(f"{what} Sylvester Sl",
                    float(_fro(res_l) / max(_fro(rhs_l), 1e-300)), tol)
        prod = np.asarray(Sr) @ np.asarray(Sl)
        self.record(f"{what} Sr*Sl=I",
                    float(_fro(prod - np.eye(inst.n)) / math.sqrt(inst.n)), tol)

    def one_point(self, what: str, inst: Instance, which: str, pts, got,
                  cond: float):
        """A one-point evaluator against the additive form, and its det."""
        tol = tolerance(cond)
        want = inst.R(pts) if which == "R" else inst.Rinv(pts)
        self.record(f"{what} vs additive", rel_err(got, want), tol)
        r = inst.det_R(pts)
        det_want = r if which == "R" else 1.0 / r
        self.record(f"{what} det",
                    det_err(np.linalg.det(np.asarray(got)), det_want), tol)

    def two_point(self, what: str, inst: Instance, side: str, xs, ys, got,
                  cond: float):
        """Joint/hybrid forms against products of the additive forms.

        side "right" is R(x) R^-1(y), "left" is R^-1(x) R(y); the
        determinant is r(x)/r(y) or r(y)/r(x).
        """
        tol = tolerance(cond)
        if side == "right":
            want = inst.R(xs) @ inst.Rinv(ys)
            det_want = inst.det_R(xs) / inst.det_R(ys)
        else:
            want = inst.Rinv(xs) @ inst.R(ys)
            det_want = inst.det_R(ys) / inst.det_R(xs)
        self.record(f"{what} vs additive product", rel_err(got, want), tol)
        self.record(f"{what} det",
                    det_err(np.linalg.det(np.asarray(got)), det_want), tol)

    def chain(self, what: str, t_xy, t_yz, t_xz, cond: float):
        """T(x, y) T(y, z) = T(x, z) over stacks of program outputs."""
        lhs = np.asarray(t_xy) @ np.asarray(t_yz)
        self.record(f"{what} chain identity", rel_err(lhs, t_xz),
                    tolerance(cond))

    def split(self, what: str, parent: Instance, plus: Instance,
              minus: Instance, center: complex, radius: float, pts,
              cond: float):
        """R+ R- = R at pts, factor singularities on their own side, and
        det R+ equal to the product over the parent's inside points."""
        tol = tolerance(cond)
        self.data(f"{what} plus", plus, pts, cond=cond)
        self.data(f"{what} minus", minus, pts, cond=cond)
        self.record(f"{what} R+R-=R",
                    rel_err(plus.R(pts) @ minus.R(pts), parent.R(pts)), tol)

        def inside(z):
            return np.abs(z - center) < radius

        misplaced = int((~inside(plus.poles)).sum() + (~inside(plus.zeros)).sum()
                        + inside(minus.poles).sum() + inside(minus.zeros).sum())
        if misplaced:
            self.fail(f"{what}: {misplaced} factor singularities on the wrong side")
        lam_in = parent.poles[inside(parent.poles)]
        mu_in = parent.zeros[inside(parent.zeros)]
        if lam_in.size != plus.n or mu_in.size != plus.n:
            self.fail(f"{what}: plus factor has {plus.n} poles, parent has "
                      f"{lam_in.size} poles and {mu_in.size} zeros inside")
            return
        self.record(f"{what} det R+",
                    det_err(np.linalg.det(plus.R(pts)),
                            _det_ratio(pts, mu_in, lam_in)), tol)
