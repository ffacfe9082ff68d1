"""Synthesis: build consistent zero-pole data from half a generator.

A full data set (F_P, G_P, F_N, G_N) is over-determined. Either half
determines the other through a coupling matrix, so a free choice of
one matrix pair plus disjoint pole and zero sets always synthesizes a
consistent instance:

    right route: choose (F, G) as (F_P, G_N), solve
        diag(zeros) S - S diag(poles) = G F
    and set F_N = F S^-1, G_P = -S^-1 G.

    hybrid route: choose (F, G) as (F_N, G_P), solve
        diag(poles) S - S diag(zeros) = G F
    and set F_P = F S^-1, G_N = -S^-1 G.

Both routes are one private routine, _synthesize, with the roles of the
point sets and of the two halves swapped. It solves its Sylvester
equation and inverts S once, and hands (S, S^-1) to the build as that
side's coupling matrix and inverse. The build solves and inverts only
the other coupling matrix, so a synthesis makes two Sylvester solves and
two inversions, and every build gate still runs: a synthesized instance
is never handed back without its diagnostics passing. The condition
number of that inversion is also the bundle's cond_Sr on the right
route.

Each datum is validated once. synthesize and synthesize_hybrid validate
a SynthesisInput first; factorize calls the routine directly with
slices of data it has validated already, and may hand it an inversion
of its own, which is used only for a bitwise equal S. random_instance
calls it directly too: its draws are valid by construction (see its
docstring), so they go to the core unvalidated. The routine then checks
only what it computed: the completed ZeroPoleData is made by
ZeroPoleData._completed, which checks the derived half and not again
the points and free half it was handed.

The module also carries the two-point chain function T(x, y), whose
algebra T(x, y) T(y, z) = T(x, z) is what makes one-point generator
extraction possible at any anchor, including infinity.

random_instance draws its points by rejection sampling in blocks: one
rng.random call per block of candidates and one distance matrix against
the points kept so far, with a Python loop only over candidates that
have a close pair inside their block. The points, the failures and the
generator state afterwards are those of drawing one candidate at a time.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, replace
from functools import cache
from typing import Callable

import numpy as np

from .cauchy import _gaps, _pairwise_distances
from .errors import (
    DomainViolationError,
    GenerationFailedError,
    PoleHitError,
    SingularCouplingError,
    ValidationError,
)
from .linalg import _complex_array, identity, inverse_cond, max_frobenius, rank
from .report import Report
from .realization import (
    RealizationBundle,
    _build_bundle,
    _sylvester,
    build_bundle,
    eval_R,
    eval_Rinv,
    eval_joint_right,
    sylvester_diag_solve,  # noqa: F401 - kept importable from here
)
from .zero_pole import REPORT_TOL, SEP_MIN, ZeroPoleData, _as_point_vector

__all__ = [
    "SynthesisInput",
    "synthesize",
    "synthesize_hybrid",
    "ChainFunction",
    "chain_from_bundle",
    "chain_identity_check",
    "extract_generator",
    "obstrollable",
    "GeneratorGeometry",
    "random_instance",
]

DEFAULT_COND_MAX = 1e12


@dataclass(frozen=True, eq=False)
class SynthesisInput:
    """Free half of a generator: F tall-side (k, n), G wide-side (n, k),
    and the two point sets the coupling will separate."""

    F: np.ndarray
    G: np.ndarray
    pole_points: np.ndarray
    zero_points: np.ndarray

    def __post_init__(self):
        f = _complex_array(self.F, "F")
        g = _complex_array(self.G, "G")
        lam = np.atleast_1d(_complex_array(self.pole_points, "pole_points"))
        mu = np.atleast_1d(_complex_array(self.zero_points, "zero_points"))
        object.__setattr__(self, "F", f)
        object.__setattr__(self, "G", g)
        object.__setattr__(self, "pole_points", lam)
        object.__setattr__(self, "zero_points", mu)
        if f.ndim != 2 or g.ndim != 2:
            raise ValidationError("F and G must be matrices")
        k, n = f.shape
        if k < 1:
            raise ValidationError("need at least one row in F")
        if g.shape != (n, k):
            raise ValidationError(
                f"G has shape {g.shape}, expected ({n}, {k})"
            )
        if lam.size != n or mu.size != n:
            raise ValidationError(
                f"need {n} pole points and {n} zero points, got "
                f"{lam.size} and {mu.size}"
            )
        if not (np.isfinite(f).all() and np.isfinite(g).all()
                and np.isfinite(lam).all() and np.isfinite(mu).all()):
            raise ValidationError("non-finite synthesis input")
        f_zero = ~f.any(axis=0)
        g_zero = ~g.any(axis=1)
        if (f_zero | g_zero).any():
            j = int(np.argmax(f_zero | g_zero))
            if f_zero[j]:
                raise ValidationError(f"column {j} of F is zero")
            raise ValidationError(f"row {j} of G is zero")
        for name, pts in (("pole_points", lam), ("zero_points", mu)):
            if pts.ndim != 1:
                raise ValidationError(f"{name} must be a flat list of points")
        # one pass over the distances: their minimum is tested first,
        # and the first close pair in row-major order is looked up only
        # for the message
        dist = _pairwise_distances(np.concatenate([lam, mu]))
        if dist.size and dist.min() < SEP_MIN:
            i, j = np.argwhere(np.triu(dist < SEP_MIN, 1))[0]
            raise ValidationError(
                f"points {i} and {j} closer than {SEP_MIN:.1e}"
            )

    @property
    def k(self) -> int:
        return self.F.shape[0]

    @property
    def n(self) -> int:
        return self.F.shape[1]


@cache
def _shared_empty_bundle(k: int) -> RealizationBundle:
    return build_bundle(ZeroPoleData.empty(k))


def _empty_bundle(k: int) -> RealizationBundle:
    """build_bundle(ZeroPoleData.empty(k)), built once per k, for
    factorize's empty side.

    The n = 0 bundle's arrays are all empty, so its copies can share
    them; each copy gets a diagnostics dict of its own.
    """
    e = _shared_empty_bundle(k)
    return replace(e, diagnostics=dict(e.diagnostics))


def _check_cond_max(cond_max: float) -> None:
    """Refuse a NaN limit and a limit below 1. Every condition number
    passes `cond > nan`, so a NaN would switch the gate it sets off; and
    cond_F(S) ≥ n for n ≥ 1 (1 for the empty S), so a limit below 1
    refuses every matrix and asks an ill-posed question. A value that
    is not a real number is refused too."""
    try:
        nan = math.isnan(cond_max)
    except TypeError:
        raise ValidationError(f"cond_max must be a real number, "
                              f"got {cond_max!r}") from None
    if nan:
        raise ValidationError("cond_max must not be NaN")
    if not cond_max >= 1:
        raise ValidationError(f"cond_max must be at least 1, got {cond_max:g}")


def _synthesize(F, G, poles, zeros, hybrid: bool, cond_max: float,
                known=None) -> RealizationBundle:
    """The one synthesis routine behind synthesize and synthesize_hybrid.

    The right route (hybrid False) takes (F, G) as (F_P, G_N) and solves
    diag(zeros)·S − S·diag(poles) = G·F for S = Sr; the hybrid route
    takes them as (F_N, G_P) and solves the mirror equation for S = Sl.
    Either way the derived half is F·S⁻¹ and −S⁻¹·G, and S with the S⁻¹
    of its condition check goes on to the build, which then solves and
    inverts only the other coupling matrix.

    The arguments are not validated here: they must satisfy what
    SynthesisInput checks, as slices of validated ZeroPoleData do. Only
    the derived half is checked, by ZeroPoleData._completed.
    known is None or (S, S⁻¹, cond_F(S)) from the caller's own
    inversion; it is used only when S equals the solved matrix bitwise.
    """
    a, b = (poles, zeros) if hybrid else (zeros, poles)
    # input that overflows gives a non-finite S here without a warning,
    # and inverse_cond refuses it as singular
    with np.errstate(over="ignore", invalid="ignore"):
        s = _sylvester(a, b, G @ F)
    if known is not None and np.array_equal(s, known[0]):
        s_inv, cond = known[1], known[2]
    else:
        s_inv, cond = inverse_cond(s)
    if not math.isfinite(cond) or cond > cond_max:
        raise SingularCouplingError(
            f"synthesized coupling matrix has condition {cond:.3e} "
            f"(limit {cond_max:.1e}); the chosen generator half does not "
            f"extend to a consistent instance",
            cond=cond,
        )
    # an overflowing derived half is refused below as non-finite, with
    # no warning on the way
    with np.errstate(over="ignore", invalid="ignore"):
        derived = (F @ s_inv, -(s_inv @ G))
    data = ZeroPoleData._completed(poles, zeros, (F, G), derived, hybrid)
    if hybrid:
        return _build_bundle(data, sl=(s, s_inv, cond))
    return _build_bundle(data, sr=(s, s_inv, cond))


def synthesize(inp: SynthesisInput,
               cond_max: float = DEFAULT_COND_MAX) -> RealizationBundle:
    """Extend (F_P, G_N) = (F, G) to full consistent data.

    The synthesized bundle satisfies Sr == S bitwise for the Sylvester
    solution S computed here, so the inverse taken for the condition
    check is the bundle's Sr_inv.
    """
    _check_cond_max(cond_max)
    return _synthesize(inp.F, inp.G, inp.pole_points, inp.zero_points,
                       False, cond_max)


def synthesize_hybrid(inp: SynthesisInput,
                      cond_max: float = DEFAULT_COND_MAX) -> RealizationBundle:
    """Extend (F_N, G_P) = (F, G) to full consistent data (mirror route).

    Here the Sylvester solution plays the role of Sl; the bundle built
    from the completed data satisfies Sl == S bitwise, and S's inverse
    becomes its Sl_inv.
    """
    _check_cond_max(cond_max)
    return _synthesize(inp.F, inp.G, inp.pole_points, inp.zero_points,
                       True, cond_max)


@dataclass(frozen=True, eq=False)
class ChainFunction:
    """Two-point function T(x, y) with T(x, y) T(y, z) = T(x, z).

    x must stay clear of x_singularities and y of y_singularities.
    evaluate takes a pair of points and returns a dim×dim array, and it
    must also take two 1-d arrays of M points and return the M×dim×dim
    stack of values at the pairs (x[i], y[i]), as chain_from_bundle's
    does: chain_identity_check evaluates whole batches of pairs. The
    optional infinity evaluators are closed-form limits, not large-
    argument approximations.
    """

    dim: int
    evaluate: Callable[[complex, complex], np.ndarray]
    x_singularities: np.ndarray
    y_singularities: np.ndarray
    eval_with_x_at_infinity: Callable[[complex], np.ndarray] | None = None
    eval_with_y_at_infinity: Callable[[complex], np.ndarray] | None = None

    def __call__(self, x: complex, y: complex) -> np.ndarray:
        return self.evaluate(x, y)


def chain_from_bundle(b: RealizationBundle) -> ChainFunction:
    """T(x, y) = R(x) R^-1(y) with its exact limits at infinity."""
    return ChainFunction(
        dim=b.k,
        evaluate=lambda x, y: eval_joint_right(b, x, y),
        x_singularities=b.data.poles.copy(),
        y_singularities=b.data.zeros.copy(),
        eval_with_x_at_infinity=lambda y: eval_Rinv(b, y),
        eval_with_y_at_infinity=lambda x: eval_R(b, x),
    )


def chain_identity_check(t: ChainFunction, triples,
                         tol: float = REPORT_TOL) -> Report:
    """Verify T(x, y) T(y, z) = T(x, z) and T(w, w) = I over triples.

    T is evaluated twice: once over the 3·len(triples) chain pairs and
    once over the as many diagonal pairs.
    """
    triples = list(triples)
    worst_chain = 0.0
    worst_diag = 0.0
    if triples:
        m = len(triples)
        x, y, z = (np.array(c) for c in zip(*triples))
        v = t(np.concatenate([x, y, x]), np.concatenate([y, z, z]))
        worst_chain = max_frobenius(v[:m] @ v[m:2 * m] - v[2 * m:])
        w = np.concatenate([x, y, z])
        worst_diag = max_frobenius(t(w, w) - identity(t.dim))
    rep = Report()
    rep.add("chain_identity", worst_chain, tol)
    rep.add("diagonal_unity", worst_diag, tol)
    rep.info["triples"] = len(triples)
    return rep


def extract_generator(t: ChainFunction, a):
    """Split the chain at anchor a: phi(x) = T(x, a), phi_inv(y) = T(a, y).

    Then phi(x) phi_inv(y) = T(x, y) and phi_inv is the pointwise
    inverse of phi. The anchor may be infinity when the chain carries
    closed-form limits; it must stay clear of both singularity sets
    otherwise. A NaN anchor, and one that is not a number at all, is
    refused.
    """
    try:
        size = math.inf if a is None else abs(complex(a))
    except (TypeError, ValueError, OverflowError):
        size = math.nan
    if math.isnan(size):
        raise DomainViolationError(f"anchor {a} is not a number")
    if math.isinf(size):
        fx = t.eval_with_y_at_infinity
        fy = t.eval_with_x_at_infinity
        if fx is None or fy is None:
            raise DomainViolationError(
                "this chain function has no closed-form limit at infinity"
            )
        return fx, fy
    a = complex(a)
    try:
        _gaps(a, np.concatenate([t.x_singularities, t.y_singularities]))
    except PoleHitError as exc:
        raise DomainViolationError(
            f"anchor {a} sits on a singularity of the chain"
        ) from exc
    return (lambda x: t(x, a)), (lambda y: t(a, y))


def obstrollable(mat: np.ndarray, points) -> bool:
    """Row-space reachability of (mat, diag(points)).

    True when the stacked rows mat, mat D, ..., mat D^(n-1) with
    D = diag(points) span all n coordinates. The column-side variant
    for (diag(points), G) is obstrollable(G.T, points): transposition
    swaps the roles without changing the rank. A matrix or points that
    are not finite numbers are refused with ValidationError.
    """
    m = _complex_array(mat, "matrix")
    pts = _as_point_vector(points, "points")
    n = pts.size
    if m.ndim != 2 or m.shape[1] != n:
        raise ValidationError(
            f"matrix shape {m.shape} does not match {n} points"
        )
    if n == 0:
        return True
    blocks = []
    power = np.ones(n, dtype=np.complex128)
    for _ in range(n):
        blocks.append(m * power[None, :])
        power = power * pts
    return rank(np.vstack(blocks)) == n


@dataclass(frozen=True)
class GeneratorGeometry:
    """Sampling policy for random instances."""

    disk_radius: float = 2.0
    min_separation: float = 0.05
    cond_limit: float = 1e6
    max_retries: int = 50

    def __post_init__(self):
        for name in ("disk_radius", "min_separation", "cond_limit"):
            if not isinstance(getattr(self, name), numbers.Real):
                raise ValidationError(f"{name} must be a real number, "
                                      f"got {getattr(self, name)!r}")
        # `not x > 0` also refuses NaN, which every `<=` test lets pass
        if not self.disk_radius > 0:
            raise ValidationError("disk_radius must be positive")
        if not math.isfinite(self.disk_radius):
            raise ValidationError("disk_radius must be finite")
        if not self.min_separation > 0:
            raise ValidationError("min_separation must be positive")
        # random_instance's draws skip SynthesisInput, so they must be
        # separated as it would require
        if not self.min_separation >= SEP_MIN:
            raise ValidationError(
                f"min_separation must be at least {SEP_MIN:.1e}, "
                f"got {self.min_separation:g}"
            )
        if not self.cond_limit > 1:
            raise ValidationError("cond_limit must exceed 1")
        _check_integer(self.max_retries, "max_retries")
        if self.max_retries < 1:
            raise ValidationError("max_retries must be at least 1")


def _check_integer(value, name: str) -> None:
    try:
        operator.index(value)
    except TypeError:
        raise ValidationError(
            f"{name} must be an integer, got {value}"
        ) from None


_DRAW_BLOCK = 256
# True below the diagonal; its leading m×m block is the same mask for a
# block of m candidates
_STRICT_LOWER = np.tri(_DRAW_BLOCK, _DRAW_BLOCK, -1, dtype=bool)
_STRICT_LOWER.flags.writeable = False


def _draw_separated(rng, count: int, radius: float, min_sep: float):
    """count points uniform in the disk |z| <= radius, pairwise at least
    min_sep apart, or None when 400·count candidates do not suffice.

    Rejection sampling: candidate c is z = r·e^(i·ang) with
    r = radius·√u and ang = 2π·v, from the generator's doubles 2c and
    2c+1, and it is kept when it is min_sep clear of every point kept
    before it. Candidates are drawn in blocks no longer than the number
    of points still missing, so a block never draws past the candidate
    that completes the set, and the points, the None and the generator
    state afterwards are those of one rng.uniform() pair per candidate.
    Blocks are also capped at _DRAW_BLOCK candidates, which bounds the
    distance matrices at _DRAW_BLOCK × count.
    """
    pts = np.empty(count, dtype=np.complex128)
    accepted = 0
    left = 400 * max(count, 1)
    while accepted < count:
        m = min(count - accepted, left, _DRAW_BLOCK)
        if m == 0:
            return None
        left -= m
        u = rng.random(2 * m)
        r = radius * np.sqrt(u[0::2])
        # libm per candidate: numpy's vector cos/sin may differ by an ulp
        ang = (2.0 * math.pi * u[1::2]).tolist()
        cand = np.empty(m, dtype=np.complex128)
        cand.real = r * np.fromiter(map(math.cos, ang), np.float64, m)
        cand.imag = r * np.fromiter(map(math.sin, ang), np.float64, m)
        keep = np.ones(m, dtype=bool)
        if accepted:
            gaps = np.abs(cand[:, None] - pts[None, :accepted])
            keep = ~(gaps < min_sep).any(axis=1)
        # close[i, j]: candidate j < i of this block is too close to i
        close = ((np.abs(cand[:, None] - cand[None, :]) < min_sep)
                 & _STRICT_LOWER[:m, :m])
        for i in np.flatnonzero(close.any(axis=1)):
            if keep[i] and (close[i, :i] & keep[:i]).any():
                keep[i] = False
        got = cand[keep]
        pts[accepted:accepted + got.size] = got
        accepted += got.size
    return pts


def random_instance(k: int, n: int, seed: int,
                    geometry: GeneratorGeometry | None = None
                    ) -> RealizationBundle:
    """Draw a consistent random instance, deterministically in seed.

    Points are uniform in the disk with pairwise separation enforced;
    F columns and G rows are complex-normal scaled to unit norm. Draws
    whose coupling matrix conditions worse than geometry.cond_limit are
    rejected and retried.

    Each draw meets every SynthesisInput check by construction, so it
    goes to _synthesize without one: its points are finite (the disk
    radius is), flat, and geometry.min_separation ≥ SEP_MIN apart by
    the same np.abs differences SynthesisInput would recompute; F and G
    have unit columns and rows; and the geometry checked cond_limit.
    """
    if geometry is None:
        geometry = GeneratorGeometry()
    _check_integer(k, "k")
    _check_integer(n, "n")
    if k < 1 or n < 0:
        raise ValidationError("need k >= 1 and n >= 0")
    try:
        rng = np.random.default_rng(seed)
    except (TypeError, ValueError):
        raise ValidationError(
            f"seed must be a non-negative integer, got {seed}"
        ) from None
    for _ in range(geometry.max_retries):
        pts = _draw_separated(rng, 2 * n, geometry.disk_radius,
                              geometry.min_separation)
        if pts is None:
            continue
        lam, mu = pts[:n], pts[n:]
        f = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
        g = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
        f = f / np.linalg.norm(f, axis=0, keepdims=True)
        g = g / np.linalg.norm(g, axis=1, keepdims=True)
        try:
            return _synthesize(f, g, lam, mu, False, geometry.cond_limit)
        except SingularCouplingError:
            continue
    raise GenerationFailedError(
        f"no acceptable instance in {geometry.max_retries} attempts "
        f"(k={k}, n={n}, seed={seed})",
        attempts=geometry.max_retries,
    )
