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

Both run the result through build_bundle, so a synthesized instance is
never handed back without its diagnostics passing.

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
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    DomainViolationError,
    GenerationFailedError,
    SingularCouplingError,
    ValidationError,
)
from .linalg import identity, inverse_cond, max_frobenius, rank
from .report import Report
from .realization import (
    RealizationBundle,
    _build_bundle,
    build_bundle,
    eval_R,
    eval_Rinv,
    eval_joint_right,
    sylvester_diag_solve,
)
from .zero_pole import SEP_MIN, ZeroPoleData

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
        f = np.asarray(self.F, dtype=np.complex128)
        g = np.asarray(self.G, dtype=np.complex128)
        lam = np.atleast_1d(np.asarray(self.pole_points, dtype=np.complex128))
        mu = np.atleast_1d(np.asarray(self.zero_points, dtype=np.complex128))
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
        f_zero = ~(np.abs(f).max(axis=0) > 0)
        g_zero = ~(np.abs(g).max(axis=1) > 0)
        if (f_zero | g_zero).any():
            j = int(np.argmax(f_zero | g_zero))
            if f_zero[j]:
                raise ValidationError(f"column {j} of F is zero")
            raise ValidationError(f"row {j} of G is zero")
        # not cauchy._min_pairwise_distance: the message names the
        # first close pair, which that distance alone cannot
        pts = np.concatenate([lam, mu])
        close = np.abs(pts[:, None] - pts[None, :]) < SEP_MIN
        pairs = np.argwhere(np.triu(close, 1))
        if pairs.size:
            i, j = pairs[0]
            raise ValidationError(
                f"points {i} and {j} closer than {SEP_MIN:.1e}"
            )

    @property
    def k(self) -> int:
        return self.F.shape[0]

    @property
    def n(self) -> int:
        return self.F.shape[1]


def _coupling_or_raise(s: np.ndarray, cond_max: float) -> np.ndarray:
    """S⁻¹, from the one inversion that also gives cond_F(S)."""
    s_inv, cond = inverse_cond(s)
    if not math.isfinite(cond) or cond > cond_max:
        raise SingularCouplingError(
            f"synthesized coupling matrix has condition {cond:.3e} "
            f"(limit {cond_max:.1e}); the chosen generator half does not "
            f"extend to a consistent instance",
            cond=cond,
        )
    return s_inv


def synthesize(inp: SynthesisInput,
               cond_max: float = DEFAULT_COND_MAX) -> RealizationBundle:
    """Extend (F_P, G_N) = (F, G) to full consistent data.

    The synthesized bundle satisfies Sr == S bitwise for the Sylvester
    solution S computed here, so the inverse taken for the condition
    check is the bundle's Sr_inv.
    """
    s = sylvester_diag_solve(inp.zero_points, inp.pole_points,
                             inp.G @ inp.F)
    s_inv = _coupling_or_raise(s, cond_max)
    data = ZeroPoleData(
        poles=inp.pole_points,
        zeros=inp.zero_points,
        F_P=inp.F,
        G_P=-(s_inv @ inp.G),
        F_N=inp.F @ s_inv,
        G_N=inp.G,
    )
    return _build_bundle(data, known=(s, s_inv))


def synthesize_hybrid(inp: SynthesisInput,
                      cond_max: float = DEFAULT_COND_MAX) -> RealizationBundle:
    """Extend (F_N, G_P) = (F, G) to full consistent data (mirror route).

    Here the Sylvester solution plays the role of Sl; the bundle built
    from the completed data satisfies Sl == S bitwise, and S's inverse
    becomes its Sl_inv.
    """
    s = sylvester_diag_solve(inp.pole_points, inp.zero_points,
                             inp.G @ inp.F)
    s_inv = _coupling_or_raise(s, cond_max)
    data = ZeroPoleData(
        poles=inp.pole_points,
        zeros=inp.zero_points,
        F_P=inp.F @ s_inv,
        G_P=inp.G,
        F_N=inp.F,
        G_N=-(s_inv @ inp.G),
    )
    return _build_bundle(data, known=(s, s_inv))


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
                         tol: float = 1e-8) -> Report:
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


def _is_infinite(a) -> bool:
    if a is None:
        return True
    return not math.isfinite(abs(complex(a)))


def extract_generator(t: ChainFunction, a):
    """Split the chain at anchor a: phi(x) = T(x, a), phi_inv(y) = T(a, y).

    Then phi(x) phi_inv(y) = T(x, y) and phi_inv is the pointwise
    inverse of phi. The anchor may be infinity when the chain carries
    closed-form limits; it must stay clear of both singularity sets
    otherwise.
    """
    if _is_infinite(a):
        fx = t.eval_with_y_at_infinity
        fy = t.eval_with_x_at_infinity
        if fx is None or fy is None:
            raise DomainViolationError(
                "this chain function has no closed-form limit at infinity"
            )
        return fx, fy
    a = complex(a)
    for pts in (t.x_singularities, t.y_singularities):
        if pts.size and np.abs(pts - a).min() <= 1e-12:
            raise DomainViolationError(
                f"anchor {a} sits on a singularity of the chain"
            )
    return (lambda x: t(x, a)), (lambda y: t(a, y))


def obstrollable(mat: np.ndarray, points) -> bool:
    """Row-space reachability of (mat, diag(points)).

    True when the stacked rows mat, mat D, ..., mat D^(n-1) with
    D = diag(points) span all n coordinates. The column-side variant
    for (diag(points), G) is obstrollable(G.T, points): transposition
    swaps the roles without changing the rank.
    """
    m = np.asarray(mat, dtype=np.complex128)
    pts = np.atleast_1d(np.asarray(points, dtype=np.complex128))
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
        if self.disk_radius <= 0:
            raise ValidationError("disk_radius must be positive")
        if self.min_separation <= 0:
            raise ValidationError("min_separation must be positive")
        if self.cond_limit <= 1:
            raise ValidationError("cond_limit must exceed 1")
        if self.max_retries < 1:
            raise ValidationError("max_retries must be at least 1")


_DRAW_BLOCK = 256


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
        close = np.tril(np.abs(cand[:, None] - cand[None, :]) < min_sep, -1)
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
    """
    if geometry is None:
        geometry = GeneratorGeometry()
    if k < 1 or n < 0:
        raise ValidationError("need k >= 1 and n >= 0")
    if n == 0:
        return build_bundle(ZeroPoleData.empty(k))
    rng = np.random.default_rng(seed)
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
            return synthesize(
                SynthesisInput(F=f, G=g, pole_points=lam, zero_points=mu),
                cond_max=geometry.cond_limit,
            )
        except SingularCouplingError:
            continue
    raise GenerationFailedError(
        f"no acceptable instance in {geometry.max_retries} attempts "
        f"(k={k}, n={n}, seed={seed})",
        attempts=geometry.max_retries,
    )
