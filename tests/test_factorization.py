"""Contour splitting: partition, factor construction, existence sweeps."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from zpreal.errors import (
    CardinalityMismatchError,
    NoFactorizationError,
    OnContourError,
    PoleHitError,
    ValidationError,
    VerificationFailedError,
)
from zpreal import cauchy
from zpreal import factorization as fz
from zpreal import linalg
from zpreal import realization as rz
from zpreal import synthesis as sy
from zpreal import zero_pole
from zpreal.linalg import frobenius, identity, max_frobenius
from zpreal.synthesis import SynthesisInput, synthesize, synthesize_hybrid
from zpreal.zero_pole import (
    ZeroPoleData,
    check_consistency,
    factor_rank_one,
    pole_residue,
)

from zpreal.cli import main
from zpreal.serialize import save_instance

from conftest import make_d2, make_scalar_instance
from helpers import (assert_same_bundle, balanced_instance, count_calls,
                     same_bits)

UNIT = fz.CircleContour(0.0, 1.0)


def test_contour_validation():
    with pytest.raises(ValidationError):
        fz.CircleContour(0.0, 0.0)
    with pytest.raises(ValidationError):
        fz.CircleContour(0.0, float("inf"))
    c = fz.CircleContour(1.0 + 1.0j, 2.0)
    assert c.contains(1.0 + 1.5j)
    assert not c.contains(4.0)


@pytest.mark.parametrize("center", [complex(np.nan, 0.0),
                                    complex(0.0, np.inf)])
def test_contour_refuses_a_non_finite_center(center):
    with pytest.raises(ValidationError,
                       match="^contour center must be finite$"):
        fz.CircleContour(center, 1.0)


def test_partition_d2_unit_circle(d2):
    part = fz.partition(d2, UNIT)
    assert part.idxP_plus == (0,) and part.idxP_minus == (1,)
    assert part.idxN_plus == (0,) and part.idxN_minus == (1,)
    assert part.n_plus == 1 and part.n_minus == 1
    assert sorted(part.pole_order) == [0, 1]


def test_partition_rejects_point_on_contour():
    d = make_scalar_instance([1.0, 3.0], [0.5, 4.0])
    with pytest.raises(OnContourError) as exc:
        fz.partition(d, UNIT)
    assert exc.value.kind == "pole"
    assert exc.value.point == 1.0 + 0j


def _partition_reference(d, c):
    """partition through CircleContour.gap and contains, point by point."""
    sides = []
    for points, kind in ((d.poles, "pole"), (d.zeros, "zero")):
        inside, outside = [], []
        for j, z in enumerate(points):
            z = complex(z)
            if c.gap(z) < fz.BOUNDARY_EPS * c.radius:
                return OnContourError, (z, c.gap(z), kind)
            (inside if c.contains(z) else outside).append(j)
        sides += [tuple(inside), tuple(outside)]
    return sides


@pytest.mark.parametrize("seed", range(12))
def test_partition_matches_the_contour_methods(seed):
    # points scattered about a circle off the origin, some within the
    # boundary band (1e-9 of the radius) or just outside it; the zeros
    # of even seeds sit at the poles' radii, so that their sides balance
    rng = np.random.default_rng(seed)
    c = fz.CircleContour(0.3 - 0.7j, 1.3)
    n = 6
    offsets = [-0.5, 0.5, 3e-10, -5e-10, 2e-9, -3e-9]
    odds = [.44, .44, .03, .03, .03, .03]
    radii = rng.choice(offsets, size=n, p=odds)
    radii = np.concatenate([radii, rng.permutation(radii) if seed % 2 == 0
                            else rng.choice(offsets, size=n, p=odds)])
    pts = c.center + c.radius * (1.0 + radii) * np.exp(
        2j * np.pi * rng.random(2 * n))
    d = make_scalar_instance(pts[:n], pts[n:])
    want = _partition_reference(d, c)
    if want[0] is OnContourError:
        with pytest.raises(OnContourError) as exc:
            fz.partition(d, c)
        assert str(exc.value) == str(OnContourError(*want[1]))
        assert (exc.value.point, exc.value.distance,
                exc.value.kind) == want[1]
        return
    try:
        got = fz.partition(d, c)
    except CardinalityMismatchError:
        assert len(want[0]) != len(want[2])
        return
    assert [got.idxP_plus, got.idxP_minus, got.idxN_plus,
            got.idxN_minus] == want


def test_partition_rejects_unbalanced_split():
    d = make_scalar_instance([0.5, 0.6], [3.0, 4.0])
    with pytest.raises(CardinalityMismatchError) as exc:
        fz.partition(d, UNIT)
    assert (exc.value.n_poles_inside, exc.value.n_zeros_inside) == (2, 0)


def test_factorize_d2_matches_closed_forms(d2):
    b = rz.build_bundle(d2)
    res = fz.factorize(b, UNIT)
    assert res.report.passed
    angles = np.linspace(0.0, 2.0 * np.pi, 21)[:-1]
    pts = np.concatenate([np.exp(1j * angles),
                          0.27 * np.exp(1j * angles[:10]),
                          2.6 * np.exp(1j * angles[:10])])
    for z in pts:
        plus_oracle = (z - 0.3) / (z - 0.5)
        minus_oracle = (z - 3.0) / (z - 2.0)
        assert abs(rz.eval_R(res.plus, z)[0, 0] - plus_oracle) < 1e-9
        assert abs(rz.eval_R(res.minus, z)[0, 0] - minus_oracle) < 1e-9


def test_factors_are_valid_bundles_and_split_correctly():
    b = balanced_instance(2, 3, 3, seed=88)
    res = fz.factorize(b, UNIT)
    assert check_consistency(res.plus.data).passed
    assert check_consistency(res.minus.data).passed
    for z in np.concatenate([res.plus.data.poles, res.plus.data.zeros]):
        assert abs(z) < 1.0
    for z in np.concatenate([res.minus.data.poles, res.minus.data.zeros]):
        assert abs(z) > 1.0


def test_factor_product_reproduces_function():
    for seed in (5, 6, 7):
        b = balanced_instance(2, 2, 3, seed=seed)
        res = fz.factorize(b, UNIT)
        rng = np.random.default_rng(seed + 100)
        sing = np.concatenate([b.data.poles, b.data.zeros])
        checked = 0
        while checked < 12:
            z = complex(*rng.uniform(-3, 3, size=2))
            if np.abs(z - sing).min() < 0.1 or UNIT.gap(z) < 0.05:
                continue
            checked += 1
            prod = rz.eval_R(res.plus, z) @ rz.eval_R(res.minus, z)
            assert frobenius(prod - rz.eval_R(b, z)) < 1e-7


def test_factorize_verification_evaluates_each_factor_once_per_sample(monkeypatch):
    b = balanced_instance(2, 3, 3, seed=88)
    gaps = count_calls(monkeypatch, cauchy._gaps)
    forms = count_calls(monkeypatch, zero_pole._form)
    res = fz.factorize(b, UNIT)
    assert res.report.passed
    # one clearance pass, over R's poles, which are R₊'s and R₋'s
    assert len(gaps) == 1
    samples, points = gaps[0]
    assert samples.shape == (40,)
    assert points is b.data.poles
    # one batched call each for R-, R+ and R itself, plus the Schur
    # route's R-, on the 40 samples; _form(scale, left, u, right)
    # takes each bundle's own F_P and the weights of its own poles
    assert len(forms) == 4
    for bundle in (res.minus, res.plus, b):
        (args,) = [args for args in forms if args[1] is bundle.data.F_P]
        u = args[2]
        assert u.flags.c_contiguous
        assert same_bits(u, 1.0 / (samples[:, None]
                                   - bundle.data.poles[None, :]))


def test_factor_data_maps_back_through_permutation():
    b = balanced_instance(3, 2, 2, seed=13)
    res = fz.factorize(b, UNIT)
    d = b.data
    np.testing.assert_array_equal(
        res.plus.data.poles, d.poles[list(res.split.idxP_plus)])
    np.testing.assert_array_equal(
        res.minus.data.zeros, d.zeros[list(res.split.idxN_minus)])
    # the plus factor keeps the original pole semiresidual columns and
    # inside zero rows verbatim
    np.testing.assert_array_equal(
        res.plus.data.F_P, d.F_P[:, list(res.split.idxP_plus)])
    np.testing.assert_array_equal(
        res.plus.data.G_N, d.G_N[list(res.split.idxN_plus), :])


def test_factors_normalized_at_infinity():
    b = balanced_instance(2, 2, 2, seed=19)
    res = fz.factorize(b, UNIT)
    far = 1e8 + 1e8j
    assert frobenius(rz.eval_R(res.plus, far) - identity(2)) < 1e-6
    assert frobenius(rz.eval_R(res.minus, far) - identity(2)) < 1e-6


def test_factorize_all_outside_gives_identity_plus(d2):
    b = rz.build_bundle(d2)
    res = fz.factorize(b, fz.CircleContour(50.0, 1.0))
    assert res.split.n_plus == 0
    np.testing.assert_array_equal(rz.eval_R(res.plus, 0.77j), identity(1))
    for z in (1.4 + 0.2j, -3.0 + 1.0j):
        assert abs(rz.eval_R(res.minus, z)[0, 0]
                   - rz.eval_R(b, z)[0, 0]) < 1e-12


def test_factorize_all_inside_gives_identity_minus(d2):
    b = rz.build_bundle(d2)
    res = fz.factorize(b, fz.CircleContour(0.0, 40.0))
    assert res.split.n_minus == 0
    np.testing.assert_array_equal(rz.eval_R(res.minus, 3.3), identity(1))
    assert abs(rz.eval_R(res.plus, 1.4j)[0, 0]
               - rz.eval_R(b, 1.4j)[0, 0]) < 1e-12


def _sweep_instance(b1: float):
    """k=2, n=4 family whose leading coupling block degenerates as the
    swept zero crosses b1* = -17/90."""
    poles = np.array([0.2, -0.3, 2.0, -2.5], dtype=np.complex128)
    zeros = np.array([b1, -0.5, 3.0, -3.0], dtype=np.complex128)
    f = np.array([[1.0, 0.0, 1.0, 1.0],
                  [0.0, 1.0, 1.0, -1.0]], dtype=np.complex128)
    g = np.array([[1.0, 1.0],
                  [1.0, -1.0],
                  [1.0, 2.0],
                  [2.0, 1.0]], dtype=np.complex128)
    return synthesize(SynthesisInput(F=f, G=g, pole_points=poles,
                                     zero_points=zeros))


SWEEP_ROOT = -17.0 / 90.0


def test_existence_flips_across_degeneracy():
    good_low = fz.factorization_exists(_sweep_instance(-0.25), UNIT)
    good_high = fz.factorization_exists(_sweep_instance(-0.10), UNIT)
    assert good_low.verdict == fz.EXISTS
    assert good_high.verdict == fz.EXISTS
    dead = fz.factorization_exists(_sweep_instance(SWEEP_ROOT), UNIT)
    assert dead.verdict == fz.NOT_EXISTS
    assert dead.cond_S11 > 1e8 or not np.isfinite(dead.cond_S11)


def test_determinant_of_leading_block_changes_sign():
    def det_s11(b1):
        b = _sweep_instance(b1)
        part = fz.partition(b.data, UNIT)
        s11 = b.Sr[np.ix_(list(part.idxN_plus), list(part.idxP_plus))]
        return complex(np.linalg.det(s11))

    lo, hi = det_s11(-0.25), det_s11(-0.10)
    assert lo.real * hi.real < 0
    assert abs(det_s11(SWEEP_ROOT)) < 1e-12


def test_factorize_refuses_degenerate_block():
    b = _sweep_instance(SWEEP_ROOT + 1e-13)
    with pytest.raises(NoFactorizationError) as exc:
        fz.factorize(b, UNIT)
    assert exc.value.cond > 1e8


def test_factorize_refuses_disagreeing_outside_factors():
    # the Schur-complement form and the synthesized outside factor
    # disagree by 7.4e-9 on this 16 + 16 split, above AGREE_TOL
    b = balanced_instance(1, 16, 16, 3)
    with pytest.raises(VerificationFailedError,
                       match="^two independent constructions of the outside "
                             "factor disagree") as exc:
        fz.factorize(b, UNIT)
    assert exc.value.tol == fz.AGREE_TOL < exc.value.residual


def test_factorize_refuses_a_product_above_its_tolerance():
    b = balanced_instance(2, 2, 2, 5)
    with pytest.raises(VerificationFailedError,
                       match="^factor product does not reproduce the "
                             "function") as exc:
        fz.factorize(b, UNIT, fail_tol=1e-300)
    assert exc.value.tol == 1e-300 < exc.value.residual


def test_factorize_refuses_an_outside_factor_above_cond_max():
    # a cond_max between cond(S11) and the outside factor's coupling
    # condition passes the leading block and refuses the factor
    b = balanced_instance(2, 2, 2, 1)
    result = fz.factorize(b, UNIT)
    cond_minus = linalg.cond_frobenius(result.minus.Sl)
    assert result.cond_S11 < cond_minus
    limit = math.sqrt(result.cond_S11 * cond_minus)
    with pytest.raises(NoFactorizationError,
                       match="^factor synthesis failed: synthesized coupling "
                             "matrix has condition") as exc:
        fz.factorize(b, UNIT, cond_max=limit)
    assert exc.value.cond == result.cond_S11


def test_boundary_verdict_reachable_by_bisection():
    # cond(S11) grows without bound approaching the root, so somewhere
    # between a clean Exists and the root the verdict must pass through
    # the reported-honestly band
    lo, hi = SWEEP_ROOT + 1e-12, -0.10
    verdict = None
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        verdict = fz.factorization_exists(_sweep_instance(mid), UNIT)
        if verdict.verdict == fz.BOUNDARY:
            break
        if verdict.verdict == fz.EXISTS:
            hi = mid
        else:
            lo = mid
    assert verdict is not None and verdict.verdict == fz.BOUNDARY
    assert 1e7 <= verdict.cond_S11 <= 1e8


def test_residue_quadrature_scalar_pole():
    f = lambda z: np.array([[3.0 / (z - 0.5) + np.exp(z)]])
    res = fz.residue_quadrature(f, 0.5, 0.3)
    np.testing.assert_allclose(res, [[3.0]], atol=1e-10)


def test_residue_quadrature_validation():
    with pytest.raises(ValidationError):
        fz.residue_quadrature(lambda z: np.eye(1), 0.0, -1.0)
    with pytest.raises(ValidationError):
        fz.residue_quadrature(lambda z: np.eye(1), 0.0, 1.0, nodes=2)
    with pytest.raises(ValidationError,
                       match="^center and radius must be finite$"):
        fz.residue_quadrature(lambda z: np.eye(1), 0.0, 10**400)


def test_existence_verdict_reads_as_one_line():
    v = fz.ExistenceVerdict(verdict=fz.BOUNDARY, cond_S11=1234567.8,
                            n_plus=2, n_minus=1)
    assert str(v) == "Boundary (cond S11 = 1.23457e+06, split 2/1)"


def test_residue_quadrature_recovers_pole_residue():
    b = balanced_instance(2, 2, 2, seed=23)
    d = b.data
    sing = np.concatenate([d.poles, d.zeros])
    for j in range(d.n):
        others = np.delete(sing, j)
        radius = 0.5 * np.abs(others - d.poles[j]).min()
        got = fz.residue_quadrature(lambda z: rz.eval_R(b, z),
                                    complex(d.poles[j]), radius)
        np.testing.assert_allclose(got, pole_residue(d, j), atol=1e-8)


def test_plus_factor_inherits_pole_directions():
    # quadrature-extracted residues of the original function and of the
    # inside factor share their column direction at every inside pole
    for seed in (31, 32, 33):
        b = balanced_instance(2, 2, 1, seed=seed)
        res = fz.factorize(b, UNIT)
        d = b.data
        sing = np.concatenate([d.poles, d.zeros])
        for j_local, j_orig in enumerate(res.split.idxP_plus):
            lam = complex(d.poles[j_orig])
            radius = 0.5 * min(
                np.abs(np.delete(sing, j_orig) - lam).min(),
                UNIT.gap(lam))
            m_full = fz.residue_quadrature(
                lambda z: rz.eval_R(b, z), lam, radius)
            m_plus = fz.residue_quadrature(
                lambda z: rz.eval_R(res.plus, z), lam, radius)
            f_full, _ = factor_rank_one(m_full)
            f_plus, _ = factor_rank_one(m_plus)
            np.testing.assert_allclose(f_plus, f_full, atol=1e-6)


def test_plus_factor_inherits_zero_rows_of_inverse():
    b = balanced_instance(2, 2, 1, seed=37)
    res = fz.factorize(b, UNIT)
    d = b.data
    sing = np.concatenate([d.poles, d.zeros])
    for j_local, j_orig in enumerate(res.split.idxN_plus):
        mu = complex(d.zeros[j_orig])
        radius = 0.5 * min(
            np.abs(np.delete(sing, d.n + j_orig) - mu).min(),
            UNIT.gap(mu))
        m_full = fz.residue_quadrature(
            lambda z: rz.eval_Rinv(b, z), mu, radius)
        m_plus = fz.residue_quadrature(
            lambda z: rz.eval_Rinv(res.plus, z), mu, radius)

        def row_direction(m):
            _, g = factor_rank_one(m)
            return g / g[np.argmax(np.abs(g))]

        np.testing.assert_allclose(row_direction(m_plus),
                                   row_direction(m_full), atol=1e-6)


@pytest.mark.parametrize("k, n_plus, n_minus, seed",
                         [(2, 8, 8, 15), (2, 3, 3, 88), (3, 2, 2, 13),
                          (1, 3, 0, 5), (2, 0, 3, 6), (1, 4, 4, 1)])
def test_exists_and_factorize_share_one_s11_condition(k, n_plus, n_minus,
                                                      seed):
    b = balanced_instance(k, n_plus, n_minus, seed)
    verdict = fz.factorization_exists(b, UNIT)
    assert verdict.cond_S11 == fz.factorize(b, UNIT).cond_S11
    # the refusal carries the same number; cond_F(S11) ≥ n_plus, so the
    # smallest allowed limit, 1, refuses every nonempty S11 here, and no
    # allowed limit refuses the empty one (its cond is 1)
    if n_plus:
        with pytest.raises(NoFactorizationError) as exc:
            fz.factorize(b, UNIT, cond_max=1.0)
        assert exc.value.cond == verdict.cond_S11


@pytest.mark.parametrize("kwargs", [{"fail_tol": float("nan")},
                                    {"cond_max": float("nan")}],
                         ids=["fail_tol", "cond_max"])
def test_factorize_refuses_nan_threshold(d2, kwargs):
    # a NaN tolerance or limit would let every residual or condition
    # number pass its gate
    (name,) = kwargs
    with pytest.raises(ValidationError, match=f"{name} must not be NaN"):
        fz.factorize(rz.build_bundle(d2), UNIT, **kwargs)


@pytest.mark.parametrize("fail_tol", [float("inf"), 0.0, -1.0])
def test_factorize_refuses_a_tolerance_outside_zero_to_inf(d2, fail_tol):
    # inf would waive product_at_samples, and a tolerance at or below 0
    # fails every inexact product
    with pytest.raises(ValidationError,
                       match="fail_tol must be positive and finite"):
        fz.factorize(rz.build_bundle(d2), UNIT, fail_tol=fail_tol)


def test_factorization_exists_refuses_nan_cond_max(d2):
    with pytest.raises(ValidationError, match="cond_max must not be NaN"):
        fz.factorization_exists(rz.build_bundle(d2), UNIT,
                                cond_max=float("nan"))


@pytest.mark.parametrize("limit", [0.5, 0.0, -1.0])
@pytest.mark.parametrize("name", ["factorize", "factorization_exists"])
def test_a_cond_max_below_one_is_ill_posed(d2, name, limit):
    # cond_F(S11) ≥ 1 for every split, the empty one included: no split
    # can pass such a limit, so that is no proof that none exists
    with pytest.raises(ValidationError) as exc:
        getattr(fz, name)(rz.build_bundle(d2), UNIT, cond_max=limit)
    assert str(exc.value) == f"cond_max must be at least 1, got {limit:g}"


def _factorize_through_public_path(monkeypatch, b, c):
    """factorize with its factors made the public way: synthesize and
    synthesize_hybrid on validated SynthesisInput slices, and a fresh
    build_bundle of the empty data for an empty side."""
    def public(F, G, poles, zeros, hybrid, cond_max, known=None):
        route = synthesize_hybrid if hybrid else synthesize
        return route(SynthesisInput(F=F, G=G, pole_points=poles,
                                    zero_points=zeros), cond_max=cond_max)

    with monkeypatch.context() as m:
        m.setattr(fz, "_synthesize", public)
        m.setattr(fz, "_empty_data", ZeroPoleData.empty)
        return fz.factorize(b, c)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n_plus, n_minus",
                         [(0, 3), (3, 0), (2, 2), (1, 3), (4, 4), (5, 2)])
@pytest.mark.parametrize("seed", [1, 2])
def test_factorize_equals_public_path_bitwise(monkeypatch, k, n_plus,
                                              n_minus, seed):
    b = balanced_instance(k, n_plus, n_minus, seed)
    got = fz.factorize(b, UNIT)
    want = _factorize_through_public_path(monkeypatch, b, UNIT)
    assert_same_bundle(got.plus, want.plus)
    assert_same_bundle(got.minus, want.minus)
    assert got.split == want.split
    assert same_bits(got.cond_S11, want.cond_S11)
    assert got.report.info == want.report.info
    assert [(c.name, c.tol) for c in got.report.checks] == [
        (c.name, c.tol) for c in want.report.checks]
    for mine, theirs in zip(got.report.checks, want.report.checks):
        assert same_bits(mine.residual, theirs.residual), mine.name


def test_empty_bundles_do_not_share_diagnostics(d2):
    # factorize's empty side is a bundle over one recorded build per k,
    # and random_instance(k, 0, seed) is built afresh
    b = rz.build_bundle(d2)
    far = fz.CircleContour(50.0, 1.0)
    fresh = rz.build_bundle(ZeroPoleData.empty(1))
    for make in (lambda: fz.factorize(b, far).plus,
                 lambda: sy.random_instance(1, 0, seed=3)):
        first = make()
        first.diagnostics["mutual_inverse"] = 1.0
        first.diagnostics["extra"] = 2.0
        assert_same_bundle(make(), fresh)


def test_two_sided_factorize_inverts_four_times_and_solves_four(monkeypatch):
    b = balanced_instance(1, 3, 3, seed=5)
    d = b.data
    split = fz.partition(d, UNIT)
    # the inside factor solves S11's formula on S11's entries; when the
    # two agree bitwise (as they do here), S11's inversion serves both
    s11 = b.Sr[np.ix_(list(split.idxN_plus), list(split.idxP_plus))]
    inside = rz.sylvester_diag_solve(
        d.zeros[list(split.idxN_plus)], d.poles[list(split.idxP_plus)],
        d.G_N[list(split.idxN_plus), :] @ d.F_P[:, list(split.idxP_plus)])
    assert np.array_equal(inside, s11)
    inverses = count_calls(monkeypatch, linalg.inverse)
    solves = count_calls(monkeypatch, rz._sylvester)
    res = fz.factorize(b, UNIT)
    assert res.split.n_plus == 3 and res.split.n_minus == 3
    # S11; the minus factor's Sl and Sr; the Schur complement. The plus
    # factor's Sl⁻¹ waits for its first read
    assert len(inverses) == 4
    # two per factor synthesis
    assert len(solves) == 4


@pytest.mark.parametrize("route, want", [("synthesize", 1),
                                         ("synthesize_hybrid", 2)])
def test_each_synthesis_solves_twice_and_inverts_sr_and_its_own_s(
        monkeypatch, route, want):
    b = balanced_instance(2, 2, 3, seed=7)
    inp = SynthesisInput(F=b.data.F_P, G=b.data.G_N,
                         pole_points=b.data.poles, zero_points=b.data.zeros)
    inverses = count_calls(monkeypatch, linalg.inverse)
    solves = count_calls(monkeypatch, rz._sylvester)
    got = getattr(sy, route)(inp)
    assert len(solves) == 2
    # the right route's S is Sr, and its Sl⁻¹ waits for its first read
    assert len(inverses) == want
    assert got.Sl_inv is not None
    assert len(inverses) == 2


def _ring_rotation_reference(c, count, rot):
    """Rotation `rot` of _sample_ring's points, one point at a time."""
    on = count // 2
    inner = (count - on) // 2
    rings = ((on, 1.0, 1.0, 0.0), (inner, 0.43, 1.7, 0.4),
             (count - on - inner, 2.6, 2.3, 0.9))
    phase = 2.0 * math.pi * rot / 64.0
    pts = []
    for m, radius, turn, offset in rings:
        for j in range(m):
            ang = 2.0 * math.pi * j / m + turn * phase + offset
            pts.append(c.center + radius * c.radius
                       * complex(math.cos(ang), math.sin(ang)))
    return np.array(pts, dtype=np.complex128)


def _sample_ring_reference(c, singular, count):
    """_sample_ring as a loop over every point of every rotation."""
    best, best_clear = None, -1.0
    for rot in range(64):
        pts = _ring_rotation_reference(c, count, rot)
        clear = (np.abs(pts[:, None] - singular[None, :]).min()
                 if singular.size else np.inf)
        if clear > best_clear:
            best, best_clear = pts, clear
        if clear > 1e-3 * c.radius:
            return pts
    # no rotation is clear: drop the clearest one's samples that no
    # evaluation accepts, unless that drops every sample
    keep = [np.abs(z - singular).min() >= cauchy.EVAL_EPS for z in best]
    return best[keep] if any(keep) else best


def _ring_cover(c, spacing, rng):
    """Points on the three sample radii, at most `spacing`·radius apart
    along each circle, jittered so that no two rotations are equally
    clear of them."""
    pts = []
    for factor in (1.0, 0.43, 2.6):
        m = int(2.0 * math.pi * factor / spacing) + 1
        ang = 2.0 * math.pi * (np.arange(m) + 0.3 * rng.random(m)) / m
        pts.append(c.center + factor * c.radius * np.exp(1j * ang))
    return np.concatenate(pts)


@pytest.mark.parametrize("case", ["free", "scattered", "first_blocked",
                                  "all_blocked", "on_a_sample",
                                  "every_sample_blocked"])
@pytest.mark.parametrize("count", [1, 4, 7, 40, 2, 3, 9, 41])
def test_sample_ring_matches_reference_loop(case, count):
    rng = np.random.default_rng(count)
    c = fz.CircleContour(0.3 - 0.2j, 1.7)
    singular = {
        "free": np.zeros(0, dtype=np.complex128),
        "scattered": 3.0 * (rng.random(9) - 0.5 + 1j * (rng.random(9) - 0.5)),
        # the last point of the first rotation is a singular point
        "first_blocked": _sample_ring_reference(c, np.zeros(0), count)[-1:],
        # no rotation keeps 1e-3·radius clear: the clearest one is taken
        "all_blocked": _ring_cover(c, 1.2e-3, rng),
        # a singular point on the last sample of every rotation
        "on_a_sample": np.array([_ring_rotation_reference(c, count, rot)[-1]
                                 for rot in range(64)]),
        # a singular point on every sample of every rotation
        "every_sample_blocked": np.concatenate(
            [_ring_rotation_reference(c, count, rot) for rot in range(64)]),
    }[case]
    got = fz._sample_ring(c, singular, count)
    want = _sample_ring_reference(c, singular, count)
    assert same_bits(got, want)
    first = _sample_ring_reference(c, np.zeros(0), count)
    clear = (np.abs(got[:, None] - singular[None, :]).min()
             if singular.size else np.inf)
    if case == "first_blocked":
        assert not same_bits(got, first)
        assert clear > 1e-3 * c.radius
    if case == "all_blocked":
        assert clear < 1e-3 * c.radius
    if case == "on_a_sample":
        # the first rotation is the clearest, less its blocked sample;
        # a single sample is never dropped
        assert same_bits(got, first[:-1] if count > 1 else first)
    if case == "every_sample_blocked":
        # dropping every sample is no ring: all are kept
        assert same_bits(got, first)


@pytest.mark.parametrize("count", [2, 3, 9, 41])
def test_sample_ring_matches_reference_loop_on_a_far_small_circle(count):
    # far from the origin and small, so the center dominates every
    # coordinate's rounding
    c = fz.CircleContour(-31.5 + 12.25j, 0.093)
    free = np.zeros(0, dtype=np.complex128)
    first = _sample_ring_reference(c, free, count)
    rng = np.random.default_rng(count)
    scattered = c.center + 3.0 * c.radius * (rng.random(9) - 0.5
                                             + 1j * (rng.random(9) - 0.5))
    for singular in (free, scattered, first[:1], first[-1:],
                     _ring_cover(c, 1.2e-3, rng)):
        got = fz._sample_ring(c, singular, count)
        assert same_bits(got, _sample_ring_reference(c, singular, count))


def test_leading_block_orders_rows_by_zeros_and_columns_by_poles():
    # the inside poles and zeros sit at different indices, so a gather
    # that swapped the two orders would read other entries of Sr
    d = make_scalar_instance([1.5, 0.2, -1.8, 0.3j], [0.4, 2.0, -0.5j, 1.7j])
    b = rz.build_bundle(d)
    split, s_perm, inv11, cond_s11 = fz._leading_block(b, UNIT)
    assert split.pole_order == (1, 3, 0, 2)
    assert split.zero_order == (0, 2, 1, 3)
    want = b.Sr[np.ix_([0, 2, 1, 3], [1, 3, 0, 2])]
    assert same_bits(s_perm, want)
    want_inv, want_cond = linalg.inverse_cond(want[:2, :2])
    assert same_bits(inv11, want_inv)
    assert cond_s11 == want_cond
    assert fz.factorization_exists(b, UNIT).cond_S11 == want_cond


def _schur_route_minus(b, c):
    """The Schur route's outside factor as factorize builds it, in the
    shape eval_R reads: data.k, data.poles, data.F_P and Sr_inv_G_N."""
    d = b.data
    split, s_perm, inv11, _ = fz._leading_block(b, c)
    n = split.n_plus
    w12 = inv11 @ s_perm[:n, n:]
    w21 = s_perm[n:, :n] @ inv11
    delta_inv = linalg.inverse(s_perm[n:, n:] - w21 @ s_perm[:n, n:])
    eye = identity(split.n_minus)
    fp = d.F_P[:, list(split.pole_order)] @ np.vstack([-w12, eye])
    gn = np.hstack([-w21, eye]) @ d.G_N[list(split.zero_order), :]
    data = SimpleNamespace(k=d.k, F_P=fp,
                           poles=d.poles[list(split.idxP_minus)])
    return SimpleNamespace(data=data, Sr_inv_G_N=delta_inv @ gn)


@pytest.mark.parametrize("k, n_plus, n_minus, seed", [
    (1, 3, 0, 1), (1, 0, 3, 1), (1, 2, 2, 1), (1, 3, 3, 5), (1, 0, 8, 3),
    (1, 8, 0, 3), (2, 4, 0, 2), (2, 0, 4, 2), (2, 2, 2, 3), (3, 3, 0, 4),
    (3, 0, 3, 4), (3, 1, 2, 5), (4, 12, 0, 2), (4, 0, 5, 6), (4, 2, 1, 7),
])
def test_factorize_report_equals_the_public_eval_R_bitwise(k, n_plus,
                                                           n_minus, seed):
    # the shared clearance pass gives every evaluation the bits of eval_R
    # at the same samples, on each factor's own poles
    b = balanced_instance(k, n_plus, n_minus, seed)
    res = fz.factorize(b, UNIT)
    z = fz._sample_ring(UNIT, b.data.poles, fz.N_SAMPLES)
    r_minus = rz.eval_R(res.minus, z)
    prod = max_frobenius(rz.eval_R(res.plus, z) @ r_minus - rz.eval_R(b, z))
    agree = max_frobenius(r_minus - rz.eval_R(_schur_route_minus(b, UNIT), z))
    got = {check.name: check.residual for check in res.report.checks}
    assert same_bits(got["product_at_samples"], prod)
    assert same_bits(got["minus_formula_agreement"], agree)


def _ring_point(rot, index, factor):
    """Sample `index` of _sample_ring's rotation `rot` on the unit circle
    contour, scaled by `factor`, by the scalar formula."""
    base, turn, offset, _ = fz._ring_layout(fz.N_SAMPLES)
    ang = (base[index] + turn[index] * (2.0 * math.pi * rot / 64.0)
           + offset[index])
    return complex(factor * math.cos(ang), factor * math.sin(ang))


def _interlaced(points, radius):
    """One point on the circle of `radius` between each two neighbouring
    angles of `points`, so the Cauchy blocks stay well conditioned."""
    ang = np.sort(np.angle(points))
    gap = np.diff(np.append(ang, ang[0] + 2.0 * math.pi))
    return radius * np.exp(1j * (ang + gap / 2.0))


def test_a_sample_on_a_pole_in_every_rotation_is_dropped(tmp_path):
    # a pole on a sample of every one of the 64 rotations: inside poles
    # on the inner ring (sample 20) of rotations 0-31, outside poles on
    # the outer ring (sample 30) of rotations 0 and 32-63. No rotation
    # is clear, so the first, rotation 0, is taken, less the two samples
    # it puts on a pole, and the split verifies on the other 38
    inside = [_ring_point(rot, 20, 0.43) for rot in range(32)]
    outside = [_ring_point(rot, 30, 2.6) for rot in [0, *range(32, 64)]]
    d = make_scalar_instance(
        np.array(inside + outside),
        np.concatenate([_interlaced(inside, 0.43),
                        _interlaced(outside, 2.6)]))
    b = rz.build_bundle(d)
    assert fz.factorization_exists(b, UNIT).verdict == fz.EXISTS
    z = fz._sample_ring(UNIT, d.poles, fz.N_SAMPLES)
    first = _ring_rotation_reference(UNIT, fz.N_SAMPLES, 0)
    assert same_bits(z, np.delete(first, [20, 30]))
    res = fz.factorize(b, UNIT)
    assert res.report.passed
    # the report is read at those 38 samples
    r_minus = rz.eval_R(res.minus, z)
    prod = max_frobenius(rz.eval_R(res.plus, z) @ r_minus - rz.eval_R(b, z))
    got = {check.name: check.residual for check in res.report.checks}
    assert same_bits(got["product_at_samples"], prod)
    # and through the CLI
    src = tmp_path / "d.json"
    save_instance(d, src)
    assert main(["factorize", str(src), "0", "0", "1",
                 str(tmp_path / "p.json"), str(tmp_path / "m.json")]) == 0


def _scalar_instance_by_ratios(poles, zeros):
    """make_scalar_instance with each residue a product of ratios
    (lam_j - mu_l)/(lam_j - lam_l), which neither overflows nor
    underflows on a hundred points packed into a small disk."""
    def residues(lam, mu):
        return np.array([(lam[j] - mu[-1])
                         * np.prod((lam[j] - mu[:-1])
                                   / (lam[j] - np.delete(lam, j)))
                         for j in range(lam.size)]).reshape(-1, 1)

    ones = np.ones((1, poles.size))
    return ZeroPoleData(poles=poles, zeros=zeros,
                        F_P=ones, G_P=residues(poles, zeros),
                        F_N=ones, G_N=residues(zeros, poles))


def test_a_ring_with_every_sample_on_a_pole_is_refused():
    # a circle so small that partition's guard, 1e-9·radius, lets a
    # pole sit within EVAL_EPS of the samples on the circle: every
    # sample of rotation 0 is on or next to a pole, and the last sample
    # of every other rotation is on one. Nothing is dropped, and the
    # clearance pass refuses the ring
    c = fz.CircleContour(0.0, 1e-4)
    first = _ring_rotation_reference(c, fz.N_SAMPLES, 0)
    on = first[:20] * (1.0 + 5e-13 / c.radius)
    inner = first[20:30]
    outer = np.concatenate(
        [first[30:], [_ring_rotation_reference(c, fz.N_SAMPLES, rot)[-1]
                      for rot in range(1, 64)]])

    def interlaced(points, factor):
        return _interlaced(points, factor * c.radius)

    d = _scalar_instance_by_ratios(
        np.concatenate([inner, on, outer]),
        np.concatenate([interlaced(inner, 0.43), interlaced(on, 1.5),
                        interlaced(outer, 2.6)]))
    b = rz.build_bundle(d)
    assert fz.factorization_exists(b, c).verdict == fz.EXISTS
    assert same_bits(fz._sample_ring(c, d.poles, fz.N_SAMPLES), first)
    with pytest.raises(PoleHitError) as exc:
        fz.factorize(b, c)
    assert exc.value.point == first[0]
    assert exc.value.singularity == on[0]
