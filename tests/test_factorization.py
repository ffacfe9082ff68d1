"""Contour splitting: partition, factor construction, existence sweeps."""

import numpy as np
import pytest

from zpreal.errors import (
    CardinalityMismatchError,
    NoFactorizationError,
    OnContourError,
    ValidationError,
)
from zpreal import factorization as fz
from zpreal import realization as rz
from zpreal.linalg import frobenius, identity
from zpreal.synthesis import SynthesisInput, synthesize
from zpreal.zero_pole import check_consistency, factor_rank_one, pole_residue

from conftest import make_d2, make_scalar_instance
from helpers import balanced_instance

UNIT = fz.CircleContour(0.0, 1.0)


def test_contour_validation():
    with pytest.raises(ValidationError):
        fz.CircleContour(0.0, 0.0)
    with pytest.raises(ValidationError):
        fz.CircleContour(0.0, float("inf"))
    c = fz.CircleContour(1.0 + 1.0j, 2.0)
    assert c.contains(1.0 + 1.5j)
    assert not c.contains(4.0)


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
    calls = []

    def counting_eval_R(bundle, z):
        calls.append((bundle, z))
        return rz.eval_R(bundle, z)

    monkeypatch.setattr(fz, "eval_R", counting_eval_R)
    res = fz.factorize(b, UNIT)
    assert res.report.passed
    # one batched call each for R-, R+ and R itself, on the 40 samples
    assert len(calls) == 3
    assert {id(bundle) for bundle, _ in calls} == {
        id(res.minus), id(res.plus), id(b)}
    samples = calls[0][1]
    assert samples.shape == (40,)
    for _, z in calls[1:]:
        np.testing.assert_array_equal(z, samples)


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
    # the refusal carries the same number
    with pytest.raises(NoFactorizationError) as exc:
        fz.factorize(b, UNIT, cond_max=0.5)
    assert exc.value.cond == verdict.cond_S11
