"""Coupling matrices, bundle diagnostics, and the eight evaluators."""

import cmath
import copy
import dataclasses
import pickle
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zpreal.errors import (
    InconsistentDataError,
    PoleHitError,
    SingularMatrixError,
    SpectraOverlapError,
    ValidationError,
)
from zpreal.cauchy import (EVAL_EPS, ScalarZeroPole, _gaps, cauchy_matrix,
                           scalar_eval)
from zpreal.linalg import frobenius, identity, inverse
from zpreal import cauchy
from zpreal import factorization as fz
from zpreal import linalg
from zpreal import realization as rz
from zpreal.serialize import load_instance, save_instance
from zpreal.synthesis import (
    GeneratorGeometry,
    SynthesisInput,
    random_instance,
    synthesize,
    synthesize_hybrid,
)
from zpreal.zero_pole import (
    SEP_MIN,
    GaugePair,
    ZeroPoleData,
    _form,
    _scaled,
    additive_eval_R,
    additive_eval_Rinv,
    gauge_transform,
)

from conftest import make_d1, make_scalar_instance
from helpers import (
    assert_same_bundle,
    balanced_instance,
    count_calls,
    random_complex,
    reference_build_bundle,
    same_bits,
    separated_points,
)

EPS = np.finfo(float).eps


def test_sylvester_diag_solve_hand_value():
    x = rz.sylvester_diag_solve([2.0], [0.0], [[4.0]])
    np.testing.assert_allclose(x, [[2.0]])


def test_sylvester_diag_solve_residual():
    rng = np.random.default_rng(11)
    a = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    b = 10.0 + rng.standard_normal(4) + 1j * rng.standard_normal(4)
    c = random_complex(rng, 5, 4)
    x = rz.sylvester_diag_solve(a, b, c)
    residual = np.diag(a) @ x - x @ np.diag(b) - c
    assert np.abs(residual).max() < 1e-12


def test_sylvester_diag_solve_rejects_overlap():
    with pytest.raises(SpectraOverlapError) as exc:
        rz.sylvester_diag_solve([1.0, 2.0], [2.0 + 1e-9], [[1.0], [1.0]])
    assert exc.value.min_separation < 1e-6


@pytest.mark.parametrize("a, b", [
    ([1.0, 2.0], [2.0 + 1e-9]),
    ([0.0, 3.0, 5.0], [7.0, 1.0, 5.0 - 9e-7j]),
    ([4.0], [4.0]),
])
def test_sylvester_diag_solve_still_tests_separation(a, b):
    c = np.ones((len(a), len(b)))
    with pytest.raises(SpectraOverlapError) as exc:
        rz.sylvester_diag_solve(a, b, c)
    assert exc.value.min_separation < SEP_MIN


@pytest.mark.parametrize("a, b, c, message", [
    ([[1.0, 2.0]], [3.0], np.ones((2, 1)), "a must be a flat list of points"),
    ([np.inf], [3.0], np.ones((1, 1)), "a contains non-finite points"),
    ([1.0], [3.0, np.nan], np.ones((1, 2)), "b contains non-finite points"),
], ids=["2-d", "inf", "nan"])
def test_sylvester_diag_solve_refuses_malformed_spectra(a, b, c, message):
    with pytest.raises(ValidationError) as exc:
        rz.sylvester_diag_solve(a, b, c)
    assert str(exc.value) == message


@pytest.mark.parametrize("m, n", [(0, 0), (1, 1), (3, 5), (12, 12), (0, 4)])
def test_sylvester_diag_solve_is_the_private_division(m, n):
    rng = np.random.default_rng(10 * m + n)
    pts = separated_points(rng, m + n)
    a, b = np.array(pts[:m], complex), np.array(pts[m:], complex)
    c = random_complex(rng, m, n)
    want = rz._sylvester(a, b, c)
    assert same_bits(rz.sylvester_diag_solve(a, b, c), want)
    # point lists are converted first
    assert same_bits(rz.sylvester_diag_solve(list(a), list(b), c),
                     want)


def test_sylvester_diag_solve_rejects_bad_shape():
    with pytest.raises(InconsistentDataError):
        rz.sylvester_diag_solve([1.0], [5.0], [[1.0, 2.0]])


def test_d1_bundle_hand_values(d1):
    b = rz.build_bundle(d1)
    for m in (b.Hr, b.Hl, b.Sr, b.Sl, b.Sr_inv, b.Sl_inv):
        np.testing.assert_allclose(m, [[1.0]], atol=1e-15)
    assert b.cond_Sr == pytest.approx(1.0)
    assert max(b.diagnostics.values()) < 1e-14


def test_d1_coupling_recovers_other_half(d1):
    # G_N = -Sr G_P reads 1 = -(1)(-1) on this instance
    b = rz.build_bundle(d1)
    np.testing.assert_allclose(-b.Sr @ d1.G_P, d1.G_N, atol=1e-15)
    np.testing.assert_allclose(d1.F_P, d1.F_N @ b.Sr, atol=1e-15)


def test_core_matrices_mutually_inverse(d2):
    hr, hl = rz.core_matrices(d2)
    np.testing.assert_allclose(hr @ hl, identity(2), atol=1e-12)
    np.testing.assert_allclose(hl @ hr, identity(2), atol=1e-12)


def test_coupling_closed_forms_mirror_core(d2):
    # Sr and Hl share one closed form, as do Sl and Hr; the functions
    # compute them independently so this is an aliasing guard
    hr, hl = rz.core_matrices(d2)
    sr, sl = rz.coupling_matrices(d2)
    np.testing.assert_array_equal(sr, hl)
    np.testing.assert_array_equal(sl, hr)


def test_bundle_inverse_is_lu_not_closed_form():
    b = random_instance(3, 7, seed=5)
    assert frobenius(b.Sr @ b.Sr_inv - identity(7)) < 1e-10
    assert frobenius(b.Sl @ b.Sl_inv - identity(7)) < 1e-10
    # and the LU inverse of Sr matches the closed form Hr
    assert frobenius(b.Sr_inv - b.Hr) < 1e-8 * frobenius(b.Hr)


def test_sylvester_equalities_on_random_bundle():
    b = random_instance(2, 6, seed=9)
    d = b.data
    a_p, a_n = np.diag(d.poles), np.diag(d.zeros)
    assert frobenius(a_n @ b.Sr - b.Sr @ a_p - d.G_N @ d.F_P) < 1e-12
    assert frobenius(a_p @ b.Sl - b.Sl @ a_n - d.G_P @ d.F_N) < 1e-12


def test_core_matrix_quadratic_sylvester():
    # the core matrices satisfy a quadratic version of the coupling
    # Sylvester equations, with the rank correction sandwiched
    b = random_instance(2, 5, seed=21)
    d = b.data
    a_p, a_n = np.diag(d.poles), np.diag(d.zeros)
    lhs1 = b.Hr @ a_n - a_p @ b.Hr
    rhs1 = b.Hr @ (d.G_N @ d.F_P) @ b.Hr
    assert frobenius(lhs1 - rhs1) < 1e-8
    lhs2 = b.Hl @ a_p - a_n @ b.Hl
    rhs2 = b.Hl @ (d.G_P @ d.F_N) @ b.Hl
    assert frobenius(lhs2 - rhs2) < 1e-8


def test_check_coupling_relations_passes(d2):
    b = rz.build_bundle(d2)
    rep = rz.check_coupling_relations(b)
    assert rep.passed
    assert {c.name for c in rep.checks} == {
        "coupling_a", "coupling_b", "coupling_c", "coupling_d",
    }


def test_check_coupling_relations_reads_the_bundle_it_is_given():
    b = random_instance(2, 4, seed=17)
    d = b.data
    f_p = 2.0 * d.F_P
    doubled = dataclasses.replace(b, data=ZeroPoleData(
        poles=d.poles, zeros=d.zeros, F_P=f_p, G_P=d.G_P,
        F_N=d.F_N, G_N=d.G_N))
    rep = rz.check_coupling_relations(doubled)
    got = {c.name: c.residual for c in rep.checks}
    assert got["coupling_c"] == frobenius(f_p - d.F_N @ b.Sr)
    assert got["coupling_d"] == frobenius(d.F_N - f_p @ b.Sl)
    assert got["coupling_c"] > 1.0 and not rep.passed

    # a bundle built by hand carries no build diagnostics
    by_hand = rz.RealizationBundle(data=d, Sr=b.Sr, Sl=b.Sl,
                                   Sr_inv=b.Sr_inv, cond_Sr=b.cond_Sr)
    rep = rz.check_coupling_relations(by_hand)
    assert rep.passed
    assert {c.name: c.residual for c in rep.checks} == {
        name: b.diagnostics[name] for name in got}


def test_build_bundle_rejects_tampered_data(d1):
    broken = ZeroPoleData(
        poles=d1.poles, zeros=d1.zeros,
        F_P=d1.F_P, G_P=d1.G_P,
        F_N=2.0 * d1.F_N, G_N=d1.G_N,
    )
    with pytest.raises(InconsistentDataError) as exc:
        rz.build_bundle(broken)
    assert exc.value.diagnostics is not None
    assert max(exc.value.diagnostics.values()) > 1e-6


def test_build_bundle_rejects_sign_flip(d2):
    broken = ZeroPoleData(
        poles=d2.poles, zeros=d2.zeros,
        F_P=d2.F_P, G_P=d2.G_P,
        F_N=d2.F_N, G_N=-d2.G_N,
    )
    with pytest.raises(InconsistentDataError):
        rz.build_bundle(broken)


def test_build_bundle_refuses_a_coupling_matrix_it_cannot_invert():
    # Sr = diag(1, 1e-13): the other half is Sr⁻¹'s, so the data is
    # consistent, but the inverse refuses Sr
    poles, zeros = np.array([0.0, 10.0]), np.array([1.0, 11.0])
    f_p = np.diag([1.0, 1e-7]).astype(complex)
    g_n = np.diag([1.0, 1e-6]).astype(complex)
    sr = g_n @ f_p / (zeros[:, None] - poles[None, :])
    np.testing.assert_allclose(np.diag(sr), [1.0, 1e-13])
    sr_inv = np.linalg.inv(sr)
    d = ZeroPoleData(poles=poles, zeros=zeros, F_P=f_p, G_P=-sr_inv @ g_n,
                     F_N=f_p @ sr_inv, G_N=g_n)
    with pytest.raises(InconsistentDataError,
                       match=r"^coupling matrix not invertible \(matrix is "
                             r"numerically singular"):
        rz.build_bundle(d)


def _scalar_oracle(poles, zeros):
    def r(z):
        return np.prod(z - zeros) / np.prod(z - poles)
    return r


def test_eval_matches_additive_forms():
    b = random_instance(3, 6, seed=31)
    rng = np.random.default_rng(32)
    for _ in range(20):
        z = 3.0 * random_complex(rng)
        if np.abs(z - b.data.poles).min() < 0.05:
            continue
        if np.abs(z - b.data.zeros).min() < 0.05:
            continue
        np.testing.assert_allclose(
            rz.eval_R(b, z), additive_eval_R(b.data, z), atol=1e-10)
        np.testing.assert_allclose(
            rz.eval_R_left(b, z), additive_eval_R(b.data, z), atol=1e-10)
        np.testing.assert_allclose(
            rz.eval_Rinv(b, z), additive_eval_Rinv(b.data, z), atol=1e-10)
        np.testing.assert_allclose(
            rz.eval_Rinv_left(b, z), additive_eval_Rinv(b.data, z),
            atol=1e-10)


def test_eval_scalar_hand_values(d2):
    b = rz.build_bundle(d2)
    r = _scalar_oracle(np.array([0.5, 2.0]), np.array([0.3, 3.0]))
    for z in (1.0 + 0.5j, -2.0 + 0j, 0.9 - 1.4j):
        assert abs(rz.eval_R(b, z)[0, 0] - r(z)) < 1e-12
        assert abs(rz.eval_Rinv(b, z)[0, 0] - 1.0 / r(z)) < 1e-12


def test_joint_forms_match_pointwise_product():
    b = random_instance(2, 5, seed=41)
    rng = np.random.default_rng(42)
    pairs = 0
    while pairs < 20:
        x, y = 3.0 * random_complex(rng), 3.0 * random_complex(rng)
        pts = np.concatenate([b.data.poles, b.data.zeros])
        if min(np.abs(x - pts).min(), np.abs(y - pts).min()) < 0.05:
            continue
        pairs += 1
        prod_right = rz.eval_R(b, x) @ rz.eval_Rinv(b, y)
        np.testing.assert_allclose(
            rz.eval_joint_right(b, x, y), prod_right, atol=1e-10)
        prod_left = rz.eval_Rinv(b, x) @ rz.eval_R(b, y)
        np.testing.assert_allclose(
            rz.eval_joint_left(b, x, y), prod_left, atol=1e-10)


def test_hybrid_forms_match_joint_forms():
    b = random_instance(2, 6, seed=51)
    rng = np.random.default_rng(52)
    pts = np.concatenate([b.data.poles, b.data.zeros])
    done = 0
    while done < 15:
        x, y = 3.0 * random_complex(rng), 3.0 * random_complex(rng)
        if min(np.abs(x - pts).min(), np.abs(y - pts).min()) < 0.05:
            continue
        done += 1
        np.testing.assert_allclose(
            rz.eval_hybrid_right(b, x, y),
            rz.eval_joint_right(b, x, y), atol=1e-9)
        np.testing.assert_allclose(
            rz.eval_hybrid_left(b, x, y),
            rz.eval_joint_left(b, x, y), atol=1e-9)


def test_joint_diagonal_is_identity():
    b = random_instance(3, 4, seed=61)
    rng = np.random.default_rng(62)
    pts = np.concatenate([b.data.poles, b.data.zeros])
    for _ in range(10):
        x = 3.0 * random_complex(rng)
        if np.abs(x - pts).min() < 0.05:
            continue
        np.testing.assert_allclose(
            rz.eval_joint_right(b, x, x), identity(3), atol=1e-12)
        np.testing.assert_allclose(
            rz.eval_joint_left(b, x, x), identity(3), atol=1e-12)


def test_joint_tends_to_single_point_form():
    b = random_instance(2, 4, seed=71)
    x = 3.1 + 0.4j
    errs = []
    for mag in (1e4, 1e6, 1e8):
        far = mag * (1.0 + 0.3j)
        errs.append(frobenius(rz.eval_joint_right(b, x, far)
                              - rz.eval_R(b, x)))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-6


def test_evaluators_refuse_singular_points():
    # every argument of every evaluator is checked against its own set,
    # and the error names the singularity hit and the distance |z - s|
    b = random_instance(2, 3, seed=81)
    d = b.data
    calls = [(lambda z, fn=fn: fn(b, z), pts) for fn, pts in (
        (rz.eval_R, d.poles), (rz.eval_Rinv, d.zeros),
        (rz.eval_R_left, d.poles), (rz.eval_Rinv_left, d.zeros))]
    for fn, xs, ys in ((rz.eval_joint_right, d.poles, d.zeros),
                       (rz.eval_joint_left, d.zeros, d.poles),
                       (rz.eval_hybrid_right, d.poles, d.zeros),
                       (rz.eval_hybrid_left, d.zeros, d.poles)):
        calls.append((lambda z, fn=fn: fn(b, z, 100.0), xs))
        calls.append((lambda z, fn=fn: fn(b, 100.0, z), ys))
    for call, pts in calls:
        for j in range(d.n):
            for offset in (0.0, 3e-13j, -4e-13):
                z = complex(pts[j]) + offset
                with pytest.raises(PoleHitError) as exc:
                    call(z)
                assert exc.value.point == z
                assert exc.value.singularity == complex(pts[j])
                assert exc.value.distance == float(np.abs(z - pts)[j])
    # a NaN point is not a hit: it evaluates to NaN
    with np.errstate(invalid="ignore"):
        for call, _ in calls:
            assert np.isnan(call(complex("nan"))).all()


@pytest.mark.parametrize("nan_first", [True, False])
def test_stacked_eval_names_the_pole_hit_next_to_a_nan_point(d2, nan_first):
    b = rz.build_bundle(d2)
    pair = [complex("nan"), 2.0] if nan_first else [2.0, complex("nan")]
    with pytest.raises(PoleHitError) as exc:
        rz.eval_R(b, np.array(pair))
    assert exc.value.point == 2.0
    assert exc.value.singularity == 2.0
    assert exc.value.distance == 0.0
    # NaN and clear points are evaluated: NaN in, NaN out
    nan_at = 0 if nan_first else 1
    with np.errstate(invalid="ignore"):
        values = rz.eval_R(b, np.array(pair) + 0.25)
    assert np.isnan(values[nan_at]).all()
    assert same_bits(values[1 - nan_at], rz.eval_R(b, 2.25))


def test_k1_pole_hit_is_one_error_on_every_route():
    poles, zeros = [0.5, 2.0, -1.0j], [0.3, 3.0, 1.0j]
    d = make_scalar_instance(poles, zeros)
    b = rz.build_bundle(d)
    sd = ScalarZeroPole(poles, zeros)
    z = 2.0 + 3e-13j
    seen = []
    for route in (lambda: rz.eval_R(b, z), lambda: additive_eval_R(d, z),
                  lambda: scalar_eval(sd, z)):
        with pytest.raises(PoleHitError) as exc:
            route()
        err = exc.value
        seen.append((err.point, err.singularity, err.distance, str(err)))
    assert seen[0] == seen[1] == seen[2]
    assert seen[0][1] == 2.0 and seen[0][2] < EVAL_EPS


def _right_values(b, x, y):
    """R(x) and R(x)R⁻¹(y) over the points, as one stack."""
    return np.concatenate([rz.eval_R(b, x), rz.eval_joint_right(b, x, y)])


def _assert_same_values(got, want, cond):
    # 1e3·ε·cond·max(1, |R|): over 600 seeded draws of this test the
    # error stayed below 5·ε·cond·max(1, |R|)
    scale = max(1.0, float(np.abs(want).max()))
    assert np.abs(got - want).max() <= 1e3 * EPS * cond * scale


@settings(max_examples=40, deadline=None)
@given(k=st.integers(1, 3), n=st.integers(1, 6),
       seed=st.integers(0, 2**16),
       modulus=st.floats(0.5, 2.0), angle=st.floats(0.0, 6.3),
       shift_re=st.floats(-2.0, 2.0), shift_im=st.floats(-2.0, 2.0))
def test_affine_map_and_reordering_leave_values_unchanged(
        k, n, seed, modulus, angle, shift_re, shift_im):
    """z -> a·z + shift maps the data exactly: R̃(z) = R(a·z + shift) has
    singularities (λ - shift)/a, (μ - shift)/a and semiresiduals F/a, G.
    Reordering the poles and the zeros with their semiresiduals leaves
    R unchanged."""
    b = random_instance(k, n, seed)
    d = b.data
    a = modulus * cmath.exp(1j * angle)
    shift = complex(shift_re, shift_im)
    rng = np.random.default_rng(seed)
    # on |w| = 3, a distance of at least 1 from every singularity
    w = 3.0 * np.exp(2j * np.pi * rng.random(6))
    x, y = w[:3], w[3:]
    want = _right_values(b, x, y)

    mapped = rz.build_bundle(ZeroPoleData(
        poles=(d.poles - shift) / a, zeros=(d.zeros - shift) / a,
        F_P=d.F_P / a, G_P=d.G_P, F_N=d.F_N / a, G_N=d.G_N))
    _assert_same_values(
        _right_values(mapped, (x - shift) / a, (y - shift) / a), want,
        max(b.cond_Sr, mapped.cond_Sr))

    pp, pn = rng.permutation(n), rng.permutation(n)
    reordered = rz.build_bundle(ZeroPoleData(
        poles=d.poles[pp], zeros=d.zeros[pn], F_P=d.F_P[:, pp],
        G_P=d.G_P[pp], F_N=d.F_N[:, pn], G_N=d.G_N[pn]))
    _assert_same_values(_right_values(reordered, x, y), want,
                        max(b.cond_Sr, reordered.cond_Sr))


def test_empty_instance_realizes_identity():
    k = 3
    zeros0 = np.zeros(0, dtype=np.complex128)
    d = ZeroPoleData(
        poles=zeros0, zeros=zeros0,
        F_P=np.zeros((k, 0), dtype=np.complex128),
        G_P=np.zeros((0, k), dtype=np.complex128),
        F_N=np.zeros((k, 0), dtype=np.complex128),
        G_N=np.zeros((0, k), dtype=np.complex128),
    )
    b = rz.build_bundle(d)
    assert b.cond_Sr == 1.0
    np.testing.assert_array_equal(rz.eval_R(b, 0.3j), identity(k))
    np.testing.assert_array_equal(rz.eval_joint_left(b, 1.0, 2.0),
                                  identity(k))


def test_gauge_covariance_of_coupling():
    b = random_instance(2, 5, seed=91)
    rng = np.random.default_rng(92)
    for _ in range(5):
        dp = random_complex(rng, 5) + 2.0
        dn = random_complex(rng, 5) + 2.0
        gauged = gauge_transform(b.data, GaugePair(D_P=dp, D_N=dn))
        bg = rz.build_bundle(gauged)
        expected = (1.0 / dn)[:, None] * b.Sr * dp[None, :]
        assert frobenius(bg.Sr - expected) < 1e-10 * frobenius(expected)
        expected_l = (1.0 / dp)[:, None] * b.Sl * dn[None, :]
        assert frobenius(bg.Sl - expected_l) < 1e-10 * frobenius(expected_l)


def test_gauge_invariance_of_joint_values():
    b = random_instance(2, 4, seed=101)
    rng = np.random.default_rng(102)
    x, y = 3.0 + 0.2j, -2.5 - 0.6j
    base = rz.eval_joint_right(b, x, y)
    for _ in range(5):
        gp = GaugePair(D_P=random_complex(rng, 4) + 2.0,
                       D_N=random_complex(rng, 4) + 2.0)
        bg = rz.build_bundle(gauge_transform(b.data, gp))
        np.testing.assert_allclose(rz.eval_joint_right(bg, x, y), base,
                                   atol=1e-10)


@pytest.mark.parametrize("s", [1e5, 1e6])
def test_large_scalar_gauge_builds_and_keeps_values(s):
    """D_P = s·I and D_N = I/s multiply G_N·F_P and Sr by s², which
    leaves the data consistent and every value of R unchanged."""
    # on |w| = 3, a distance of at least 1 from every singularity
    x = 3.0 * np.exp(1j * (2.0 * np.pi * np.arange(8) / 8 + 0.1))
    y = np.roll(x, 3)
    for seed in range(40):
        b = random_instance(2, 6, seed)
        bg = rz.build_bundle(gauge_transform(
            b.data, GaugePair(D_P=np.full(6, s), D_N=np.full(6, 1.0 / s))))
        _assert_same_values(rz.eval_R(bg, x), rz.eval_R(b, x), b.cond_Sr)
        for form in (rz.eval_joint_left, rz.eval_hybrid_right):
            _assert_same_values(form(bg, x, y), form(b, x, y), b.cond_Sr)


def test_scalar_gauge_reduces_coupling_to_cauchy():
    # divide each zero-side row by its own weight and the coupling
    # matrix collapses to the bare reciprocal-gap matrix
    lam = np.array([0.4, -1.2, 2.0 + 1.0j])
    mu = np.array([1.1, -0.3 - 0.8j, -2.2])
    d = make_scalar_instance(lam, mu)
    gauge = GaugePair(D_P=np.ones(3, dtype=np.complex128),
                      D_N=d.G_N[:, 0].copy())
    b = rz.build_bundle(gauge_transform(d, gauge))
    np.testing.assert_allclose(b.Sr, cauchy_matrix(lam, mu), atol=1e-9)


def test_bundle_dimensions_exposed():
    b = random_instance(4, 2, seed=111)
    assert (b.k, b.n) == (4, 2)
    assert b.Sr.shape == (2, 2)
    assert b.data.F_P.shape == (4, 2)


# -- the shared evaluator kernel ---------------------------------------------
#
# Reference copies of the per-formula evaluators the kernel replaced. The
# kernel keeps each formula's association order, so one-point results must
# match these bit for bit. The two-point middle M·diag(v)·G associates as
# M·(diag(v)·G), which scales n×k entries; the older (M·diag(v))·G scaled
# n×n entries and is kept as the accuracy reference.

def _middle(m, v, g):
    return m @ (v[:, None] * g)


def _old_middle(m, v, g):
    return (m * v[None, :]) @ g


def _ref_R(b, z):
    d = b.data
    if d.n == 0:
        return identity(d.k)
    w = 1.0 / (z - d.poles)
    return identity(d.k) - (d.F_P * w[None, :]) @ (b.Sr_inv @ d.G_N)


def _ref_Rinv(b, z):
    d = b.data
    if d.n == 0:
        return identity(d.k)
    w = 1.0 / (z - d.zeros)
    return identity(d.k) + ((d.F_P @ b.Sr_inv) * w[None, :]) @ d.G_N


def _ref_R_left(b, z):
    d = b.data
    if d.n == 0:
        return identity(d.k)
    w = 1.0 / (z - d.poles)
    return identity(d.k) + ((d.F_N @ b.Sl_inv) * w[None, :]) @ d.G_P


def _ref_Rinv_left(b, z):
    d = b.data
    if d.n == 0:
        return identity(d.k)
    w = 1.0 / (z - d.zeros)
    return identity(d.k) - (d.F_N * w[None, :]) @ (b.Sl_inv @ d.G_P)


def _ref_joint_right(b, x, y, middle=_middle):
    d = b.data
    if d.n == 0:
        return identity(d.k)
    u = 1.0 / (x - d.poles)
    v = 1.0 / (y - d.zeros)
    core = middle(b.Sr_inv, v, d.G_N)
    return identity(d.k) + (x - y) * ((d.F_P * u[None, :]) @ core)


def _ref_joint_left(b, x, y, middle=_middle):
    d = b.data
    if d.n == 0:
        return identity(d.k)
    u = 1.0 / (x - d.zeros)
    v = 1.0 / (y - d.poles)
    core = middle(b.Sl_inv, v, d.G_P)
    return identity(d.k) + (x - y) * ((d.F_N * u[None, :]) @ core)


def _ref_hybrid_right(b, x, y, middle=_middle):
    d = b.data
    if d.n == 0:
        return identity(d.k)
    u = 1.0 / (x - d.poles)
    v = 1.0 / (y - d.zeros)
    core = middle(b.Sl, v, b.Sl_inv @ d.G_P)
    return identity(d.k) - (x - y) * (
        ((d.F_N @ b.Sl_inv) * u[None, :]) @ core)


def _ref_hybrid_left(b, x, y, middle=_middle):
    d = b.data
    if d.n == 0:
        return identity(d.k)
    u = 1.0 / (x - d.zeros)
    v = 1.0 / (y - d.poles)
    core = middle(b.Sr, v, b.Sr_inv @ d.G_N)
    return identity(d.k) - (x - y) * (
        ((d.F_P @ b.Sr_inv) * u[None, :]) @ core)


ONE_POINT = ((rz.eval_R, _ref_R), (rz.eval_Rinv, _ref_Rinv),
             (rz.eval_R_left, _ref_R_left),
             (rz.eval_Rinv_left, _ref_Rinv_left))
TWO_POINT = ((rz.eval_joint_right, _ref_joint_right),
             (rz.eval_joint_left, _ref_joint_left),
             (rz.eval_hybrid_right, _ref_hybrid_right),
             (rz.eval_hybrid_left, _ref_hybrid_left))


def _empty_bundle(k):
    return rz.build_bundle(ZeroPoleData.empty(k))


def _clear_points(b, rng, count):
    """Normal points with standard deviation 2 per axis, each at least
    0.05 from every pole and zero of b."""
    sing = np.concatenate([b.data.poles, b.data.zeros])
    out = []
    while len(out) < count:
        z = complex(2.0 * random_complex(rng))
        if sing.size == 0 or np.abs(z - sing).min() > 0.05:
            out.append(z)
    return np.array(out)


# at n = 1 and k >= 2, np.dot rounds the k×1 by 1×k outer product
# differently from @, so (2, 1) and (3, 1) pin which one the kernel uses
KERNEL_BUNDLES = ((3, 0, None), (1, 1, 3), (2, 1, 13), (3, 1, 15), (4, 8, 5),
                  (1, 8, 7), (4, 32, 9), (4, 128, 11))


@pytest.fixture(scope="module", params=KERNEL_BUNDLES,
                ids=lambda p: f"k={p[0]}-n={p[1]}")
def kernel_bundle(request):
    k, n, seed = request.param
    return _empty_bundle(k) if n == 0 else random_instance(k, n, seed=seed)


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_one_point_evaluators_bitwise_equal_reference(kernel_bundle):
    b = kernel_bundle
    rng = np.random.default_rng(b.n + 1)
    pts = _clear_points(b, rng, 6)
    for fn, ref in ONE_POINT:
        for z in pts:
            # complex, np.complex128, np.float64, float and int points
            for point in (complex(z), z, z.real, float(z.real),
                          int(round(z.real))):
                got = fn(b, point)
                assert got.shape == (b.k, b.k)
                assert _same_bits(got, ref(b, point)), (fn.__name__, point)


def test_two_point_evaluators_bitwise_equal_reference(kernel_bundle):
    b = kernel_bundle
    rng = np.random.default_rng(b.n + 2)
    xs, ys = _clear_points(b, rng, 5), _clear_points(b, rng, 5)
    for fn, ref in TWO_POINT:
        for x, y in zip(xs, ys):
            for pair in ((complex(x), y), (x, complex(y)),
                         (float(x.real), float(y.real)), (x.real, y),
                         (int(round(x.real)), int(round(y.imag)))):
                got = fn(b, *pair)
                assert got.shape == (b.k, b.k)
                assert _same_bits(got, ref(b, *pair)), (fn.__name__, pair)


def test_two_point_forms_within_rounding_of_the_old_association(
        kernel_bundle):
    # over 1184 pairs on 148 random_instance draws (k in {1, 4}, n in
    # {8, 32, 128}) the two associations differed by at most
    # 0.18·ε·cond_Sr·max(1, ‖T‖_F)
    b = kernel_bundle
    rng = np.random.default_rng(b.n + 4)
    xs, ys = _clear_points(b, rng, 5), _clear_points(b, rng, 5)
    for fn, ref in TWO_POINT:
        for x, y in zip(xs, ys):
            got = fn(b, complex(x), y)
            old = ref(b, complex(x), y, middle=_old_middle)
            bound = 4 * EPS * b.cond_Sr * max(1.0, frobenius(old))
            assert frobenius(got - old) <= bound, fn.__name__


def test_batch_equals_stacked_one_point_results(kernel_bundle):
    # every slice of a stack, a stack of one included, has the bits of
    # the one-point call; at k = n = 1 the parent's layout missed them
    b = kernel_bundle
    rng = np.random.default_rng(b.n + 3)
    xs, ys = _clear_points(b, rng, 7), _clear_points(b, rng, 7)
    for fn, _ in ONE_POINT:
        want = np.stack([fn(b, complex(z)) for z in xs])
        got = fn(b, xs)
        assert got.shape == (7, b.k, b.k)
        assert _same_bits(got, want), fn.__name__
        for i in range(7):
            assert _same_bits(fn(b, xs[i:i + 1])[0], want[i]), fn.__name__
    for fn, _ in TWO_POINT:
        want = np.stack([fn(b, complex(x), complex(y))
                         for x, y in zip(xs, ys)])
        got = fn(b, xs, ys)
        assert got.shape == (7, b.k, b.k)
        assert _same_bits(got, want), fn.__name__
        for i in range(7):
            assert _same_bits(fn(b, xs[i:i + 1], ys[i:i + 1])[0],
                              want[i]), fn.__name__


def test_mixed_pairs_give_the_bits_of_one_point_pairs(kernel_bundle):
    # a one-point x with a stack y, and a stack x with a one-point y,
    # take the stacked products; each slice has the one-point pair's bits
    b = kernel_bundle
    rng = np.random.default_rng(b.n + 11)
    xs, ys = _clear_points(b, rng, 4), _clear_points(b, rng, 4)
    x, y = complex(xs[0]), complex(ys[0])
    for fn, _ in TWO_POINT:
        for got, pairs in ((fn(b, x, ys), [(x, complex(w)) for w in ys]),
                           (fn(b, xs, y), [(complex(w), y) for w in xs])):
            assert got.shape == (4, b.k, b.k)
            for i, pair in enumerate(pairs):
                assert _same_bits(got[i], fn(b, *pair)), (fn.__name__, pair)


def _number_kinds(z):
    """The real part of z as a Fraction, a Decimal, an np.float32, an int
    and an np.int64: points that are neither a complex nor a float."""
    re = float(np.float32(z.real))
    return (Fraction(re), Decimal(re), np.float32(re), int(round(re)),
            np.int64(round(re)))


def test_other_numbers_are_read_as_complex_points(kernel_bundle):
    # each kind, as one point and as either point of a pair, gives the
    # complex128 bits of the call with complex(point)
    b = kernel_bundle
    d = b.data
    rng = np.random.default_rng(b.n + 12)
    xs = _clear_points(b, rng, 3)
    clear = complex(_clear_points(b, rng, 1)[0])
    one = [fn for fn, _ in ONE_POINT] + [
        lambda b, z: additive_eval_R(b.data, z),
        lambda b, z: additive_eval_Rinv(b.data, z)]
    sing = np.concatenate([d.poles, d.zeros])
    for x in xs:
        for z in _number_kinds(x):
            if sing.size and np.abs(complex(z) - sing).min() < 0.05:
                continue
            for fn in one:
                got = fn(b, z)
                assert got.dtype == np.complex128
                assert _same_bits(got, fn(b, complex(z))), z
            for fn, _ in TWO_POINT:
                for pair in ((z, clear), (clear, z), (z, z)):
                    got = fn(b, *pair)
                    assert got.dtype == np.complex128
                    want = fn(b, *map(complex, pair))
                    assert _same_bits(got, want), (fn.__name__, pair)


def test_every_point_argument_makes_one_clearance_pass(kernel_bundle,
                                                       monkeypatch):
    # cauchy._gaps is the one clearance test: a complex or float point,
    # an int, a stack (of one included), a list and NaN each go through
    # it exactly once per point argument, on every bundle, n = 0 included;
    # a pair of complex or float points clears both in one pass,
    # cauchy._pair_gaps, when n > 0
    b = kernel_bundle
    rng = np.random.default_rng(b.n + 5)
    x, y = _clear_points(b, rng, 2)
    nan = float("nan")
    calls = count_calls(monkeypatch, cauchy._gaps)
    pair_calls = count_calls(monkeypatch, cauchy._pair_gaps)

    def clearance_passes(fn, *args):
        with np.errstate(invalid="ignore"):
            fn(*args)
        count = len(calls) + len(pair_calls)
        del calls[:], pair_calls[:]
        return count

    points = (complex(x), x, x.real, float(x.real), int(round(x.real)),
              np.array([x]), [x], nan)
    for fn, _ in ONE_POINT:
        for z in points:
            assert clearance_passes(fn, b, z) == 1, (fn.__name__, z)
        assert fn(b, [x]).shape == (1, b.k, b.k)
        del calls[:]
    float_pairs = ((complex(x), y), (x.real, float(y.imag)), (nan, y),
                   (x, nan))
    other_pairs = ((x, int(round(y.real))), (int(round(x.real)), y),
                   (x, [y]), (np.array([x]), np.array([y])), ([x], [y]),
                   (int(round(x.real)), nan))
    want = 1 if b.n else 2
    for fn, _ in TWO_POINT:
        for pair in float_pairs:
            assert clearance_passes(fn, b, *pair) == want, (fn.__name__,
                                                            pair)
        for pair in other_pairs:
            assert clearance_passes(fn, b, *pair) == 2, (fn.__name__, pair)
        assert fn(b, [x], [y]).shape == (1, b.k, b.k)
        del calls[:]


def _float_pairs(x, y):
    """(x, y) as complex, float, np.complex128 and np.float64 mixes."""
    return ((complex(x), complex(y)), (x, y), (complex(x), y),
            (x, complex(y)), (float(x.real), float(y.real)),
            (x.real, y.real), (complex(x), y.real), (float(x.real), y),
            (x.real, complex(y)))


def _stacks(b):
    """(name, x-side points, y-side points) of b's two pair stacks."""
    d = b.data
    return (("_poles_zeros", d.poles, d.zeros),
            ("_zeros_poles", d.zeros, d.poles))


def test_pair_pass_weights_have_the_bits_of_one_point_clearance(
        kernel_bundle):
    b = kernel_bundle
    rng = np.random.default_rng(b.n + 7)
    xs, ys = _clear_points(b, rng, 4), _clear_points(b, rng, 4)
    for name, x_points, y_points in _stacks(b):
        for x0, y0 in zip(xs, ys):
            for x, y in _float_pairs(x0, y0):
                got_x, got_y, u, v = rz._pair(x, y, getattr(b, name))
                assert got_x is x and got_y is y
                assert _same_bits(u, 1.0 / _gaps(x, x_points)), (name, x, y)
                assert _same_bits(v, 1.0 / _gaps(y, y_points)), (name, x, y)


def test_pair_pass_evaluators_bitwise_equal_reference(kernel_bundle):
    b = kernel_bundle
    rng = np.random.default_rng(b.n + 8)
    xs, ys = _clear_points(b, rng, 3), _clear_points(b, rng, 3)
    for fn, ref in TWO_POINT:
        for x0, y0 in zip(xs, ys):
            for pair in _float_pairs(x0, y0):
                got = fn(b, *pair)
                assert got.shape == (b.k, b.k)
                assert _same_bits(got, ref(b, *pair)), (fn.__name__, pair)


def test_pair_pass_refuses_a_hit_as_one_point_clearance_does(
        kernel_bundle):
    # x is named before y, and a NaN x does not hide a y that hits;
    # with no singularity, no pair is refused
    b = kernel_bundle
    d = b.data
    if b.n == 0:
        for fn, _ in TWO_POINT:
            assert _same_bits(fn(b, 0.0, 0.0), identity(b.k)), fn.__name__
        return
    clear = complex(_clear_points(b, np.random.default_rng(b.n + 9), 1)[0])
    nan = float("nan")
    two = ((rz.eval_joint_right, d.poles, d.zeros),
           (rz.eval_joint_left, d.zeros, d.poles),
           (rz.eval_hybrid_right, d.poles, d.zeros),
           (rz.eval_hybrid_left, d.zeros, d.poles))
    for fn, x_points, y_points in two:
        for near_x, near_y in ((complex(x_points[-1]) + 1e-13,
                                complex(y_points[0]) - 1e-13j),
                               (x_points[0], y_points[-1])):
            hit_x = _hit_message(near_x, x_points)
            hit_y = _hit_message(near_y, y_points)
            for x, y, want in ((near_x, clear, hit_x),
                               (clear, near_y, hit_y),
                               (near_x, near_y, hit_x),
                               (nan, near_y, hit_y),
                               (near_x, nan, hit_x)):
                with pytest.raises(PoleHitError) as exc:
                    with np.errstate(invalid="ignore"):
                        fn(b, x, y)
                assert str(exc.value) == want, (fn.__name__, x, y)


def test_pair_stacks_are_read_only_and_give_every_bundle_the_same_bits(
        kernel_bundle):
    b = kernel_bundle
    again = rz.build_bundle(b.data)
    assert again is not b
    for name, x_points, y_points in _stacks(b):
        stacked = getattr(b, name)
        assert getattr(b, name) is stacked
        assert not stacked.flags.writeable
        with pytest.raises(ValueError):
            stacked[..., :1] = 0.0
        assert _same_bits(stacked, np.stack((x_points, y_points)))
        assert _same_bits(getattr(again, name), stacked)
    rng = np.random.default_rng(b.n + 10)
    x, y = _clear_points(b, rng, 2)
    for fn, _ in TWO_POINT:
        assert _same_bits(fn(again, complex(x), y), fn(b, complex(x), y))


def _ref_additive(f, points, g, z):
    """I + (F·diag(1/(z − points)))·G, or the stack of them over a 1-d
    z, written out as the additive forms computed it before they shared
    the evaluators' kernel."""
    eye = identity(f.shape[0])
    if np.ndim(z) == 0:
        return eye + (f * (1.0 / (z - points))[None, :]) @ g
    w = 1.0 / (np.asarray(z, dtype=np.complex128)[:, None] - points[None, :])
    return eye + (f[None] * w[:, None, :]) @ g


def test_additive_forms_bitwise_equal_reference(kernel_bundle):
    d = kernel_bundle.data
    rng = np.random.default_rng(d.n + 7)
    pts = _clear_points(kernel_bundle, rng, 5)
    points = [p for z in pts for p in (complex(z), z, z.real, float(z.real),
                                       int(round(z.real)))]
    points += [pts, pts[:1], list(pts[:3])]
    for fn, f, sing, g in ((additive_eval_R, d.F_P, d.poles, d.G_P),
                           (additive_eval_Rinv, d.F_N, d.zeros, d.G_N)):
        for z in points:
            assert _same_bits(fn(d, z), _ref_additive(f, sing, g, z)), (
                fn.__name__, z)


def test_unit_scale_forms_identity_plus_or_minus_the_product(kernel_bundle):
    # on finite data, I ± P is I + (±1.0)·P bit for bit, one point or a
    # stack; where P overflows, a stack of one keeps the one-point bits
    d = kernel_bundle.data
    rng = np.random.default_rng(d.n + 8)
    w = 1.0 / (_clear_points(kernel_bundle, rng, 4)[:, None] - d.poles)
    for u in (w[0], w, w[:1]):
        p = _scaled(d.F_P, u) @ d.G_N
        for scale, want in ((1.0, identity(d.k) + p),
                            (-1.0, identity(d.k) - p)):
            got = _form(scale, d.F_P, u, d.G_N)
            assert _same_bits(got, want), scale
            assert _same_bits(got, identity(d.k) + scale * p), scale
    huge = np.array([[1e200 + 0j]])
    with np.errstate(over="ignore", invalid="ignore"):
        one = _form(-1.0, huge, huge[0], huge.T / 1e200)
        assert _same_bits(_form(-1.0, huge, huge, huge.T / 1e200)[0], one)
    assert one[0, 0].real == -np.inf


@pytest.mark.parametrize("z", [float("nan"), complex(float("nan"), 1.0),
                               float("inf"), -float("inf"),
                               complex(1.0, -float("inf")),
                               complex(float("inf"), float("inf"))],
                         ids=["nan", "nan-real", "inf", "-inf", "-inf-imag",
                              "inf-both"])
def test_a_non_finite_point_gives_the_general_paths_bits(kernel_bundle, z):
    # NaN takes the general path and an infinite point the one-point
    # path; each gives the bits of the same point as a stack of one
    b = kernel_bundle
    clear = complex(_clear_points(b, np.random.default_rng(b.n + 6), 1)[0])
    with np.errstate(invalid="ignore"):
        for fn, _ in ONE_POINT:
            got = fn(b, z)
            assert _same_bits(got, fn(b, np.array([z]))[0]), fn.__name__
            if b.n == 0:
                assert _same_bits(got, identity(b.k))
        for fn, _ in TWO_POINT:
            for x, y in ((z, clear), (clear, z), (z, z)):
                got = fn(b, x, y)
                assert _same_bits(got, fn(b, np.array([x]),
                                          np.array([y]))[0]), fn.__name__


def _hit_message(z, points):
    with pytest.raises(PoleHitError) as exc:
        _gaps(z, points)
    return str(exc.value)


def test_a_point_that_hits_a_singularity_raises_the_checks_error():
    b = random_instance(2, 5, seed=81)
    d = b.data
    clear = complex(_clear_points(b, np.random.default_rng(7), 1)[0])
    one = ((rz.eval_R, d.poles), (rz.eval_Rinv, d.zeros),
           (rz.eval_R_left, d.poles), (rz.eval_Rinv_left, d.zeros))
    for fn, points in one:
        for near in (complex(points[2]) + 1e-13, points[2],
                     points[2] - 1e-13j):
            with pytest.raises(PoleHitError) as exc:
                fn(b, near)
            assert str(exc.value) == _hit_message(near, points), fn.__name__
    two = ((rz.eval_joint_right, d.poles, d.zeros),
           (rz.eval_joint_left, d.zeros, d.poles),
           (rz.eval_hybrid_right, d.poles, d.zeros),
           (rz.eval_hybrid_left, d.zeros, d.poles))
    for fn, x_points, y_points in two:
        near_x = complex(x_points[1]) + 1e-13
        near_y = complex(y_points[4]) - 1e-13j
        for x, y, want in ((near_x, clear, _hit_message(near_x, x_points)),
                           (clear, near_y, _hit_message(near_y, y_points)),
                           (near_x, near_y, _hit_message(near_x, x_points))):
            with pytest.raises(PoleHitError) as exc:
                fn(b, x, y)
            assert str(exc.value) == want, fn.__name__


@pytest.mark.parametrize("bad", ["x", b"2.5", None, 10**400],
                         ids=["str", "bytes", "none", "huge-int"])
def test_a_point_that_is_not_a_number_is_refused_with_the_checks_message(
        bad):
    b = random_instance(2, 5, seed=81)
    want = f"evaluation point {bad!r} is not a number"
    for fn, _ in ONE_POINT:
        with pytest.raises(ValidationError) as exc:
            fn(b, bad)
        assert str(exc.value) == want, fn.__name__
    for fn, _ in TWO_POINT:
        for pair in ((bad, 3.0), (3.0, bad), (bad, bad)):
            with pytest.raises(ValidationError) as exc:
                fn(b, *pair)
            assert str(exc.value) == want, fn.__name__


@pytest.mark.parametrize("n", [0, 3])
def test_results_are_fresh_writable_arrays(n):
    b = _empty_bundle(2) if n == 0 else random_instance(2, n, seed=81)
    pts = np.array([100.0, -50.0j])
    for call in (lambda: rz.eval_R(b, 100.0), lambda: rz.eval_R(b, pts),
                 lambda: rz.eval_joint_left(b, 100.0, -50.0j),
                 lambda: rz.eval_joint_left(b, pts, pts[::-1])):
        want = call().copy()
        got = call()
        assert got.flags.writeable
        got[...] = 7.0
        assert _same_bits(call(), want)
    eye = identity(2)
    assert eye.flags.writeable
    eye[0, 0] = 7.0
    assert identity(2)[0, 0] == 1.0


def test_empty_batch_has_no_rows():
    b = random_instance(2, 4, seed=3)
    empty = np.zeros(0, dtype=np.complex128)
    assert rz.eval_R(b, empty).shape == (0, 2, 2)
    assert rz.eval_joint_left(b, empty, empty).shape == (0, 2, 2)


def test_batch_pole_hit_names_first_offending_point():
    b = random_instance(2, 5, seed=81)
    d = b.data
    clear = _clear_points(b, np.random.default_rng(4), 4)
    near = d.poles[3] + 1e-13
    pts = np.array([clear[0], clear[1], near, d.poles[1], clear[2]])
    with pytest.raises(PoleHitError) as exc:
        rz.eval_R(b, pts)
    with pytest.raises(PoleHitError) as one:
        rz.eval_R(b, complex(near))
    assert exc.value.point == complex(near)
    assert exc.value.singularity == complex(d.poles[3])
    assert exc.value.singularity == one.value.singularity
    assert exc.value.distance == one.value.distance

    # the second argument of a two-point form is checked against the zeros
    ys = np.array([clear[0], d.zeros[2], clear[1], clear[2], clear[3]])
    with pytest.raises(PoleHitError) as exc:
        rz.eval_joint_right(b, clear[[0, 1, 2, 3, 0]], ys)
    assert exc.value.point == complex(d.zeros[2])
    assert exc.value.singularity == complex(d.zeros[2])


TWO_POINT_FORMS = (rz.eval_joint_right, rz.eval_joint_left,
                   rz.eval_hybrid_right, rz.eval_hybrid_left)


@pytest.mark.parametrize("fn", TWO_POINT_FORMS, ids=lambda f: f.__name__)
def test_two_point_forms_take_lists_like_arrays(fn):
    b = random_instance(2, 3, seed=5)
    xs, ys = [3.0, 2.5 + 1j, 4], [-3.0, 3.5j, 4]
    want = fn(b, np.array(xs, dtype=complex), np.array(ys, dtype=complex))
    assert same_bits(fn(b, xs, ys), want)
    assert same_bits(fn(b, xs[0], ys), fn(b, xs[0], np.array(ys)))


@pytest.mark.parametrize("fn", TWO_POINT_FORMS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("xs, ys", [([3.0, 4.0], [5.0, 6.0, 7.0]),
                                    ([3.0], [5.0, 6.0, 7.0])])
def test_two_point_forms_refuse_stacks_of_unequal_length(fn, xs, ys):
    b = random_instance(2, 3, seed=5)
    with pytest.raises(ValidationError) as exc:
        fn(b, np.array(xs), np.array(ys))
    assert str(exc.value) == (f"x has {len(xs)} points and y has {len(ys)}; "
                              f"a stack of pairs needs equal lengths")


def test_batch_rejects_higher_rank_points():
    b = random_instance(2, 3, seed=5)
    with pytest.raises(ValidationError):
        rz.eval_R(b, np.full((2, 2), 5.0 + 0j))


def test_cached_half_products_equal_fresh_products():
    b = random_instance(3, 9, seed=13)
    d = b.data
    assert "Sr_inv_G_N" not in vars(b)
    np.testing.assert_array_equal(b.Sr_inv_G_N, b.Sr_inv @ d.G_N)
    np.testing.assert_array_equal(b.F_P_Sr_inv, d.F_P @ b.Sr_inv)
    np.testing.assert_array_equal(b.inverse.Sr_inv_G_N, b.Sl_inv @ d.G_P)
    np.testing.assert_array_equal(b.inverse.F_P_Sr_inv, d.F_N @ b.Sl_inv)
    assert b.Sr_inv_G_N is b.Sr_inv_G_N


def test_replaced_bundle_does_not_inherit_cached_products():
    b = random_instance(2, 4, seed=17)
    cached = {name: getattr(b, name) for name in
              ("Sr_inv_G_N", "F_P_Sr_inv", "inverse")}
    d = b.data
    scaled = ZeroPoleData(poles=d.poles, zeros=d.zeros,
                          F_P=2.0 * d.F_P, G_P=0.5 * d.G_P,
                          F_N=2.0 * d.F_N, G_N=0.5 * d.G_N)
    other = dataclasses.replace(b, data=scaled)
    for name in cached:
        assert name not in vars(other)
    np.testing.assert_array_equal(other.Sr_inv_G_N, b.Sr_inv @ scaled.G_N)
    np.testing.assert_array_equal(other.F_P_Sr_inv, scaled.F_P @ b.Sr_inv)
    np.testing.assert_array_equal(other.inverse.Sr_inv_G_N,
                                  b.Sl_inv @ scaled.G_P)
    np.testing.assert_array_equal(other.inverse.F_P_Sr_inv,
                                  scaled.F_N @ b.Sl_inv)
    assert not np.array_equal(other.Sr_inv_G_N, cached["Sr_inv_G_N"])


# ---------------------------------------------------------------------------
# the bundle of R⁻¹


def test_the_inverse_bundle_is_the_mirror_with_its_matrices_swapped(
        kernel_bundle):
    b = kernel_bundle
    m = b.inverse
    assert m.inverse is b and b.inverse is m
    d, md = b.data, m.data
    assert (md.k, md.n) == (d.k, d.n)
    for name, mirrored in (("poles", "zeros"), ("zeros", "poles"),
                           ("F_P", "F_N"), ("G_P", "G_N"),
                           ("F_N", "F_P"), ("G_N", "G_P")):
        assert getattr(md, name) is getattr(d, mirrored), name
        assert getattr(md.mirror(), name) is getattr(d, name), name
    for name, mirrored in (("Sr", "Sl"), ("Sl", "Sr"),
                           ("Sr_inv", "Sl_inv"), ("Sl_inv", "Sr_inv")):
        assert getattr(m, name) is getattr(b, mirrored), name
    swap = {"coupling_a": "coupling_b", "coupling_b": "coupling_a",
            "coupling_c": "coupling_d", "coupling_d": "coupling_c"}
    assert m.diagnostics == {swap.get(name, name): value
                             for name, value in b.diagnostics.items()}
    # it is the build of the mirrored data, bit for bit
    assert_same_bundle(m, reference_build_bundle(d.mirror()))


def _unread_copy(b):
    """A fresh datum with b's arrays, built: nothing of it is read yet."""
    d = ZeroPoleData(**{name: getattr(b.data, name) for name in
                        ("poles", "zeros", "F_P", "G_P", "F_N", "G_N")})
    return rz.build_bundle(d)


def test_the_right_forms_never_read_the_left_inverse(kernel_bundle):
    c = _unread_copy(kernel_bundle)
    assert rz._built[c.data][3] is None
    pts = _clear_points(c, np.random.default_rng(c.n + 21), 4)
    for z in (complex(pts[0]), pts):
        rz.eval_R(c, z)
        rz.eval_Rinv(c, z)
        rz.eval_joint_right(c, z, pts[1] if z is pts else complex(pts[1]))
        rz.eval_hybrid_left(c, z, pts[2] if z is pts else complex(pts[2]))
    assert "Sl_inv" not in vars(c) and "inverse" not in vars(c)
    assert rz._built[c.data][3] is None
    # a left form reads it once, through the bundle of R⁻¹
    rz.eval_R_left(c, complex(pts[0]))
    assert rz._built[c.data][3] is c.Sl_inv is c.inverse.Sr_inv


def test_the_left_two_point_forms_name_x_before_y(kernel_bundle):
    b = kernel_bundle
    d = b.data
    if b.n == 0:
        return
    for fn, x_points, y_points in ((rz.eval_joint_left, d.zeros, d.poles),
                                   (rz.eval_hybrid_right, d.poles, d.zeros)):
        x, y = complex(x_points[-1]), complex(y_points[0])
        for pair in ((x, y), (np.array([x]), np.array([y]))):
            with pytest.raises(PoleHitError) as exc:
                fn(b, *pair)
            assert exc.value.point == x and exc.value.singularity == x


def _reference_factorize_residuals(b, res, contour, n_samples=40):
    """The per-point verification loop factorize ran before it batched:
    the product residual and the Schur-complement agreement, sample by
    sample."""
    from zpreal.factorization import _sample_ring
    d = b.data
    split = res.split
    n_plus, n_minus = split.n_plus, split.n_minus
    p_ord, n_ord = list(split.pole_order), list(split.zero_order)
    s_perm = b.Sr[np.ix_(n_ord, p_ord)]
    s11, s12 = s_perm[:n_plus, :n_plus], s_perm[:n_plus, n_plus:]
    s21, s22 = s_perm[n_plus:, :n_plus], s_perm[n_plus:, n_plus:]
    inv11 = inverse(s11)
    w12, w21 = inv11 @ s12, s21 @ inv11
    delta_inv = inverse(s22 - w21 @ s12)
    fp_alt = d.F_P[:, p_ord] @ np.vstack([-w12, identity(n_minus)])
    gn_alt = np.hstack([-w21, identity(n_minus)]) @ d.G_N[n_ord, :]
    lam_out = d.poles[list(split.idxP_minus)]
    worst_prod = worst_agree = 0.0
    for z in _sample_ring(contour, d.poles, n_samples):
        z = complex(z)
        r_minus = rz.eval_R(res.minus, z)
        product = rz.eval_R(res.plus, z) @ r_minus
        worst_prod = max(worst_prod, frobenius(product - rz.eval_R(b, z)))
        alt = identity(d.k)
        if n_minus:
            w = 1.0 / (z - lam_out)
            alt = alt - (fp_alt * w[None, :]) @ (delta_inv @ gn_alt)
        worst_agree = max(worst_agree, frobenius(r_minus - alt))
    return worst_prod, worst_agree


@pytest.mark.parametrize("k, n_plus, n_minus, seed",
                         [(2, 8, 8, 15), (2, 3, 3, 88), (3, 2, 2, 13),
                          (1, 3, 0, 5), (2, 0, 3, 6)])
def test_factorize_residuals_match_per_point_loop(k, n_plus, n_minus, seed):
    from helpers import balanced_instance
    from zpreal import factorization as fz

    unit = fz.CircleContour(0.0, 1.0)
    b = balanced_instance(k, n_plus, n_minus, seed)
    res = fz.factorize(b, unit)
    got = {c.name: c.residual for c in res.report.checks}
    want_prod, want_agree = _reference_factorize_residuals(b, res, unit)
    # batching may only reorder the sums inside each norm
    assert got["product_at_samples"] == pytest.approx(want_prod, rel=1e-12)
    assert got["minus_formula_agreement"] == pytest.approx(want_agree,
                                                           rel=1e-12)


# ---------------------------------------------------------------------------
# the recorded build: each datum is built once


# the (k, n) cells of the construct benchmark
CONSTRUCT_SHAPES = ((1, 8), (4, 8), (1, 32), (4, 32), (4, 128))


def _assert_rebuild_is_from_scratch(b):
    """b and a rebuild of its data both hold the from-scratch build."""
    want = reference_build_bundle(b.data)
    assert_same_bundle(b, want)
    assert_same_bundle(rz.build_bundle(b.data), want)


@pytest.mark.parametrize("k, n", CONSTRUCT_SHAPES)
@pytest.mark.parametrize("seed", [3, 4])
def test_rebuild_of_a_random_instance_is_its_from_scratch_build(k, n, seed):
    b = random_instance(k, n, seed, GeneratorGeometry(max_retries=300))
    _assert_rebuild_is_from_scratch(b)


@pytest.mark.parametrize("route", [synthesize, synthesize_hybrid])
@pytest.mark.parametrize("k, n, seed", [(1, 1, 1), (2, 6, 2), (4, 12, 3)])
def test_rebuild_of_a_synthesis_is_its_from_scratch_build(route, k, n, seed):
    rng = np.random.default_rng(seed)
    pts = separated_points(rng, 2 * n, min_sep=0.2)
    inp = SynthesisInput(F=random_complex(rng, k, n),
                         G=random_complex(rng, n, k),
                         pole_points=pts[:n], zero_points=pts[n:])
    _assert_rebuild_is_from_scratch(route(inp))


@pytest.mark.parametrize("k, n_plus, n_minus, seed",
                         [(1, 2, 2, 1), (2, 3, 1, 2), (3, 0, 3, 3),
                          (4, 3, 0, 4), (2, 4, 4, 5)])
def test_rebuild_of_a_factor_is_its_from_scratch_build(k, n_plus, n_minus,
                                                       seed):
    res = fz.factorize(balanced_instance(k, n_plus, n_minus, seed),
                       fz.CircleContour(0.0, 1.0))
    _assert_rebuild_is_from_scratch(res.plus)
    _assert_rebuild_is_from_scratch(res.minus)


def test_first_build_solves_and_inverts_and_a_rebuild_does_neither(
        monkeypatch):
    b = random_instance(2, 6, seed=5)
    d = ZeroPoleData(**{name: getattr(b.data, name) for name in
                        ("poles", "zeros", "F_P", "G_P", "F_N", "G_N")})
    inverses = count_calls(monkeypatch, linalg.inverse)
    solves = count_calls(monkeypatch, rz._sylvester)
    first = rz.build_bundle(d)
    # Sr⁻¹ at once, Sl⁻¹ on its first read
    assert (len(solves), len(inverses)) == (2, 1)
    sl_inv = first.Sl_inv
    assert (len(solves), len(inverses)) == (2, 2)
    assert rz.build_bundle(d).Sl_inv is sl_inv
    rz.build_bundle(b.data)
    assert (len(solves), len(inverses)) == (2, 2)
    assert_same_bundle(first, b)


def test_a_rebuild_shares_the_matrices_and_copies_the_diagnostics():
    b = random_instance(2, 4, seed=9)
    again = rz.build_bundle(b.data)
    assert again is not b and again.data is b.data
    for name in ("Sr", "Sl", "Sr_inv", "Sl_inv"):
        assert getattr(again, name) is getattr(b, name)
    again.diagnostics["mutual_inverse"] = 1.0
    again.diagnostics["extra"] = 2.0
    assert_same_bundle(rz.build_bundle(b.data), reference_build_bundle(b.data))
    assert "extra" not in b.diagnostics


@pytest.mark.parametrize("n", [0, 4])
def test_bundle_matrices_are_read_only(n):
    b = rz.build_bundle(ZeroPoleData.empty(2)) if n == 0 else \
        random_instance(2, n, seed=13)
    for bundle in (b, rz.build_bundle(b.data)):
        for owner, name in (
                *((bundle, name) for name in ("Sr", "Sl", "Sr_inv", "Sl_inv",
                                              "Hr", "Hl", "Sr_inv_G_N",
                                              "F_P_Sr_inv")),
                (bundle.inverse, "Sr_inv_G_N"),
                (bundle.inverse, "F_P_Sr_inv")):
            with pytest.raises(ValueError):
                getattr(owner, name)[...] = 0
    assert np.array(b.Sr).flags.writeable
    assert np.array(b.Sr_inv_G_N).flags.writeable


# ---------------------------------------------------------------------------
# Sl⁻¹ left to its first read


def _assert_deferred_sl_inverse(b):
    """b's build left Sl⁻¹ to its first read, which is inverse(Sl) bit
    for bit, read-only, recorded for the data and shared by every bundle
    of it, including one built before the read."""
    before = rz.build_bundle(b.data)
    assert "Sl_inv" not in vars(b) and "Sl_inv" not in vars(before)
    assert rz._built[b.data][3] is None
    got = before.Sl_inv
    assert same_bits(got, inverse(b.Sl))
    assert not got.flags.writeable
    assert rz._built[b.data][3] is got
    assert b.Sl_inv is got and rz.build_bundle(b.data).Sl_inv is got


@pytest.mark.parametrize("k, n", CONSTRUCT_SHAPES)
@pytest.mark.parametrize("seed", [5, 6])
def test_a_random_instance_reads_its_sl_inverse_from_inverse_of_sl(k, n,
                                                                   seed):
    b = random_instance(k, n, seed, GeneratorGeometry(max_retries=300))
    _assert_deferred_sl_inverse(b)


def test_loaded_data_reads_its_sl_inverse_from_inverse_of_sl(tmp_path):
    path = tmp_path / "inst.json"
    save_instance(random_instance(3, 9, seed=7).data, path)
    d, _ = load_instance(path)
    b = rz.build_bundle(d)
    _assert_deferred_sl_inverse(b)
    assert_same_bundle(b, reference_build_bundle(d))


@pytest.mark.parametrize("k, n_plus, n_minus, seed",
                         [(1, 2, 2, 1), (2, 3, 1, 2), (4, 3, 3, 4)])
def test_factors_read_their_sl_inverse_from_inverse_of_sl(k, n_plus,
                                                          n_minus, seed):
    res = fz.factorize(balanced_instance(k, n_plus, n_minus, seed),
                       fz.CircleContour(0.0, 1.0))
    # the inside factor is a right-route synthesis; the outside one is
    # hybrid, whose Sl is its own S, inverted with it
    _assert_deferred_sl_inverse(res.plus)
    held = rz._built[res.minus.data][3]
    assert held is not None and res.minus.Sl_inv is held
    assert same_bits(held, inverse(res.minus.Sl))


def test_the_certificate_refuses_a_product_bound_of_one_or_more():
    # η ≈ 1.8e5 here; past the guard, 1 − η turns κ negative, and a
    # negative bound would pass
    assert not rz._defers_left_inverse(2, 1e40, 0.0)


def test_a_build_the_certificate_cannot_vouch_for_inverts_sl_at_once(
        monkeypatch):
    # Sr = diag(1, 1/3e11), and Sl is Sr's inverse: inverse accepts
    # both, at n·‖Sl‖∞·‖Sl⁻¹‖∞·1e-13 = 0.06, but the certificate, which
    # bounds ‖Sl‖∞·‖Sr‖∞ by n·‖Sl‖_F·‖Sr‖_F, puts it at 0.12
    poles, zeros = np.array([0.0, 10.0]), np.array([1.0, 11.0])
    f_p = np.diag([1.0, 1 / 3e5]).astype(complex)
    g_n = np.diag([1.0, 1e-6]).astype(complex)
    sr = g_n @ f_p / (zeros[:, None] - poles[None, :])
    sr_inv = np.linalg.inv(sr)
    d = ZeroPoleData(poles=poles, zeros=zeros, F_P=f_p, G_P=-sr_inv @ g_n,
                     F_N=f_p @ sr_inv, G_N=g_n)
    want = reference_build_bundle(d)
    ff = frobenius(want.Sl) ** 2 * frobenius(want.Sr) ** 2
    assert not rz._defers_left_inverse(2, ff,
                                       want.diagnostics["mutual_inverse"])
    inverses = count_calls(monkeypatch, linalg.inverse)
    b = rz.build_bundle(d)
    assert len(inverses) == 2
    held = rz._built[d][3]
    assert held is not None and b.Sl_inv is held
    assert_same_bundle(b, want)


def test_a_deferred_inverse_that_refuses_raises_the_builds_error(monkeypatch):
    b = random_instance(2, 4, seed=9)
    refusal = SingularMatrixError("matrix is numerically singular: test")

    def refuse(a):
        raise refusal

    monkeypatch.setattr(rz, "inverse", refuse)
    for read in (lambda: b.Sl_inv, lambda: rz.eval_R_left(b, 3 + 1j)):
        with pytest.raises(InconsistentDataError) as exc:
            read()
        assert str(exc.value) == f"coupling matrix not invertible ({refusal})"
        assert exc.value.diagnostics == b.diagnostics
        assert exc.value.__cause__ is refusal
    assert rz._built[b.data][3] is None
    monkeypatch.undo()
    assert same_bits(b.Sl_inv, inverse(b.Sl))


COPIERS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda b: pickle.loads(pickle.dumps(b)),
    "by-hand": lambda b: rz.RealizationBundle(
        data=ZeroPoleData(**{name: getattr(b.data, name) for name in
                             ("poles", "zeros", "F_P", "G_P", "F_N", "G_N")}),
        Sr=b.Sr, Sl=b.Sl, Sr_inv=b.Sr_inv, cond_Sr=b.cond_Sr),
}


@pytest.mark.parametrize("copier", COPIERS.values(), ids=COPIERS)
def test_a_bundle_without_the_record_inverts_sl_on_first_read(copier):
    b = random_instance(2, 5, seed=31)
    c = copier(b)
    assert "Sl_inv" not in vars(c)
    got = c.Sl_inv
    assert same_bits(got, inverse(b.Sl)) and not got.flags.writeable
    assert c.Sl_inv is got


def test_inconsistent_data_is_refused_on_every_call(d2, monkeypatch):
    bad = dataclasses.replace(d2, G_N=-d2.G_N)
    inverses = count_calls(monkeypatch, linalg.inverse)
    solves = count_calls(monkeypatch, rz._sylvester)
    refusals = []
    for _ in range(3):
        with pytest.raises(InconsistentDataError) as exc:
            rz.build_bundle(bad)
        refusals.append((str(exc.value), exc.value.diagnostics))
    assert refusals[0] == refusals[1] == refusals[2]
    assert len(solves) == 6 and len(inverses) == 0


def test_one_sided_factorize_builds_its_empty_side_once_per_k(monkeypatch):
    c = fz.CircleContour(0.0, 1.0)
    for k, n_plus, n_minus, want in ((2, 3, 0, 2), (2, 0, 3, 4)):
        b = balanced_instance(k, n_plus, n_minus, seed=5)
        fz.factorize(b, c)
        inverses = count_calls(monkeypatch, linalg.inverse)
        first = fz.factorize(b, c)
        # S11, the nonempty factor's Sl and Sr (the inside one reuses
        # S11's inversion as its Sr⁻¹ and leaves Sl⁻¹ to its first
        # read), the Schur complement
        assert len(inverses) == want
        second = fz.factorize(b, c)
        empty = first.minus if n_minus == 0 else first.plus
        again = second.minus if n_minus == 0 else second.plus
        assert empty.n == 0 and empty.data is again.data
        assert empty.diagnostics is not again.diagnostics
        monkeypatch.undo()
