"""Coupling matrices, bundle diagnostics, and the eight evaluators."""

import cmath
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zpreal.errors import (
    InconsistentDataError,
    PoleHitError,
    SpectraOverlapError,
    ValidationError,
)
from zpreal.cauchy import EVAL_EPS, ScalarZeroPole, cauchy_matrix, scalar_eval
from zpreal.linalg import frobenius, identity, inverse
from zpreal import realization as rz
from zpreal.synthesis import random_instance
from zpreal.zero_pole import (
    SEP_MIN,
    GaugePair,
    ZeroPoleData,
    additive_eval_R,
    additive_eval_Rinv,
    gauge_transform,
)

from conftest import make_d1, make_scalar_instance
from helpers import random_complex, same_bits, separated_points

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
                                   Sr_inv=b.Sr_inv, Sl_inv=b.Sl_inv,
                                   cond_Sr=b.cond_Sr)
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


KERNEL_BUNDLES = ((3, 0, None), (1, 1, 3), (4, 8, 5), (1, 8, 7), (4, 32, 9),
                  (4, 128, 11))


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
            for point in (complex(z), z, z.real):
                got = fn(b, point)
                assert got.shape == (b.k, b.k)
                assert _same_bits(got, ref(b, point)), (fn.__name__, point)


def test_two_point_evaluators_bitwise_equal_reference(kernel_bundle):
    b = kernel_bundle
    rng = np.random.default_rng(b.n + 2)
    xs, ys = _clear_points(b, rng, 5), _clear_points(b, rng, 5)
    for fn, ref in TWO_POINT:
        for x, y in zip(xs, ys):
            got = fn(b, complex(x), y)
            assert got.shape == (b.k, b.k)
            assert _same_bits(got, ref(b, complex(x), y)), fn.__name__


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
    np.testing.assert_array_equal(b.Sl_inv_G_P, b.Sl_inv @ d.G_P)
    np.testing.assert_array_equal(b.F_N_Sl_inv, d.F_N @ b.Sl_inv)
    assert b.Sr_inv_G_N is b.Sr_inv_G_N


def test_replaced_bundle_does_not_inherit_cached_products():
    b = random_instance(2, 4, seed=17)
    cached = {name: getattr(b, name) for name in
              ("Sr_inv_G_N", "F_P_Sr_inv", "Sl_inv_G_P", "F_N_Sl_inv")}
    d = b.data
    scaled = ZeroPoleData(poles=d.poles, zeros=d.zeros,
                          F_P=2.0 * d.F_P, G_P=0.5 * d.G_P,
                          F_N=2.0 * d.F_N, G_N=0.5 * d.G_N)
    other = dataclasses.replace(b, data=scaled)
    for name in cached:
        assert name not in vars(other)
    np.testing.assert_array_equal(other.Sr_inv_G_N, b.Sr_inv @ scaled.G_N)
    np.testing.assert_array_equal(other.F_P_Sr_inv, scaled.F_P @ b.Sr_inv)
    np.testing.assert_array_equal(other.Sl_inv_G_P, b.Sl_inv @ scaled.G_P)
    np.testing.assert_array_equal(other.F_N_Sl_inv, scaled.F_N @ b.Sl_inv)
    assert not np.array_equal(other.Sr_inv_G_N, cached["Sr_inv_G_N"])


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
