import numpy as np
import pytest
from numpy.testing import assert_allclose

from helpers import partial_fraction_residues, separated_points

from zpreal.cauchy import (
    ScalarZeroPole,
    cauchy_det_squared,
    cauchy_inverse_formula,
    cauchy_matrix,
    scalar_eval,
    scalar_joint_eval,
    scalar_system_representation,
)
from zpreal.errors import (
    CollisionError,
    DegenerateDerivativeError,
    PoleHitError,
    ValidationError,
)
from zpreal.linalg import frobenius, identity, inverse


D1 = ScalarZeroPole(poles=(0,), zeros=(1,))  # r(z) = (z-1)/z


def test_scalar_eval_hand_value():
    assert_allclose(scalar_eval(D1, 2.0), 0.5)


def test_scalar_eval_vanishes_at_zero():
    assert scalar_eval(D1, 1.0) == 0


def test_scalar_eval_at_infinity_recovers_c():
    d = ScalarZeroPole(poles=(0.5, 2.0), zeros=(0.3, 3.0), c=2.5)
    assert abs(scalar_eval(d, 1e8) - 2.5) < 1e-6


def test_scalar_eval_pole_hit():
    with pytest.raises(PoleHitError):
        scalar_eval(D1, 1e-14)


def test_scalar_data_validation():
    with pytest.raises(ValidationError):
        ScalarZeroPole(poles=(0, 1), zeros=(2,))
    with pytest.raises(ValidationError):
        ScalarZeroPole(poles=(0,), zeros=(1,), c=0)
    with pytest.raises(CollisionError):
        ScalarZeroPole(poles=(0, 1.0), zeros=(1.0 + 1e-12, 3.0))


# ---------------------------------------------------------------------------
# cauchy matrix and closed-form inverse


def test_cauchy_matrix_trivial():
    assert_allclose(cauchy_matrix([0], [1]), [[1.0]])


def test_cauchy_matrix_2x2_hand_values():
    s = cauchy_matrix([0, 1], [2, 3])
    assert_allclose(s, [[0.5, 1.0], [1.0 / 3.0, 0.5]])


def test_cauchy_matrix_entry_definition():
    rng = np.random.default_rng(21)
    pts = separated_points(rng, 8)
    lam, mu = pts[:4], pts[4:]
    s = cauchy_matrix(lam, mu)
    for p in range(4):
        for q in range(4):
            # numpy's vectorized complex division can differ from CPython's
            # scalar division in the last ulp, so compare at that scale
            want = 1.0 / (mu[p] - lam[q])
            assert abs(s[p, q] - want) <= 1e-15 * abs(want)


def test_cauchy_matrix_collision():
    with pytest.raises(CollisionError):
        cauchy_matrix([0.0], [1e-11])


def test_inverse_formula_trivial():
    assert_allclose(cauchy_inverse_formula([0], [1]), [[1.0]])


def test_inverse_formula_against_lu_oracle():
    rng = np.random.default_rng(22)
    pts = separated_points(rng, 12)
    lam, mu = pts[:6], pts[6:]
    h = cauchy_inverse_formula(lam, mu)
    assert frobenius(h - inverse(cauchy_matrix(lam, mu))) <= 1e-9


def test_inverse_formula_independent_of_c():
    rng = np.random.default_rng(23)
    pts = separated_points(rng, 8)
    lam, mu = pts[:4], pts[4:]
    h1 = cauchy_inverse_formula(lam, mu, c=1.0)
    h5 = cauchy_inverse_formula(lam, mu, c=5.0)
    assert_allclose(h1, h5, rtol=1e-14, atol=1e-14)


def test_inverse_formula_times_matrix_is_identity_up_to_n10():
    rng = np.random.default_rng(24)
    for n in range(1, 11):
        pts = separated_points(rng, 2 * n)
        lam, mu = pts[:n], pts[n:]
        h = cauchy_inverse_formula(lam, mu)
        s = cauchy_matrix(lam, mu)
        assert frobenius(h @ s - identity(n)) <= 1e-8
        assert frobenius(s @ h - identity(n)) <= 1e-8


def test_degenerate_derivative_on_clustered_zeros():
    # zeros packed within ~5e-3 of each other are far above the collision
    # gate but drive r'(mu_q) below the derivative floor
    mu = [1.0 + 1e-3 * k for k in range(6)]
    lam = [10.0 + k for k in range(6)]
    with pytest.raises(DegenerateDerivativeError):
        cauchy_inverse_formula(lam, mu)


# ---------------------------------------------------------------------------
# determinant identity


def test_det_squared_trivial():
    assert_allclose(cauchy_det_squared([0], [1]), 1.0)


def test_det_squared_against_lu_oracle():
    rng = np.random.default_rng(25)
    for n in range(1, 9):
        pts = separated_points(rng, 2 * n)
        lam, mu = pts[:n], pts[n:]
        closed = cauchy_det_squared(lam, mu)
        via_lu = np.linalg.det(cauchy_matrix(lam, mu)) ** 2
        assert abs(closed - via_lu) <= 1e-8 * abs(via_lu)


def test_det_squared_symmetric_in_pole_order():
    rng = np.random.default_rng(26)
    pts = separated_points(rng, 8)
    lam, mu = pts[:4], pts[4:]
    swapped = [lam[1], lam[0], lam[2], lam[3]]
    assert_allclose(cauchy_det_squared(lam, mu),
                    cauchy_det_squared(swapped, mu), rtol=1e-12)


# ---------------------------------------------------------------------------
# partial fractions and joint evaluation


def test_system_representation_hand_values():
    xi, eta = scalar_system_representation(D1)
    assert_allclose(xi, [-1.0])
    assert_allclose(eta, [1.0])


def test_system_representation_requires_unit_c():
    d = ScalarZeroPole(poles=(0,), zeros=(1,), c=2.0)
    with pytest.raises(ValidationError):
        scalar_system_representation(d)


def reconstruct(z, points, coeffs):
    return 1.0 + sum(c / (z - p) for c, p in zip(coeffs, points))


def test_system_representation_vanishes_on_zeros():
    rng = np.random.default_rng(27)
    pts = separated_points(rng, 10)
    d = ScalarZeroPole(poles=pts[:5], zeros=pts[5:])
    xi, eta = scalar_system_representation(d)
    for mu in d.zeros:
        assert abs(reconstruct(mu, d.poles, xi)) <= 1e-9
    for lam in d.poles:
        assert abs(reconstruct(lam, d.zeros, eta)) <= 1e-9


def test_system_representation_matches_multiplicative_form():
    rng = np.random.default_rng(28)
    pts = separated_points(rng, 8)
    d = ScalarZeroPole(poles=pts[:4], zeros=pts[4:])
    xi, eta = scalar_system_representation(d)
    for _ in range(20):
        z = complex(*rng.uniform(-5, 5, size=2))
        if min(abs(z - p) for p in pts) < 0.1:
            continue
        r = scalar_eval(d, z)
        assert abs(reconstruct(z, d.poles, xi) - r) <= 1e-9
        assert abs(reconstruct(z, d.zeros, eta) - 1.0 / r) <= 1e-9


def test_system_representation_matches_residue_oracle():
    # residues computed straight from the product form, no linear solve
    rng = np.random.default_rng(29)
    pts = separated_points(rng, 8)
    d = ScalarZeroPole(poles=pts[:4], zeros=pts[4:])
    xi, eta = scalar_system_representation(d)
    assert_allclose(xi, partial_fraction_residues(d.poles, d.zeros), rtol=1e-9)
    assert_allclose(eta, partial_fraction_residues(d.zeros, d.poles), rtol=1e-9)


def test_joint_eval_diagonal_unity():
    rng = np.random.default_rng(30)
    pts = separated_points(rng, 6)
    d = ScalarZeroPole(poles=pts[:3], zeros=pts[3:])
    for _ in range(100):
        x = complex(*rng.uniform(-4, 4, size=2))
        if min(abs(x - p) for p in pts) < 0.05:
            continue
        assert abs(scalar_joint_eval(d, x, x) - 1.0) <= 1e-12


def test_joint_eval_large_y_recovers_direct_value():
    rng = np.random.default_rng(31)
    pts = separated_points(rng, 6)
    d = ScalarZeroPole(poles=pts[:3], zeros=pts[3:])
    x = 5.0 + 1.5j
    assert abs(scalar_joint_eval(d, x, 1e8) - scalar_eval(d, x)) < 1e-6


def test_joint_eval_matches_multiplicative_oracle():
    rng = np.random.default_rng(32)
    pts = separated_points(rng, 10)
    d = ScalarZeroPole(poles=pts[:5], zeros=pts[5:])
    for _ in range(20):
        x, y = (complex(*rng.uniform(-5, 5, size=2)) for _ in range(2))
        if min(abs(x - p) for p in pts) < 0.1 or min(abs(y - p) for p in pts) < 0.1:
            continue
        want = scalar_eval(d, x) / scalar_eval(d, y)
        assert abs(scalar_joint_eval(d, x, y) - want) <= 1e-9 * max(1.0, abs(want))


# ---------------------------------------------------------------------------
# the coupling identity behind everything


def test_sylvester_identity_entrywise():
    rng = np.random.default_rng(33)
    pts = separated_points(rng, 12)
    lam, mu = np.asarray(pts[:6]), np.asarray(pts[6:])
    s = cauchy_matrix(lam, mu)
    lhs = np.diag(mu) @ s - s @ np.diag(lam)
    rhs = np.ones((6, 6), dtype=complex)
    assert np.abs(lhs - rhs).max() <= 1e-12
