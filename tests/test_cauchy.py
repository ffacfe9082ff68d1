from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from numpy.testing import assert_allclose

from helpers import (
    partial_fraction_residues,
    reference_min_pairwise_distance,
    same_bits,
    separated_points,
)

from zpreal.cauchy import (
    ScalarZeroPole,
    _gaps,
    _min_pairwise_distance,
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
from zpreal.zero_pole import SEP_MIN


D1 = ScalarZeroPole(poles=(0,), zeros=(1,))  # r(z) = (z-1)/z


def test_scalar_eval_hand_value():
    assert_allclose(scalar_eval(D1, 2.0), 0.5)


def test_scalar_eval_vanishes_at_zero():
    assert scalar_eval(D1, 1.0) == 0


def test_scalar_eval_at_infinity_recovers_c():
    d = ScalarZeroPole(poles=(0.5, 2.0), zeros=(0.3, 3.0), c=2.5)
    assert abs(scalar_eval(d, 1e8) - 2.5) < 1e-6


@pytest.mark.parametrize("z", [Fraction(5, 2), Decimal("2.5"),
                               np.float32(2.5), np.int64(3)],
                         ids=["fraction", "decimal", "float32", "int64"])
def test_scalar_forms_read_other_numbers_as_complex(z):
    # as the evaluators do: the bits of the call with complex(z)
    d = ScalarZeroPole(poles=(0, 1), zeros=(2, 3.5))
    assert scalar_eval(d, z) == scalar_eval(d, complex(z))
    for x, y in ((z, 0.5j), (0.5j, z), (z, z)):
        got = scalar_joint_eval(d, x, y)
        assert type(got) is complex
        assert got == scalar_joint_eval(d, complex(x), complex(y))


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


SCALAR_FORMS = {
    "ScalarZeroPole": ScalarZeroPole,
    "cauchy_matrix": cauchy_matrix,
    "cauchy_inverse_formula": cauchy_inverse_formula,
    "cauchy_det_squared": cauchy_det_squared,
}


@pytest.mark.parametrize("form", SCALAR_FORMS.values(), ids=SCALAR_FORMS)
@pytest.mark.parametrize("poles, zeros, message", [
    ([[0, 1]], [2, 3], "poles must be a non-empty 1-d list of points"),
    ([], [], "poles must be a non-empty 1-d list of points"),
    ([0, 1], 5, "zeros must be a non-empty 1-d list of points"),
    ([0, np.nan], [2, 3], "poles contains non-finite points"),
    ([0], [np.inf], "zeros contains non-finite points"),
    (["a"], [1], "poles is not an array of numbers"),
])
def test_every_scalar_form_refuses_malformed_points(form, poles, zeros,
                                                   message):
    with pytest.raises(ValidationError) as exc:
        form(poles, zeros)
    assert str(exc.value) == message


@pytest.mark.parametrize("form", SCALAR_FORMS.values(), ids=SCALAR_FORMS)
def test_every_scalar_form_refuses_unequal_counts(form):
    with pytest.raises(ValidationError, match="^2 poles vs 1 zeros"):
        form([0, 1], [2])


@pytest.mark.parametrize("c, message", [
    (0, "value at infinity must be nonzero"),
    (float("nan"), "value at infinity must be finite"),
    (complex(1, float("inf")), "value at infinity must be finite"),
    ("abc", "value at infinity must be a number"),
    (None, "value at infinity must be a number"),
])
def test_value_at_infinity_must_be_a_finite_nonzero_number(c, message):
    for form in (ScalarZeroPole, cauchy_inverse_formula):
        with pytest.raises(ValidationError) as exc:
            form([0], [1], c)
        assert str(exc.value) == message


@pytest.mark.parametrize("c", ["2", b"2", bytearray(b"2"), True,
                               np.bool_(True)],
                         ids=["str", "bytes", "bytearray", "bool",
                              "np-bool"])
def test_value_at_infinity_is_not_read_from_text_or_a_bool(c):
    # complex() would read "2" and b"2" as 2 and a bool as 1
    for form in (ScalarZeroPole, cauchy_inverse_formula):
        with pytest.raises(ValidationError) as exc:
            form([0], [1], c)
        assert str(exc.value) == "value at infinity must be a number"


@pytest.mark.parametrize("c", [np.complex128(2 - 1j), np.array(2.0),
                               np.array(3), np.array(2 + 1j)],
                         ids=["np-complex128", "0d-float", "0d-int",
                              "0d-complex"])
def test_value_at_infinity_may_be_a_numpy_number(c):
    d = ScalarZeroPole([0], [1], c)
    assert type(d.c) is complex and d.c == complex(c)
    assert same_bits(cauchy_inverse_formula([0], [1], c),
                     cauchy_inverse_formula([0], [1]))


def test_closed_forms_refuse_close_points_as_the_data_does():
    for form in (cauchy_inverse_formula, cauchy_det_squared):
        with pytest.raises(CollisionError) as exc:
            form([0, 1.0], [1.0 + 1e-12, 3.0])
        assert exc.value.separation < 1e-10


def test_joint_eval_requires_unit_c():
    d = ScalarZeroPole(poles=(0,), zeros=(1,), c=2.0)
    with pytest.raises(ValidationError, match="joint form needs c = 1"):
        scalar_joint_eval(d, 2.0, 3.0)


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


# --- the pairwise separation ------------------------------------------------

# few distinct coordinates, so duplicate points and repeated distances are
# common; SEP_MIN and its neighbours put pairs on the separation boundary
_coordinate = st.sampled_from([0.0, 1.0, -1.0, SEP_MIN, -SEP_MIN,
                               np.nextafter(SEP_MIN, 0.0),
                               np.nextafter(SEP_MIN, 1.0), 2.5e-7, 1e300,
                               -1e300, 6e307, -6e307]) | st.floats(-4.0, 4.0)
_points = st.lists(st.builds(complex, _coordinate, _coordinate), max_size=9)


@given(_points)
@example([])
@example([1j])
@example([0j, 0j])
@example([0j, SEP_MIN])
@example([0j, complex(np.nextafter(SEP_MIN, 0.0)), 3.0])
@example([1e300, -1e300, 0j])
@example([6e307, -6e307])
def test_min_pairwise_distance_has_the_bits_of_the_masked_gather(points):
    pts = np.array(points, dtype=np.complex128)
    assert same_bits(_min_pairwise_distance(pts),
                     reference_min_pairwise_distance(pts))


# --- the batch clearance check and NaN points -------------------------------

_SINGULAR = np.array([0.5, 2.0 - 1.0j, -1.0j])
_NAN = complex("nan")


@pytest.mark.parametrize("batch", [
    [_NAN, 2.0 - 1.0j],
    [2.0 - 1.0j, _NAN],
    [0.1, _NAN, 2.0 - 1.0j, complex(1.0, float("nan"))],
], ids=["nan-first", "hit-first", "mixed"])
def test_batch_clearance_is_not_hidden_by_a_nan_point(batch):
    with pytest.raises(PoleHitError) as exc:
        _gaps(np.array(batch), _SINGULAR)
    assert exc.value.point == 2.0 - 1.0j
    assert exc.value.singularity == 2.0 - 1.0j
    assert exc.value.distance == 0.0


@pytest.mark.parametrize("batch", [
    [_NAN], [_NAN, 0.1], [0.1, complex(float("nan"), 2.0), 3.0 + 3.0j], [],
], ids=["nan", "nan-first", "mixed", "empty"])
def test_batch_of_nan_and_clear_points_raises_nothing(batch):
    z = np.array(batch, dtype=np.complex128)
    gaps = _gaps(z, _SINGULAR)
    assert same_bits(gaps, z[:, None] - _SINGULAR[None, :])
    assert same_bits(_gaps(z, _SINGULAR[:0]), z[:, None] - _SINGULAR[:0])
