import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from numpy.testing import assert_allclose

from zpreal.errors import DimensionMismatchError, SingularMatrixError
from zpreal.linalg import (
    cond_frobenius,
    frobenius,
    identity,
    inverse,
    max_frobenius,
    rank,
    solve,
)


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# ---------------------------------------------------------------------------
# solve / inverse


def test_solve_identity_case():
    rng = np.random.default_rng(1)
    b = random_complex(rng, 3, 2)
    assert_allclose(solve(identity(3), b), b)


def test_solve_scalar_division():
    assert_allclose(solve(np.array([[2.0]]), np.array([[4.0]])), np.array([[2.0]]))


def test_solve_residual_well_conditioned():
    rng = np.random.default_rng(2)
    for _ in range(20):
        a = random_complex(rng, 5, 5) + 3 * identity(5)
        b = random_complex(rng, 5, 5)
        x = solve(a, b)
        assert frobenius(a @ x - b) <= 1e-10 * frobenius(b)


def test_solve_vector_rhs_keeps_shape():
    rng = np.random.default_rng(3)
    a = random_complex(rng, 4, 4) + 4 * identity(4)
    b = random_complex(rng, 4)
    x = solve(a, b)
    assert x.shape == (4,)
    assert_allclose(a @ x, b, atol=1e-10)


def test_solve_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        solve(identity(3), np.ones(2))


def test_solve_singular_raises():
    a = np.array([[1.0, 2.0], [2.0, 4.0]])  # rank one
    with pytest.raises(SingularMatrixError):
        solve(a, np.eye(2))


def test_solve_zero_matrix_raises():
    with pytest.raises(SingularMatrixError):
        solve(np.zeros((3, 3)), np.eye(3))


def test_inverse_diagonal():
    assert_allclose(inverse(np.diag([1.0, 2.0])), np.diag([1.0, 0.5]))


def test_inverse_1x1_imaginary():
    assert_allclose(inverse(np.array([[1j]])), np.array([[-1j]]))


def test_inverse_involution():
    rng = np.random.default_rng(4)
    a = random_complex(rng, 4, 4) + 2 * identity(4)
    assert_allclose(inverse(inverse(a)), a, atol=1e-10)


@pytest.mark.parametrize("n", [8, 32, 128])
def test_inverse_agrees_with_hand_lu(n):
    # the residual stays at the 1e-12·cond scale that LU with partial
    # pivoting guarantees
    rng = np.random.default_rng(100 + n)
    a = random_complex(rng, n, n)
    inv = inverse(a)
    cond = frobenius(a) * frobenius(inv)
    assert frobenius(a @ inv - identity(n)) <= 1e-12 * cond


def test_inverse_well_conditioned_is_lapack_result():
    rng = np.random.default_rng(12)
    a = random_complex(rng, 6, 6) + 3 * identity(6)
    np.testing.assert_array_equal(inverse(a), np.linalg.inv(a))


def test_inverse_inside_the_bound_is_lapack_result():
    # n·‖A‖∞·‖A⁻¹‖∞·1e-13 = 0.02 < 0.1
    a = np.diag([1.0, 1e-11])
    np.testing.assert_array_equal(inverse(a), np.linalg.inv(a))


def test_inverse_refuses_past_the_bound():
    # n·‖A‖∞·‖A⁻¹‖∞·1e-13 = 0.63: refused although LAPACK's result is
    # finite and exact, and no pivot is below 1e-13·‖A‖∞
    a = np.diag([1.0, 10.0 ** -12.5])
    assert np.isfinite(np.linalg.inv(a)).all()
    with pytest.raises(SingularMatrixError):
        inverse(a)
    assert cond_frobenius(a) == float("inf")


@pytest.mark.parametrize("a", [
    np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]]),
    np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0 + 1e-14]]),
], ids=["nearly_rank_one_2x2", "nearly_singular_3x3"])
def test_inverse_refuses_near_singular(a):
    # LAPACK inverts these to finite (huge) values; the bound refuses them
    assert np.isfinite(np.linalg.inv(a)).all()
    with pytest.raises(SingularMatrixError):
        inverse(a)
    assert cond_frobenius(a) == float("inf")


@pytest.mark.parametrize("a", [
    np.array([[1.0, 2.0], [2.0, 4.0]]),
    np.zeros((3, 3)),
], ids=["rank_one", "zero"])
def test_inverse_refuses_singular(a):
    with pytest.raises(SingularMatrixError):
        inverse(a)


def test_inverse_empty_matrix():
    assert inverse(np.zeros((0, 0))).shape == (0, 0)


def test_cond_frobenius_empty_is_one():
    assert cond_frobenius(np.zeros((0, 0))) == 1.0


def test_cond_frobenius_singular_is_inf():
    assert cond_frobenius(np.ones((2, 2))) == float("inf")


def test_solve_empty_system():
    x = solve(np.zeros((0, 0)), np.zeros((0, 3)))
    assert x.shape == (0, 3)


# ---------------------------------------------------------------------------
# rank


def test_rank_zero_matrix():
    assert rank(np.zeros((3, 4))) == 0


def test_rank_outer_product_is_one():
    rng = np.random.default_rng(6)
    f = random_complex(rng, 4)
    g = random_complex(rng, 4)
    assert rank(np.outer(f, g)) == 1


def test_rank_identity():
    assert rank(identity(3)) == 3


def test_rank_rectangular_and_deficient():
    rng = np.random.default_rng(8)
    a = random_complex(rng, 5, 3)
    b = random_complex(rng, 3, 6)
    assert rank(a @ b) == 3


@given(
    st.lists(st.floats(min_value=-10.0, max_value=10.0), min_size=3, max_size=3),
    st.lists(st.floats(min_value=-10.0, max_value=10.0), min_size=3, max_size=3),
)
@example(fs=[0.0, 0.0, 1.0], gs=[0.0, 0.0, 2.225e-313])
def test_rank_one_property(fs, gs):
    f = np.asarray(fs, dtype=complex)
    g = np.asarray(gs, dtype=complex)
    m = np.outer(f, g)
    expected = 1 if np.abs(m).max() > 0 else 0  # tiny entries can underflow to 0
    assert rank(m) == expected


def test_max_frobenius_is_the_running_max_of_frobenius():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3))
    b = rng.standard_normal((2, 3, 3)) + 0j
    want = max(0.0, *(frobenius(s) for s in a), *(frobenius(s) for s in b))
    assert max_frobenius(a, b) == want
    assert max_frobenius(a[0]) == frobenius(a[0])
    assert max_frobenius(np.zeros((0, 2, 2))) == 0.0
    assert max_frobenius() == 0.0
    # a NaN norm is not passed over: the check it feeds must fail
    a[1, 0, 0] = np.nan
    assert np.isnan(max_frobenius(b, a))
    assert np.isnan(max_frobenius(a, b))
